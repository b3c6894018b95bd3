//! The four workloads. Each sets up its processes several times (set-up
//! time is the median), drives its traffic from this one process, checks
//! every answer against the one-shot CLI, and reads the drain counters.
//! A traced run drives the same traffic twice — once plain, once with
//! spans — and splits each request across the layers it crossed.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ghr_types::Json;

use crate::cluster::{drain, Conn, Failure, Frame, Proc, IO_DEADLINE, READY_DEADLINE};
use crate::gen::{lateness, schedule, Lateness, Planned, Rng, Zipf, CATALOG, ZIPF_S};
use crate::layers::{self, HitCost, HitProbe, KernelCost, MissCost, StudyProbe, THREADS};
use crate::stats::{median, percentile, tail, windowed_p99};
use crate::trace::Trace;

/// Set-ups per run; `setup_s` is their median. A serve set-up takes tens
/// of milliseconds and a study set-up a few, so both medians rest on
/// enough of them to hold still between runs.
const SETUPS: usize = 9;
const STUDY_SETUPS: usize = 15;
/// Connections (one client thread each, one request in flight each) of
/// the closed loops. One, not the host's two: with two, the two client
/// and two server threads contend for the two cores and the warm p50
/// wanders by about 20% between runs of the same code; with one it holds
/// within a few percent.
const CLOSED_CONNS: usize = 1;
/// Connections of the open loop: the host's two cores, so an arrival
/// finds a free connection while the other waits on a cold evaluation.
const OPEN_CONNS: usize = 2;
/// Session slots for a lone server: the load connections, the drain
/// connection and one spare.
const SERVE_SESSIONS: usize = OPEN_CONNS + 2;
/// Router session slots: the load connections, the drain connection and
/// one spare.
const ROUTER_SESSIONS: usize = CLOSED_CONNS + 2;
/// Session slots per router worker: every router session pools one
/// connection per worker, and the traced run adds one direct connection
/// per client thread plus the readiness and drain connections, so no
/// connection of the benchmark's can ever wait in a listen backlog.
const WORKER_SESSIONS: usize = ROUTER_SESSIONS + CLOSED_CONNS + 2;
/// serve-mixed's open-loop arrival rate, requests per second: a quarter of
/// the rate at which the mix built a queue at this commit on a 2-vCPU host
/// (600/s), where each miss also pays a persistent-store flush with fsync.
pub const MIXED_RATE: f64 = 150.0;
/// Share of serve-mixed's requests that are never-seen ids.
pub const FRESH_SHARE: f64 = 0.1;
/// How far the traced layer split may sit from the untraced latency p50
/// (as a share of it) before the traced run fails.
pub const RECONCILE_TOL: f64 = 0.25;
/// Seconds a server or router stays up with no session: the backstop that
/// ends one the benchmark could not stop (it was killed). A run leaves a
/// server without a session for milliseconds at most, so it never fires
/// during a run.
const MAX_IDLE: &str = "60";
/// Requests per line each in-process warm probe times.
const PROBE_REPS: usize = 200;
/// The layers a traced request is split across, in path order.
const LAYERS: [&str; 12] = [
    "client",
    "router",
    "transport",
    "serve",
    "engine",
    "plan",
    "exec",
    "gpusim",
    "kernels",
    "corun",
    "store",
    "study",
];

pub struct Ctx {
    pub ghr: PathBuf,
    pub work: PathBuf,
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// One metric as measured: value, unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<usize>,
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, n: Option<usize>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n,
        note: String::new(),
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs), by name; a counter the program no
    /// longer reports is absent.
    pub layer: BTreeMap<String, f64>,
    /// Workload-specific figures printed for people, not scored.
    pub notes: Vec<Metric>,
}

impl Outcome {
    fn problem(&mut self, p: String) {
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Set a counter read from the program, or mark it absent.
    fn set_opt(&mut self, name: &str, value: Option<f64>) {
        match value {
            Some(v) => self.set(name, v),
            None => {
                self.layer.remove(name);
            }
        }
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "serve-warm" => serve_warm(ctx),
        "router-warm" => router_warm(ctx),
        "serve-mixed" => serve_mixed(ctx),
        "study-cold" => study_cold(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// What the one-shot CLI prints for `line`: the byte-exact reference
/// every served body must equal.
fn reference(line: &str) -> Result<Vec<u8>, String> {
    let mut words = line.split_whitespace().map(str::to_string);
    let cmd = words.next().ok_or("empty line")?;
    let mut rest: Vec<String> = words.collect();
    rest.extend(["--threads", "2", "--no-cache"].map(str::to_string));
    ghr_cli::run(&cmd, &rest)
        .map(String::into_bytes)
        .map_err(|e| format!("ghr_cli::run({line}): {e}"))
}

fn catalog_refs() -> Result<HashMap<String, Vec<u8>>, String> {
    CATALOG
        .iter()
        .map(|l| Ok((l.to_string(), reference(l)?)))
        .collect()
}

/// One untimed pass over the catalog, checking each line's first served
/// body and its request id.
fn warm_catalog(
    conn: &mut Conn,
    refs: &HashMap<String, Vec<u8>>,
    out: &mut Outcome,
) -> Result<(), String> {
    for line in CATALOG {
        let frame = conn
            .call(line)
            .map_err(|e| format!("warm-up {line}: {e:?}"))?;
        let id = layers::request_of(line)?.id().to_string();
        if frame.id != id {
            out.problem(format!(
                "{line}: served id {} but the request id is {id}",
                frame.id
            ));
        }
        if frame.body != refs[line] {
            out.problem(format!(
                "{line}: first served body differs from ghr_cli::run"
            ));
        }
    }
    Ok(())
}

fn spawn_serve(
    ctx: &Ctx,
    name: &str,
    threads: usize,
    sessions: usize,
) -> Result<(Proc, PathBuf), String> {
    let sock = ctx.path(&format!("{name}.sock"));
    let args = [
        "serve".to_string(),
        "--socket".into(),
        sock.display().to_string(),
        "--threads".into(),
        threads.to_string(),
        "--sessions".into(),
        sessions.to_string(),
        "--cache-dir".into(),
        ctx.path(&format!("{name}.cache")).display().to_string(),
        "--max-idle".into(),
        MAX_IDLE.into(),
        "--stats-json".into(),
    ];
    let proc = Proc::spawn(name, &ctx.ghr, &args, ctx.path(&format!("{name}.log")))?;
    Ok((proc, sock))
}

/// The processes serving one workload, with the socket clients talk to.
struct Cluster {
    front: PathBuf,
    /// `(process, socket)`; the front process first.
    procs: Vec<(Proc, PathBuf)>,
    workers: Vec<PathBuf>,
}

impl Cluster {
    fn rss_mb(&self) -> f64 {
        self.procs
            .iter()
            .map(|(p, _)| p.vm_hwm_kb().unwrap_or(0) as f64)
            .sum::<f64>()
            / 1024.0
    }

    fn log_bytes(&self) -> u64 {
        self.procs
            .iter()
            .skip(usize::from(!self.workers.is_empty()))
            .map(|(p, _)| p.stderr_len())
            .sum()
    }

    /// Drain every process front first; returns each one's stderr.
    fn drain(mut self) -> Result<Vec<String>, String> {
        let mut logs = Vec::new();
        for (proc, sock) in &mut self.procs {
            drain(sock, proc)?;
            logs.push(proc.stderr_text());
        }
        Ok(logs)
    }
}

fn start_single(ctx: &Ctx, k: usize) -> Result<Cluster, String> {
    let (proc, sock) = spawn_serve(ctx, &format!("serve{k}"), THREADS, SERVE_SESSIONS)?;
    Ok(Cluster {
        front: sock.clone(),
        procs: vec![(proc, sock)],
        workers: Vec::new(),
    })
}

/// Two `ghr serve` workers, then a `ghr router` attached to both. The
/// benchmark starts every process itself, so it knows each pid and socket.
fn start_router(ctx: &Ctx, k: usize) -> Result<Cluster, String> {
    let mut procs = Vec::new();
    let mut workers = Vec::new();
    for w in 0..2 {
        let (proc, sock) = spawn_serve(ctx, &format!("worker{k}-{w}"), 1, WORKER_SESSIONS)?;
        procs.push((proc, sock.clone()));
        workers.push(sock);
    }
    for sock in &workers {
        drop(Conn::await_ready(sock, READY_DEADLINE)?);
    }
    let name = format!("router{k}");
    let front = ctx.path(&format!("{name}.sock"));
    let mut args = vec![
        "router".to_string(),
        "--socket".into(),
        front.display().to_string(),
    ];
    for sock in &workers {
        args.extend(["--attach".to_string(), sock.display().to_string()]);
    }
    args.extend(
        [
            "--sessions",
            &ROUTER_SESSIONS.to_string(),
            "--threads",
            "1",
            "--max-idle",
            MAX_IDLE,
            "--no-cache",
            "--stats-json",
        ]
        .map(str::to_string),
    );
    let router = Proc::spawn(&name, &ctx.ghr, &args, ctx.path(&format!("{name}.log")))?;
    procs.insert(0, (router, front.clone()));
    Ok(Cluster {
        front,
        procs,
        workers,
    })
}

/// Start the workload's processes [`SETUPS`] times, each time until the
/// catalog is warm; keep the last cluster and return the set-up times.
fn setup(
    ctx: &Ctx,
    start: fn(&Ctx, usize) -> Result<Cluster, String>,
    refs: &HashMap<String, Vec<u8>>,
    out: &mut Outcome,
) -> Result<(Cluster, Vec<f64>), String> {
    let mut times = Vec::new();
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let cluster = start(ctx, k)?;
        let mut conn = Conn::await_ready(&cluster.front, READY_DEADLINE)?;
        warm_catalog(&mut conn, refs, out)?;
        times.push(t0.elapsed().as_secs_f64());
        drop(conn);
        if k + 1 == SETUPS {
            return Ok((cluster, times));
        }
        cluster.drain()?;
    }
    unreachable!("SETUPS is at least one")
}

/// One request as the client saw it; times in ns since the run's epoch.
#[derive(Debug, Clone, Copy)]
struct Sample {
    key: usize,
    due: u64,
    sent: u64,
    done: u64,
    ok: bool,
    /// Points the server evaluated for it (the frame's `evals`).
    evals: u64,
    /// The same line sent straight to its owning worker (traced router run).
    direct: Option<(u64, u64)>,
}

impl Sample {
    /// Latency from when the request was due; a failed request counts as
    /// the full I/O deadline, so it misses every latency limit.
    fn latency_us(&self) -> f64 {
        if self.ok {
            (self.done - self.due) as f64 / 1e3
        } else {
            IO_DEADLINE.as_secs_f64() * 1e6
        }
    }
}

fn sorted_latencies<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.map(Sample::latency_us).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Shared state of one load phase's client threads.
struct Load<'a> {
    epoch: Instant,
    refs: &'a HashMap<String, Vec<u8>>,
    problems: Mutex<Vec<String>>,
    /// The first failed request, for the log (failures are counted, not
    /// correctness problems).
    first_failure: Mutex<Option<String>>,
}

impl Load<'_> {
    fn problem(&self, p: String) {
        let mut v = self
            .problems
            .lock()
            .expect("no client thread panics holding the lock");
        if v.len() < 20 {
            v.push(p);
        }
    }

    fn call(&self, conn: &mut Option<Conn>, sock: &Path, line: &str) -> Result<Frame, Failure> {
        if conn.is_none() {
            *conn = Some(Conn::connect(sock)?);
        }
        let c = conn.as_mut().expect("connected above");
        let res = c.call(line);
        if matches!(res, Err(Failure::Timeout | Failure::Io(_))) {
            *conn = None;
        }
        if let Err(e) = &res {
            let mut first = self
                .first_failure
                .lock()
                .expect("no client thread panics holding the lock");
            first.get_or_insert_with(|| format!("{line}: {e:?}"));
        }
        res
    }

    fn check(&self, line: &str, body: &[u8]) {
        if let Some(want) = self.refs.get(line) {
            if body != want.as_slice() {
                self.problem(format!("{line}: served body differs from ghr_cli::run"));
            }
        }
    }
}

/// Closed loop: each of [`CLOSED_CONNS`] connections sends its next zipf-drawn
/// catalog line as soon as the previous answer arrived, for `seconds`.
/// With `direct`, every request is followed by the same line sent straight
/// to the worker that owns it, for the router hop split.
fn closed_loop(
    load: &Load<'_>,
    sock: &Path,
    direct: Option<&[PathBuf]>,
    seed: u64,
    seconds: f64,
) -> Vec<Sample> {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let zipf = Zipf::new(CATALOG.len(), ZIPF_S);
    let per_thread: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLOSED_CONNS)
            .map(|t| {
                let zipf = &zipf;
                s.spawn(move || {
                    let mut rng = Rng::stream(seed, 100 + t as u64);
                    let mut conn = None;
                    let mut direct_conns: Vec<Option<Conn>> = vec![None, None];
                    let mut out = Vec::new();
                    while Instant::now() < until {
                        let key = zipf.sample(&mut rng);
                        let line = CATALOG[key];
                        let sent = ns_since(load.epoch);
                        let res = load.call(&mut conn, sock, line);
                        let done = ns_since(load.epoch);
                        let mut sample = Sample {
                            key,
                            due: sent,
                            sent,
                            done,
                            ok: res.is_ok(),
                            evals: 0,
                            direct: None,
                        };
                        match res {
                            Ok(frame) => {
                                load.check(line, &frame.body);
                                sample.evals = frame.evals;
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(1)),
                        }
                        if let (true, Some(workers)) = (sample.ok, direct) {
                            let w = layers::owner(line);
                            let ds = ns_since(load.epoch);
                            let res = load.call(&mut direct_conns[w], &workers[w], line);
                            let dd = ns_since(load.epoch);
                            match res {
                                Ok(frame) if frame.cached == "yes" => {
                                    sample.direct = Some((ds, dd))
                                }
                                Ok(frame) => load.problem(format!(
                                    "{line}: worker {w} (the owner by route_key and HashRing) \
                                     answered cached={}; the router put it elsewhere",
                                    frame.cached
                                )),
                                Err(_) => {}
                            }
                        }
                        out.push(sample);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    per_thread.into_iter().flatten().collect()
}

/// What one open-loop phase saw.
#[derive(Default)]
struct OpenRun {
    /// Ordered by schedule index.
    samples: Vec<Sample>,
    /// `(schedule index, body)` of every fresh line answered.
    fresh_bodies: Vec<(usize, Vec<u8>)>,
    /// How late each send went out, in µs.
    lateness: Vec<Lateness>,
}

/// Open loop over `plan[range]`: request `i` is due `(i - range.start) /
/// rate` seconds after the start, whether or not earlier ones were
/// answered; each of [`OPEN_CONNS`] connections takes the next due
/// request as soon as it is free.
fn open_loop(
    load: &Load<'_>,
    sock: &Path,
    plan: &[Planned],
    range: std::ops::Range<usize>,
    rate: f64,
) -> OpenRun {
    let start = ns_since(load.epoch) + 1_000_000;
    let span_ns = range.len() as f64 / rate * 1e9;
    // Past three times the schedule's length the system is not keeping up;
    // what is still unsent then fails.
    let cutoff = start + (3.0 * span_ns) as u64 + 1_000_000_000;
    let next = AtomicUsize::new(range.start);
    let results: Vec<OpenRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..OPEN_CONNS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut conn = None;
                    let mut run = OpenRun::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= range.end {
                            break;
                        }
                        let due = start + ((i - range.start) as f64 / rate * 1e9) as u64;
                        let free = ns_since(load.epoch);
                        if free > cutoff {
                            run.samples.push(Sample {
                                key: i,
                                due,
                                sent: free,
                                done: free,
                                ok: false,
                                evals: 0,
                                direct: None,
                            });
                            continue;
                        }
                        pace_until(load.epoch, due);
                        let sent = ns_since(load.epoch);
                        run.lateness.push(lateness(
                            due as f64 / 1e3,
                            free as f64 / 1e3,
                            sent as f64 / 1e3,
                        ));
                        let line = &plan[i].line;
                        let res = load.call(&mut conn, sock, line);
                        let done = ns_since(load.epoch);
                        let mut sample = Sample {
                            key: i,
                            due,
                            sent,
                            done,
                            ok: res.is_ok(),
                            evals: 0,
                            direct: None,
                        };
                        if let Ok(frame) = res {
                            sample.evals = frame.evals;
                            if plan[i].fresh {
                                run.fresh_bodies.push((i, frame.body));
                            } else {
                                load.check(line, &frame.body);
                            }
                        }
                        run.samples.push(sample);
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = OpenRun::default();
    for r in results {
        all.samples.extend(r.samples);
        all.fresh_bodies.extend(r.fresh_bodies);
        all.lateness.extend(r.lateness);
    }
    all.samples.sort_by_key(|s| s.key);
    all
}

/// Wait until `due` ns after `epoch`: sleep while far off, then spin the
/// last stretch, since a sleeping thread wakes tens of microseconds late
/// and that lateness would be charged to the program.
fn pace_until(epoch: Instant, due: u64) {
    const SPIN_NS: u64 = 200_000;
    let now = ns_since(epoch);
    if due > now + SPIN_NS {
        std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
    }
    while ns_since(epoch) < due {
        std::hint::spin_loop();
    }
}

/// The last JSON object a process wrote to stderr (its `--stats-json`).
fn stats_doc(log: &str) -> Option<Json> {
    log.lines()
        .rev()
        .filter(|l| l.starts_with('{'))
        .find_map(|l| Json::parse(l).ok())
}

fn counter(doc: Option<&Json>, path: &[&str]) -> Option<f64> {
    doc?.path(path)?.as_f64()
}

/// `K overloaded` from serve's drain summary line.
fn overloaded(log: &str) -> Option<f64> {
    let line = log.lines().find(|l| l.starts_with("serve: drained"))?;
    let before = line.split(" overloaded").next()?;
    before.rsplit(' ').next()?.parse().ok()
}

/// Sum a counter over several servers' drain documents; absent when any
/// server lacks it.
fn summed(docs: &[Option<Json>], path: &[&str]) -> Option<f64> {
    docs.iter().map(|d| counter(d.as_ref(), path)).sum()
}

/// Median self time per layer across the traced requests, µs (a request
/// that never reached a layer counts 0 for it).
fn span_medians(trace: &Trace, requests: usize, out: &mut Outcome) -> f64 {
    let per = trace.layer_self_per_request();
    let mut sum = 0.0;
    for layer in LAYERS {
        let mut v = per.get(layer).cloned().unwrap_or_default();
        v.resize(requests.max(v.len()), 0.0);
        let med = median(&v) / 1e3;
        sum += med;
        out.set(&format!("span.{layer}_us"), med);
    }
    out.set("trace.spans", trace.len() as f64);
    out.set("trace.split_sum_us", sum);
    sum
}

/// Compare the traced split with the untraced p50 and record the
/// overhead of tracing.
fn reconcile(out: &mut Outcome, split_sum: f64, untraced_p50: f64, traced_p50: f64) {
    let gap = (split_sum - untraced_p50).abs() / untraced_p50;
    out.set("trace.untraced_p50_us", untraced_p50);
    out.set("trace.traced_p50_us", traced_p50);
    out.set(
        "trace.overhead_frac",
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    out.set("trace.reconcile_frac", gap);
    if gap > RECONCILE_TOL {
        out.problem(format!(
            "layer split {split_sum:.1} us is {:.0}% from the untraced p50 {untraced_p50:.1} us \
             (tolerance {:.0}%)",
            gap * 100.0,
            RECONCILE_TOL * 100.0
        ));
    }
}

/// Zero every per-layer metric, so a layer the workload never reaches
/// reads 0 rather than going missing.
fn zero_layers(out: &mut Outcome) {
    for (name, _) in PER_LAYER {
        out.set(name, 0.0);
    }
}

/// Latency and throughput figures of one untraced phase.
fn e2e_latency(out: &mut Outcome, samples: &[Sample], seconds: f64) {
    let lat = sorted_latencies(samples.iter());
    let ok = samples.iter().filter(|s| s.ok).count();
    out.e2e.push(metric(
        "latency_p50_us",
        median(&lat),
        "us",
        Some(lat.len()),
    ));
    let (run_tail, label) = tail(&lat);
    let points: Vec<(u64, f64)> = samples.iter().map(|s| (s.due, s.latency_us())).collect();
    let t = match windowed_p99(&points, 1_000_000_000) {
        Some((v, windows)) => {
            let mut m = metric("latency_tail_us", v, "us", Some(lat.len()));
            m.note = format!("median p99 of {windows} one-second windows");
            m
        }
        None => {
            let mut m = metric("latency_tail_us", run_tail, "us", Some(lat.len()));
            m.note = format!("{label} of the run");
            m
        }
    };
    out.e2e.push(t);
    let mut whole = metric("run_tail_us", run_tail, "us", Some(lat.len()));
    whole.note = format!("{label} over the whole run");
    out.notes.push(whole);
    out.notes.push(metric(
        "throughput_rps",
        ok as f64 / seconds,
        "1/s",
        Some(ok),
    ));
}

fn count_failures(out: &mut Outcome, samples: &[Sample]) {
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
}

fn finish_load(out: &mut Outcome, load: Load<'_>) {
    for p in load.problems.into_inner().expect("client threads joined") {
        out.problem(p);
    }
    if let Some(f) = load
        .first_failure
        .into_inner()
        .expect("client threads joined")
    {
        eprintln!("first failed request: {f}");
    }
}

/// The in-process layer probes every serve workload needs.
fn hit_probe(ctx: &Ctx) -> Result<HitProbe, String> {
    layers::probe_hits(&ctx.path("probe-hits.cache"), &CATALOG, PROBE_REPS)
}

/// The serve layer's framing overhead per request: session time beyond
/// the engine call and the flush, median over the catalog.
fn serve_overhead(hits: &HitProbe) -> f64 {
    let v: Vec<f64> = hits
        .per_line
        .values()
        .map(|c| (c.session - c.respond - c.flush).max(0.0))
        .collect();
    median(&v)
}

/// Per-layer figures every serve workload reports from its probes (over
/// the warm lines its traced requests sent, so popular lines weigh more)
/// and its servers' drain documents.
fn serve_layers<'a>(
    out: &mut Outcome,
    hits: &HitProbe,
    sent: impl Iterator<Item = &'a str>,
    docs: &[Option<Json>],
    logs: &[String],
    log_bytes_per_req: f64,
) {
    let costs: Vec<&HitCost> = sent.filter_map(|l| hits.per_line.get(l)).collect();
    let col = |f: fn(&HitCost) -> f64| median(&costs.iter().map(|c| f(c)).collect::<Vec<_>>());
    out.set("serve.session_us", col(|c| c.session) / 1e3);
    out.set("engine.respond_hit_us", col(|c| c.respond) / 1e3);
    out.set("store.flush_ms", col(|c| c.flush) / 1e6);
    out.set("serve.log_bytes_per_req", log_bytes_per_req);
    out.set("store.entries", hits.store_entries as f64);
    out.set_opt("serve.response_hits", summed(docs, &["response_hits"]));
    out.set_opt("serve.evaluated", summed(docs, &["evaluated"]));
    out.set_opt("serve.coalesced", summed(docs, &["coalesced"]));
    out.set_opt("serve.overloaded", logs.iter().map(|l| overloaded(l)).sum());
    engine_counters(out, docs);
}

/// Engine counters from drain documents; a counter the program no longer
/// reports is left absent.
fn engine_counters(out: &mut Outcome, docs: &[Option<Json>]) {
    let requests = summed(docs, &["requests"]);
    let hits = summed(docs, &["response_hits"]);
    out.set_opt(
        "engine.response_hit_ratio",
        requests.zip(hits).map(|(r, h)| h / r.max(1.0)),
    );
    out.set_opt("engine.published", summed(docs, &["replica", "published"]));
    out.set_opt(
        "engine.replica_log_bytes",
        summed(docs, &["replica", "log_bytes"]),
    );
}

/// A warm line's subtree under `parent`: serve, and inside it the engine
/// call and the store flush.
fn place_hit(trace: &mut Trace, parent: usize, c: &HitCost) {
    let serve = trace.place("serve", c.session as u64, parent);
    trace.place("engine", c.respond as u64, serve);
    trace.place("store", c.flush as u64, serve);
}

fn serve_warm(ctx: &Ctx) -> Result<Outcome, String> {
    closed_workload(ctx, start_single, false)
}

fn router_warm(ctx: &Ctx) -> Result<Outcome, String> {
    closed_workload(ctx, start_router, true)
}

/// serve-warm and router-warm: the same closed-loop schedule, direct or
/// through the router.
fn closed_workload(
    ctx: &Ctx,
    start: fn(&Ctx, usize) -> Result<Cluster, String>,
    routed: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let refs = catalog_refs()?;
    let (cluster, setups) = setup(ctx, start, &refs, &mut out)?;
    let load = Load {
        epoch: Instant::now(),
        refs: &refs,
        problems: Mutex::new(Vec::new()),
        first_failure: Mutex::new(None),
    };
    if !ctx.trace {
        let t0 = Instant::now();
        let samples = closed_loop(&load, &cluster.front, None, ctx.seed, ctx.seconds);
        let elapsed = t0.elapsed().as_secs_f64();
        let (rss, procs) = (cluster.rss_mb(), cluster.procs.len());
        cluster.drain()?;
        finish_load(&mut out, load);
        count_failures(&mut out, &samples);
        out.e2e
            .push(metric("setup_s", median(&setups), "s", Some(setups.len())));
        e2e_latency(&mut out, &samples, elapsed);
        out.e2e.push(metric("rss_mb", rss, "MiB", Some(procs)));
        notes_failed(&mut out);
        return Ok(out);
    }
    zero_layers(&mut out);
    let half = ctx.seconds / 2.0;
    let plain = closed_loop(&load, &cluster.front, None, ctx.seed, half);
    let log0 = cluster.log_bytes();
    let direct = routed.then_some(cluster.workers.as_slice());
    let traced = closed_loop(&load, &cluster.front, direct, ctx.seed ^ 1, half);
    let requests = traced.len() + traced.iter().filter(|s| s.direct.is_some()).count();
    let log_per_req = (cluster.log_bytes() - log0) as f64 / requests.max(1) as f64;
    let logs = cluster.drain()?;
    finish_load(&mut out, load);
    count_failures(&mut out, &plain);
    count_failures(&mut out, &traced);

    let hits = hit_probe(ctx)?;
    let docs: Vec<Option<Json>> = logs
        .iter()
        .skip(usize::from(routed))
        .map(|l| stats_doc(l))
        .collect();
    let worker_logs = &logs[usize::from(routed)..];
    let sent = traced.iter().filter(|s| s.ok).map(|s| CATALOG[s.key]);
    serve_layers(&mut out, &hits, sent, &docs, worker_logs, log_per_req);
    cold_engine_layers(&mut out, ctx)?;

    let mut trace = Trace::default();
    let mut roots = 0;
    let mut hops = Vec::new();
    for (i, s) in traced.iter().enumerate().filter(|(_, s)| s.ok) {
        let c = &hits.per_line[CATALOG[s.key]];
        let req = i as u64;
        if routed {
            let Some((ds, dd)) = s.direct else { continue };
            let root = trace.record("router", s.sent, s.done, None, req);
            let transport = trace.place("transport", dd - ds, root);
            place_hit(&mut trace, transport, c);
            hops.push((s.done - s.sent) as f64 / 1e3 - (dd - ds) as f64 / 1e3);
        } else {
            let root = trace.record("transport", s.sent, s.done, None, req);
            place_hit(&mut trace, root, c);
        }
        roots += 1;
    }
    let split = span_medians(&trace, roots, &mut out);
    out.set("transport.rtt_us", out.layer["span.transport_us"]);
    out.set("serve.self_us", out.layer["span.serve_us"]);
    if routed {
        out.set("router.hop_us", median(&hops));
        out.set("router.route_ns", layers::probe_route(&CATALOG, 2000));
        let doc = stats_doc(&logs[0]);
        let forwarded = counter(doc.as_ref(), &["router", "forwarded"]);
        for key in ["forwarded", "rerouted", "rejected"] {
            out.set_opt(
                &format!("router.{key}"),
                counter(doc.as_ref(), &["router", key]),
            );
        }
        let max: Option<f64> = doc
            .as_ref()
            .and_then(|d| d.path(&["router", "workers"])?.as_arr())
            .map(|ws| {
                ws.iter()
                    .filter_map(|w| w.get("forwarded")?.as_f64())
                    .fold(0.0, f64::max)
            });
        out.set_opt(
            "router.max_share",
            forwarded.zip(max).map(|(f, m)| m / f.max(1.0)),
        );
    }
    let untraced = median(&sorted_latencies(plain.iter().filter(|s| s.ok)));
    let traced_p50 = median(&sorted_latencies(traced.iter().filter(|s| s.ok)));
    reconcile(&mut out, split, untraced, traced_p50);
    Ok(out)
}

fn notes_failed(out: &mut Outcome) {
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.notes.push(metric(
        "failed_frac",
        frac,
        "frac",
        Some(out.attempted as usize),
    ));
}

fn serve_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let refs = catalog_refs()?;
    let (cluster, setups) = setup(ctx, start_single, &refs, &mut out)?;
    let count = (MIXED_RATE * ctx.seconds) as usize;
    let plan = schedule(ctx.seed, count, FRESH_SHARE);
    let load = Load {
        epoch: Instant::now(),
        refs: &refs,
        problems: Mutex::new(Vec::new()),
        first_failure: Mutex::new(None),
    };
    // Traced runs drive the first half plain and the second half traced.
    let split_at = if ctx.trace { count / 2 } else { count };
    let log0 = cluster.log_bytes();
    let first = open_loop(&load, &cluster.front, &plan, 0..split_at, MIXED_RATE);
    let second = open_loop(&load, &cluster.front, &plan, split_at..count, MIXED_RATE);
    let (plain, traced) = (&first.samples, &second.samples);
    let last_done = plain.iter().map(|s| s.done).max().unwrap_or(0);
    let plain_span = (last_done - plain.first().map_or(0, |s| s.due)) as f64 / 1e9;
    let log_per_req =
        (cluster.log_bytes() - log0) as f64 / (plain.len() + traced.len()).max(1) as f64;
    let rss = cluster.rss_mb();
    let logs = cluster.drain()?;
    finish_load(&mut out, load);
    count_failures(&mut out, plain);
    count_failures(&mut out, traced);

    // Every fresh id's first served body against the one-shot CLI.
    for (i, body) in first.fresh_bodies.iter().chain(&second.fresh_bodies) {
        if reference(&plan[*i].line)? != *body {
            out.problem(format!(
                "{}: first served body differs from ghr_cli::run",
                plan[*i].line
            ));
        }
    }

    let is_fresh = |s: &&Sample| plan[s.key].fresh;
    if !ctx.trace {
        out.e2e
            .push(metric("setup_s", median(&setups), "s", Some(setups.len())));
        e2e_latency(&mut out, plain, plain_span);
        out.e2e.push(metric("rss_mb", rss, "MiB", Some(1)));
        notes_failed(&mut out);
        let hits = sorted_latencies(plain.iter().filter(|s| !is_fresh(s)));
        let misses = sorted_latencies(plain.iter().filter(is_fresh));
        let note = |name: &str, v: Option<f64>, n: usize| {
            let mut m = metric(name, v.unwrap_or(f64::NAN), "us", Some(n));
            if v.is_none() {
                m.note = "withheld: fewer than 10 samples beyond".into();
            }
            m
        };
        out.notes
            .push(note("hit_p99_us", percentile(&hits, 99.0), hits.len()));
        out.notes
            .push(note("miss_p50_us", Some(median(&misses)), misses.len()));
        out.notes
            .push(note("miss_p99_us", percentile(&misses, 99.0), misses.len()));
        let waits: Vec<f64> = first.lateness.iter().map(|l| l.wait).collect();
        out.notes
            .push(metric("offered_rps", MIXED_RATE, "1/s", None));
        out.notes.push(metric(
            "wait_median_us",
            median(&waits),
            "us",
            Some(waits.len()),
        ));
        return Ok(out);
    }
    zero_layers(&mut out);
    let hits = hit_probe(ctx)?;
    let fresh_lines: Vec<String> = traced
        .iter()
        .filter(|s| s.ok && plan[s.key].fresh)
        .map(|s| plan[s.key].line.clone())
        .collect();
    let (misses, miss_store) =
        layers::probe_misses(&ctx.path("probe-miss.cache"), &CATALOG, &fresh_lines)?;
    let kernels = layers::probe_kernels(50);
    let gpu_ns = layers::probe_gpu_points()?;
    let docs: Vec<Option<Json>> = logs.iter().map(|l| stats_doc(l)).collect();
    let sent = traced
        .iter()
        .filter(|s| s.ok)
        .map(|s| plan[s.key].line.as_str());
    serve_layers(&mut out, &hits, sent, &docs, &logs, log_per_req);
    miss_layers(&mut out, &misses, &kernels, gpu_ns);
    out.set("store.entries", miss_store as f64);
    let phase_points: u64 = traced.iter().chain(plain).map(|s| s.evals).sum();
    out.set("gpusim.points", phase_points as f64);
    let all_late = || first.lateness.iter().chain(&second.lateness);
    let mut waits: Vec<f64> = all_late().map(|l| l.wait).collect();
    let mut lags: Vec<f64> = all_late().map(|l| l.lag).collect();
    waits.sort_by(f64::total_cmp);
    lags.sort_by(f64::total_cmp);
    out.set("client.wait_p99_us", tail(&waits).0);
    out.set("loadgen.lag_p99_us", tail(&lags).0);

    let overhead = serve_overhead(&hits);
    let mut trace = Trace::default();
    let mut roots = 0;
    for s in traced.iter().filter(|s| s.ok) {
        let line = &plan[s.key].line;
        let root = trace.record("client", s.due, s.done, None, s.key as u64);
        let transport = trace.record("transport", s.sent, s.done, Some(root), s.key as u64);
        if let Some(m) = misses.get(line) {
            place_miss(&mut trace, transport, m, overhead, &kernels, gpu_ns, line);
        } else {
            place_hit(&mut trace, transport, &hits.per_line[line.as_str()]);
        }
        roots += 1;
    }
    let split = span_medians(&trace, roots, &mut out);
    out.set("transport.rtt_us", out.layer["span.transport_us"]);
    out.set("serve.self_us", out.layer["span.serve_us"]);
    let untraced = median(&sorted_latencies(plain.iter().filter(|s| s.ok)));
    let traced_p50 = median(&sorted_latencies(traced.iter().filter(|s| s.ok)));
    reconcile(&mut out, split, untraced, traced_p50);
    Ok(out)
}

/// A fresh line's subtree under `parent`: serve (its framing overhead plus
/// the engine call and flush), the engine's plan and execution, and under
/// execution the priced points and the real kernels' checksum.
fn place_miss(
    trace: &mut Trace,
    parent: usize,
    m: &MissCost,
    overhead: f64,
    kernels: &KernelCost,
    gpu_ns: f64,
    line: &str,
) {
    let serve = trace.place("serve", (overhead + m.respond + m.flush) as u64, parent);
    let engine = trace.place("engine", m.respond as u64, serve);
    trace.place("plan", m.plan as u64, engine);
    let exec = trace.place("exec", m.exec as u64, engine);
    trace.place("gpusim", (m.points as f64 * gpu_ns) as u64, exec);
    let kind = line.split(' ').next().unwrap_or("dot");
    trace.place("kernels", kernels.of(kind) as u64, exec);
    trace.place("store", m.flush as u64, serve);
}

/// Per-layer figures of cold evaluations.
fn miss_layers(
    out: &mut Outcome,
    misses: &HashMap<String, MissCost>,
    kernels: &KernelCost,
    gpu_ns: f64,
) {
    let col = |f: fn(&MissCost) -> f64| -> Vec<f64> { misses.values().map(f).collect() };
    out.set("engine.respond_miss_us", median(&col(|m| m.respond)) / 1e3);
    out.set("plan.plan_us", median(&col(|m| m.plan)) / 1e3);
    out.set("exec.run_us", median(&col(|m| m.exec)) / 1e3);
    let items: usize = misses.values().map(|m| m.items).sum();
    let predicted: usize = misses.values().map(|m| m.predicted).sum();
    out.set(
        "plan.predicted_hit_ratio",
        predicted as f64 / items.max(1) as f64,
    );
    out.set("store.flush_ms", median(&col(|m| m.flush)) / 1e6);
    kernel_layers(out, kernels);
    out.set("gpusim.point_us", gpu_ns / 1e3);
}

/// The in-process cold probes behind [`cold_engine_layers`].
struct ColdProbe {
    study: StudyProbe,
    kernels: KernelCost,
    gpu_ns: f64,
}

/// The engine's cold-path layers, measured in process on the paper's
/// study (every line `ghr all` runs, every co-run configuration), Table
/// 1's GPU points and the real kernels. A warm request never reaches
/// them, so the warm workloads' traced runs report them this way; their
/// span self times stay 0 there.
fn cold_engine_layers(out: &mut Outcome, ctx: &Ctx) -> Result<ColdProbe, String> {
    let study = layers::probe_study(&ctx.path("probe-study.cache"))?;
    let kernels = layers::probe_kernels(50);
    let gpu_ns = layers::probe_gpu_points()?;
    out.set("engine.respond_miss_us", median(&study.respond_ns) / 1e3);
    out.set("plan.plan_us", median(&study.plan_ns) / 1e3);
    out.set("plan.predicted_hit_ratio", study.predicted_hit_ratio);
    out.set("exec.run_us", median(&study.exec_ns) / 1e3);
    out.set("corun.series_ms", median(&study.corun_ns) / 1e6);
    out.set("corun.series", study.corun_ns.len() as f64);
    out.set("gpusim.point_us", gpu_ns / 1e3);
    kernel_layers(out, &kernels);
    Ok(ColdProbe {
        study,
        kernels,
        gpu_ns,
    })
}

fn kernel_layers(out: &mut Outcome, kernels: &KernelCost) {
    out.set(
        "kernels.checksum_us",
        median(&[kernels.dot, kernels.scan, kernels.gemv]) / 1e3,
    );
    out.set(
        "kernels.bytes_computed",
        kernels.bytes.iter().sum::<u64>() as f64,
    );
}

/// The 16 artifacts of `ghr all` that are committed under `experiments/`.
fn committed(root: &Path) -> Result<Vec<String>, String> {
    let dir = root.join("experiments");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".md"))
        .collect();
    names.sort();
    Ok(names)
}

/// One cold `ghr all` with a fresh empty store: wall seconds, peak RSS in
/// MiB, and its stderr.
fn cold_study(ctx: &Ctx, k: usize) -> Result<(f64, f64, String), String> {
    let name = format!("study{k}");
    let args = [
        "all".to_string(),
        ctx.path(&format!("{name}.out")).display().to_string(),
        "--threads".into(),
        THREADS.to_string(),
        "--cache-dir".into(),
        ctx.path(&format!("{name}.cache")).display().to_string(),
        "--stats-json".into(),
    ];
    let t0 = Instant::now();
    let mut proc = Proc::spawn(&name, &ctx.ghr, &args, ctx.path(&format!("{name}.log")))?;
    let (ok, maxrss_kb) = proc.wait(Duration::from_secs(120))?;
    let wall = t0.elapsed().as_secs_f64();
    if !ok {
        return Err(format!("{name} failed: {}", proc.stderr_text()));
    }
    Ok((wall, maxrss_kb as f64 / 1024.0, proc.stderr_text()))
}

/// Compare run `k`'s artifacts with the committed ones and with run 0's.
fn check_study(ctx: &Ctx, k: usize, committed: &[String], out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.path(&format!("study{k}.out"));
    let first = ctx.path("study0.out");
    let mut produced: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    produced.sort();
    for name in &produced {
        let got = std::fs::read(dir.join(name)).map_err(|e| e.to_string())?;
        let want = if committed.contains(name) {
            ctx.root.join("experiments").join(name)
        } else {
            first.join(name)
        };
        if std::fs::read(&want).ok().as_deref() != Some(got.as_slice()) {
            out.problem(format!("study{k}: {name} differs from {}", want.display()));
        }
    }
    for name in committed {
        if !produced.contains(name) {
            out.problem(format!("study{k}: ghr all did not write {name}"));
        }
    }
    let first_names: Vec<String> = std::fs::read_dir(&first)
        .map_err(|e| format!("{}: {e}", first.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    if first_names.len() != produced.len() {
        out.problem(format!(
            "study{k} wrote {} artifacts, study0 wrote {}",
            produced.len(),
            first_names.len()
        ));
    }
    Ok(())
}

/// Run cold studies until `seconds` have passed (at least `min` of them).
fn studies(
    ctx: &Ctx,
    first: usize,
    seconds: f64,
    min: usize,
    committed: &[String],
    out: &mut Outcome,
) -> Result<Vec<(f64, f64, String)>, String> {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut k = first;
    while runs.len() < min || t0.elapsed().as_secs_f64() < seconds {
        let r = cold_study(ctx, k);
        out.attempted += 1;
        match r {
            Ok(r) => {
                check_study(ctx, k, committed, out)?;
                runs.push(r);
            }
            Err(e) => {
                out.failed += 1;
                out.problem(e);
            }
        }
        // Artifacts of runs after the first are compared and then dropped.
        if k != 0 {
            let _ = std::fs::remove_dir_all(ctx.path(&format!("study{k}.out")));
            let _ = std::fs::remove_dir_all(ctx.path(&format!("study{k}.cache")));
        }
        k += 1;
        if out.failed > 2 {
            break;
        }
    }
    Ok(runs)
}

fn study_cold(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let committed = committed(&ctx.root)?;
    if committed.len() != 16 {
        return Err(format!(
            "expected 16 committed experiments, found {}",
            committed.len()
        ));
    }
    // Set-up: the engine constructed over a fresh empty store, with the
    // whole study lowered (a dry run that evaluates nothing).
    let mut setups = Vec::new();
    for k in 0..STUDY_SETUPS {
        let args = [
            "plan".to_string(),
            "all".into(),
            "--threads".into(),
            THREADS.to_string(),
            "--cache-dir".into(),
            ctx.path(&format!("plan{k}.cache")).display().to_string(),
        ];
        let t0 = Instant::now();
        let mut p = Proc::spawn("plan", &ctx.ghr, &args, ctx.path(&format!("plan{k}.log")))?;
        let (ok, _) = p.wait(Duration::from_secs(60))?;
        if !ok {
            return Err(format!("ghr plan all failed: {}", p.stderr_text()));
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    if !ctx.trace {
        let runs = studies(ctx, 0, ctx.seconds, 2, &committed, &mut out)?;
        let walls: Vec<f64> = runs.iter().map(|r| r.0 * 1e6).collect();
        let mut sorted = walls.clone();
        sorted.sort_by(f64::total_cmp);
        let (tail_v, label) = tail(&sorted);
        out.e2e
            .push(metric("setup_s", median(&setups), "s", Some(setups.len())));
        out.e2e.push(metric(
            "latency_p50_us",
            median(&walls),
            "us",
            Some(walls.len()),
        ));
        let mut t = metric("latency_tail_us", tail_v, "us", Some(walls.len()));
        t.note = label.to_string();
        out.e2e.push(t);
        let total: f64 = runs.iter().map(|r| r.0).sum();
        out.notes.push(metric(
            "throughput_rps",
            runs.len() as f64 / total.max(1e-9),
            "1/s",
            Some(runs.len()),
        ));
        let rss: Vec<f64> = runs.iter().map(|r| r.1).collect();
        out.e2e
            .push(metric("rss_mb", median(&rss), "MiB", Some(rss.len())));
        notes_failed(&mut out);
        out.notes.push(metric(
            "study_s",
            median(&walls) / 1e6,
            "s",
            Some(walls.len()),
        ));
        return Ok(out);
    }
    zero_layers(&mut out);
    let plain = studies(ctx, 0, ctx.seconds / 2.0, 2, &committed, &mut out)?;
    let traced = studies(ctx, plain.len(), ctx.seconds / 2.0, 1, &committed, &mut out)?;
    if plain.is_empty() || traced.is_empty() {
        return Err("no cold study completed".into());
    }
    let ColdProbe {
        study: probe,
        kernels,
        gpu_ns,
    } = cold_engine_layers(&mut out, ctx)?;
    let docs: Vec<Option<Json>> = traced.iter().map(|r| stats_doc(&r.2)).collect();
    engine_counters(&mut out, &docs[..1]);
    let evaluated = counter(docs[0].as_ref(), &["evaluated"]).unwrap_or(0.0);
    out.set("store.flush_ms", probe.flush_ns / 1e6);
    out.set("store.entries", probe.store_entries as f64);
    out.set("gpusim.points", evaluated);

    let sum = |v: &[f64]| v.iter().sum::<f64>() as u64;
    let kernel_ns = 4.0 * (kernels.dot + kernels.scan + kernels.gemv);
    let mut trace = Trace::default();
    let mut t = 0u64;
    for (i, r) in traced.iter().enumerate() {
        let wall = (r.0 * 1e9) as u64;
        let root = trace.record("study", t, t + wall, None, i as u64);
        let engine = trace.place("engine", sum(&probe.respond_ns), root);
        trace.place("plan", sum(&probe.plan_ns), engine);
        let exec = trace.place("exec", sum(&probe.exec_ns), engine);
        trace.place("gpusim", (evaluated * gpu_ns) as u64, exec);
        trace.place("kernels", kernel_ns as u64, exec);
        // Series timed one at a time; the study runs them across the pool,
        // so this is cut to what execution leaves.
        trace.place("corun", sum(&probe.corun_ns), exec);
        trace.place("store", probe.flush_ns as u64, root);
        t += wall;
    }
    let split = span_medians(&trace, traced.len(), &mut out);
    let untraced = median(&plain.iter().map(|r| r.0 * 1e6).collect::<Vec<_>>());
    let traced_p50 = median(&traced.iter().map(|r| r.0 * 1e6).collect::<Vec<_>>());
    reconcile(&mut out, split, untraced, traced_p50);
    Ok(out)
}

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("transport.rtt_us", "us"),
    ("serve.session_us", "us"),
    ("serve.self_us", "us"),
    ("serve.log_bytes_per_req", "B"),
    ("serve.response_hits", "count"),
    ("serve.evaluated", "count"),
    ("serve.coalesced", "count"),
    ("serve.overloaded", "count"),
    ("router.hop_us", "us"),
    ("router.route_ns", "ns"),
    ("router.forwarded", "count"),
    ("router.rerouted", "count"),
    ("router.rejected", "count"),
    ("router.max_share", "frac"),
    ("engine.respond_hit_us", "us"),
    ("engine.respond_miss_us", "us"),
    ("engine.response_hit_ratio", "frac"),
    ("engine.published", "count"),
    ("engine.replica_log_bytes", "B"),
    ("plan.plan_us", "us"),
    ("plan.predicted_hit_ratio", "frac"),
    ("exec.run_us", "us"),
    ("gpusim.point_us", "us"),
    ("gpusim.points", "count"),
    ("corun.series_ms", "ms"),
    ("corun.series", "count"),
    ("kernels.checksum_us", "us"),
    ("kernels.bytes_computed", "B"),
    ("store.flush_ms", "ms"),
    ("store.entries", "count"),
    ("client.wait_p99_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("span.client_us", "us"),
    ("span.router_us", "us"),
    ("span.transport_us", "us"),
    ("span.serve_us", "us"),
    ("span.engine_us", "us"),
    ("span.plan_us", "us"),
    ("span.exec_us", "us"),
    ("span.gpusim_us", "us"),
    ("span.kernels_us", "us"),
    ("span.corun_us", "us"),
    ("span.store_us", "us"),
    ("span.study_us", "us"),
    ("trace.spans", "count"),
    ("trace.split_sum_us", "us"),
    ("trace.untraced_p50_us", "us"),
    ("trace.traced_p50_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("trace.reconcile_frac", "frac"),
];
