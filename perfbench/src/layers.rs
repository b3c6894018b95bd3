//! In-process probes: the benchmark's own timed calls into each layer's
//! public functions, on the same request lines the workload sends.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use ghr_cli::router::{route_key, HashRing};
use ghr_cli::serve::{serve_session, SessionConfig};
use ghr_core::case::Case;
use ghr_core::corun::AllocSite;
use ghr_core::kernels::{FUNC_M, GEMV_COLS_DEFAULT};
use ghr_core::request::corun_config;
use ghr_core::{Engine, Executor, Planner, ReductionSpec, Request};
use ghr_machine::MachineConfig;

use crate::stats::median;

/// Engine worker threads, the same count every `ghr` process is given.
pub const THREADS: usize = 2;

/// The request lines `ghr all` runs through the engine, in its order.
pub const STUDY_LINES: [&str; 26] = [
    "table1", "fig1 c1", "fig1 c2", "fig1 c3", "fig1 c4", "fig2a", "fig2b", "fig3", "fig4a",
    "fig4b", "fig5", "summary", "autotune", "whatif", "dot c1", "scan c1", "gemv c1", "dot c2",
    "scan c2", "gemv c2", "dot c3", "scan c3", "gemv c3", "dot c4", "scan c4", "gemv c4",
];

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn parse_case(s: &str) -> Result<Case, String> {
    match s {
        "c1" => Ok(Case::C1),
        "c2" => Ok(Case::C2),
        "c3" => Ok(Case::C3),
        "c4" => Ok(Case::C4),
        other => Err(format!("unknown case {other:?}")),
    }
}

/// The request a servable line resolves to, built from the public request
/// constructors. The warm-up pass checks each id against the id the
/// server puts in its frame header, so a drift from the server's own
/// parsing fails the run instead of timing the wrong request.
pub fn request_of(line: &str) -> Result<Request, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let case = || parse_case(words.get(1).copied().unwrap_or("c1"));
    let m = match words.as_slice() {
        [_, _, "--m", n] => Some(n.parse::<u64>().map_err(|e| format!("{line}: {e}"))?),
        [_] | [_, _] => None,
        _ => return Err(format!("unsupported line {line:?}")),
    };
    Ok(match words[0] {
        "table1" => Request::Table1,
        "whatif" => Request::WhatIf,
        "autotune" => Request::autotune_all(),
        "summary" => Request::Study {
            m: None,
            n_reps: None,
        },
        "fig1" => Request::fig1(case()?),
        "fig2a" => Request::corun_fig(AllocSite::A1, false, false),
        "fig2b" => Request::corun_fig(AllocSite::A1, true, false),
        "fig4a" => Request::corun_fig(AllocSite::A2, false, false),
        "fig4b" => Request::corun_fig(AllocSite::A2, true, false),
        "fig3" => Request::speedup_fig(AllocSite::A1),
        "fig5" => Request::speedup_fig(AllocSite::A2),
        "dot" => Request::Dot { case: case()?, m },
        "scan" => Request::Scan { case: case()?, m },
        "gemv" => Request::Gemv {
            case: case()?,
            cols: GEMV_COLS_DEFAULT,
            m,
        },
        other => return Err(format!("unsupported command {other:?}")),
    })
}

fn engine(store: Option<&Path>) -> Engine {
    let e = Engine::new(MachineConfig::gh200(), THREADS);
    match store {
        Some(dir) => e.with_store_dir(dir),
        None => e,
    }
}

/// What one warm line costs in each layer, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct HitCost {
    /// `serve_session` per request over an in-memory pipe.
    pub session: f64,
    /// `Engine::respond` on the warm id.
    pub respond: f64,
    /// `Engine::flush_store` after the hit (serve flushes after every request).
    pub flush: f64,
}

/// What one fresh line costs in each layer, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct MissCost {
    pub respond: f64,
    pub flush: f64,
    pub plan: f64,
    pub exec: f64,
    /// Points the cold evaluation priced.
    pub points: u64,
    /// Work items of the miss's plan, and how many the planner predicted
    /// would hit a cache.
    pub items: usize,
    pub predicted: usize,
}

/// Warm-path probes over a set of catalog lines.
pub struct HitProbe {
    pub per_line: HashMap<String, HitCost>,
    pub store_entries: u64,
}

/// Time the warm path of every line in `lines` in process: an engine with
/// a persistent store (as the server has) is warmed with one pass, then
/// each line's hit is timed through `serve_session`, `Engine::respond` and
/// `Engine::flush_store`. Warm hits never reach the planner or executor.
pub fn probe_hits(store: &Path, lines: &[&str], reps: usize) -> Result<HitProbe, String> {
    let e = engine(Some(store));
    let mut requests = Vec::new();
    for line in lines {
        let r = request_of(line)?;
        e.respond(&r).map_err(|err| format!("{line}: {err}"))?;
        requests.push(r);
    }
    e.flush_store().map_err(|err| err.to_string())?;
    let shutdown = AtomicBool::new(false);
    let config = SessionConfig::default();
    let mut per_line = HashMap::new();
    for (line, request) in lines.iter().zip(&requests) {
        let mut respond = Vec::with_capacity(reps);
        let mut flush = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            black_box(
                e.respond(black_box(request))
                    .map_err(|err| err.to_string())?,
            );
            respond.push(ns(t));
            let t = Instant::now();
            black_box(e.flush_store().map_err(|err| err.to_string())?);
            flush.push(ns(t));
        }
        let input = format!("{line}\n").repeat(reps);
        let mut out = Vec::with_capacity(reps * 1024);
        let t = Instant::now();
        let summary = serve_session(
            &e,
            0,
            &mut BufReader::new(input.as_bytes()),
            &mut out,
            &mut std::io::sink(),
            &shutdown,
            &config,
        )?;
        let session = ns(t) / reps as f64;
        if summary.stats.ok != reps as u64 {
            return Err(format!("{line}: in-process session answered {summary:?}"));
        }
        per_line.insert(
            line.to_string(),
            HitCost {
                session,
                respond: median(&respond),
                flush: median(&flush),
            },
        );
    }
    Ok(HitProbe {
        per_line,
        store_entries: e.store().map_or(0, |s| s.len() as u64),
    })
}

/// Time the cold path of each fresh line in process: `Engine::respond`
/// plus the flush that publishes it on one engine with a store (whose
/// catalog is warm, as the server's is), and `Planner::plan` then
/// `Executor::run` on a second engine that has not seen the line either.
/// Also returns the store's entry count afterwards.
pub fn probe_misses(
    store: &Path,
    warm: &[&str],
    fresh: &[String],
) -> Result<(HashMap<String, MissCost>, u64), String> {
    let a = engine(Some(store));
    let b = engine(None);
    for line in warm {
        let r = request_of(line)?;
        a.respond(&r).map_err(|err| err.to_string())?;
        b.respond(&r).map_err(|err| err.to_string())?;
    }
    a.flush_store().map_err(|err| err.to_string())?;
    let mut out = HashMap::new();
    for line in fresh {
        let request = request_of(line)?;
        let t = Instant::now();
        let responded = a.respond(&request).map_err(|err| err.to_string())?;
        let respond = ns(t);
        let t = Instant::now();
        a.flush_store().map_err(|err| err.to_string())?;
        let flush = ns(t);
        let t = Instant::now();
        let plan = Planner::new(&b)
            .plan(&request)
            .map_err(|err| err.to_string())?;
        let plan_ns = ns(t);
        let t = Instant::now();
        black_box(
            Executor::new(&b)
                .run(&plan)
                .map_err(|err| err.to_string())?,
        );
        let exec = ns(t);
        out.insert(
            line.clone(),
            MissCost {
                respond,
                flush,
                plan: plan_ns,
                exec,
                points: responded.evals,
                items: plan.work_items(),
                predicted: plan.predicted_hits(),
            },
        );
    }
    Ok((out, a.store().map_or(0, |s| s.len() as u64)))
}

/// Nanoseconds per `route_key` plus `HashRing::route` over two live
/// workers, for the given lines.
pub fn probe_route(lines: &[&str], reps: usize) -> f64 {
    let ring = HashRing::new(2);
    let alive = [true, true];
    let t = Instant::now();
    for _ in 0..reps {
        for line in lines {
            black_box(ring.route(route_key(black_box(line)), &alive));
        }
    }
    ns(t) / (reps * lines.len()) as f64
}

/// The worker that owns `line` on a two-worker ring.
pub fn owner(line: &str) -> usize {
    HashRing::new(2)
        .route(route_key(line), &[true, true])
        .expect("a ring of two live workers routes every key")
}

/// Median nanoseconds of a cold `Engine::gpu_point` over Table 1's
/// baseline and optimized specs.
pub fn probe_gpu_points() -> Result<f64, String> {
    let e = engine(None);
    let mut t_ns = Vec::new();
    for case in Case::ALL {
        for spec in [
            ReductionSpec::baseline(case),
            ReductionSpec::optimized_paper(case),
        ] {
            let t = Instant::now();
            black_box(e.spec_gbps_paper(&spec).map_err(|err| err.to_string())?);
            t_ns.push(ns(t));
        }
    }
    Ok(median(&t_ns))
}

/// The real kernels of `ghr_parallel::workloads` at the functional
/// checksum's element count: nanoseconds per call for dot, scan and GEMV,
/// and the bytes one call of each moves, computed from the operand sizes
/// (not measured).
pub struct KernelCost {
    pub dot: f64,
    pub scan: f64,
    pub gemv: f64,
    pub bytes: [u64; 3],
}

impl KernelCost {
    pub fn of(&self, kind: &str) -> f64 {
        match kind {
            "dot" => self.dot,
            "scan" => self.scan,
            _ => self.gemv,
        }
    }
}

pub fn probe_kernels(reps: usize) -> KernelCost {
    let m = FUNC_M as usize;
    let cols = GEMV_COLS_DEFAULT as usize;
    let a: Vec<f64> = (0..m).map(|i| (i % 1000) as f64 * 0.5).collect();
    let b: Vec<f64> = (0..m).map(|i| ((i * 31 + 7) % 1000) as f64).collect();
    let x = &b[..cols];
    let time = |f: &dyn Fn()| {
        let v: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                ns(t)
            })
            .collect();
        median(&v)
    };
    let dot = time(&|| {
        black_box(ghr_parallel::dot_unrolled(black_box(&a), black_box(&b), 8));
    });
    let scan = time(&|| {
        black_box(ghr_parallel::scan_inclusive(black_box(&a)));
    });
    let gemv = time(&|| {
        black_box(ghr_parallel::gemv(black_box(&a), black_box(x), 8));
    });
    let f = std::mem::size_of::<f64>() as u64;
    let (m, cols) = (m as u64, cols as u64);
    KernelCost {
        dot,
        scan,
        gemv,
        bytes: [2 * m * f, 2 * m * f, (m + cols + m / cols) * f],
    }
}

/// Cold in-process study: every line `ghr all` runs through the engine,
/// planned and executed on a fresh engine with a store, then flushed; the
/// same lines answered by `Engine::respond` on a second fresh engine; and
/// every paper co-run configuration through `Engine::corun` on a third.
pub struct StudyProbe {
    pub respond_ns: Vec<f64>,
    pub plan_ns: Vec<f64>,
    pub exec_ns: Vec<f64>,
    pub predicted_hit_ratio: f64,
    pub flush_ns: f64,
    pub store_entries: u64,
    pub corun_ns: Vec<f64>,
}

pub fn probe_study(store: &Path) -> Result<StudyProbe, String> {
    let requests: Vec<Request> = STUDY_LINES
        .iter()
        .map(|l| request_of(l))
        .collect::<Result<_, _>>()?;
    let s = engine(Some(store));
    let (mut plan_ns, mut exec_ns) = (Vec::new(), Vec::new());
    let (mut predicted, mut items) = (0usize, 0usize);
    for r in &requests {
        let t = Instant::now();
        let plan = Planner::new(&s).plan(r).map_err(|e| e.to_string())?;
        plan_ns.push(ns(t));
        predicted += plan.predicted_hits();
        items += plan.work_items();
        let t = Instant::now();
        black_box(Executor::new(&s).run(&plan).map_err(|e| e.to_string())?);
        exec_ns.push(ns(t));
    }
    let t = Instant::now();
    s.flush_store().map_err(|e| e.to_string())?;
    let flush_ns = ns(t);
    let store_entries = s.store().map_or(0, |st| st.len() as u64);
    drop(s);

    let r = engine(None);
    let mut respond_ns = Vec::new();
    for req in &requests {
        let t = Instant::now();
        black_box(r.respond(req).map_err(|e| e.to_string())?);
        respond_ns.push(ns(t));
    }
    drop(r);

    let c = engine(None);
    let mut corun_ns = Vec::new();
    for case in Case::ALL {
        for alloc in [AllocSite::A1, AllocSite::A2] {
            for optimized in [false, true] {
                let t = Instant::now();
                black_box(
                    c.corun(&corun_config(case, alloc, optimized, false))
                        .map_err(|e| e.to_string())?,
                );
                corun_ns.push(ns(t));
            }
        }
    }
    Ok(StudyProbe {
        respond_ns,
        plan_ns,
        exec_ns,
        predicted_hit_ratio: predicted as f64 / items.max(1) as f64,
        flush_ns,
        store_entries,
        corun_ns,
    })
}
