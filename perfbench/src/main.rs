//! The repository's benchmark: end-to-end and per-layer measurements of
//! the `ghr` serving stack and of the cold paper study.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-warm|router-warm|serve-mixed|study-cold> \
//!     --seed N --seconds S --trace <0|1> [--repeat N]
//! ```
//!
//! Run from the root of the repository. It builds `ghr` with the
//! repository's own manifest, drives one workload, checks every answer,
//! prints each metric by name with its unit and sample count, and ends
//! with one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer split with `--trace 1`. `--repeat N` runs N seeds from
//! `--seed` on and reports each metric's median, quartiles and spread
//! against the bounds in `BENCHMARK.json`. See `perfbench/README.md`.

mod cluster;
mod gen;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ghr_types::Json;

use workloads::{Ctx, Outcome, PER_LAYER};

const WORKLOADS: [&str; 4] = ["serve-warm", "router-warm", "serve-mixed", "study-cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) = (None, 1, 10.0, false, None);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repeat,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.repeat {
        Some(n) => repeat(&args, n),
        None => run_once(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Build `ghr` from the checkout's own manifest and return its path.
fn build_ghr(root: &Path) -> Result<PathBuf, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
        return Err(format!(
            "{} is not the root of a ghr checkout (run from the repository root)",
            root.display()
        ));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ghr-cli",
            "--bin",
            "ghr",
        ])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ghr failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let ghr = root.join(target).join("release").join("ghr");
    if ghr.is_file() {
        Ok(ghr)
    } else {
        Err(format!("built ghr not found at {}", ghr.display()))
    }
}

fn run_once(args: &Args) -> Result<ExitCode, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let ghr = build_ghr(&root)?;
    // Relative, so socket paths stay short wherever the checkout lives.
    let work = PathBuf::from(".bench_work").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        ghr,
        work: work.clone(),
        root,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = workloads::run(&args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let outcome = outcome?;
    print_report(args, &outcome);
    Ok(if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// A number as JSON: every digit as measured.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_report(args: &Args, o: &Outcome) {
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for p in &o.problems {
        println!("CHECK FAILED: {p}");
    }
    let mut fields = Vec::new();
    if args.trace {
        let mut absent = Vec::new();
        for (name, unit) in PER_LAYER {
            match o.layer.get(name) {
                Some(v) => {
                    println!("{name} = {} {unit}", num(*v));
                    fields.push(format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        num(*v)
                    ));
                }
                None => absent.push(name),
            }
        }
        if !absent.is_empty() {
            println!(
                "absent (not reported by the program): {}",
                absent.join(", ")
            );
        }
    } else {
        for m in &o.e2e {
            println!("{}", describe(m));
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            ));
        }
    }
    for m in &o.notes {
        println!("{} (not scored)", describe(m));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.problems.is_empty(),
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    );
}

fn describe(m: &workloads::Metric) -> String {
    let mut s = format!("{} = {} {}", m.name, num(m.value), m.unit);
    if let Some(n) = m.n {
        s.push_str(&format!(" (n={n})"));
    }
    if !m.note.is_empty() {
        s.push_str(&format!(" [{}]", m.note));
    }
    s
}

/// Run `n` seeds as separate processes and report each metric's median,
/// quartiles and spread (inter-quartile distance over median), flagging
/// any spread above its bound in `BENCHMARK.json`.
fn repeat(args: &Args, n: usize) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bounds = read_bounds(Path::new("BENCHMARK.json"));
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut failed_runs = 0;
    for i in 0..n {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let correct = doc.as_ref().and_then(|d| d.get("correct")) == Some(&Json::Bool(true));
        if !out.status.success() || !correct {
            failed_runs += 1;
            eprintln!(
                "seed {seed}: run failed\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            continue;
        }
        let Some(Json::Obj(metrics)) = doc.as_ref().and_then(|d| d.get("metrics")) else {
            continue;
        };
        let mut line = format!("seed {seed}:");
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            line.push_str(&format!(" {name}={v:.6}"));
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some(entry) => entry.2.push(v),
                None => values.push((name.clone(), unit, vec![v])),
            }
        }
        eprintln!("{line}");
    }
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut unsteady = 0;
    for (name, unit, v) in &values {
        let [q1, med, q3] = stats::quartiles(v);
        let spread = stats::spread(v);
        let bound = bounds.iter().find(|(n, _)| n == name).map(|b| b.1);
        let flag = match bound {
            Some(b) if name != "setup_s" && spread > b => {
                unsteady += 1;
                "  SPREAD ABOVE BOUND"
            }
            Some(b) if spread > b / 3.0 => "  spread above a third of the bound",
            _ => "",
        };
        println!(
            "{:<28} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6} {unit}{flag}",
            name,
            q1,
            med,
            q3,
            spread,
            bound.map_or("-".into(), |b| format!("{b}")),
        );
    }
    println!("{n} runs, {failed_runs} failed, {unsteady} metric(s) above their bound");
    Ok(if failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn read_bounds(path: &Path) -> Vec<(String, f64)> {
    let Some(doc) = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| Json::parse(&s).ok())
    else {
        return Vec::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}
