//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced]
//!               [--toy] [--inject digest|journal] [--out PATH]
//! ```
//!
//! With `--workload` the named workload runs in this process; without it
//! every workload runs, each in a fresh child process. Every metric is
//! printed by name with its unit, a JSON result is written, and the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is nonzero when a check fails.
//! See `README.md` for the workloads and metrics.

mod alloc;
mod common;
mod digests;
mod json;
mod live;
mod metrics;
mod sim;
mod spans;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use codec::json::Json;

use common::{Inject, Outcome, RunOpts};
use live::LiveSpec;
use sim::{CrowdSpec, GossipSpec};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Every workload, in run order. `BENCHMARK.json` gates the simulator
/// workloads only: the live server's latency is set by a race with its
/// 1 ms shard nap whose outcome follows how idle the host's other cores
/// are, so the live workloads do not repeat on a shared host (README.md).
const WORKLOADS: [&str; 5] = [
    "crowd_100k",
    "crowd_lossy_20k",
    "gossip_bubbles",
    "live_read",
    "live_write",
];

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: perfbench run [--workload W] [--seed S] [--seconds N] \
[--trace 0|1 | --traced] [--toy] [--inject digest|journal] [--out PATH]";

struct Args {
    workload: Option<String>,
    opts: RunOpts,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String], work_dir: PathBuf) -> Result<Args, String> {
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("run") {
        return Err(USAGE.into());
    }
    let mut a = Args {
        workload: None,
        opts: RunOpts {
            seed: 1,
            seconds: Duration::from_secs_f64(DEFAULT_SECONDS),
            traced: false,
            toy: false,
            inject: None,
            work_dir,
        },
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.opts.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                a.opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => a.opts.traced = true,
            "--toy" => a.opts.toy = true,
            "--inject" => {
                a.opts.inject = Some(match value()?.as_str() {
                    "digest" => Inject::Digest,
                    "journal" => Inject::Journal,
                    other => return Err(format!("--inject takes digest or journal, not {other}")),
                })
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let toy = opts.toy;
    fn sized<T>(toy: bool, full: T, small: T) -> T {
        if toy {
            small
        } else {
            full
        }
    }
    let pick = |full: usize, small: usize| sized(toy, full, small);
    let secs = |full: u64, small: u64| Duration::from_secs(sized(toy, full, small));
    match name {
        "crowd_100k" => Ok(sim::crowd(
            &CrowdSpec {
                name: "crowd_100k",
                nodes: pick(100_000, 1_000),
                horizon: secs(20, 2),
                step: Duration::from_millis(20),
                lossy: false,
            },
            opts,
        )),
        "crowd_lossy_20k" => Ok(sim::crowd(
            &CrowdSpec {
                name: "crowd_lossy_20k",
                nodes: pick(20_000, 500),
                horizon: secs(120, 10),
                step: Duration::from_millis(100),
                lossy: true,
            },
            opts,
        )),
        "gossip_bubbles" => Ok(sim::gossip(
            &GossipSpec {
                per_bubble: pick(8, 2),
                seeds: pick(12, 1) as u64,
                step: Duration::from_secs(1),
            },
            opts,
        )),
        "live_read" | "live_write" => live::live(
            &LiveSpec {
                write: name == "live_write",
                block: pick(200, 20),
            },
            opts,
        )
        .map_err(|e| format!("{name}: {e}")),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// The host facts every result records.
fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let parallel = if nproc < 4 {
        "unmeasured: <4 cores"
    } else {
        "unmeasured: no --threads workload"
    };
    Json::obj()
        .field("nproc", nproc)
        .field("threads", 1u64)
        .field("parallel_epoch_engine", parallel)
}

/// The declared metric list a run reports.
fn declared(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    }
}

/// The summary line: `correct`, `attempted`, `failed`, `metrics`.
fn summary(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().field("value", value).field("unit", unit)
}

fn write_result(path: &Path, result: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, result.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process: print, write, summarise.
fn single(name: &str, opts: &RunOpts, out: &Path) -> Result<bool, String> {
    let mut outcome = run_workload(name, opts)?;
    // A check can fail operations another check already failed.
    outcome.failed = outcome.failed.min(outcome.attempted);
    let mut metrics = Json::obj();
    for &(metric_name, unit) in declared(opts.traced) {
        // A traced run reports 0 for a layer the workload bypasses; an
        // untraced run measures every end-to-end metric.
        assert!(
            opts.traced || outcome.metrics.has(metric_name),
            "{name} did not measure {metric_name}"
        );
        let v = outcome.metrics.get(metric_name);
        println!("{name:<16} {metric_name:<40} {v:>16.6} {unit}");
        metrics = metrics.field(metric_name, metric(v, unit));
    }
    for note in &outcome.notes {
        println!("{name:<16} FAILED: {note}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let info = outcome
        .info
        .into_iter()
        .fold(Json::obj(), |j, (k, v)| j.field(k, v));
    let result = Json::obj()
        .field("workload", name)
        .field("seed", opts.seed)
        .field("seconds", opts.seconds.as_secs_f64())
        .field("trace", u64::from(opts.traced))
        .field("toy", opts.toy)
        .field("host", host())
        .field("correct", correct)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field(
            "notes",
            Json::Arr(
                outcome
                    .notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        )
        .field("metrics", metrics.clone())
        .field("info", info);
    write_result(out, &result)?;
    println!("result written to {}", out.display());
    let line = summary(correct, outcome.attempted, outcome.failed, metrics);
    println!("{}", line.to_string_compact());
    Ok(correct)
}

/// Every workload, each in a fresh child process.
fn all(opts: &RunOpts, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut merged = Json::obj();
    let mut workloads = Json::obj();
    for name in WORKLOADS {
        let child_out = opts.work_dir.join(format!("perfbench-{name}.json"));
        // A child that dies before writing must not leave an older result
        // to be read in its place.
        let _ = std::fs::remove_file(&child_out);
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.as_secs_f64().to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&child_out);
        if opts.toy {
            cmd.arg("--toy");
        }
        match opts.inject {
            Some(Inject::Digest) => cmd.args(["--inject", "digest"]),
            Some(Inject::Journal) => cmd.args(["--inject", "journal"]),
            None => &mut cmd,
        };
        let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
        let text = std::fs::read_to_string(&child_out)
            .map_err(|e| format!("{name} wrote no result ({status}): {e}"))?;
        let result = json::parse(&text).map_err(|e| format!("{name} result: {e}"))?;
        let num = |k: &str| match json::get(&result, k) {
            Some(Json::Num(n)) => *n as u64,
            _ => 0,
        };
        attempted += num("attempted");
        failed += num("failed");
        correct &= status.success() && json::get(&result, "correct") == Some(&Json::Bool(true));
        if let Some(Json::Obj(pairs)) = json::get(&result, "metrics") {
            for (k, v) in pairs {
                merged = merged.field(&format!("{name}.{k}"), v.clone());
            }
        }
        workloads = workloads.field(name, result);
    }
    let combined = Json::obj()
        .field("seed", opts.seed)
        .field("seconds", opts.seconds.as_secs_f64())
        .field("trace", u64::from(opts.traced))
        .field("toy", opts.toy)
        .field("host", host())
        .field("correct", correct)
        .field("workloads", workloads);
    write_result(out, &combined)?;
    println!("all workloads: result written to {}", out.display());
    println!(
        "{}",
        summary(correct, attempted, failed, merged).to_string_compact()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Working files live next to the executable, inside the build
    // directory.
    let work_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-work")))
        .unwrap_or_else(|| PathBuf::from("perfbench-work"));
    let args = match parse_args(&argv, work_dir) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let default_out = |stem: &str| args.opts.work_dir.join(format!("perfbench-{stem}.json"));
    let ran = match &args.workload {
        Some(name) => single(
            name,
            &args.opts,
            &args.out.clone().unwrap_or_else(|| default_out(name)),
        ),
        None => all(
            &args.opts,
            &args.out.clone().unwrap_or_else(|| default_out("all")),
        ),
    };
    match ran {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
