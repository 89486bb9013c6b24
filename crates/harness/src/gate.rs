//! `repro gate` — the runtime half of the CI gate.
//!
//! [`run`] executes every arm in-process: the 100- and 1,000-node crowds
//! fault-free and under `lossy`, the 100k-node crowd, the default bubbles
//! run at one and four threads with and without `lossy`, and a 200-client
//! live smoke. Each crowd size runs serial, at `--threads 4` and (up to
//! [`RESHARD_MAX_NODES`]) resharded with 40 m regions.
//! [`check`] judges the reports against the constants below and names
//! each failed gate; it is pure, so `tests/gate.rs` drives every gate
//! with synthetic reports. [`write_artifacts`] renders `BENCH_scale.json`
//! and `BENCH_live.json` from the same reports.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use codec::json::Json;

use crate::bubbles::{self, BubblesConfig, BubblesReport};
use crate::crowd::{self, CrowdConfig, CrowdReport};
use crate::live::{self, LiveLoadConfig, LiveLoadReport};
use crate::scenario::fault_profile;

/// Events/s floor of the 100-node fault-free serial crowd: 65% of the
/// 600k baseline. Ten `repro gate` runs on the 2-core reference
/// container measured 470k–750k; the committed `BENCH_scale.json` run
/// measured 1.45M. The floor sits 17% under the slowest run, so a 2x
/// slowdown trips it.
pub const SERIAL_FLOOR: f64 = 600_000.0 * 0.65;
/// Events/s floor of the 100k-node serial crowd: 60% of the 250k
/// baseline. The same ten runs measured 245k–376k (`BENCH_scale.json`:
/// 629k).
pub const FLOOR_100K: f64 = 250_000.0 * 0.60;
/// Least `--threads 4` over serial events/s ratio at 100k nodes. The
/// acceptance target is 2x; the floor leaves room for noisy runners.
pub const MIN_SPEEDUP: f64 = 1.5;
/// Hosts with fewer hardware threads than this cannot show a parallel
/// speedup: the speedup gate is skipped and threads-4 documents say so.
pub const SPEEDUP_MIN_CORES: usize = 4;
/// Least share of the bubble-0 blob's audience it must reach, fault-free.
pub const MIN_DELIVERY: f64 = 0.95;
/// Least share of members whose group spans every bubble, fault-free.
pub const MIN_CONVERGENCE: f64 = 0.999;
/// Crowds up to this size also rerun resharded.
pub const RESHARD_MAX_NODES: usize = 10_000;
/// Live smoke clients; each completes [`LIVE_REQUESTS`] requests.
pub const LIVE_CLIENTS: usize = 200;
/// Requests per live smoke client.
pub const LIVE_REQUESTS: usize = 10;
/// Live smoke p99 ceiling. The 2-core reference container measures p99
/// around 10 ms; the ceiling trips on stalls and lost wakeups.
pub const LIVE_P99_CEILING_US: u64 = 2_000_000;

/// The committed 1M-node snapshot, merged into `BENCH_scale.json`.
pub const MILLION_PATH: &str = "BENCH_million.json";

/// A failed gate and what it saw.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// The gate's name, e.g. `parallel-digest` or `live-p99`.
    pub gate: &'static str,
    /// The measured values that failed it.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.gate, self.detail)
    }
}

/// One crowd size, run three ways.
#[derive(Clone, Debug)]
pub struct CrowdCase {
    /// One thread, default region edge.
    pub serial: CrowdReport,
    /// `--threads 4`, default region edge.
    pub threads4: CrowdReport,
    /// One thread, 40 m regions; `None` above [`RESHARD_MAX_NODES`].
    pub resharded: Option<CrowdReport>,
}

/// Everything the gate measured.
#[derive(Clone, Debug)]
pub struct GateReports {
    /// The host's hardware thread count.
    pub nproc: usize,
    /// `(events, allocations)` of [`crowd::trace_alloc_burst`]; the
    /// `trace-alloc` gate requires zero allocations.
    pub burst: (u64, u64),
    /// 100 nodes, 30 s, fault-free.
    pub crowd_100: CrowdCase,
    /// 1,000 nodes, 30 s, fault-free.
    pub crowd_1000: CrowdCase,
    /// 100 nodes, 30 s, `lossy`.
    pub lossy_100: CrowdCase,
    /// 1,000 nodes, 30 s, `lossy`.
    pub lossy_1000: CrowdCase,
    /// 100k nodes, 10 s, fault-free.
    pub crowd_100k: CrowdCase,
    /// Default bubbles, one thread.
    pub bubbles_serial: BubblesReport,
    /// Default bubbles, four threads.
    pub bubbles_threads4: BubblesReport,
    /// Default bubbles under `lossy`, one thread.
    pub bubbles_lossy: BubblesReport,
    /// Default bubbles under `lossy`, four threads.
    pub bubbles_lossy_threads4: BubblesReport,
    /// The live smoke.
    pub live: LiveLoadReport,
    /// The text of [`MILLION_PATH`] (empty when missing).
    pub million: String,
}

impl GateReports {
    fn crowd_cases(&self) -> [(&'static str, &CrowdCase); 5] {
        [
            ("fault-free", &self.crowd_100),
            ("fault-free", &self.crowd_1000),
            ("lossy", &self.lossy_100),
            ("lossy", &self.lossy_1000),
            ("fault-free", &self.crowd_100k),
        ]
    }

    /// `"unmeasured: <4 cores"` below [`SPEEDUP_MIN_CORES`], else the
    /// given threads-4 over serial ratios.
    fn speedup(&self, ratios: impl Iterator<Item = f64>) -> Json {
        if self.nproc < SPEEDUP_MIN_CORES {
            Json::from("unmeasured: <4 cores")
        } else {
            Json::Arr(ratios.map(Json::Num).collect())
        }
    }
}

/// Every gate's verdict in a fixed order: `(passed, gate, what it saw)`.
/// A NaN measurement fails its floor.
pub fn verdicts(r: &GateReports) -> Vec<(bool, &'static str, String)> {
    let mut out = Vec::new();
    let mut gate = |passed: bool, name, seen: String| out.push((passed, name, seen));
    let crowds = r.crowd_cases().map(|(faults, c)| {
        let (s, p) = (&c.serial, &c.threads4);
        let what = format!("{faults} crowd of {} nodes", s.nodes);
        (what, (s.digest, s.stats), (p.digest, p.stats))
    });
    let bubbles = [
        ("fault-free", &r.bubbles_serial, &r.bubbles_threads4),
        ("lossy", &r.bubbles_lossy, &r.bubbles_lossy_threads4),
    ]
    .map(|(faults, s, p)| {
        (
            format!("{faults} bubbles"),
            (s.digest, s.stats),
            (p.digest, p.stats),
        )
    });
    for (what, (s_digest, s_stats), (p_digest, p_stats)) in crowds.into_iter().chain(bubbles) {
        let seen = format!("{what}: serial {s_digest:016x}, threads4 {p_digest:016x}");
        gate(s_digest == p_digest, "parallel-digest", seen);
        let seen = if s_stats == p_stats {
            format!("{what}: equal")
        } else {
            format!("{what}: serial {s_stats:?}, threads4 {p_stats:?}")
        };
        gate(s_stats == p_stats, "parallel-stats", seen);
    }
    let same = |a: &CrowdReport, b: &CrowdReport| a.digest == b.digest && a.stats == b.stats;
    for (faults, c) in r.crowd_cases() {
        let (n, p) = (c.serial.nodes, &c.threads4);
        let (passed, seen) = match &c.resharded {
            Some(x) => (same(x, p), format!("{:016x}", x.digest)),
            None => (n > RESHARD_MAX_NODES, "not rerun".to_owned()),
        };
        gate(
            passed,
            "resharded",
            format!("{faults} crowd of {n} nodes: {seen}"),
        );
    }
    let (s100, s100k) = (&r.crowd_100.serial, &r.crowd_100k.serial);
    let seen = format!("{:.0} events/s, floor {SERIAL_FLOOR}", s100.events_per_sec);
    gate(s100.events_per_sec >= SERIAL_FLOOR, "serial-floor", seen);
    let seen = format!("{:.0} events/s, floor {FLOOR_100K}", s100k.events_per_sec);
    gate(s100k.events_per_sec >= FLOOR_100K, "floor-100k", seen);
    let ratio = r.crowd_100k.threads4.events_per_sec / s100k.events_per_sec;
    let measured = r.nproc >= SPEEDUP_MIN_CORES;
    let seen = if measured {
        format!("{ratio:.2}x, floor {MIN_SPEEDUP}x")
    } else {
        format!("{ratio:.2}x, unmeasured: {} cores", r.nproc)
    };
    gate(!measured || ratio >= MIN_SPEEDUP, "speedup", seen);
    let (events, allocs) = r.burst;
    let seen = format!("{allocs} allocations over {events} interned trace events");
    gate(allocs == 0, "trace-alloc", seen);
    for c in [&r.lossy_100, &r.lossy_1000] {
        let (n, dropped) = (c.serial.nodes, c.serial.stats.frames_dropped);
        let seen = format!("{n} nodes: {dropped} frames");
        gate(dropped > 0, "frames-dropped", seen);
    }
    let b = &r.bubbles_serial;
    let seen = format!("{}, floor {MIN_DELIVERY}", b.delivery_ratio);
    gate(b.delivery_ratio >= MIN_DELIVERY, "delivery", seen);
    let seen = format!("{}, floor {MIN_CONVERGENCE}", b.convergence_ratio);
    gate(b.convergence_ratio >= MIN_CONVERGENCE, "convergence", seen);
    let l = &r.live;
    gate(l.errors == 0, "live-errors", format!("{} errors", l.errors));
    let seen = format!("{} clients shed", l.server.shed);
    gate(l.server.shed == 0, "live-shed", seen);
    let want = (LIVE_CLIENTS * LIVE_REQUESTS) as u64;
    let seen = format!("{} of {want} responses", l.responses);
    gate(l.responses == want, "live-responses", seen);
    let seen = format!("{} µs, ceiling {LIVE_P99_CEILING_US} µs", l.p99_us);
    gate(l.p99_us <= LIVE_P99_CEILING_US, "live-p99", seen);
    let million = r.million.contains("\"nodes\": 1000000");
    let seen = if million { "records" } else { "lacks" };
    let seen = format!("{MILLION_PATH} {seen} the 1M-node run");
    gate(million, "million", seen);
    out
}

/// The gates `r` fails, each with what it saw; empty when all pass.
pub fn check(r: &GateReports) -> Vec<Failure> {
    verdicts(r)
        .into_iter()
        .filter(|(passed, ..)| !passed)
        .map(|(_, gate, detail)| Failure { gate, detail })
        .collect()
}

fn crowd_config(nodes: usize, horizon_secs: u64, faults: &str, threads: usize) -> CrowdConfig {
    CrowdConfig {
        nodes,
        horizon: Duration::from_secs(horizon_secs),
        threads,
        faults: fault_profile(faults).expect("a known fault profile"),
        ..CrowdConfig::default()
    }
}

fn crowd_case(nodes: usize, horizon_secs: u64, faults: &str) -> Result<CrowdCase, Box<dyn Error>> {
    let base = crowd_config(nodes, horizon_secs, faults, 1);
    Ok(CrowdCase {
        serial: crowd::run(&base)?,
        threads4: crowd::run(&crowd_config(nodes, horizon_secs, faults, 4))?,
        resharded: if nodes <= RESHARD_MAX_NODES {
            Some(crowd::run(&CrowdConfig {
                region_edge_m: 40.0,
                compare_naive: false,
                ..base
            })?)
        } else {
            None
        },
    })
}

/// Runs every arm. `alloc_count` backs [`crowd::trace_alloc_burst`].
/// With `remeasure_million` the 1M-node crowd reruns last and rewrites
/// [`MILLION_PATH`]; otherwise the committed snapshot is read.
///
/// `peak_rss_bytes` is a process high-water mark, so crowds run in
/// increasing size: no recorded mark comes from an earlier, larger run.
///
/// # Errors
///
/// A rejected config, a failed live smoke or an unwritable snapshot.
pub fn run(
    alloc_count: &dyn Fn() -> u64,
    remeasure_million: bool,
) -> Result<GateReports, Box<dyn Error>> {
    // Untimed warm-up: a cold first run sometimes trips the serial floor.
    crowd::run(&crowd_config(100, 30, "none", 1))?;
    let burst = crowd::trace_alloc_burst(alloc_count);
    let crowd_100 = crowd_case(100, 30, "none")?;
    let lossy_100 = crowd_case(100, 30, "lossy")?;
    let crowd_1000 = crowd_case(1000, 30, "none")?;
    let lossy_1000 = crowd_case(1000, 30, "lossy")?;
    let crowd_100k = crowd_case(100_000, 10, "none")?;
    if remeasure_million {
        let base = crowd_config(1_000_000, 10, "none", 1);
        let doc = crowd::sweep_json(&base, "none", &[crowd::run(&base)?], burst);
        std::fs::write(MILLION_PATH, format!("{}\n", doc.to_string_pretty()))?;
    }
    let bubbles = |threads, faults| {
        bubbles::run(&BubblesConfig {
            threads,
            faults: fault_profile(faults).expect("a known fault profile"),
            ..BubblesConfig::default()
        })
    };
    let live = LiveLoadConfig::default()
        .with_clients(LIVE_CLIENTS)
        .with_requests_per_client(LIVE_REQUESTS)
        .with_workers(2)
        .with_shards(1);
    Ok(GateReports {
        nproc: crowd::host_cores(),
        burst,
        crowd_100,
        crowd_1000,
        lossy_100,
        lossy_1000,
        crowd_100k,
        bubbles_serial: bubbles(1, "none")?,
        bubbles_threads4: bubbles(4, "none")?,
        bubbles_lossy: bubbles(1, "lossy")?,
        bubbles_lossy_threads4: bubbles(4, "lossy")?,
        live: live::run_live_load(&live)?,
        million: std::fs::read_to_string(MILLION_PATH).unwrap_or_default(),
    })
}

/// `BENCH_scale.json`: one document per arm under the record's
/// established top-level keys, the 1M snapshot merged verbatim.
/// Threads-4 documents carry a `speedup` field (see
/// [`SPEEDUP_MIN_CORES`]).
pub fn scale_json(r: &GateReports) -> String {
    // (serial, threads-4) documents of one crowd arm.
    let crowd_docs = |faults: &str, horizon_secs, cases: &[&CrowdCase]| {
        let doc = |threads, runs: Vec<CrowdReport>| {
            let base = crowd_config(0, horizon_secs, faults, threads);
            crowd::sweep_json(&base, faults, &runs, r.burst)
        };
        let ratios = cases
            .iter()
            .map(|c| c.threads4.events_per_sec / c.serial.events_per_sec);
        let serial = doc(1, cases.iter().map(|c| c.serial.clone()).collect());
        let threads4 = cases.iter().map(|c| c.threads4.clone()).collect();
        let threads4 = doc(4, threads4).field("speedup", r.speedup(ratios));
        (serial.to_string_pretty(), threads4.to_string_pretty())
    };
    let (serial, threads4) = crowd_docs("none", 30, &[&r.crowd_100, &r.crowd_1000]);
    let (serial_100k, threads4_100k) = crowd_docs("none", 10, &[&r.crowd_100k]);
    let (faulted, faulted_threads4) = crowd_docs("lossy", 30, &[&r.lossy_100, &r.lossy_1000]);
    let bubbles_ratio = r.bubbles_serial.wall_ms / r.bubbles_threads4.wall_ms;
    let bubbles_threads4 = r.bubbles_threads4.to_json();
    let bubbles_threads4 =
        bubbles_threads4.field("speedup", r.speedup([bubbles_ratio].into_iter()));
    let entries = [
        ("serial", serial),
        ("threads4", threads4),
        ("crowd100k_serial", serial_100k),
        ("crowd100k_threads4", threads4_100k),
        ("million", r.million.trim_end().to_owned()),
        ("faulted_serial", faulted),
        ("faulted_threads4", faulted_threads4),
        (
            "bubbles_serial",
            r.bubbles_serial.to_json().to_string_pretty(),
        ),
        ("bubbles_threads4", bubbles_threads4.to_string_pretty()),
        (
            "bubbles_lossy",
            r.bubbles_lossy.to_json().to_string_pretty(),
        ),
    ];
    let body: Vec<String> = entries
        .iter()
        .map(|(key, doc)| format!("\"{key}\": {doc}\n"))
        .collect();
    format!("{{\n{}}}\n", body.join(",\n"))
}

/// Writes `BENCH_scale.json` and `BENCH_live.json` from `r`.
///
/// # Errors
///
/// Either file is unwritable.
pub fn write_artifacts(r: &GateReports) -> std::io::Result<()> {
    std::fs::write("BENCH_scale.json", scale_json(r))?;
    let live = r.live.to_json().to_string_pretty();
    std::fs::write("BENCH_live.json", format!("{live}\n"))
}
