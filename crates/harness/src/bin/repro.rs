//! `repro` — regenerate every table and figure of the thesis evaluation.
//!
//! Run `repro help` for the experiment list; `repro all` runs everything.
//! Each subcommand prints a paper-vs-measured report to stdout.

use std::process::ExitCode;

use ph_harness::{ablations, bubbles, crowd, functionality, gate, live, msc, scenario, table8};

/// Counts heap allocations so `repro crowd` can prove the interned trace
/// path allocates nothing in steady state (see
/// [`crowd::trace_alloc_burst`]). Deallocation is uncounted: only the
/// allocation delta matters.
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Sequentially consistent like every other atomic in the workspace;
    /// on x86-64 a `fetch_add` is one `lock xadd` under any ordering.
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: delegates every operation to `System` unchanged; the only
    // addition is a counter increment.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// A flag a subcommand accepts: its name and, for a flag that takes a
/// value, the placeholder its usage line shows and the check the value
/// must pass.
type Flag = (&'static str, Option<(&'static str, fn(&str) -> bool)>);

fn is_count(v: &str) -> bool {
    v.parse::<u64>().is_ok()
}

const SEED: Flag = ("--seed", Some(("S", is_count)));
const TRIALS: Flag = ("--trials", Some(("N", is_count)));
const HORIZON: Flag = ("--horizon", Some(("SECS", is_count)));
const THREADS: Flag = ("--threads", Some(("N", is_count)));
const FAULTS: Flag = (
    "--faults",
    Some(("none|lossy", |v| scenario::fault_profile(v).is_some())),
);
const JSON: Flag = ("--json", None);
const OPS: &str = "member-list|interest-list|view-profile|put-comment|trusted-friends|\
                   shared-content|send-message|working-principle";
const OP: Flag = ("--op", Some((OPS, |v| msc::MscOp::parse(v).is_some())));
const PEERS: Flag = ("--peers", Some(("N", is_count)));
const BUBBLES: Flag = ("--bubbles", Some(("K", is_count)));
const PER_BUBBLE: Flag = ("--per-bubble", Some(("N", is_count)));
const FERRIES: Flag = ("--ferries", Some(("F", is_count)));
const NODES: Flag = (
    "--nodes",
    Some(("N[,N,...]", |v| v.split(',').all(is_count))),
);
const REGION_EDGE: Flag = ("--region-edge", Some(("M", |v| v.parse::<f64>().is_ok())));
const CLIENTS: Flag = ("--clients", Some(("N", is_count)));
const REQUESTS: Flag = ("--requests", Some(("N", is_count)));
const WORKERS: Flag = ("--workers", Some(("N", is_count)));
const SHARDS: Flag = ("--shards", Some(("N", is_count)));
const QUEUE_CAP: Flag = ("--queue-cap", Some(("BYTES", is_count)));
const STALLED: Flag = ("--stalled", Some(("N", is_count)));

/// Every subcommand with the flags it accepts.
const COMMANDS: &[(&str, &[Flag])] = &[
    ("table3", &[SEED]),
    ("table6", &[]),
    ("table7", &[SEED]),
    ("table8", &[TRIALS, SEED, JSON]),
    ("tables-static", &[]),
    ("fig6", &[]),
    ("fig7", &[SEED]),
    ("msc", &[OP, SEED]),
    ("msc-all", &[SEED]),
    ("ablation-tech", &[TRIALS, SEED]),
    ("ablation-scaling", &[SEED]),
    ("ablation-semantics", &[SEED]),
    ("ablation-handover", &[TRIALS, SEED]),
    ("ablation-churn", &[SEED]),
    ("lab", &[SEED, PEERS, HORIZON, FAULTS]),
    (
        "bubbles",
        &[
            SEED, BUBBLES, PER_BUBBLE, FERRIES, HORIZON, THREADS, FAULTS, JSON,
        ],
    ),
    (
        "crowd",
        &[SEED, NODES, HORIZON, THREADS, REGION_EDGE, FAULTS, JSON],
    ),
    (
        "live",
        &[CLIENTS, REQUESTS, WORKERS, SHARDS, QUEUE_CAP, STALLED, JSON],
    ),
    ("gate", &[]),
    ("all", &[TRIALS, SEED]),
    ("help", &[]),
    ("--help", &[]),
    ("-h", &[]),
];

fn usage(cmd: &str, flags: &[Flag]) -> String {
    let flags = flags.iter().map(|(name, value)| match value {
        Some((placeholder, _)) => format!(" [{name} {placeholder}]"),
        None => format!(" [{name}]"),
    });
    format!("usage: repro {cmd}{}", flags.collect::<String>())
}

/// A subcommand's flags as given; every value passed its flag's check.
struct Args(Vec<(&'static str, Option<String>)>);

impl Args {
    /// Rejects an undeclared flag, a missing value and a value that fails
    /// its check.
    fn parse(flags: &[Flag], args: &[String]) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(&(name, value)) = flags.iter().find(|(name, _)| name == arg) else {
                return Err(format!("unknown argument {arg:?}"));
            };
            let value = match value {
                None => None,
                Some((placeholder, check)) => match args.next() {
                    Some(v) if check(v) => Some(v.clone()),
                    Some(v) => return Err(format!("{name} wants {placeholder}, got {v:?}")),
                    None => return Err(format!("{name} wants {placeholder}")),
                },
            };
            given.push((name, value));
        }
        Ok(Args(given))
    }

    fn on(&self, flag: &str) -> bool {
        self.0.iter().any(|(name, _)| *name == flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        let given = self.0.iter().rev().find(|(name, _)| *name == flag);
        given.and_then(|(_, v)| v.as_deref())
    }

    fn count(&self, flag: &str) -> Option<u64> {
        self.text(flag)
            .map(|v| v.parse().expect("checked when parsed"))
    }

    fn faults(&self) -> &str {
        self.text("--faults").unwrap_or("none")
    }

    fn fault_plan(&self) -> netsim::FaultPlan {
        scenario::fault_profile(self.faults()).expect("checked when parsed")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map_or("help", String::as_str);
    let Some(&(_, flags)) = COMMANDS.iter().find(|(name, _)| *name == cmd) else {
        eprintln!("unknown command {cmd:?}; run `repro help`");
        return ExitCode::from(2);
    };
    match Args::parse(flags, argv.get(1..).unwrap_or_default()).and_then(|args| run(cmd, &args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("repro {cmd}: {e}\n{}", usage(cmd, flags));
            ExitCode::from(2)
        }
    }
}

/// Runs `cmd`; `Err` is a usage error.
fn run(cmd: &str, args: &Args) -> Result<ExitCode, String> {
    let trials = args.count("--trials").unwrap_or(30) as usize;
    let seed = args.count("--seed").unwrap_or(2008);
    let horizon = |default| args.count("--horizon").unwrap_or(default);
    let threads = args.count("--threads").unwrap_or(1) as usize;
    let json = args.on("--json");

    match cmd {
        "table3" => run_table3(seed),
        "table6" => run_table6(),
        "table7" => run_table7(seed),
        "table8" if json => println!("{}", table8::run(trials, seed).to_json()),
        "table8" => run_table8(trials, seed),
        "tables-static" => run_tables_static(),
        "fig6" => run_fig6(),
        "fig7" => run_msc(msc::MscOp::WorkingPrinciple, seed),
        "msc" => {
            let Some(op) = args.text("--op").and_then(msc::MscOp::parse) else {
                return Err("--op is required".to_owned());
            };
            run_msc(op, seed)
        }
        "msc-all" => {
            for op in msc::MscOp::ALL {
                run_msc(op, seed);
                println!();
            }
        }
        "lab" => {
            let peers = args.count("--peers").unwrap_or(3) as usize;
            run_lab(seed, peers, horizon(120), args.fault_plan());
        }
        "bubbles" => {
            let config = bubbles::BubblesConfig {
                seed,
                bubbles: args.count("--bubbles").unwrap_or(3) as usize,
                nodes_per_bubble: args.count("--per-bubble").unwrap_or(4) as usize,
                ferries: args.count("--ferries").unwrap_or(2) as usize,
                horizon: std::time::Duration::from_secs(horizon(600)),
                threads,
                faults: args.fault_plan(),
                ..bubbles::BubblesConfig::default()
            };
            match bubbles::run(&config) {
                Ok(report) if json => println!("{}", report.to_json().to_string_pretty()),
                Ok(report) => print!("{}", report.render()),
                Err(e) => {
                    eprintln!("bubbles config rejected: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        "crowd" => {
            let nodes = args.text("--nodes").unwrap_or("30,100,300,1000").split(',');
            let sizes: Vec<usize> = nodes
                .map(|v| v.parse().expect("checked when parsed"))
                .collect();
            let region_edge = args.text("--region-edge");
            let base = crowd::CrowdConfig {
                seed,
                horizon: std::time::Duration::from_secs(horizon(60)),
                threads,
                region_edge_m: region_edge.map_or(0.0, |v| v.parse().expect("checked when parsed")),
                faults: args.fault_plan(),
                ..crowd::CrowdConfig::default()
            };
            if !run_crowd(&base, &sizes, args.faults(), json) {
                return Ok(ExitCode::FAILURE);
            }
        }
        "live" => {
            let config = live::LiveLoadConfig::default()
                .with_clients(args.count("--clients").unwrap_or(1000) as usize)
                .with_requests_per_client(args.count("--requests").unwrap_or(20) as usize)
                .with_workers(args.count("--workers").unwrap_or(4) as usize)
                .with_shards(args.count("--shards").unwrap_or(2) as usize)
                .with_stalled(args.count("--stalled").unwrap_or(0) as usize);
            let config = match args.count("--queue-cap") {
                Some(cap) => config.with_queue_cap(cap as usize),
                None => config,
            };
            match live::run_live_load(&config) {
                Ok(report) if json => println!("{}", report.to_json().to_string_pretty()),
                Ok(report) => println!("{}", report.render()),
                Err(e) => {
                    eprintln!("live load failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        "gate" => return Ok(run_gate()),
        "ablation-tech" => run_ablation_tech(trials.min(20), seed),
        "ablation-scaling" => run_ablation_scaling(seed),
        "ablation-semantics" => run_ablation_semantics(seed),
        "ablation-handover" => run_ablation_handover(trials.min(10), seed),
        "ablation-churn" => run_ablation_churn(seed),
        "all" => {
            run_tables_static();
            run_table3(seed);
            run_table6();
            run_table7(seed);
            run_table8(trials, seed);
            run_fig6();
            for op in msc::MscOp::ALL {
                run_msc(op, seed);
                println!();
            }
            run_ablation_tech(10, seed);
            run_ablation_scaling(seed);
            run_ablation_semantics(seed);
            run_ablation_handover(8, seed);
            run_ablation_churn(seed);
        }
        _ => print_help(),
    }
    Ok(ExitCode::SUCCESS)
}

fn run_table3(seed: u64) {
    let checks = functionality::table3(seed);
    println!(
        "{}",
        functionality::render_checks("Table 3 — functionality of PeerHood (executed)", &checks)
    );
}

fn run_table6() {
    let checks = functionality::table6();
    println!(
        "{}",
        functionality::render_checks(
            "Table 6 — client requests and corresponding server functions (executed)",
            &checks
        )
    );
}

fn run_table7(seed: u64) {
    let checks = functionality::table7(seed);
    println!(
        "{}",
        functionality::render_checks(
            "Table 7 — features of the reference implementation (executed)",
            &checks
        )
    );
}

fn run_table8(trials: usize, seed: u64) {
    println!("{}", table8::run(trials, seed).render());
}

fn run_tables_static() {
    println!("Table 1 — WLAN standards (as surveyed by the thesis)");
    for w in sns::catalog::WLAN_STANDARDS {
        println!("  {:<22} {:<42} {}", w.standard, w.data_rate, w.security);
    }
    println!("\nTable 2 — social networking sites and registered users (2008)");
    for e in sns::catalog::SNS_CATALOG {
        println!(
            "  {:<20} {:<18} {:>12}  {}",
            e.name, e.url, e.registered_users, e.focus
        );
    }
    println!();
}

fn run_fig6() {
    use community::discovery::Discovery;
    use community::semantics::MatchPolicy;
    use community::Interest;

    println!("Figure 6 — dynamic group discovery algorithm (worked example)");
    let own: Vec<Interest> = ["Football", "Mobile P2P", "Sauna"]
        .into_iter()
        .map(Interest::new)
        .collect();
    let neighbors: Vec<(String, Vec<Interest>)> = vec![
        (
            "arto".into(),
            vec![Interest::new("football"), Interest::new("guitar")],
        ),
        (
            "jari".into(),
            vec![Interest::new("Mobile P2P"), Interest::new("sauna")],
        ),
        ("petri".into(), vec![Interest::new("chess")]),
    ];
    println!("  active user 'bishal' interests: {own:?}");
    for (name, interests) in &neighbors {
        println!("  nearby member {name}: {interests:?}");
    }
    println!("  comparing each personal interest with each nearby member's interests...");
    let groups = Discovery::new("bishal", &MatchPolicy::Exact).groups(&own, &neighbors);
    for group in groups.values() {
        println!(
            "  -> group {:?} formed with members {:?}",
            group.label, group.members
        );
    }
    println!();
}

fn run_msc(op: msc::MscOp, seed: u64) {
    let run = msc::run(op, seed);
    println!("{}", run.render());
}

fn run_ablation_tech(trials: usize, seed: u64) {
    let rows = ablations::discovery_by_technology(trials.max(3), seed);
    println!("{}", ablations::render_discovery_by_technology(&rows));
}

fn run_ablation_scaling(seed: u64) {
    let points = ablations::scaling(&[1, 2, 4, 8], 3, seed);
    println!("{}", ablations::render_scaling(&points));
}

fn run_ablation_semantics(seed: u64) {
    let rows: Vec<_> = [1usize, 2, 3, 4, 6]
        .into_iter()
        .map(|spellings| ablations::semantics(40, 5, spellings, seed))
        .collect();
    println!("{}", ablations::render_semantics(&rows));
}

fn run_ablation_handover(trials: usize, seed: u64) {
    let rows = ablations::handover(trials.max(2), seed);
    println!("{}", ablations::render_handover(&rows));
}

fn run_ablation_churn(seed: u64) {
    let rows: Vec<_> = [4usize, 8, 16]
        .into_iter()
        .map(|members| ablations::churn(members, 8, seed))
        .collect();
    println!("{}", ablations::render_churn(&rows));
}

fn run_lab(seed: u64, peers: usize, horizon_secs: u64, faults: netsim::FaultPlan) {
    use netsim::SimTime;

    let mut s = scenario::lab(&scenario::LabConfig {
        seed,
        peer_count: peers,
        faults,
        ..scenario::LabConfig::default()
    });
    s.cluster.run_until(SimTime::from_secs(horizon_secs));
    let groups = s.cluster.app(s.observer).groups();
    println!("Lab scenario — {peers} peers, {horizon_secs}s horizon");
    for g in &groups {
        println!("  group {:?}: {:?}", g.key, g.members);
    }
    println!("  trace digest {:016x}", s.cluster.trace().digest());
    println!("  {}", s.cluster.stats());
}

fn run_crowd(base: &crowd::CrowdConfig, sizes: &[usize], faults: &str, json: bool) -> bool {
    let reports = match crowd::sweep(base, sizes) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("crowd config rejected: {e}");
            return false;
        }
    };
    let burst = crowd::trace_alloc_burst(&alloc_count);
    if json {
        let doc = crowd::sweep_json(base, faults, &reports, burst);
        println!("{}", doc.to_string_pretty());
    } else {
        print!("{}", crowd::render(&reports));
        let (events, allocs) = burst;
        println!(
            "\ninterned trace burst: {events} events, {allocs} heap allocations \
             ({:.4}/event)",
            allocs as f64 / events as f64
        );
    }
    true
}

/// Runs every gate arm, prints what was measured, and rewrites
/// `BENCH_scale.json` and `BENCH_live.json` when every gate passes.
/// `PH_CI_MILLION=1` also re-measures the 1M-node run.
fn run_gate() -> ExitCode {
    let remeasure_million = std::env::var("PH_CI_MILLION").is_ok_and(|v| v == "1");
    let reports = match gate::run(&alloc_count, remeasure_million) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("gate could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (passed, name, seen) in gate::verdicts(&reports) {
        println!("{} {name}: {seen}", if passed { "ok  " } else { "FAIL" });
    }
    let failures = gate::check(&reports);
    if !failures.is_empty() {
        eprintln!("gate: {} check(s) failed", failures.len());
        return ExitCode::FAILURE;
    }
    if let Err(e) = gate::write_artifacts(&reports) {
        eprintln!("gate could not write its artifacts: {e}");
        return ExitCode::FAILURE;
    }
    println!("gate: every check passed; wrote BENCH_scale.json and BENCH_live.json");
    ExitCode::SUCCESS
}

fn alloc_count() -> u64 {
    use std::sync::atomic::Ordering;
    counting_alloc::ALLOCS.load(Ordering::SeqCst)
}

fn print_help() {
    println!(
        "repro — regenerate the thesis evaluation (tables and figures)\n\
         \n\
         usage: repro <command> [flags]; an unknown flag or a bad value exits 2\n\
         \n\
         paper artifacts:\n\
           table3              PeerHood functionality, each row executed\n\
           table6              client requests vs server functions, each opcode executed\n\
           table7              reference-application features, each exercised\n\
           table8              task times: SNS (Facebook/Hi5 x N810/N95) vs PeerHood\n\
           tables-static       tables 1 & 2 (literature survey data)\n\
           fig6                dynamic group discovery algorithm, worked example\n\
           fig7                working-principle trace (register/discover/connect/exchange)\n\
           msc                 one MSC figure (11-17) as an ASCII chart\n\
           msc-all             all MSC figures\n\
         \n\
         ablations (beyond the thesis):\n\
           ablation-tech       discovery latency per technology\n\
           ablation-scaling    group discovery & op cost vs neighborhood size\n\
           ablation-semantics  group fragmentation vs taught synonyms\n\
           ablation-handover   seamless connectivity on/off under mobility\n\
           ablation-churn      group-view accuracy with wandering members\n\
         \n\
         scenarios and scale (beyond the thesis):\n\
           lab                 the ComLab-room scenario as a directly runnable experiment\n\
           bubbles             k disjoint radio bubbles bridged by ferry nodes; gossip\n\
                               carries membership and a blob across all bubbles;\n\
                               reports delivery, hops, latency and duplicate overhead\n\
           crowd               random-waypoint campus crowd; reports wall-clock,\n\
                               events/s, trace memory and group formation\n\
           live                live-serving load: real TCP clients against the\n\
                               reactor; p50/p99/p999 latency + throughput\n\
         \n\
         ci gate:\n\
           gate                every scale, fault, gossip and live arm in-process;\n\
                               fails naming each broken check, else rewrites\n\
                               BENCH_scale.json and BENCH_live.json\n\
         \n\
           all                 everything above (crowd/live/gate excluded; run\n\
                               directly)\n\
         \n\
         --threads N sets the epoch-engine workers (1 = serial, 0 = auto) and\n\
         --region-edge M the spatial region edge (0 = default 80 m); neither moves\n\
         a digest. --faults lossy adds 10% Bluetooth frame loss and burst episodes,\n\
         with recovery enabled.\n"
    );
    for (cmd, flags) in COMMANDS.iter().filter(|(_, flags)| !flags.is_empty()) {
        println!("{}", usage(cmd, flags));
    }
}
