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

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: delegates every operation to `System` unchanged; the only
    // addition is a relaxed counter increment.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let trials = flag_value(&args, "--trials").unwrap_or(30) as usize;
    let seed = flag_value(&args, "--seed").unwrap_or(2008);

    match cmd {
        "table3" => run_table3(seed),
        "table6" => run_table6(),
        "table7" => run_table7(seed),
        "table8" if args.iter().any(|a| a == "--json") => {
            println!("{}", table8::run(trials, seed).to_json());
        }
        "table8" => run_table8(trials, seed),
        "tables-static" => run_tables_static(),
        "fig6" => run_fig6(),
        "fig7" => run_msc(msc::MscOp::WorkingPrinciple, seed),
        "msc" => {
            let Some(op) = flag_str(&args, "--op").and_then(|s| msc::MscOp::parse(&s)) else {
                eprintln!(
                    "msc needs --op <member-list|interest-list|view-profile|put-comment|\
                     trusted-friends|shared-content|send-message|working-principle>"
                );
                return ExitCode::FAILURE;
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
            let faults = flag_str(&args, "--faults").unwrap_or_else(|| "none".to_owned());
            let Some(plan) = scenario::fault_profile(&faults) else {
                eprintln!("unknown fault profile {faults:?}; known profiles: none, lossy");
                return ExitCode::FAILURE;
            };
            let peers = flag_value(&args, "--peers").unwrap_or(3) as usize;
            let horizon = flag_value(&args, "--horizon").unwrap_or(120);
            let gossip = args.iter().any(|a| a == "--gossip");
            run_lab(seed, peers, horizon, plan, gossip);
        }
        "bubbles" => {
            let faults = flag_str(&args, "--faults").unwrap_or_else(|| "none".to_owned());
            let Some(plan) = scenario::fault_profile(&faults) else {
                eprintln!("unknown fault profile {faults:?}; known profiles: none, lossy");
                return ExitCode::FAILURE;
            };
            let config = bubbles::BubblesConfig {
                seed,
                bubbles: flag_value(&args, "--bubbles").unwrap_or(3) as usize,
                nodes_per_bubble: flag_value(&args, "--per-bubble").unwrap_or(4) as usize,
                ferries: flag_value(&args, "--ferries").unwrap_or(2) as usize,
                horizon: std::time::Duration::from_secs(
                    flag_value(&args, "--horizon").unwrap_or(600),
                ),
                threads: flag_value(&args, "--threads").unwrap_or(1) as usize,
                faults: plan,
                ..bubbles::BubblesConfig::default()
            };
            match bubbles::run(&config) {
                Ok(report) => {
                    if args.iter().any(|a| a == "--json") {
                        println!("{}", report.to_json().to_string_pretty());
                    } else {
                        print!("{}", report.render());
                    }
                }
                Err(e) => {
                    eprintln!("bubbles config rejected: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "crowd" => {
            let sizes: Vec<usize> = flag_str(&args, "--nodes")
                .map(|s| s.split(',').filter_map(|v| v.trim().parse().ok()).collect())
                .unwrap_or_else(|| vec![30, 100, 300, 1000]);
            if sizes.is_empty() {
                eprintln!("crowd needs --nodes N[,N,...] (or omit for the default sweep)");
                return ExitCode::FAILURE;
            }
            let horizon = flag_value(&args, "--horizon").unwrap_or(60);
            let threads = flag_value(&args, "--threads").unwrap_or(1) as usize;
            let region_edge = flag_str(&args, "--region-edge")
                .map(|s| s.parse::<f64>().unwrap_or(-1.0))
                .unwrap_or(0.0);
            let faults = flag_str(&args, "--faults").unwrap_or_else(|| "none".to_owned());
            if scenario::fault_profile(&faults).is_none() {
                eprintln!("unknown fault profile {faults:?}; known profiles: none, lossy");
                return ExitCode::FAILURE;
            }
            let ok = run_crowd(
                &sizes,
                horizon,
                seed,
                threads,
                region_edge,
                &faults,
                args.iter().any(|a| a == "--json"),
            );
            if !ok {
                return ExitCode::FAILURE;
            }
        }
        "live" => {
            let config = live::LiveLoadConfig::default()
                .with_clients(flag_value(&args, "--clients").unwrap_or(1000) as usize)
                .with_requests_per_client(flag_value(&args, "--requests").unwrap_or(20) as usize)
                .with_workers(flag_value(&args, "--workers").unwrap_or(4) as usize)
                .with_shards(flag_value(&args, "--shards").unwrap_or(2) as usize)
                .with_stalled(flag_value(&args, "--stalled").unwrap_or(0) as usize);
            let config = match flag_value(&args, "--queue-cap") {
                Some(cap) => config.with_queue_cap(cap as usize),
                None => config,
            };
            match live::run_live_load(&config) {
                Ok(report) => {
                    if args.iter().any(|a| a == "--json") {
                        println!("{}", report.to_json().to_string_pretty());
                    } else {
                        println!("{}", report.render());
                    }
                }
                Err(e) => {
                    eprintln!("live load failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "gate" => return run_gate(),
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
        "help" | "--help" | "-h" => print_help(),
        other => {
            eprintln!("unknown command {other:?}; run `repro help`");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
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

fn run_lab(seed: u64, peers: usize, horizon_secs: u64, faults: netsim::FaultPlan, gossip: bool) {
    use netsim::SimTime;
    use peerhood::gossip::GossipConfig;

    let mut s = scenario::lab(&scenario::LabConfig {
        seed,
        peer_count: peers,
        faults,
        gossip: gossip.then(|| GossipConfig::default().rng_salt(seed)),
        ..scenario::LabConfig::default()
    });
    s.cluster.run_until(SimTime::from_secs(horizon_secs));
    let groups = s.cluster.app(s.observer).groups();
    let nodes = std::iter::once(s.observer).chain(s.peers.iter().copied());
    scenario::fold_gossip_stats(&mut s.cluster, nodes);
    println!(
        "Lab scenario — {peers} peers, {horizon_secs}s horizon, gossip {}",
        if gossip { "on" } else { "off" }
    );
    for g in &groups {
        println!("  group {:?}: {:?}", g.key, g.members);
    }
    println!("  trace digest {:016x}", s.cluster.trace().digest());
    println!("  {}", s.cluster.stats());
}

fn run_crowd(
    sizes: &[usize],
    horizon_secs: u64,
    seed: u64,
    threads: usize,
    region_edge: f64,
    faults: &str,
    json: bool,
) -> bool {
    let base = crowd::CrowdConfig {
        seed,
        horizon: std::time::Duration::from_secs(horizon_secs),
        threads,
        region_edge_m: region_edge,
        faults: scenario::fault_profile(faults).expect("profile validated by the caller"),
        ..crowd::CrowdConfig::default()
    };
    let reports = match crowd::sweep(&base, sizes) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("crowd config rejected: {e}");
            return false;
        }
    };
    let burst = crowd::trace_alloc_burst(&alloc_count);
    if json {
        let doc = crowd::sweep_json(&base, faults, &reports, burst);
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
    counting_alloc::ALLOCS.load(Ordering::Relaxed)
}

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn flag_str(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn print_help() {
    println!(
        "repro — regenerate the thesis evaluation (tables and figures)\n\
         \n\
         usage: repro <command> [--trials N] [--seed S]\n\
         \n\
         paper artifacts:\n\
           table3              PeerHood functionality, each row executed\n\
           table6              client requests vs server functions, each opcode executed\n\
           table7              reference-application features, each exercised\n\
           table8              task times: SNS (Facebook/Hi5 x N810/N95) vs PeerHood\n\
           tables-static       tables 1 & 2 (literature survey data)\n\
           fig6                dynamic group discovery algorithm, worked example\n\
           fig7                working-principle trace (register/discover/connect/exchange)\n\
           msc --op <name>     one MSC figure (11-17) as an ASCII chart\n\
           msc-all             all MSC figures\n\
         \n\
         ablations (beyond the thesis):\n\
           ablation-tech       discovery latency per technology\n\
           ablation-scaling    group discovery & op cost vs neighborhood size\n\
           ablation-semantics  group fragmentation vs taught synonyms\n\
           ablation-handover   seamless connectivity on/off under mobility\n\
           ablation-churn      group-view accuracy with wandering members\n\
         \n\
         scenarios (beyond the thesis):\n\
           lab                 the ComLab-room scenario as a directly runnable\n\
                               experiment [--peers N] [--horizon SECS]\n\
                               [--faults none|lossy] [--gossip]\n\
           bubbles             k disjoint radio bubbles bridged by ferry nodes;\n\
                               epidemic gossip carries membership and a blob\n\
                               across all bubbles; reports delivery ratio, hop\n\
                               and latency distributions, duplicate overhead\n\
                               [--bubbles K] [--per-bubble N] [--ferries F]\n\
                               [--horizon SECS] [--threads N]\n\
                               [--faults none|lossy] [--json]\n\
         \n\
         scale (beyond the thesis):\n\
           crowd               random-waypoint campus crowd; reports wall-clock,\n\
                               events/s, trace memory and group formation\n\
                               [--nodes N[,N,...]] [--horizon SECS] [--json]\n\
                               [--threads N]   epoch-engine workers (1 = serial,\n\
                                               0 = auto); digests are identical\n\
                               [--region-edge M] spatial region edge in metres\n\
                                               (0 = default 80); digests identical\n\
                               [--faults P]    inject a named fault profile\n\
                                               (none | lossy: 10% BT frame loss +\n\
                                               burst episodes, recovery enabled)\n\
         \n\
           live                live-serving load: real TCP clients against the\n\
                               reactor; p50/p99/p999 latency + throughput\n\
                               [--clients N] [--requests N] [--workers N]\n\
                               [--shards N] [--queue-cap BYTES] [--stalled N]\n\
                               [--json]\n\
         \n\
         ci gate:\n\
           gate                every scale, fault, gossip and live arm in-process;\n\
                               fails naming each broken check, else rewrites\n\
                               BENCH_scale.json and BENCH_live.json\n\
         \n\
           all                 everything above (crowd/live/gate excluded; run\n\
                               directly)"
    );
}
