//! Pinned trace digests: the behaviour contract of the simulator.
//!
//! `repro gate` checks that serial and parallel runs agree, which a
//! change altering every run the same way — say, a neighbor-query kernel
//! that drops boundary nodes — would still pass. These tests pin absolute
//! digests instead:
//!
//! * the gate's crowds — 100 and 1,000 nodes, 30 s virtual, seed 2008,
//!   one thread, fault-free and under the `lossy` profile;
//! * the default `repro bubbles` run, fault-free and under `lossy`, which
//!   drives the connect, frame and gossip paths;
//! * a mixed-fault bubbles run (connect refusals, link kills and two
//!   daemon crash windows on top of `lossy`), at one and at four threads;
//! * the ComLab-room `lab` scenario in both connection modes, which drives
//!   the per-operation probe and the standing-connection refresh paths of
//!   group discovery;
//! * the PeerHood arm of Table 8, whose "group search" time is read from
//!   `CommunityApp::first_group_at`.
//!
//! Every digest except the mixed-fault one is also committed in
//! `BENCH_scale.json`, which `repro gate` regenerates.

use std::time::Duration;

use community::node::OpMode;
use harness::bubbles::{self, BubblesConfig};
use harness::crowd::{self, CrowdConfig};
use harness::scenario::{self, LabConfig};
use harness::table8;
use netsim::{FaultPlan, FaultProfile, SimTime, Technology};

/// `(faults, nodes, digest)` as committed in `BENCH_scale.json` under
/// `serial` and `faulted_serial`.
const CROWDS: [(&str, usize, &str); 4] = [
    ("none", 100, "0e81295d5acc6ef7"),
    ("none", 1000, "1fe4a05a57f1720d"),
    ("lossy", 100, "36501e624a6282e3"),
    ("lossy", 1000, "4777e2f20490a034"),
];

/// `(faults, digest)` of `BubblesConfig::default()`, as committed in
/// `BENCH_scale.json` under `bubbles_serial` and `bubbles_lossy`.
const BUBBLES: [(&str, &str); 2] = [("none", "a77ad343cfb2ecbf"), ("lossy", "f009e61a884a1594")];

/// Digest of the mixed-fault bubbles run (see [`mixed_fault_plan`]).
const MIXED_FAULT_DIGEST: &str = "e8ac74d3ece0918f";

/// `(op_mode, digest)` of `scenario::lab` at seed 2008 run to 120 s
/// virtual; `PerOperation` is the default `LabConfig`.
const LAB: [(OpMode, &str); 2] = [
    (OpMode::PerOperation, "ac42db32d8892f43"),
    (OpMode::Persistent, "f307f5791937265e"),
];

/// PeerHood-arm task times of `table8::run(3, 2008)` in seconds: per task
/// (search, join, member list, profile, total), the three trials sorted
/// as `(min, p50, max)`.
const TABLE8_PEERHOOD: [(f64, f64, f64); 5] = [
    (11.862236, 12.126809, 12.389928),
    (0.0, 0.0, 0.0),
    (14.785117, 14.877473, 15.322768),
    (15.920859, 16.538865, 16.993671),
    (43.18826, 43.641024, 43.988442),
];

const BENCH_SCALE: &str = include_str!("../BENCH_scale.json");

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// `lossy` Bluetooth plus 5 % connect refusals and 1 % link kills, with
/// a ferry (node 12) down for 60 s from t = 100 s and a bubble-0 member
/// (node 3) down for 30 s from t = 200 s.
fn mixed_fault_plan() -> FaultPlan {
    let lossy = *scenario::fault_profile("lossy")
        .expect("known profile")
        .profile(Technology::Bluetooth);
    FaultPlan::none()
        .with_profile(
            Technology::Bluetooth,
            FaultProfile {
                connect_refuse: 0.05,
                link_kill: 0.01,
                ..lossy
            },
        )
        .with_crash(12, Duration::from_secs(100), Duration::from_secs(60))
        .with_crash(3, Duration::from_secs(200), Duration::from_secs(30))
}

#[test]
fn pinned_digests_are_the_committed_ones() {
    let committed = CROWDS
        .iter()
        .map(|&(faults, nodes, digest)| (format!("{faults}/{nodes}"), digest))
        .chain(BUBBLES.iter().map(|&(f, d)| (format!("bubbles/{f}"), d)));
    for (what, digest) in committed {
        assert!(
            BENCH_SCALE.contains(&format!("\"digest\": \"{digest}\"")),
            "BENCH_scale.json no longer records {what} digest {digest}"
        );
    }
}

#[test]
fn ci_crowds_reproduce_their_pinned_digests() {
    for (faults, nodes, digest) in CROWDS {
        let report = crowd::run(&CrowdConfig {
            seed: 2008,
            nodes,
            horizon: Duration::from_secs(30),
            threads: 1,
            faults: scenario::fault_profile(faults).expect("known profile"),
            // The naive cross-check runs after the trace is sealed and
            // cannot move the digest; the differential tests cover it.
            compare_naive: false,
            ..CrowdConfig::default()
        })
        .expect("valid config");
        assert_eq!(
            hex(report.digest),
            digest,
            "{faults} crowd of {nodes} nodes diverged from BENCH_scale.json"
        );
    }
}

#[test]
fn default_bubbles_reproduce_their_pinned_digests() {
    for (faults, digest) in BUBBLES {
        let report = bubbles::run(&BubblesConfig {
            faults: scenario::fault_profile(faults).expect("known profile"),
            ..BubblesConfig::default()
        })
        .expect("valid config");
        assert_eq!(
            hex(report.digest),
            digest,
            "{faults} bubbles run diverged from BENCH_scale.json"
        );
    }
}

#[test]
fn mixed_fault_bubbles_reproduce_their_pinned_digest() {
    for threads in [1, 4] {
        let report = bubbles::run(&BubblesConfig {
            threads,
            faults: mixed_fault_plan(),
            ..BubblesConfig::default()
        })
        .expect("valid config");
        let s = report.stats;
        // The run must actually reach the fault arms it pins: refusals
        // and lost setups, dropped and killed frames, crash-window
        // teardowns healed by resumed connections.
        assert_eq!(
            (
                s.connects_failed,
                s.frames_dropped,
                s.resumed,
                s.connects_lost_setup
            ),
            (1_124, 3_762, 27, 3),
            "mixed-fault counters moved at {threads} thread(s): {s}"
        );
        assert_eq!(
            hex(report.digest),
            MIXED_FAULT_DIGEST,
            "mixed-fault bubbles run diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn lab_runs_reproduce_their_pinned_digests() {
    for (op_mode, digest) in LAB {
        let mut s = scenario::lab(&LabConfig {
            seed: 2008,
            op_mode,
            ..LabConfig::default()
        });
        s.cluster.run_until(SimTime::from_secs(120));
        assert!(
            s.cluster.app(s.observer).first_group_at().is_some(),
            "{op_mode:?} lab never formed the shared group"
        );
        assert_eq!(
            hex(s.cluster.trace().digest()),
            digest,
            "{op_mode:?} lab run diverged"
        );
    }
}

#[test]
fn table8_peerhood_task_times_are_pinned() {
    let report = table8::run(3, 2008);
    let times: Vec<(f64, f64, f64)> = report
        .peerhood()
        .summaries
        .iter()
        .map(|s| (s.min, s.p50, s.max))
        .collect();
    assert_eq!(times, TABLE8_PEERHOOD, "Table 8 PeerHood task times moved");
}
