//! Pinned trace digests for the `ci.sh` crowd configs.
//!
//! `ci.sh` checks that serial and parallel runs agree, which a change
//! altering every run the same way — say, a neighbor-query kernel that
//! drops boundary nodes — would still pass. This test pins the absolute
//! digests: the 100- and 1,000-node crowds, 30 s virtual, seed 2008,
//! one thread, fault-free and under the `lossy` profile, must reproduce
//! the digests committed in `BENCH_scale.json`.

use std::time::Duration;

use ph_harness::crowd::{self, CrowdConfig};
use ph_harness::scenario;

/// `(faults, nodes, digest)` as committed in `BENCH_scale.json` under
/// `serial` and `faulted_serial`.
const PINNED: [(&str, usize, &str); 4] = [
    ("none", 100, "0e81295d5acc6ef7"),
    ("none", 1000, "1fe4a05a57f1720d"),
    ("lossy", 100, "36501e624a6282e3"),
    ("lossy", 1000, "4777e2f20490a034"),
];

const BENCH_SCALE: &str = include_str!("../../../BENCH_scale.json");

#[test]
fn pinned_digests_are_the_committed_ones() {
    for (faults, nodes, digest) in PINNED {
        assert!(
            BENCH_SCALE.contains(&format!("\"digest\": \"{digest}\"")),
            "BENCH_scale.json no longer records {faults}/{nodes} digest {digest}"
        );
    }
}

#[test]
fn ci_crowds_reproduce_their_pinned_digests() {
    for (faults, nodes, digest) in PINNED {
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
            format!("{:016x}", report.digest),
            digest,
            "{faults} crowd of {nodes} nodes diverged from BENCH_scale.json"
        );
    }
}
