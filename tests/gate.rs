//! The runtime CI gate's checks (`harness::gate::check`), driven with
//! synthetic reports: one set that passes every gate, then one injected
//! fault per gate, each of which must fail exactly that named gate.

use harness::bubbles::BubblesReport;
use harness::crowd::CrowdReport;
use harness::gate::{self, check, CrowdCase, GateReports};
use harness::live::LiveLoadReport;
use netsim::TraceStats;

fn crowd(nodes: usize, events_per_sec: f64, frames_dropped: u64) -> CrowdReport {
    CrowdReport {
        nodes,
        events_per_sec,
        digest: nodes as u64,
        stats: TraceStats {
            events_recorded: nodes as u64,
            frames_dropped,
            ..TraceStats::default()
        },
        ..CrowdReport::default()
    }
}

/// Serial at `events_per_sec`, threads 4 twice as fast, all runs agreeing
/// on digest and stats.
fn case(nodes: usize, events_per_sec: f64, frames_dropped: u64) -> CrowdCase {
    let serial = crowd(nodes, events_per_sec, frames_dropped);
    CrowdCase {
        threads4: CrowdReport {
            events_per_sec: 2.0 * events_per_sec,
            ..serial.clone()
        },
        resharded: (nodes <= gate::RESHARD_MAX_NODES).then(|| serial.clone()),
        serial,
    }
}

fn bubbles(digest: u64, seed: u64) -> BubblesReport {
    BubblesReport {
        seed,
        delivery_ratio: 1.0,
        convergence_ratio: 1.0,
        frames_sent: gate::MAX_BUBBLES_FRAMES,
        digest,
        ..BubblesReport::default()
    }
}

fn passing() -> GateReports {
    GateReports {
        nproc: gate::SPEEDUP_MIN_CORES,
        burst: (65_536, 0),
        crowd_100: case(100, 1.0e6, 0),
        crowd_1000: case(1000, 1.0e6, 0),
        lossy_100: case(100, 1.0e6, 40),
        lossy_1000: case(1000, 1.0e6, 400),
        crowd_100k: CrowdCase {
            serial: CrowdReport {
                peak_rss_bytes: Some(gate::MAX_RSS_100K),
                ..crowd(100_000, 250_000.0, 0)
            },
            ..case(100_000, 250_000.0, 0)
        },
        bubbles_serial: bubbles(1, 2008),
        bubbles_threads4: bubbles(1, 2008),
        bubbles_lossy: bubbles(2, 2008),
        bubbles_lossy_threads4: bubbles(2, 2008),
        bubbles_lossy_seeds: gate::LOSSY_SEEDS.map(|seed| bubbles(seed, seed)).collect(),
        bubbles_dense: bubbles(3, 2008),
        live: LiveLoadReport {
            clients: 200,
            responses: 2000,
            p99_us: 10_000,
            ..LiveLoadReport::default()
        },
        million: include_str!("../BENCH_million.json").to_owned(),
    }
}

/// Applies `inject` to the passing set and asserts that `gate`, and only
/// `gate`, fails with a non-empty reason, which it returns.
fn assert_fails_only(gate: &str, inject: impl FnOnce(&mut GateReports)) -> String {
    let mut reports = passing();
    inject(&mut reports);
    let failures = check(&reports);
    let gates: Vec<&str> = failures.iter().map(|f| f.gate).collect();
    assert_eq!(gates, [gate], "{failures:#?}");
    assert!(
        failures[0].to_string().starts_with(&format!("{gate}: ")),
        "{}",
        failures[0]
    );
    assert!(!failures[0].detail.is_empty());
    failures[0].detail.clone()
}

#[test]
fn serial_and_threads4_digests_must_agree() {
    assert_fails_only("parallel-digest", |r| r.crowd_1000.serial.digest ^= 1);
    assert_fails_only("parallel-digest", |r| r.bubbles_lossy.digest ^= 1);
}

#[test]
fn serial_and_threads4_stats_must_agree() {
    assert_fails_only("parallel-stats", |r| r.lossy_100.serial.stats.retries += 1);
    assert_fails_only("parallel-stats", |r| {
        r.bubbles_threads4.stats.gossip_eager += 1;
    });
}

#[test]
fn reference_reruns_must_match_threads4() {
    assert_fails_only("resharded", |r| {
        if let Some(run) = &mut r.crowd_100.resharded {
            run.stats.inquiries += 1;
        }
    });
    assert_fails_only("resharded", |r| {
        if let Some(run) = &mut r.lossy_1000.resharded {
            run.digest ^= 1;
        }
    });
    assert_fails_only("resharded", |r| r.crowd_1000.resharded = None);
}

#[test]
fn events_per_sec_floors_hold() {
    assert_fails_only("serial-floor", |r| {
        r.crowd_100.serial.events_per_sec = gate::SERIAL_FLOOR - 1.0;
    });
    assert_fails_only("serial-floor", |r| {
        r.crowd_100.serial.events_per_sec = f64::NAN;
    });
    assert_fails_only("floor-100k", |r| {
        r.crowd_100k.serial.events_per_sec = gate::FLOOR_100K - 1.0;
    });
    assert_fails_only("speedup", |r| {
        r.crowd_100k.threads4.events_per_sec = 1.4 * r.crowd_100k.serial.events_per_sec;
    });
}

#[test]
fn the_100k_crowd_stays_under_the_peak_rss_ceiling() {
    // The parent representation's committed reading (a per-daemon config,
    // per-walker leg histories and four copies of every name).
    let seen = assert_fails_only("peak-rss-100k", |r| {
        r.crowd_100k.serial.peak_rss_bytes = Some(246_026_240);
    });
    assert!(seen.starts_with("246026240 bytes, ceiling "), "{seen}");
    assert_fails_only("peak-rss-100k", |r| {
        r.crowd_100k.serial.peak_rss_bytes = Some(gate::MAX_RSS_100K + 1);
    });
    let seen = assert_fails_only("peak-rss-100k", |r| {
        r.crowd_100k.serial.peak_rss_bytes = None;
    });
    assert!(seen.starts_with("no reading"), "{seen}");
    // Only the serial arm is gated; the threads-4 arm runs after it in
    // the same process, so its high-water mark is not its own.
    let mut reports = passing();
    reports.crowd_100k.threads4.peak_rss_bytes = Some(u64::MAX);
    assert_eq!(check(&reports), []);
}

#[test]
fn speedup_is_not_gated_below_four_cores() {
    let mut reports = passing();
    reports.nproc = 2;
    reports.crowd_100k.threads4.events_per_sec = 0.5 * reports.crowd_100k.serial.events_per_sec;
    assert_eq!(check(&reports), []);
    let speedup = gate::verdicts(&reports)
        .into_iter()
        .find(|(_, name, _)| *name == "speedup")
        .expect("the speedup verdict is always reported");
    assert!(speedup.2.contains("unmeasured: 2 cores"), "{speedup:?}");
}

#[test]
fn every_verdict_passes_on_the_synthetic_set() {
    assert_eq!(check(&passing()), []);
    let verdicts = gate::verdicts(&passing());
    assert!(verdicts.iter().all(|(passed, ..)| *passed), "{verdicts:#?}");
    // 7 digest/stats pairs, 5 resharded verdicts, 2 floors,
    // peak-rss-100k, speedup, trace-alloc, 2 frame-drop, delivery and convergence of 2 arms,
    // convergence of 9 lossy runs, dup-per-delivery of the fault-free run
    // and 8 lossy runs (one seed ungated), bubbles-frames, 4 live,
    // million.
    let lossy_seeds = gate::LOSSY_SEEDS.count();
    let dup_gated = 1 + 1 + lossy_seeds - gate::DUP_UNGATED_SEEDS.len();
    assert_eq!(
        verdicts.len(),
        14 + 5 + 2 + 1 + 1 + 1 + 2 + 4 + (1 + lossy_seeds) + dup_gated + 1 + 4 + 1
    );
}

#[test]
fn interned_trace_burst_must_not_allocate() {
    assert_fails_only("trace-alloc", |r| r.burst.1 = 1);
}

#[test]
fn lossy_crowds_must_drop_frames() {
    assert_fails_only("frames-dropped", |r| {
        let c = &mut r.lossy_100;
        let runs = [&mut c.serial, &mut c.threads4];
        for run in runs.into_iter().chain(c.resharded.as_mut()) {
            run.stats.frames_dropped = 0;
        }
    });
}

#[test]
fn bubbles_deliver_and_converge() {
    assert_fails_only("delivery", |r| r.bubbles_serial.delivery_ratio = 0.90);
    assert_fails_only("convergence", |r| r.bubbles_serial.convergence_ratio = 0.99);
}

#[test]
fn dense_bubbles_deliver_and_converge_fully() {
    let seen = assert_fails_only("delivery", |r| {
        r.bubbles_dense.delivery_ratio = 34.0 / 35.0;
    });
    assert!(seen.starts_with("dense bubbles: "), "{seen}");
    let seen = assert_fails_only("convergence", |r| {
        r.bubbles_dense.convergence_ratio = 12.0 / 36.0;
    });
    assert!(seen.starts_with("dense bubbles: "), "{seen}");
}

#[test]
fn bubbles_duplicates_per_delivery_stay_under_the_ceiling() {
    let seen = assert_fails_only("dup-per-delivery", |r| {
        r.bubbles_serial.duplicates_per_delivery = gate::MAX_DUP_PER_DELIVERY + 0.1;
    });
    assert!(seen.starts_with("fault-free bubbles seed 2008: "), "{seen}");
    let seen = assert_fails_only("dup-per-delivery", |r| {
        r.bubbles_lossy.duplicates_per_delivery = f64::NAN;
    });
    assert!(seen.starts_with("lossy bubbles seed 2008: "), "{seen}");
}

#[test]
fn lossy_bubbles_converge_fully_at_every_seed() {
    let seen = assert_fails_only("convergence", |r| {
        r.bubbles_lossy.convergence_ratio = 11.0 / 12.0;
    });
    assert!(seen.starts_with("lossy bubbles seed 2008: "), "{seen}");
    for seed in gate::LOSSY_SEEDS {
        let seen = assert_fails_only("convergence", |r| {
            r.bubbles_lossy_seeds[seed as usize - 1].convergence_ratio = 5.0 / 12.0;
        });
        assert!(
            seen.starts_with(&format!("lossy bubbles seed {seed}: ")),
            "{seen}"
        );
    }
}

#[test]
fn lossy_bubbles_duplicates_stay_under_the_ceiling_at_every_gated_seed() {
    for seed in gate::LOSSY_SEEDS {
        let inject = |r: &mut GateReports| {
            r.bubbles_lossy_seeds[seed as usize - 1].duplicates_per_delivery = 26.36;
        };
        if gate::DUP_UNGATED_SEEDS.contains(&seed) {
            let mut reports = passing();
            inject(&mut reports);
            assert_eq!(check(&reports), [], "seed {seed} is not dup-gated");
            continue;
        }
        let seen = assert_fails_only("dup-per-delivery", inject);
        assert!(
            seen.starts_with(&format!("lossy bubbles seed {seed}: ")),
            "{seen}"
        );
    }
}

#[test]
fn bubbles_send_at_most_the_frame_ceiling() {
    let seen = assert_fails_only("bubbles-frames", |r| r.bubbles_serial.frames_sent = 7_458);
    assert!(seen.starts_with("default bubbles: 7458 frames"), "{seen}");
}

#[test]
fn live_smoke_is_clean() {
    assert_fails_only("live-errors", |r| r.live.errors = 1);
    assert_fails_only("live-shed", |r| r.live.server.shed = 1);
    assert_fails_only("live-responses", |r| r.live.responses = 1999);
    assert_fails_only("live-p99", |r| {
        r.live.p99_us = gate::LIVE_P99_CEILING_US + 1;
    });
}

#[test]
fn million_snapshot_must_record_the_million_node_run() {
    assert_fails_only("million", |r| {
        r.million = r.million.replace("\"nodes\": 1000000", "\"nodes\": 100000");
    });
    assert_fails_only("million", |r| r.million.clear());
}

#[test]
fn scale_record_keeps_its_keys_and_labels_threads4_below_four_cores() {
    let mut reports = passing();
    reports.nproc = 2;
    let text = gate::scale_json(&reports);
    let keys = [
        "serial",
        "threads4",
        "crowd100k_serial",
        "crowd100k_threads4",
        "million",
        "faulted_serial",
        "faulted_threads4",
        "bubbles_serial",
        "bubbles_threads4",
        "bubbles_lossy",
        "bubbles_dense",
        "bubbles_lossy_seeds",
    ];
    let mut from = 0;
    for key in keys {
        let at = text[from..]
            .find(&format!("\n\"{key}\": {{"))
            .unwrap_or_else(|| panic!("top-level key {key} missing or out of order"));
        from += at + 1;
    }
    assert_eq!(
        text.matches("\"speedup\": \"unmeasured: <4 cores\"")
            .count(),
        4
    );
    assert!(text.contains(reports.million.trim_end()));
}
