//! The metric vocabulary: every name the benchmark emits, with its unit.
//!
//! `BENCHMARK.json` declares the same two lists; `tests/smoke.rs` fails when
//! they drift apart.
//!
//! Every end-to-end metric is measured on every workload. An operation is
//! one request on the live workloads and one `run_until` step on the
//! simulator workloads. Per-layer timings are reported as shares of the
//! time the workload's operations took, because a layer the workload
//! bypasses then reads a share of 0, not a time of 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`, reported by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    // netsim: region lanes and world index.
    ("netsim.drain_share", "ratio"),
    ("netsim.gather_share", "ratio"),
    ("netsim.world.query_share", "ratio"),
    // peerhood.sim: the epoch engine.
    ("peerhood.sim.execute_share", "ratio"),
    ("peerhood.sim.commit_share", "ratio"),
    ("peerhood.sim.events", "count"),
    ("peerhood.sim.events_per_s", "1/s"),
    ("peerhood.sim.par_batches", "count"),
    ("peerhood.sim.par_events", "count"),
    ("peerhood.sim.serial_batches", "count"),
    ("peerhood.sim.serial_events", "count"),
    ("peerhood.sim.serial_event_share", "ratio"),
    // peerhood.daemon.
    ("peerhood.daemon.inquiries", "count"),
    ("peerhood.daemon.inquiry_responses", "count"),
    ("peerhood.daemon.service_queries", "count"),
    ("peerhood.daemon.connects_attempted", "count"),
    ("peerhood.daemon.connects_ok", "count"),
    ("peerhood.daemon.connects_failed", "count"),
    ("peerhood.daemon.connect_success_ratio", "ratio"),
    ("peerhood.daemon.handovers", "count"),
    // netsim.fault and peerhood.recovery.
    ("netsim.fault.frames_dropped", "count"),
    ("peerhood.recovery.retries", "count"),
    ("peerhood.recovery.timeouts", "count"),
    ("peerhood.recovery.gave_up", "count"),
    ("peerhood.recovery.resumed", "count"),
    // netsim.radio.
    ("netsim.radio.frames_sent", "count"),
    ("netsim.radio.frames_delivered", "count"),
    ("netsim.radio.bytes_sent", "B"),
    ("netsim.radio.bytes_delivered", "B"),
    // netsim.trace.
    ("netsim.trace.events_recorded", "count"),
    ("netsim.trace.events_dropped", "count"),
    ("netsim.trace.dropped_ratio", "ratio"),
    ("netsim.trace.mem_bytes", "B"),
    // peerhood.gossip (delivery latencies are virtual time).
    ("peerhood.gossip.eager", "count"),
    ("peerhood.gossip.lazy", "count"),
    ("peerhood.gossip.graft", "count"),
    ("peerhood.gossip.prune", "count"),
    ("peerhood.gossip.duplicate", "count"),
    ("peerhood.gossip.dup_per_delivery", "count"),
    ("peerhood.gossip.lazy_per_delivery", "count"),
    ("peerhood.gossip.bytes_per_delivery", "B"),
    ("peerhood.gossip.hops_mean", "count"),
    ("peerhood.gossip.delivery_ratio", "ratio"),
    ("peerhood.gossip.convergence_ratio", "ratio"),
    ("peerhood.gossip.delivery_p50_s", "s_virtual"),
    ("peerhood.gossip.delivery_p95_s", "s_virtual"),
    // community: server dispatch and journal, from the request replay.
    ("community.dispatch_share", "ratio"),
    ("community.journal.append_share", "ratio"),
    ("community.journal.compact_share", "ratio"),
    ("community.journal.snapshot_bytes", "B"),
    ("community.journal.records", "count"),
    // codec: the client's Wire encode and decode.
    ("codec.encode_share", "ratio"),
    ("codec.decode_share", "ratio"),
    ("codec.request_bytes", "B"),
    ("codec.response_bytes", "B"),
    // peerhood.live: the reactor, i.e. what the other shares leave.
    ("peerhood.live.reactor_share", "ratio"),
    ("peerhood.live.frames_in", "count"),
    ("peerhood.live.frames_out", "count"),
    ("peerhood.live.bytes_in", "B"),
    ("peerhood.live.bytes_out", "B"),
    ("peerhood.live.shed", "count"),
    ("peerhood.live.idle_closed", "count"),
    ("peerhood.live.handshake_failures", "count"),
    // Operation latency tail (not gated) and process-wide counts.
    ("latency_p999_ms", "ms"),
    ("latency_samples", "count"),
    ("alloc.per_event", "count"),
    ("alloc.per_request", "count"),
    ("trace_overhead_ratio", "ratio"),
    // Spans recorded by the benchmark around its calls into the program.
    ("span.setup.count", "count"),
    ("span.setup.total_s", "s"),
    ("span.setup.self_s", "s"),
    ("span.run.count", "count"),
    ("span.run.total_s", "s"),
    ("span.run.self_s", "s"),
    ("span.world.query.count", "count"),
    ("span.client.encode.count", "count"),
    ("span.client.roundtrip.count", "count"),
    ("span.client.decode.count", "count"),
    ("span.replay.dispatch.count", "count"),
    ("span.replay.journal_append.count", "count"),
    ("span.replay.compact.count", "count"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under a declared metric name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Adds `value` to a declared metric (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let sum = self.get(name) + value;
        self.set(name, sum);
    }

    /// The value recorded under `name`, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Whether `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}
