//! The simulator workloads: a fault-free 100k-node crowd, a lossy 20k-node
//! crowd, and three ferry-bridged gossip bubbles. All run the serial engine
//! (`threads = 1`).
//!
//! A rep builds a fresh cluster (`setup`) and advances it to its horizon in
//! fixed virtual-time steps (`run`); each `run_until` step is one operation
//! for the latency metrics. Reps repeat while another fits in `--seconds`,
//! and at least [`MIN_REPS`] times so their digests can be compared.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use codec::json::Json;
use harness::bubbles::{BubblesConfig, BLOB_NAME, SHARED_INTEREST};
use harness::crowd::CrowdConfig;
use netsim::world::NodeId;
use netsim::{FaultPlan, FaultProfile, SimTime, Technology, TraceStats};
use peerhood::gossip::{GossipConfig, GossipStats};
use peerhood::sim::{Cluster, EpochTiming};
use peerhood::Application;

use crate::alloc;
use crate::common::{
    fold_digests, latency_metrics, median, peak_rss_mb, quantile, ratio, sorted, span_metrics,
    Inject, Outcome, RunOpts, SETUP_SAMPLES,
};
use crate::digests;
use crate::metrics::Metrics;
use crate::spans::Spans;

/// Reps per run at least: two reps of one seed must agree on the digest.
const MIN_REPS: usize = 2;

/// Decides whether another rep fits in the run: a rep starts only when one
/// as long as the slowest so far still ends within `--seconds`, so a run
/// takes its stated length rather than up to a rep more.
struct RunClock {
    start: Instant,
    lap_start: Instant,
    longest: Duration,
}

impl RunClock {
    fn start() -> RunClock {
        let now = Instant::now();
        RunClock {
            start: now,
            lap_start: now,
            longest: Duration::ZERO,
        }
    }

    /// Marks the end of a rep.
    fn lap(&mut self) {
        self.longest = self.longest.max(self.lap_start.elapsed());
        self.lap_start = Instant::now();
    }

    fn room_for_another(&self, seconds: Duration) -> bool {
        self.start.elapsed() + self.longest <= seconds
    }
}

/// A random-waypoint crowd.
#[derive(Clone, Debug)]
pub struct CrowdSpec {
    /// Workload name (keys the parent-digest table).
    pub name: &'static str,
    /// Devices in the crowd.
    pub nodes: usize,
    /// Virtual time one rep simulates.
    pub horizon: Duration,
    /// Virtual time one `run_until` step advances.
    pub step: Duration,
    /// Inject the `lossy` fault profile (SDP rounds and recovery on).
    pub lossy: bool,
}

impl CrowdSpec {
    /// The crowd config, every field spelled out so a harness default
    /// cannot silently change the workload.
    fn config(&self, seed: u64) -> CrowdConfig {
        CrowdConfig {
            seed,
            nodes: self.nodes,
            horizon: self.horizon,
            area_per_node_m2: 200.0,
            interest_pool: 40,
            interests_per_node: 3,
            trace_capacity: 16_384,
            wlan_every: 8,
            compare_naive: false,
            threads: 1,
            region_lanes: 8,
            region_edge_m: 80.0,
            faults: if self.lossy {
                lossy_plan()
            } else {
                FaultPlan::none()
            },
            gossip: None,
        }
    }
}

/// 10% Bluetooth frame loss plus burst-loss episodes: the `lossy` profile
/// of `repro crowd --faults lossy`, spelled out.
fn lossy_plan() -> FaultPlan {
    FaultPlan::none().with_profile(
        Technology::Bluetooth,
        FaultProfile {
            frame_loss: 0.10,
            burst_enter: 0.02,
            burst_exit: 0.25,
            burst_loss: 0.60,
            connect_refuse: 0.0,
            link_kill: 0.0,
        },
    )
}

/// Ferry-bridged gossip bubbles; one rep runs `seeds` consecutive seeds.
#[derive(Clone, Debug)]
pub struct GossipSpec {
    /// Members per bubble.
    pub per_bubble: usize,
    /// Seeds per rep, starting at the run's seed.
    pub seeds: u64,
    /// Virtual time one `run_until` step advances.
    pub step: Duration,
}

impl GossipSpec {
    fn config(&self, seed: u64) -> BubblesConfig {
        BubblesConfig {
            seed,
            bubbles: 3,
            nodes_per_bubble: self.per_bubble,
            ferries: 2,
            spacing_m: 60.0,
            dwell: Duration::from_secs(40),
            horizon: Duration::from_secs(600),
            publish_at: Duration::from_secs(30),
            blob_bytes: 512,
            threads: 1,
            region_lanes: 8,
            faults: FaultPlan::none(),
            gossip: GossipConfig::default()
                .active_view(5)
                .passive_view(30)
                .shuffle_active(3)
                .shuffle_passive(4)
                .shuffle_every(Duration::from_secs(30))
                .tick_every(Duration::from_secs(1))
                .graft_timeout(Duration::from_secs(2))
                .cache_capacity(1024),
        }
    }
}

/// What every simulator rep measures.
#[derive(Debug, Default)]
struct Rep {
    setup: Duration,
    wall: Duration,
    steps_ms: Vec<f64>,
    digest: u64,
    events: u64,
}

/// Advances `cluster` to `until` in steps of `step`, timing each step.
fn advance<A: Application + Send>(
    cluster: &mut Cluster<A>,
    until: SimTime,
    step: Duration,
    steps_ms: &mut Vec<f64>,
) {
    while cluster.now() < until {
        let next = cluster.now().saturating_add(step).min(until);
        let t = Instant::now();
        cluster.run_until(next);
        steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// Adds one cluster's counters to the per-layer ledger.
fn add_counters(m: &mut Metrics, s: &TraceStats, t: &EpochTiming) {
    let counts: [(&'static str, u64); 28] = [
        ("peerhood.sim.par_batches", t.par_batches),
        ("peerhood.sim.par_events", t.par_events),
        ("peerhood.sim.serial_batches", t.serial_batches),
        ("peerhood.sim.serial_events", t.serial_events),
        ("peerhood.sim.events", t.par_events + t.serial_events),
        ("peerhood.daemon.inquiries", s.inquiries),
        ("peerhood.daemon.inquiry_responses", s.inquiry_responses),
        ("peerhood.daemon.service_queries", s.service_queries),
        ("peerhood.daemon.connects_attempted", s.connects_attempted),
        ("peerhood.daemon.connects_ok", s.connects_ok),
        ("peerhood.daemon.connects_failed", s.connects_failed),
        ("peerhood.daemon.handovers", s.handovers),
        ("netsim.fault.frames_dropped", s.frames_dropped),
        ("peerhood.recovery.retries", s.retries),
        ("peerhood.recovery.timeouts", s.timeouts),
        ("peerhood.recovery.gave_up", s.gave_up),
        ("peerhood.recovery.resumed", s.resumed),
        ("netsim.radio.frames_sent", s.frames_sent),
        ("netsim.radio.frames_delivered", s.frames_delivered),
        ("netsim.radio.bytes_sent", s.bytes_sent),
        ("netsim.radio.bytes_delivered", s.bytes_delivered),
        ("netsim.trace.events_recorded", s.events_recorded),
        ("netsim.trace.events_dropped", s.events_dropped),
        ("peerhood.gossip.eager", s.gossip_eager),
        ("peerhood.gossip.lazy", s.gossip_lazy),
        ("peerhood.gossip.graft", s.gossip_graft),
        ("peerhood.gossip.prune", s.gossip_prune),
        ("peerhood.gossip.duplicate", s.gossip_duplicate),
    ];
    for (name, v) in counts {
        m.add(name, v as f64);
    }
}

/// Sums the engine phase times of several clusters.
fn add_timing(acc: &mut EpochTiming, t: &EpochTiming) {
    acc.drain += t.drain;
    acc.gather += t.gather;
    acc.execute += t.execute;
    acc.commit += t.commit;
}

/// Per-layer shares and ratios of a traced rep, once its counters are in.
fn finish_layers(m: &mut Metrics, phases: &EpochTiming, run: Duration) {
    let run = run.as_secs_f64();
    m.set("netsim.drain_share", ratio(phases.drain.as_secs_f64(), run));
    m.set(
        "netsim.gather_share",
        ratio(phases.gather.as_secs_f64(), run),
    );
    m.set(
        "peerhood.sim.execute_share",
        ratio(phases.execute.as_secs_f64(), run),
    );
    m.set(
        "peerhood.sim.commit_share",
        ratio(phases.commit.as_secs_f64(), run),
    );
    let events = m.get("peerhood.sim.events");
    m.set("peerhood.sim.events_per_s", ratio(events, run));
    m.set(
        "peerhood.sim.serial_event_share",
        ratio(m.get("peerhood.sim.serial_events"), events),
    );
    m.set(
        "peerhood.daemon.connect_success_ratio",
        ratio(
            m.get("peerhood.daemon.connects_ok"),
            m.get("peerhood.daemon.connects_attempted"),
        ),
    );
    m.set(
        "netsim.trace.dropped_ratio",
        ratio(
            m.get("netsim.trace.events_dropped"),
            m.get("netsim.trace.events_recorded"),
        ),
    );
}

/// One crowd rep; a traced rep also fills the per-layer ledger.
fn crowd_rep(
    cfg: &CrowdConfig,
    step: Duration,
    traced: bool,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Rep {
    let t0 = Instant::now();
    let mut s = spans
        .time("setup", |_| harness::crowd::build(cfg))
        .expect("workload configs are valid");
    let setup = t0.elapsed();
    s.cluster.set_collect_timing(traced);
    let horizon = SimTime::ZERO.saturating_add(cfg.horizon);
    let mut steps_ms = Vec::new();
    let t1 = Instant::now();
    let ((), allocs) = alloc::count_if(traced, || {
        spans.time("run", |_| {
            advance(&mut s.cluster, horizon, step, &mut steps_ms);
        });
    });
    let wall = t1.elapsed();

    let stats = *s.cluster.stats();
    let timing = *s.cluster.timing();
    let trace = s.cluster.trace();
    let (retained, mem_bytes, digest) =
        (trace.len() as u64, trace.approx_mem_bytes(), trace.digest());
    if stats.events_recorded != retained + stats.events_dropped {
        out.fail(
            1,
            format!(
                "trace ledger broken: {} recorded != {retained} retained + {} dropped",
                stats.events_recorded, stats.events_dropped
            ),
        );
    }
    let events = timing.par_events + timing.serial_events;
    if traced {
        let now = s.cluster.now();
        let world = s.cluster.world_mut();
        let query = spans.time("world.query", |_| {
            let t = Instant::now();
            for i in 0..cfg.nodes {
                black_box(world.neighbors_any(NodeId::from_index(i), now));
            }
            t.elapsed()
        });
        let m = &mut out.metrics;
        add_counters(m, &stats, &timing);
        m.set("netsim.trace.mem_bytes", mem_bytes as f64);
        m.set(
            "netsim.world.query_share",
            ratio(query.as_secs_f64(), wall.as_secs_f64()),
        );
        m.set("alloc.per_event", ratio(allocs as f64, events as f64));
        finish_layers(m, &timing, wall);
    }
    Rep {
        setup,
        wall,
        steps_ms,
        digest,
        events,
    }
}

/// The crowd workloads.
pub fn crowd(spec: &CrowdSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(opts.traced);
    let mut quiet = Spans::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let mut clock = RunClock::start();
    while reps.len() < MIN_REPS || (!opts.traced && clock.room_for_another(opts.seconds)) {
        // A traced run is one untraced rep (the overhead baseline) and one
        // traced rep.
        let traced = opts.traced && reps.len() == 1;
        let seed = match opts.inject {
            Some(Inject::Digest) if reps.len() == 1 => opts.seed + 1,
            _ => opts.seed,
        };
        let recorder = if traced { &mut spans } else { &mut quiet };
        let rep = crowd_rep(&spec.config(seed), spec.step, traced, recorder, &mut out);
        reps.push(rep);
        clock.lap();
    }
    out.attempted = reps.len() as u64;
    check_digests(&mut out, spec.name, opts.seed, &reps, 1);
    let cfg = spec.config(opts.seed);
    report(&mut out, &reps, opts, &spans, || {
        let t = Instant::now();
        let built = harness::crowd::build(&cfg).expect("workload configs are valid");
        let took = t.elapsed();
        drop(built);
        took
    });
    out.info.push(("table8", table8(opts)));
    out
}

/// One gossip rep: every seed of the rep, back to back.
#[derive(Debug, Default)]
struct GossipRep {
    rep: Rep,
    seed_digests: Vec<u64>,
    latencies_s: Vec<f64>,
    hops: Vec<f64>,
    audience: u64,
    members: u64,
    converged: u64,
    phases: EpochTiming,
}

/// Runs one seed of the bubbles scenario, exactly as
/// `harness::bubbles::run` does, but stepping time and keeping every
/// delivery latency.
fn gossip_seed(
    cfg: &BubblesConfig,
    step: Duration,
    traced: bool,
    spans: &mut Spans,
    g: &mut GossipRep,
    ledger: &mut Metrics,
) {
    let t0 = Instant::now();
    let mut s = spans
        .time("setup", |_| harness::bubbles::build(cfg))
        .expect("workload configs are valid");
    g.rep.setup += t0.elapsed();
    s.cluster.set_collect_timing(traced);
    let publish_at = SimTime::ZERO.saturating_add(cfg.publish_at);
    let horizon = SimTime::ZERO.saturating_add(cfg.horizon);
    let origin = s.origin;
    let payload = codec::Bytes::from(vec![0x5A; cfg.blob_bytes]);
    let t1 = Instant::now();
    let ((), allocs) = alloc::count_if(traced, || {
        spans.time("run", |_| {
            advance(&mut s.cluster, publish_at, step, &mut g.rep.steps_ms);
            s.cluster.with_app(origin, |app, ctx| {
                app.publish_blob(BLOB_NAME, payload, ctx)
                    .expect("origin is logged in with gossip enabled");
            });
            advance(&mut s.cluster, horizon, step, &mut g.rep.steps_ms);
        });
    });
    g.rep.wall += t1.elapsed();

    let member_names: BTreeSet<String> = (0..cfg.bubbles)
        .flat_map(|b| (0..cfg.nodes_per_bubble).map(move |n| format!("b{b}n{n}")))
        .collect();
    for &id in &s.members {
        let app = s.cluster.app(id);
        if id != origin {
            g.audience += 1;
            let log = app.gossip().expect("gossip enabled").blob_log();
            if let Some(d) = log.iter().find(|d| d.name == BLOB_NAME) {
                g.latencies_s
                    .push(d.at.saturating_since(publish_at).as_secs_f64());
                g.hops.push(f64::from(d.hops));
            }
        }
        g.members += 1;
        let full = app.groups().iter().any(|grp| {
            grp.key == SHARED_INTEREST.to_lowercase()
                && grp.members.iter().cloned().collect::<BTreeSet<_>>() == member_names
        });
        g.converged += u64::from(full);
    }

    // Fold the app-side gossip counters into the trace counters before the
    // digest, as `harness::bubbles::run` does, so digests match
    // `repro bubbles`.
    let mut sum = GossipStats::default();
    for &id in s.members.iter().chain(&s.ferries) {
        let st = s.cluster.app(id).gossip().expect("gossip enabled").stats();
        sum.eager += st.eager;
        sum.lazy += st.lazy;
        sum.graft += st.graft;
        sum.prune += st.prune;
        sum.duplicate += st.duplicate;
    }
    let st = s.cluster.trace_mut().stats_mut();
    st.gossip_eager += sum.eager;
    st.gossip_lazy += sum.lazy;
    st.gossip_graft += sum.graft;
    st.gossip_prune += sum.prune;
    st.gossip_duplicate += sum.duplicate;
    g.seed_digests.push(s.cluster.trace().digest());

    let timing = *s.cluster.timing();
    g.rep.events += timing.par_events + timing.serial_events;
    if traced {
        let stats = *s.cluster.stats();
        add_counters(ledger, &stats, &timing);
        add_timing(&mut g.phases, &timing);
        let mem = s.cluster.trace().approx_mem_bytes() as f64;
        ledger.set(
            "netsim.trace.mem_bytes",
            ledger.get("netsim.trace.mem_bytes").max(mem),
        );
        ledger.add("alloc.per_event", allocs as f64);
    }
}

/// The gossip workload.
pub fn gossip(spec: &GossipSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(opts.traced);
    let mut quiet = Spans::new(false);
    let mut reps: Vec<GossipRep> = Vec::new();
    let mut clock = RunClock::start();
    while reps.len() < MIN_REPS || (!opts.traced && clock.room_for_another(opts.seconds)) {
        let traced = opts.traced && reps.len() == 1;
        let base = match opts.inject {
            Some(Inject::Digest) if reps.len() == 1 => opts.seed + 1,
            _ => opts.seed,
        };
        let recorder = if traced { &mut spans } else { &mut quiet };
        let mut g = GossipRep::default();
        let mut ledger = Metrics::default();
        for seed in base..base + spec.seeds {
            gossip_seed(
                &spec.config(seed),
                spec.step,
                traced,
                recorder,
                &mut g,
                &mut ledger,
            );
        }
        g.rep.digest = fold_digests(g.seed_digests.iter().copied());
        if traced {
            let allocs = ledger.get("alloc.per_event");
            ledger.set("alloc.per_event", ratio(allocs, g.rep.events as f64));
            finish_layers(&mut ledger, &g.phases, g.rep.wall);
            gossip_layers(&mut ledger, &g);
            out.metrics = ledger;
        }
        reps.push(g);
        clock.lap();
    }

    // One operation per audience member (delivery) and per member
    // (membership convergence), per seed and rep.
    let per_rep: u64 = reps[0].audience + reps[0].members;
    out.attempted = per_rep * reps.len() as u64;
    for (i, g) in reps.iter().enumerate() {
        let undelivered = g.audience - g.latencies_s.len() as u64;
        if undelivered > 0 {
            out.fail(
                undelivered,
                format!("rep {i}: {undelivered} audience members never got the blob"),
            );
        }
        let split = g.members - g.converged;
        if split > 0 {
            out.fail(
                split,
                format!("rep {i}: {split} members never saw the full group"),
            );
        }
    }
    let seed_digests = reps[0]
        .seed_digests
        .iter()
        .map(|d| Json::from(format!("{d:016x}")))
        .collect();
    let reps: Vec<Rep> = reps.into_iter().map(|g| g.rep).collect();
    check_digests(&mut out, "gossip_bubbles", opts.seed, &reps, per_rep);
    report(&mut out, &reps, opts, &spans, || {
        (opts.seed..opts.seed + spec.seeds)
            .map(|seed| {
                let t = Instant::now();
                let built = harness::bubbles::build(&spec.config(seed))
                    .expect("workload configs are valid");
                let took = t.elapsed();
                drop(built);
                took
            })
            .sum()
    });
    out.info.push(("seed_digests", Json::Arr(seed_digests)));
    out.info.push(("table8", table8(opts)));
    out
}

/// The gossip layer's outcome metrics for one traced rep.
fn gossip_layers(m: &mut Metrics, g: &GossipRep) {
    let delivered = g.latencies_s.len() as f64;
    let lat = sorted(g.latencies_s.clone());
    m.set(
        "peerhood.gossip.delivery_ratio",
        ratio(delivered, g.audience as f64),
    );
    m.set(
        "peerhood.gossip.convergence_ratio",
        ratio(g.converged as f64, g.members as f64),
    );
    m.set("peerhood.gossip.delivery_p50_s", quantile(&lat, 0.50));
    m.set("peerhood.gossip.delivery_p95_s", quantile(&lat, 0.95));
    m.set(
        "peerhood.gossip.hops_mean",
        ratio(g.hops.iter().sum(), delivered),
    );
    for (per, total) in [
        (
            "peerhood.gossip.dup_per_delivery",
            "peerhood.gossip.duplicate",
        ),
        ("peerhood.gossip.lazy_per_delivery", "peerhood.gossip.lazy"),
        (
            "peerhood.gossip.bytes_per_delivery",
            "netsim.radio.bytes_sent",
        ),
    ] {
        m.set(per, ratio(m.get(total), delivered));
    }
}

/// Reps of one seed must agree on the trace digest; a mismatch fails every
/// operation of every rep. The parent's digest is reported alongside, as
/// information.
fn check_digests(out: &mut Outcome, workload: &str, seed: u64, reps: &[Rep], ops_per_rep: u64) {
    let first = reps[0].digest;
    if reps.iter().any(|r| r.digest != first) {
        let all: Vec<String> = reps.iter().map(|r| format!("{:016x}", r.digest)).collect();
        out.fail(
            ops_per_rep * reps.len() as u64,
            format!("reps disagree on the trace digest: {}", all.join(" ")),
        );
    }
    out.info
        .push(("digest", Json::from(format!("{first:016x}"))));
    let changed = match digests::parent(workload, seed) {
        Some(parent) => Json::Bool(parent != first),
        None => Json::from("unknown: no parent digest recorded for this seed"),
    };
    out.info.push(("digest_changed", changed));
    out.info.push((
        "rep_wall_s",
        Json::Arr(
            reps.iter()
                .map(|r| Json::from(r.wall.as_secs_f64()))
                .collect(),
        ),
    ));
}

/// End-to-end metrics (untraced run) or the shared per-layer metrics
/// (traced run). `setup_once` builds one rep's input and returns the time
/// it took; it tops the reps' set-ups up to [`SETUP_SAMPLES`].
fn report(
    out: &mut Outcome,
    reps: &[Rep],
    opts: &RunOpts,
    spans: &Spans,
    mut setup_once: impl FnMut() -> Duration,
) {
    let m = &mut out.metrics;
    if opts.traced {
        let (base, traced) = (&reps[0], &reps[1]);
        latency_metrics(m, traced.steps_ms.clone(), true);
        m.set(
            "trace_overhead_ratio",
            ratio(traced.wall.as_secs_f64(), base.wall.as_secs_f64()) - 1.0,
        );
        span_metrics(m, spans);
        return;
    }
    let secs =
        |f: fn(&Rep) -> Duration| -> Vec<f64> { reps.iter().map(|r| f(r).as_secs_f64()).collect() };
    m.set("wall_s", median(&secs(|r| r.wall)));
    let mut setups = secs(|r| r.setup);
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_once().as_secs_f64());
    }
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", peak_rss_mb());
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.events as f64 / r.wall.as_secs_f64())
        .collect();
    m.set("throughput_per_s", median(&rates));
    latency_metrics(
        m,
        reps.iter()
            .flat_map(|r| r.steps_ms.iter().copied())
            .collect(),
        false,
    );
}

/// Table 8's PeerHood arm for this seed, next to the paper's values: a
/// fidelity record, not a gate.
fn table8(opts: &RunOpts) -> Json {
    let trials = if opts.toy { 3 } else { 30 };
    let report = harness::table8::run(trials, opts.seed);
    let arm = report.peerhood();
    let mean = |i: usize| arm.summaries[i].mean;
    Json::obj()
        .field("trials", trials)
        .field("search_s", mean(0))
        .field("join_s", mean(1))
        .field("list_s", mean(2))
        .field("profile_s", mean(3))
        .field("total_s", mean(4))
        .field(
            "paper_s",
            Json::obj()
                .field("search", arm.paper.search)
                .field("join", arm.paper.join)
                .field("list", arm.paper.list)
                .field("profile", arm.paper.profile)
                .field("total", arm.paper.total),
        )
}
