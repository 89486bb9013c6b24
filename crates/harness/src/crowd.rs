//! The crowd scenario — the scale pass beyond the ComLab room.
//!
//! The thesis evaluated PeerHood with a handful of devices in one room
//! (see [`crate::scenario::lab`]); the concept chapter motivates much
//! larger settings — a campus, a bus terminal — where hundreds of
//! pedestrians carry personal trusted devices. This module builds that
//! setting: `N` nodes performing a random-waypoint walk over a campus
//! whose area grows with `N` (constant crowd density), each carrying
//! Bluetooth (a fraction also WLAN) and a few interests drawn zipf-ishly
//! from a shared pool, so popular topics ("football") recur while the
//! tail stays fragmented.
//!
//! [`run`] executes one such crowd on the deterministic simulator and
//! reports wall-clock cost, simulation event throughput, trace memory
//! under the bounded ring, and the groups the crowd would form — the
//! numbers `repro crowd --json` and `repro gate` emit. It also
//! times the spatial-index neighbor queries against the naive all-pairs
//! path (and cross-checks they agree), which is the evidence for the
//! near-linear scaling claim.

use std::time::{Duration, Instant};

use codec::json::Json;
use community::discovery::Discovery;
use community::semantics::MatchPolicy;
use community::Interest;
use netsim::geometry::{Point2, Rect};
use netsim::mobility::RandomWaypoint;
use netsim::world::NodeBuilder;
use netsim::{FaultPlan, RadioEnv, SimRng, SimTime, Technology, Trace, TraceStats};
use peerhood::gossip::GossipConfig;
use peerhood::sim::{Cluster, EpochTiming};
use peerhood::{AppCtx, AppEvent, Application, RecoveryPolicy};

pub use crate::scenario::fault_profile;

/// Pedestrian speed range (m/s) for the campus walk.
const SPEED_MPS: (f64, f64) = (0.5, 2.0);
/// Pause range at each waypoint.
const PAUSE: (Duration, Duration) = (Duration::ZERO, Duration::from_secs(20));
/// Largest crowd [`CrowdConfig::validate`] accepts. Leaves headroom over
/// the 1M-node acceptance run while still catching unit-typo inputs
/// (`--nodes 100000000`) before they allocate.
pub const MAX_NODES: usize = 2_000_000;
/// Above this size [`run`] skips the naive all-pairs cross-check even if
/// requested: O(N²) distance scans at crowd scale would dwarf the run
/// being measured.
pub const NAIVE_COMPARE_MAX: usize = 2_000;

/// A pathological [`CrowdConfig`] rejected by [`CrowdConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum CrowdError {
    /// `nodes == 0` — an empty crowd measures nothing.
    NoNodes,
    /// `nodes` exceeds [`MAX_NODES`].
    TooManyNodes {
        /// Requested crowd size.
        nodes: usize,
        /// The accepted maximum ([`MAX_NODES`]).
        max: usize,
    },
    /// `area_per_node_m2` is zero, negative, or not finite — a zero-area
    /// world puts the whole crowd in one point and infinite density.
    BadArea {
        /// The rejected density value.
        area_per_node_m2: f64,
    },
    /// `region_edge_m` is negative or not finite.
    BadRegionEdge {
        /// The rejected edge value.
        region_edge_m: f64,
    },
    /// `region_edge_m` exceeds the campus side: a region larger than the
    /// world is a sharding no-op and almost always a unit mistake.
    RegionLargerThanWorld {
        /// The rejected edge value.
        region_edge_m: f64,
        /// The campus side implied by `nodes` and `area_per_node_m2`.
        world_side_m: f64,
    },
    /// `interests_per_node` exceeds `interest_pool` — distinct picks are
    /// impossible and assignment would loop forever.
    InterestsExceedPool {
        /// Requested interests per node.
        interests_per_node: usize,
        /// Size of the shared pool.
        interest_pool: usize,
    },
}

impl std::fmt::Display for CrowdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrowdError::NoNodes => write!(f, "crowd needs at least one node"),
            CrowdError::TooManyNodes { nodes, max } => {
                write!(
                    f,
                    "crowd of {nodes} nodes exceeds the supported maximum {max}"
                )
            }
            CrowdError::BadArea { area_per_node_m2 } => write!(
                f,
                "area per node must be finite and positive, got {area_per_node_m2}"
            ),
            CrowdError::BadRegionEdge { region_edge_m } => write!(
                f,
                "region edge must be finite and positive, got {region_edge_m}"
            ),
            CrowdError::RegionLargerThanWorld {
                region_edge_m,
                world_side_m,
            } => write!(
                f,
                "region edge {region_edge_m} m exceeds the {world_side_m:.0} m campus side"
            ),
            CrowdError::InterestsExceedPool {
                interests_per_node,
                interest_pool,
            } => write!(
                f,
                "cannot draw {interests_per_node} distinct interests from a pool of {interest_pool}"
            ),
        }
    }
}

impl std::error::Error for CrowdError {}

/// Configuration for one crowd run.
#[derive(Clone, Debug)]
pub struct CrowdConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Number of devices in the crowd.
    pub nodes: usize,
    /// Virtual duration of the run.
    pub horizon: Duration,
    /// Campus area per node, m² (constant density as the crowd grows).
    pub area_per_node_m2: f64,
    /// Size of the shared interest pool.
    pub interest_pool: usize,
    /// Interests per node, drawn zipf-ishly from the pool.
    pub interests_per_node: usize,
    /// Trace ring capacity (events retained; older ones are evicted but
    /// still counted by [`TraceStats`]).
    pub trace_capacity: usize,
    /// Every `wlan_every`-th node also carries WLAN (0 disables WLAN).
    pub wlan_every: usize,
    /// Whether to also time the naive all-pairs neighbor queries (and
    /// cross-check the grid against them).
    pub compare_naive: bool,
    /// Worker count for the parallel epoch engine: `1` = serial, `0` =
    /// auto (one worker per hardware thread). Any value produces a
    /// bit-identical trace digest; see [`Cluster::set_threads`].
    pub threads: usize,
    /// Ignored: the simulator runs one event queue. Kept only because
    /// `perfbench` names it in struct literals; it goes with the next
    /// benchmark change.
    pub region_lanes: usize,
    /// Spatial region edge in metres (`0.0` = engine default, 80 m).
    /// Another pure sharding knob: neighbor answers are exact for any
    /// edge, so digests never depend on it.
    pub region_edge_m: f64,
    /// Fault plan injected into the radio environment (see
    /// [`fault_profile`] for the named presets). An inert plan draws no
    /// randomness and reproduces the fault-free digest bit-for-bit. A
    /// non-inert plan also switches the workload: the per-sighting SDP
    /// round is kept on (so frame loss has traffic to act on) and every
    /// daemon runs with the default [`RecoveryPolicy`].
    pub faults: FaultPlan,
    /// When set, every daemon is configured with the epidemic gossip
    /// layer (see [`GossipConfig`]). The watch-only [`CrowdApp`] ignores
    /// the daemon's `GossipEnabled` announcement — the knob exists so
    /// crowd-scale configs share the same vocabulary as
    /// [`crate::scenario::LabConfig`] and
    /// [`crate::bubbles::BubblesConfig`], whose apps do speak gossip.
    pub gossip: Option<GossipConfig>,
}

impl Default for CrowdConfig {
    fn default() -> Self {
        CrowdConfig {
            seed: 2008,
            nodes: 300,
            horizon: Duration::from_secs(60),
            area_per_node_m2: 200.0,
            interest_pool: 40,
            interests_per_node: 3,
            trace_capacity: 16_384,
            wlan_every: 8,
            compare_naive: true,
            threads: 1,
            region_lanes: 0,
            region_edge_m: 0.0,
            faults: FaultPlan::none(),
            gossip: None,
        }
    }
}

impl CrowdConfig {
    /// The campus side length (metres) this config implies: area grows
    /// with the crowd at constant density, floored at 60 m.
    pub fn world_side_m(&self) -> f64 {
        (self.nodes as f64 * self.area_per_node_m2).sqrt().max(60.0)
    }

    /// Rejects pathological inputs with a typed [`CrowdError`] instead of
    /// debug asserts or pathological behavior deep in the run: empty or
    /// oversized crowds, zero-area worlds, regions larger than the world,
    /// impossible interest draws.
    pub fn validate(&self) -> Result<(), CrowdError> {
        if self.nodes == 0 {
            return Err(CrowdError::NoNodes);
        }
        if self.nodes > MAX_NODES {
            return Err(CrowdError::TooManyNodes {
                nodes: self.nodes,
                max: MAX_NODES,
            });
        }
        if !self.area_per_node_m2.is_finite() || self.area_per_node_m2 <= 0.0 {
            return Err(CrowdError::BadArea {
                area_per_node_m2: self.area_per_node_m2,
            });
        }
        if self.region_edge_m != 0.0 {
            if !self.region_edge_m.is_finite() || self.region_edge_m < 0.0 {
                return Err(CrowdError::BadRegionEdge {
                    region_edge_m: self.region_edge_m,
                });
            }
            let side = self.world_side_m();
            if self.region_edge_m > side {
                return Err(CrowdError::RegionLargerThanWorld {
                    region_edge_m: self.region_edge_m,
                    world_side_m: side,
                });
            }
        }
        if self.interests_per_node > self.interest_pool {
            return Err(CrowdError::InterestsExceedPool {
                interests_per_node: self.interests_per_node,
                interest_pool: self.interest_pool,
            });
        }
        Ok(())
    }
}

/// The per-node application of the crowd: it only watches the
/// neighborhood (no connections, no SNS protocol), tracing appearances
/// and disappearances through the bounded interned trace — the cheapest
/// realistic workload for the discovery plane at scale.
#[derive(Default)]
pub struct CrowdApp {
    /// `DeviceAppeared` events seen.
    pub appeared: u64,
    /// `DeviceDisappeared` events seen.
    pub disappeared: u64,
}

impl Application for CrowdApp {
    fn on_event(&mut self, event: AppEvent, ctx: &mut AppCtx<'_>) {
        match event {
            AppEvent::DeviceAppeared(info) => {
                self.appeared += 1;
                ctx.trace(&info.name, "SEEN");
            }
            AppEvent::DeviceDisappeared(info) => {
                self.disappeared += 1;
                ctx.trace(&info.name, "LOST");
            }
            _ => {}
        }
    }
}

/// Result of one crowd run.
#[derive(Clone, Debug, Default)]
pub struct CrowdReport {
    /// Number of devices.
    pub nodes: usize,
    /// Seed the run used.
    pub seed: u64,
    /// Epoch-engine worker count the run used (1 = serial, 0 = auto).
    pub threads: usize,
    /// Region edge in metres the run used (actual, after defaulting).
    pub region_edge_m: f64,
    /// Human-readable fault plan (`"no faults"` when inert).
    pub faults: String,
    /// Virtual duration, seconds.
    pub virtual_secs: f64,
    /// Wall-clock cost of the simulation, milliseconds.
    pub wall_ms: f64,
    /// Simulation events processed (discovery + frames + traced events).
    pub events: u64,
    /// `events` per wall-clock second.
    pub events_per_sec: f64,
    /// Trace events retained in the ring at the end.
    pub trace_retained: usize,
    /// Trace memory footprint (ring + string pool), bytes.
    pub trace_mem_bytes: usize,
    /// Daemon/trace counters.
    pub stats: TraceStats,
    /// Order-sensitive digest of the retained trace + counters.
    pub digest: u64,
    /// `DeviceAppeared` deliveries summed over apps.
    pub appeared: u64,
    /// `DeviceDisappeared` deliveries summed over apps.
    pub disappeared: u64,
    /// Groups each member would form with its final neighborhood, summed
    /// over members (Figure 6 run against every node's neighbor table).
    pub groups_observed: usize,
    /// Distinct group keys across the whole crowd.
    pub distinct_groups: usize,
    /// Nodes that end the run in at least one group.
    pub grouped_nodes: usize,
    /// Mean µs per `neighbors_any` query through the spatial grid.
    pub grid_query_us: f64,
    /// Mean µs per `neighbors_any` query through the naive all-pairs
    /// path; `None` when the comparison was skipped (past
    /// [`NAIVE_COMPARE_MAX`] or `compare_naive: false`), so a skipped
    /// measurement is never mistaken for an infinite speedup.
    pub naive_query_us: Option<f64>,
    /// Per-phase engine timing (drain / gather / execute / commit) and
    /// batch routing counters.
    pub timing: EpochTiming,
    /// Region snapshots the world took building and running the crowd;
    /// the measured neighbor queries at the horizon are not counted.
    pub snapshot_rebuilds: u64,
    /// Process peak RSS (`VmHWM`) after the run, bytes; `None` where
    /// `/proc/self/status` is unavailable.
    pub peak_rss_bytes: Option<u64>,
}

/// The process's high-water resident set (`VmHWM` from
/// `/proc/self/status`), in bytes. `None` off Linux or in sandboxes that
/// hide procfs. Note this is a process-lifetime high-water mark: in a
/// sweep it reflects the largest run so far, not the current one.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The host's hardware thread count (1 when unknown). Parallel speedups
/// mean little below 4.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl CrowdReport {
    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        let stats = Json::obj()
            .field("events_recorded", self.stats.events_recorded)
            .field("events_dropped", self.stats.events_dropped)
            .field("inquiries", self.stats.inquiries)
            .field("inquiry_responses", self.stats.inquiry_responses)
            .field("frames_sent", self.stats.frames_sent)
            .field("frames_delivered", self.stats.frames_delivered)
            .field("frames_dropped", self.stats.frames_dropped)
            .field("retries", self.stats.retries)
            .field("timeouts", self.stats.timeouts)
            .field("gave_up", self.stats.gave_up);
        // A skipped naive pass reports null, not 0 (and no speedup): a
        // bogus `speedup: 0` used to read as "the grid is slower".
        let (naive_us, speedup) = match self.naive_query_us {
            Some(us) if self.grid_query_us > 0.0 => {
                (Json::Num(us), Json::Num(us / self.grid_query_us))
            }
            Some(us) => (Json::Num(us), Json::Null),
            None => (Json::Null, Json::Null),
        };
        let timing = Json::obj()
            .field("drain_ms", self.timing.drain.as_secs_f64() * 1e3)
            .field("gather_ms", self.timing.gather.as_secs_f64() * 1e3)
            .field("execute_ms", self.timing.execute.as_secs_f64() * 1e3)
            .field("commit_ms", self.timing.commit.as_secs_f64() * 1e3)
            .field("par_batches", self.timing.par_batches)
            .field("par_events", self.timing.par_events)
            .field("serial_batches", self.timing.serial_batches)
            .field("serial_events", self.timing.serial_events);
        Json::obj()
            .field("nodes", self.nodes)
            .field("seed", self.seed)
            .field("threads", self.threads)
            .field("region_edge_m", self.region_edge_m)
            .field("faults", self.faults.as_str())
            .field("virtual_secs", self.virtual_secs)
            .field("wall_ms", self.wall_ms)
            .field("events", self.events)
            .field("events_per_sec", self.events_per_sec)
            .field("trace_retained", self.trace_retained)
            .field("trace_mem_bytes", self.trace_mem_bytes)
            .field("stats", stats)
            .field("digest", format!("{:016x}", self.digest))
            .field("appeared", self.appeared)
            .field("disappeared", self.disappeared)
            .field("groups_observed", self.groups_observed)
            .field("distinct_groups", self.distinct_groups)
            .field("grouped_nodes", self.grouped_nodes)
            .field(
                "neighbor_query",
                Json::obj()
                    .field("grid_us", self.grid_query_us)
                    .field("naive_us", naive_us)
                    .field("speedup", speedup),
            )
            .field("timing", timing)
            .field("snapshot_rebuilds", self.snapshot_rebuilds)
            .field(
                "peak_rss_bytes",
                self.peak_rss_bytes
                    .map_or(Json::Null, |b| Json::Num(b as f64)),
            )
    }
}

/// A built (started) crowd, before/after running.
pub struct CrowdScenario {
    /// The running cluster.
    pub cluster: Cluster<CrowdApp>,
    /// The shared interest pool: `topic-00`, `topic-01`, ….
    pub interest_pool: Vec<Interest>,
    /// Every node's interests as indices into `interest_pool`, in node
    /// order (`p0`, `p1`, …), `interests_per_node` each.
    picks: Vec<u32>,
    interests_per_node: usize,
}

impl CrowdScenario {
    /// The interests of `node`, resolved from the pool.
    pub fn interests(&self, node: usize) -> Vec<Interest> {
        let k = self.interests_per_node;
        self.picks[node * k..(node + 1) * k]
            .iter()
            .map(|&i| self.interest_pool[i as usize].clone())
            .collect()
    }
}

/// Draws `count` distinct pool indices, zipf-ishly (weight of topic `k`
/// ∝ 1/(k+1), so low indices are popular).
fn zipfish_picks(rng: &mut SimRng, pool: usize, count: usize) -> Vec<usize> {
    let total: f64 = (0..pool).map(|k| 1.0 / (k + 1) as f64).sum();
    let mut picks: Vec<usize> = Vec::with_capacity(count);
    while picks.len() < count.min(pool) {
        let mut x = rng.unit_f64() * total;
        let mut choice = pool - 1;
        for k in 0..pool {
            x -= 1.0 / (k + 1) as f64;
            if x <= 0.0 {
                choice = k;
                break;
            }
        }
        if !picks.contains(&choice) {
            picks.push(choice);
        }
    }
    picks
}

/// Builds and starts a crowd per `config` (without advancing time).
/// Rejects pathological configs with a typed [`CrowdError`].
pub fn build(config: &CrowdConfig) -> Result<CrowdScenario, CrowdError> {
    config.validate()?;
    let side = config.world_side_m();
    let campus = Rect::sized(side, side);
    let mut rng = SimRng::from_seed(config.seed);
    let mut placement = rng.fork(1);
    let mut topics = rng.fork(2);

    let faulted = !config.faults.is_inert();
    let mut cluster = Cluster::with_env(
        config.seed,
        RadioEnv::default().with_faults(config.faults.clone()),
    );
    if config.region_edge_m > 0.0 {
        cluster.set_region_edge(config.region_edge_m);
    }
    cluster.reserve_nodes(config.nodes);
    let interest_pool: Vec<Interest> = (0..config.interest_pool)
        .map(|k| Interest::new(format!("topic-{k:02}")))
        .collect();
    let mut picks = Vec::with_capacity(config.nodes * config.interests_per_node);
    for i in 0..config.nodes {
        let start = Point2::new(
            placement.range_f64(campus.min.x..campus.max.x),
            placement.range_f64(campus.min.y..campus.max.y),
        );
        let walk = RandomWaypoint::new(campus, start, SPEED_MPS, PAUSE, placement.fork(i as u64));
        let mut techs = vec![Technology::Bluetooth];
        if config.wlan_every > 0 && i % config.wlan_every == 0 {
            techs.push(Technology::Wlan);
        }
        let builder = NodeBuilder::new(format!("p{i}"))
            .with_technologies(techs)
            .moving(walk);
        // No SDP round per sighting: the crowd app only watches the
        // neighborhood, so automatic service discovery would just add
        // O(N · sightings) query traffic. Under a live fault plan the
        // round stays on — frame loss needs frames — and every daemon
        // runs with recovery enabled.
        cluster.add_node_with(
            builder,
            |c| {
                let c = c.with_auto_service_discovery(faulted);
                let c = if faulted {
                    c.with_recovery(RecoveryPolicy::default())
                } else {
                    c
                };
                match &config.gossip {
                    Some(g) => c.with_gossip(g.clone()),
                    None => c,
                }
            },
            CrowdApp::default(),
        );
        picks.extend(
            zipfish_picks(&mut topics, config.interest_pool, config.interests_per_node)
                .into_iter()
                .map(|k| k as u32),
        );
    }
    cluster.set_trace_capacity(config.trace_capacity);
    cluster.set_threads(config.threads);
    cluster.start();
    Ok(CrowdScenario {
        cluster,
        interest_pool,
        picks,
        interests_per_node: config.interests_per_node,
    })
}

/// Runs one crowd to its horizon and measures it. Rejects pathological
/// configs with a typed [`CrowdError`].
pub fn run(config: &CrowdConfig) -> Result<CrowdReport, CrowdError> {
    let mut s = build(config)?;
    let deadline = SimTime::ZERO.saturating_add(config.horizon);

    s.cluster.set_collect_timing(true);
    let wall = Instant::now();
    s.cluster.run_until(deadline);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let timing = *s.cluster.timing();
    let snapshot_rebuilds = s.cluster.world_mut().snapshot_rebuilds();

    let stats = *s.cluster.stats();
    let events = stats.events_recorded
        + stats.inquiries
        + stats.inquiry_responses
        + stats.frames_sent
        + stats.frames_delivered;
    let events_per_sec = if wall_ms > 0.0 {
        events as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };

    let (mut appeared, mut disappeared) = (0u64, 0u64);
    let mut groups_observed = 0usize;
    let mut grouped_nodes = 0usize;
    let mut distinct = std::collections::BTreeSet::new();
    let node_ids: Vec<_> = (0..config.nodes)
        .map(netsim::world::NodeId::from_index)
        .collect();
    for &id in &node_ids {
        let app = s.cluster.app(id);
        appeared += app.appeared;
        disappeared += app.disappeared;

        let me = s.cluster.name(id).to_owned();
        let neighbors: Vec<(String, Vec<Interest>)> = s
            .cluster
            .daemon(id)
            .neighbors()
            .iter()
            .map(|entry| {
                let idx = entry.info.id.raw() as usize;
                (entry.info.name.to_string(), s.interests(idx))
            })
            .collect();
        let groups =
            Discovery::new(&me, &MatchPolicy::Exact).groups(&s.interests(id.index()), &neighbors);
        if !groups.is_empty() {
            grouped_nodes += 1;
        }
        groups_observed += groups.len();
        distinct.extend(groups.keys().cloned());
    }

    let trace = s.cluster.trace();
    let trace_retained = trace.len();
    let trace_mem_bytes = trace.approx_mem_bytes();
    let digest = trace.digest();

    let now = s.cluster.now();
    let world = s.cluster.world_mut();
    let grid_t = Instant::now();
    let mut grid_results = Vec::with_capacity(node_ids.len());
    for &id in &node_ids {
        grid_results.push(world.neighbors_any(id, now));
    }
    let grid_query_us = grid_t.elapsed().as_secs_f64() * 1e6 / node_ids.len().max(1) as f64;

    // At crowd scale the O(N²) all-pairs reference would dwarf the run
    // being measured — silently skip it past NAIVE_COMPARE_MAX.
    let naive_query_us = if config.compare_naive && config.nodes <= NAIVE_COMPARE_MAX {
        let naive_t = Instant::now();
        let mut naive_results = Vec::with_capacity(node_ids.len());
        for &id in &node_ids {
            naive_results.push(world.neighbors_any_naive(id, now));
        }
        let us = naive_t.elapsed().as_secs_f64() * 1e6 / node_ids.len().max(1) as f64;
        assert_eq!(
            grid_results, naive_results,
            "spatial grid disagrees with the naive neighbor scan"
        );
        Some(us)
    } else {
        None
    };

    Ok(CrowdReport {
        nodes: config.nodes,
        seed: config.seed,
        threads: config.threads,
        region_edge_m: s.cluster.world_mut().region_edge(),
        faults: config.faults.to_string(),
        virtual_secs: config.horizon.as_secs_f64(),
        wall_ms,
        events,
        events_per_sec,
        trace_retained,
        trace_mem_bytes,
        stats,
        digest,
        appeared,
        disappeared,
        groups_observed,
        distinct_groups: distinct.len(),
        grouped_nodes,
        grid_query_us,
        naive_query_us,
        timing,
        snapshot_rebuilds,
        peak_rss_bytes: peak_rss_bytes(),
    })
}

/// Runs the crowd at each size in `sizes` (same seed and horizon).
/// Fails fast on the first pathological size.
pub fn sweep(base: &CrowdConfig, sizes: &[usize]) -> Result<Vec<CrowdReport>, CrowdError> {
    sizes
        .iter()
        .map(|&nodes| {
            run(&CrowdConfig {
                nodes,
                ..base.clone()
            })
        })
        .collect()
}

/// A sweep as one JSON document (`repro crowd --json`): the shared
/// settings of `base`, the fault profile's name, every run, and the
/// `(events, allocations)` of a [`trace_alloc_burst`].
pub fn sweep_json(
    base: &CrowdConfig,
    faults: &str,
    reports: &[CrowdReport],
    burst: (u64, u64),
) -> Json {
    let (events, allocations) = burst;
    Json::obj()
        .field("scenario", "crowd")
        .field("seed", base.seed)
        .field("horizon_secs", base.horizon.as_secs())
        .field("threads", base.threads)
        .field("nproc", host_cores())
        .field("faults", faults)
        .field(
            "runs",
            reports.iter().map(CrowdReport::to_json).collect::<Vec<_>>(),
        )
        .field(
            "trace_alloc_burst",
            Json::obj()
                .field("events", events)
                .field("allocations", allocations)
                .field("allocs_per_event", allocations as f64 / events as f64),
        )
}

/// Renders a sweep as an aligned text table.
pub fn render(reports: &[CrowdReport]) -> String {
    let mut out = String::from(
        "Crowd scenario — random-waypoint campus, zipf-ish interests\n\
         \n\
         nodes    wall ms      events    events/s   trace KiB   groups   grid µs   naive µs\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{:>5} {:>10.1} {:>11} {:>11.0} {:>11.1} {:>8} {:>9.1} {:>10}\n",
            r.nodes,
            r.wall_ms,
            r.events,
            r.events_per_sec,
            r.trace_mem_bytes as f64 / 1024.0,
            r.groups_observed,
            r.grid_query_us,
            r.naive_query_us
                .map_or_else(|| "      —".to_owned(), |us| format!("{us:>10.1}")),
        ));
    }
    out
}

/// Records a warmed burst of fully-interned trace events through a
/// bounded ring and reports `(events, allocations)` as observed by
/// `alloc_count` — a monotone counter of heap allocations, typically
/// backed by a counting `#[global_allocator]` in the calling binary.
/// On the steady-state interned path the allocation delta must be zero.
pub fn trace_alloc_burst(alloc_count: &dyn Fn() -> u64) -> (u64, u64) {
    let mut trace = Trace::with_capacity(1024);
    let a = trace.intern_actor("crowd-a");
    let b = trace.intern_actor("crowd-b");
    let label = trace.intern_label("CROWD_EVENT");
    // Warm: fill the ring so every further record evicts (the worst case).
    for i in 0..2048u64 {
        trace.record_ids(SimTime::from_micros(i), a, b, label);
    }
    let before = alloc_count();
    const BURST: u64 = 65_536;
    for i in 0..BURST {
        trace.record_ids(SimTime::from_micros(2048 + i), a, b, label);
    }
    (BURST, alloc_count() - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::FaultProfile;

    fn small(nodes: usize, seed: u64) -> CrowdConfig {
        CrowdConfig {
            seed,
            nodes,
            horizon: Duration::from_secs(45),
            ..CrowdConfig::default()
        }
    }

    #[test]
    fn crowd_discovers_and_groups() {
        let report = run(&small(60, 7)).expect("valid config");
        assert_eq!(report.nodes, 60);
        assert!(report.stats.inquiries > 0, "{:?}", report.stats);
        assert!(report.appeared > 0, "nobody met anybody: {report:?}");
        assert!(
            report.groups_observed > 0,
            "zipf-ish interests should form at least one group: {report:?}"
        );
        assert!(report.grouped_nodes <= report.nodes);
        assert!(report.distinct_groups <= report.groups_observed);
    }

    #[test]
    fn crowd_trace_stays_bounded() {
        let config = CrowdConfig {
            trace_capacity: 64,
            ..small(50, 11)
        };
        let report = run(&config).expect("valid config");
        assert!(report.trace_retained <= 64, "{report:?}");
        assert_eq!(
            report.stats.events_recorded,
            report.trace_retained as u64 + report.stats.events_dropped
        );
    }

    /// Satellite: determinism at scale — two same-seed runs at 300 nodes
    /// must agree byte-for-byte on the trace digest and every counter.
    #[test]
    fn same_seed_crowds_are_identical_at_scale() {
        let config = CrowdConfig {
            compare_naive: false,
            horizon: Duration::from_secs(40),
            ..small(300, 2008)
        };
        let a = run(&config).expect("valid config");
        let b = run(&config).expect("valid config");
        assert_eq!(a.digest, b.digest, "trace digests diverged");
        assert_eq!(a.stats, b.stats, "counters diverged");
        assert_eq!(a.events, b.events);
        assert_eq!(
            (a.appeared, a.disappeared, a.groups_observed),
            (b.appeared, b.disappeared, b.groups_observed)
        );
    }

    /// Tentpole acceptance: the parallel epoch engine must be a pure
    /// performance transform. For every seed and crowd size the trace
    /// digest, counters, app-observed event totals and epoch counters of a
    /// `--threads 4` or `--threads 0` run are byte-identical to the serial
    /// run. Horizons shrink as `N`
    /// grows to keep the cross product affordable in debug builds.
    #[test]
    fn serial_and_parallel_digests_match() {
        for &seed in &[2008u64, 7, 42] {
            for &(nodes, secs) in &[(30usize, 60u64), (300, 15), (1000, 4)] {
                let base = CrowdConfig {
                    seed,
                    nodes,
                    horizon: Duration::from_secs(secs),
                    compare_naive: false,
                    ..CrowdConfig::default()
                };
                let serial = run(&base).expect("valid config");
                for threads in [4, 0] {
                    let par = run(&CrowdConfig {
                        threads,
                        ..base.clone()
                    })
                    .expect("valid config");
                    assert_eq!(
                        format!("{:016x}", serial.digest),
                        format!("{:016x}", par.digest),
                        "digest diverged: seed={seed} nodes={nodes} threads={threads}"
                    );
                    assert_eq!(serial.stats, par.stats, "seed={seed} nodes={nodes}");
                    assert_eq!(
                        (serial.events, serial.appeared, serial.disappeared),
                        (par.events, par.appeared, par.disappeared),
                        "seed={seed} nodes={nodes} threads={threads}"
                    );
                    let counters = |t: &EpochTiming| {
                        [
                            t.par_batches,
                            t.par_events,
                            t.serial_batches,
                            t.serial_events,
                        ]
                    };
                    assert_eq!(
                        counters(&serial.timing),
                        counters(&par.timing),
                        "epoch counters: seed={seed} nodes={nodes} threads={threads}"
                    );
                }
            }
        }
    }

    /// Satellite: an explicitly-built all-zero [`FaultPlan`] draws no
    /// randomness and must reproduce the fault-free crowd bit-for-bit —
    /// digest, counters and app totals.
    #[test]
    fn zero_probability_fault_plan_is_digest_identical_to_fault_free() {
        for seed in [2008u64, 13] {
            let base = CrowdConfig {
                compare_naive: false,
                horizon: Duration::from_secs(30),
                ..small(120, seed)
            };
            let plain = run(&base).expect("valid config");
            let zeroed = run(&CrowdConfig {
                faults: FaultPlan::none()
                    .with_profile(Technology::Bluetooth, FaultProfile::NONE)
                    .with_profile(Technology::Wlan, FaultProfile::NONE),
                ..base.clone()
            })
            .expect("valid config");
            assert_eq!(
                format!("{:016x}", plain.digest),
                format!("{:016x}", zeroed.digest),
                "seed {seed}: inert plan perturbed the digest"
            );
            assert_eq!(plain.stats, zeroed.stats, "seed {seed}");
            assert_eq!(
                (plain.appeared, plain.disappeared),
                (zeroed.appeared, zeroed.disappeared)
            );
            assert_eq!(zeroed.faults, "no faults");
        }
    }

    /// Tentpole acceptance: a faulted crowd is still deterministic. The
    /// fault stream is drawn in serial dispatch order from its own seeded
    /// RNG, so a repeated same-seed run and a `--threads 4` run agree
    /// with the serial digest bit-for-bit — while the faults really fire.
    #[test]
    fn faulted_crowd_digests_survive_threads_and_reruns() {
        let base = CrowdConfig {
            compare_naive: false,
            horizon: Duration::from_secs(30),
            faults: fault_profile("lossy").expect("named profile"),
            ..small(200, 2008)
        };
        let serial = run(&base).expect("valid config");
        assert!(
            serial.stats.frames_dropped > 0,
            "the lossy plan must actually lose frames: {:?}",
            serial.stats
        );
        let again = run(&base).expect("valid config");
        assert_eq!(
            format!("{:016x}", serial.digest),
            format!("{:016x}", again.digest)
        );
        assert_eq!(serial.stats, again.stats);
        let par = run(&CrowdConfig {
            threads: 4,
            ..base.clone()
        })
        .expect("valid config");
        assert_eq!(
            format!("{:016x}", serial.digest),
            format!("{:016x}", par.digest),
            "faulted digest diverged under the epoch engine"
        );
        assert_eq!(serial.stats, par.stats);
        assert_eq!(
            (serial.appeared, serial.disappeared),
            (par.appeared, par.disappeared)
        );
    }

    #[test]
    fn interest_assignment_is_zipfish_and_distinct() {
        let mut rng = SimRng::from_seed(5);
        let mut counts = vec![0usize; 20];
        for _ in 0..400 {
            let picks = zipfish_picks(&mut rng, 20, 3);
            assert_eq!(picks.len(), 3);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "picks must be distinct");
            for p in picks {
                counts[p] += 1;
            }
        }
        assert!(
            counts[0] > counts[19] * 3,
            "topic 0 should dominate the tail: {counts:?}"
        );
    }

    /// Satellite: pathological configs come back as typed errors, not
    /// debug asserts or hangs deep inside the run.
    #[test]
    fn pathological_configs_are_rejected() {
        let base = CrowdConfig::default();
        assert_eq!(
            run(&CrowdConfig {
                nodes: 0,
                ..base.clone()
            })
            .err(),
            Some(CrowdError::NoNodes)
        );
        assert_eq!(
            run(&CrowdConfig {
                nodes: MAX_NODES + 1,
                ..base.clone()
            })
            .err(),
            Some(CrowdError::TooManyNodes {
                nodes: MAX_NODES + 1,
                max: MAX_NODES
            })
        );
        for area in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            let err = run(&CrowdConfig {
                area_per_node_m2: area,
                ..base.clone()
            })
            .expect_err("zero/negative/non-finite area must be rejected");
            assert!(matches!(err, CrowdError::BadArea { .. }), "{area}: {err}");
        }
        let err = run(&CrowdConfig {
            region_edge_m: f64::NAN,
            ..base.clone()
        })
        .expect_err("non-finite region edge must be rejected");
        assert!(matches!(err, CrowdError::BadRegionEdge { .. }), "{err}");
        let err = run(&CrowdConfig {
            nodes: 100,
            region_edge_m: 1.0e6,
            ..base.clone()
        })
        .expect_err("a region larger than the world must be rejected");
        assert!(
            matches!(err, CrowdError::RegionLargerThanWorld { .. }),
            "{err}"
        );
        assert_eq!(
            run(&CrowdConfig {
                interest_pool: 2,
                interests_per_node: 3,
                ..base.clone()
            })
            .err(),
            Some(CrowdError::InterestsExceedPool {
                interests_per_node: 3,
                interest_pool: 2
            })
        );
        // The max-size config itself is accepted (validation only).
        assert!(CrowdConfig {
            nodes: MAX_NODES,
            ..base.clone()
        }
        .validate()
        .is_ok());
    }

    /// Differential: the sharded engine must match the serial baseline —
    /// one thread, default grid — bit-for-bit at 1k and 10k nodes for
    /// every combination of worker count and region edge, including under
    /// a live lossy fault plan.
    #[test]
    fn region_sharding_matches_serial_merge_baseline() {
        let cases: &[(usize, u64, &str)] =
            &[(1000, 4, "none"), (10_000, 2, "none"), (1000, 3, "lossy")];
        for &(nodes, secs, faults) in cases {
            let base = CrowdConfig {
                nodes,
                horizon: Duration::from_secs(secs),
                compare_naive: false,
                faults: fault_profile(faults).expect("named profile"),
                ..CrowdConfig::default()
            };
            let baseline = run(&CrowdConfig {
                threads: 1,
                ..base.clone()
            })
            .expect("valid config");
            if faults == "lossy" {
                assert!(
                    baseline.stats.frames_dropped > 0,
                    "the lossy plan must actually lose frames: {:?}",
                    baseline.stats
                );
            }
            for &(threads, edge) in &[(2usize, 40.0f64), (4, 250.0), (4, 0.0), (1, 120.0)] {
                let sharded = run(&CrowdConfig {
                    threads,
                    region_edge_m: edge,
                    ..base.clone()
                })
                .expect("valid config");
                assert_eq!(
                    format!("{:016x}", baseline.digest),
                    format!("{:016x}", sharded.digest),
                    "digest diverged: nodes={nodes} faults={faults} \
                     threads={threads} edge={edge}"
                );
                assert_eq!(
                    baseline.stats, sharded.stats,
                    "nodes={nodes} faults={faults} threads={threads} edge={edge}"
                );
                assert_eq!(
                    (baseline.events, baseline.appeared, baseline.disappeared),
                    (sharded.events, sharded.appeared, sharded.disappeared),
                );
            }
        }
    }

    /// Differential: batched epochs — batch drain, partitioning across
    /// workers, canonical outbox commit — must match single-event epochs
    /// ([`Cluster::run_until_condition`]) bit-for-bit. Both run the same
    /// handlers, so this pins batching, partitioning and the commit merge
    /// for every worker count, including under a live lossy fault plan;
    /// the pinned digests in the root `tests/pinned_digests.rs` are the
    /// behaviour oracle.
    /// One differential case: node count, horizon seconds, fault profile
    /// name, thread counts to sweep.
    type EpochCase = (usize, u64, &'static str, &'static [usize]);

    #[test]
    fn epoch_engine_matches_pure_dispatch_reference() {
        let cases: &[EpochCase] = &[
            (1000, 3, "none", &[1, 2, 4, 8]),
            (1000, 3, "lossy", &[1, 2, 4, 8]),
            (10_000, 2, "none", &[4]),
            // Regression: lossy retries at this scale schedule inquiries
            // out of node order, which exposed a commit merge that
            // assumed node-grouped worker spans were batch-ordered.
            (3000, 6, "lossy", &[4]),
        ];
        for &(nodes, secs, faults, threads_set) in cases {
            let base = CrowdConfig {
                nodes,
                horizon: Duration::from_secs(secs),
                compare_naive: false,
                faults: fault_profile(faults).expect("named profile"),
                ..CrowdConfig::default()
            };
            let deadline = SimTime::ZERO.saturating_add(base.horizon);
            let mut reference = build(&base).expect("valid config");
            reference.cluster.run_until_condition(deadline, |_| false);
            let ref_digest = reference.cluster.trace().digest();
            let ref_stats = *reference.cluster.stats();
            if faults == "lossy" {
                assert!(
                    ref_stats.frames_dropped > 0,
                    "the lossy plan must actually lose frames: {ref_stats:?}"
                );
            }
            for &threads in threads_set {
                let par = run(&CrowdConfig {
                    threads,
                    ..base.clone()
                })
                .expect("valid config");
                assert_eq!(
                    format!("{ref_digest:016x}"),
                    format!("{:016x}", par.digest),
                    "epoch engine diverged from pure dispatch: nodes={nodes} \
                     faults={faults} threads={threads}"
                );
                assert_eq!(
                    ref_stats, par.stats,
                    "nodes={nodes} faults={faults} threads={threads}"
                );
            }
        }
    }

    /// 100k leg of the differential matrix — minutes in a debug build, so
    /// `#[ignore]`d; `repro gate` checks the release-build equivalent
    /// (serial and `--threads 4` at 100k nodes).
    #[test]
    #[ignore = "release-scale: run with --ignored (`repro gate` checks the release build)"]
    fn epoch_engine_matches_pure_dispatch_at_100k() {
        let base = CrowdConfig {
            nodes: 100_000,
            horizon: Duration::from_secs(2),
            compare_naive: false,
            ..CrowdConfig::default()
        };
        let deadline = SimTime::ZERO.saturating_add(base.horizon);
        let mut reference = build(&base).expect("valid config");
        reference.cluster.run_until_condition(deadline, |_| false);
        let ref_digest = reference.cluster.trace().digest();
        let ref_stats = *reference.cluster.stats();
        for threads in [2usize, 4] {
            let par = run(&CrowdConfig {
                threads,
                ..base.clone()
            })
            .expect("valid config");
            assert_eq!(
                format!("{ref_digest:016x}"),
                format!("{:016x}", par.digest),
                "threads={threads}"
            );
            assert_eq!(ref_stats, par.stats, "threads={threads}");
        }
    }

    #[test]
    fn alloc_burst_counts_against_the_probe() {
        // With a flat probe the delta is zero by construction; the repro
        // binary installs a real counting allocator.
        let (events, allocs) = trace_alloc_burst(&|| 0);
        assert_eq!(events, 65_536);
        assert_eq!(allocs, 0);
    }
}
