//! Deterministic simulator driver: many daemons + applications in one
//! [`netsim`] world.
//!
//! [`Cluster`] is the executable mobile environment. It owns the world map,
//! the event queue, and one `(Daemon, Application)` pair per device, and it
//! *is* the plugin layer: every [`PluginCommand`] a daemon emits is turned
//! into world queries and timed events using the technology profiles of
//! [`netsim::radio`] — inquiry windows, response offsets, connection setup
//! times, per-frame transfer times, and range checks at both send and
//! delivery time.
//!
//! Everything is driven from a single seeded RNG, so a run is a pure
//! function of `(scenario, seed)`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codec::Bytes;

use netsim::world::{EpochView, GatherBuf, NodeBuilder, NodeId};
use netsim::{
    ActorId, BurstState, EventQueue, RadioEnv, SimRng, SimTime, Technology, Trace, TraceStats,
    World,
};

use crate::api::AppEvent;
use crate::app::{AppCtx, Application, PendingRecord, TraceSink};
use crate::config::DaemonConfig;
use crate::daemon::{Daemon, DaemonInput, DaemonOutput};
use crate::library::Library;
use crate::plugin::{PluginCommand, PluginEvent};
use crate::service::ServiceInfo;
use crate::types::{AttemptId, DeviceId, DeviceInfo, LinkId, ResumeToken};

/// Approximate wire size of a service-discovery query.
const SDP_QUERY_BYTES: usize = 48;
/// Approximate wire size of one service record in a discovery reply.
const SDP_RECORD_BYTES: usize = 72;
/// Approximate wire size of connection-control frames (accept, close).
const CTRL_BYTES: usize = 24;
/// How long after the radios lose each other the transport notices.
const LINK_DOWN_DETECT: Duration = Duration::from_millis(400);
/// How long an unanswered service query takes to give up.
const SDP_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Salt xored into the scenario seed to derive the *fault* RNG lanes.
/// Faults draw from their own per-node streams so an inert [`FaultPlan`]
/// (which draws nothing) leaves the main lanes — and therefore the
/// digest — bit-identical to a fault-free run.
///
/// [`FaultPlan`]: netsim::FaultPlan
const FAULT_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum events per epoch-engine worker: below this, per-spawn overhead
/// outweighs the fan-out, so small batches get fewer (or one) workers. A
/// pure cost knob — worker count never affects results.
const EPOCH_MIN_EVENTS_PER_WORKER: usize = 16;

#[derive(Debug)]
enum Ev {
    Start(NodeId),
    DaemonWake(NodeId),
    AppTimer(NodeId, u64),
    InquiryFound {
        seeker: NodeId,
        tech: Technology,
        found: NodeId,
    },
    InquiryDone {
        node: NodeId,
        tech: Technology,
    },
    ServiceQueryArrive {
        to: NodeId,
        from: NodeId,
        tech: Technology,
    },
    ServiceReplyArrive {
        to: NodeId,
        from: NodeId,
        /// `None` for an empty list, so the common empty reply allocates
        /// nothing. Boxed for the size of `Ev`, not to move the list to
        /// the heap.
        #[allow(clippy::box_collection)]
        services: Option<Box<Vec<ServiceInfo>>>,
        /// Which radio carried the reply; `None` for the synthetic
        /// empty reply a local SDP timeout produces (not a wire frame,
        /// so fault injection never touches it).
        tech: Option<Technology>,
    },
    ConnectSetupDone(Box<SetupDone>),
    ConnectResultArrive {
        to: NodeId,
        attempt: AttemptId,
        result: Box<Result<LinkId, String>>,
    },
    FrameArrive {
        to: NodeId,
        link: LinkId,
        payload: Box<Bytes>,
    },
    PeerClosedArrive {
        to: NodeId,
        link: LinkId,
    },
    LinkDownArrive {
        to: NodeId,
        link: LinkId,
    },
    /// A scheduled daemon outage begins ([`netsim::CrashWindow`]).
    CrashStart(NodeId),
    /// The crashed daemon restarts (with empty soft state).
    CrashEnd(NodeId),
}

// A 100k crowd holds ~480k pending events (each device has inquiry
// responses in flight across the 10.24 s window), so every byte here is
// paid half a million times over. The four rare variants that carry a
// `String`, `Vec` or `Bytes` box their payloads; inline, they made every
// event 72 bytes. With the 64-byte `NeighborEntry` and the daemon's
// out-of-line connection maps, this took perfbench's `crowd_100k` from
// ~411 to ~265 MiB peak RSS.
const _: () = assert!(std::mem::size_of::<Ev>() <= 24);

/// The payload of [`Ev::ConnectSetupDone`]: a connection whose paging and
/// setup finished, about to reach the target's daemon.
#[derive(Debug)]
struct SetupDone {
    initiator: NodeId,
    attempt: AttemptId,
    target: NodeId,
    service: String,
    tech: Technology,
    resume: Option<ResumeToken>,
}

#[derive(Debug)]
struct Link {
    a: NodeId,
    b: NodeId,
    tech: Technology,
    /// While the responder has not yet accepted/rejected: the initiator
    /// waiting for the result.
    pending: Option<(NodeId, AttemptId)>,
    /// Latest scheduled arrival toward `a` / toward `b`. The thesis's
    /// BTPlugin "offers ordered and reliable data delivery" (L2CAP), so
    /// frames on one link must not overtake each other even though their
    /// individual transfer times are sampled independently.
    last_arrival_to_a: SimTime,
    last_arrival_to_b: SimTime,
    /// Whether the degradation warning (peer near the edge of range) has
    /// already been raised for this link.
    degraded_notified: bool,
}

impl Link {
    fn other(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// Returns the FIFO-corrected arrival time of a message toward `to`
    /// whose raw transfer would land at `raw`, and records it.
    fn fifo_arrival(&mut self, to: NodeId, raw: SimTime) -> SimTime {
        let last = if to == self.a {
            &mut self.last_arrival_to_a
        } else {
            &mut self.last_arrival_to_b
        };
        let at = raw.max(*last + Duration::from_micros(1));
        *last = at;
        at
    }
}

/// The set of pending `DaemonWake` timestamps for one node — a sorted `Vec`
/// rather than a `BTreeSet`: a node rarely has more than a couple of wakes
/// in flight, and at million-node scale the tree's per-node allocation
/// dominated. Empty sets hold no heap at all.
#[derive(Debug, Default)]
struct WakeSet(Vec<SimTime>);

impl WakeSet {
    /// Inserts `t`, returning `false` if it was already pending.
    fn insert(&mut self, t: SimTime) -> bool {
        match self.0.binary_search(&t) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, t);
                true
            }
        }
    }

    fn remove(&mut self, t: SimTime) {
        if let Ok(i) = self.0.binary_search(&t) {
            self.0.remove(i);
        }
    }
}

/// Fault state for one node, allocated lazily on the first draw that can
/// actually fire or the node's first crash. Fault-free runs (the common
/// case) never pay for it: the lane derivation [`SimRng::lane`] is
/// stateless, so creating the stream on first use yields exactly the
/// sequence an eagerly-created one would have produced.
#[derive(Debug)]
struct FaultRt {
    /// Dedicated fault-decision lane (see [`FAULT_STREAM_SALT`]): the
    /// Gilbert channel and refusal draws charged to this node.
    rng: SimRng,
    /// Per-technology Gilbert channel state for frames *received* by this
    /// node.
    burst: [BurstState; 3],
    /// Whether the daemon is inside a crash window: all its inputs are
    /// dropped until the matching [`Ev::CrashEnd`]. Per node, so only the
    /// worker owning the node ever reads or writes it.
    down: bool,
}

struct NodeRt<A> {
    daemon: Daemon,
    app: A,
    lib: Library,
    wakes: WakeSet,
    /// This node's main randomness lane: `SimRng::lane(seed, id)`. Every
    /// protocol draw a node's activity causes (discovery misses, transfer
    /// jitter, connect timing) comes from the acting node's own lane, so a
    /// node's stream depends only on `(seed, id)` and its own activity —
    /// never on how many other nodes exist or which worker dispatched it.
    rng: SimRng,
    /// Lazily-initialized fault state (see [`FaultRt`]).
    fault: Option<Box<FaultRt>>,
}

// One per simulated device. The daemon's connection and recovery maps live
// out of line (created on first connect), which took this from 776 to 592
// bytes: ~18 MiB of the `crowd_100k` heap, where most devices never connect.
// Sharing the daemon configuration across the crowd took it to 336 bytes,
// another ~25 MiB at 100k nodes.
const _: () = assert!(std::mem::size_of::<NodeRt<()>>() <= 336);

impl<A> NodeRt<A> {
    /// The node's fault state, deriving its lane on first use.
    fn fault(&mut self, seed: u64, node: NodeId) -> &mut FaultRt {
        self.fault.get_or_insert_with(|| {
            Box::new(FaultRt {
                rng: SimRng::lane(seed ^ FAULT_STREAM_SALT, node.index() as u64),
                burst: [BurstState::default(); 3],
                down: false,
            })
        })
    }

    /// Whether the node's daemon is inside a crash window.
    fn down(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.down)
    }
}

/// A deterministic simulation of many PeerHood devices and their
/// applications.
///
/// See the [crate-level example](crate) for basic use. The typical
/// experiment loop is: build nodes, [`Cluster::start`], then alternate
/// [`Cluster::run_until`] / [`Cluster::with_app`] to script user actions and
/// observe application state.
pub struct Cluster<A> {
    world: World,
    /// Every pending event in `(time, seq)` order; owns the virtual clock.
    queue: EventQueue<Ev>,
    nodes: Vec<NodeRt<A>>,
    /// Prebuilt identity snapshots, one per node, cloned (not rebuilt) for
    /// every plugin event that carries a `DeviceInfo`. A shared column —
    /// not a `NodeRt` field — because epoch workers need *cross-node* read
    /// access (an inquiry response carries the found node's identity) while
    /// holding only their own `&mut` node range.
    infos: Vec<DeviceInfo>,
    /// Each node's interned actor handle in `trace`, for the buffered
    /// record path ([`TraceSink::Buffer`]).
    actor_ids: Vec<ActorId>,
    /// The last node's daemon configuration, reused by the next node when
    /// equal apart from identity: a crowd's daemons share one.
    shared_config: Option<Arc<DaemonConfig>>,
    /// The radio link table, lent to the one-worker epochs.
    links: BTreeMap<LinkId, Link>,
    next_link: u64,
    /// Scenario seed; per-node RNG lanes derive from it statelessly via
    /// [`SimRng::lane`], so a node's streams never depend on cluster size.
    seed: u64,
    /// Radio profiles + fault plan shared with the world.
    env: RadioEnv,
    trace: Trace,
    started: bool,
    /// Worker count for the epoch engine (0 = auto, 1 = one worker).
    threads: usize,
    /// Reused batch buffer for [`EventQueue::drain_batch`].
    batch_buf: Vec<Ev>,
    /// The one-worker epochs' outbox, gather buffer and `feed_daemon`
    /// buffers, kept between epochs so a quiescent run allocates none of
    /// them per event.
    outbox: EpochOutbox,
    gather_buf: GatherBuf,
    feed_bufs: FeedBufs,
    /// Accumulated phase breakdown of [`Cluster::run_until`] (counters are
    /// always cheap; wall-clock sampling only when enabled).
    timing: EpochTiming,
    /// Whether [`EpochTiming`] wall-clock fields are sampled.
    collect_timing: bool,
}

/// Wall-clock phase breakdown of the simulator's epochs, accumulated across
/// calls. The batch and event counters cover [`Cluster::run_until`] and are
/// always maintained; the `Duration` fields are sampled only when enabled
/// via [`Cluster::set_collect_timing`] (they read the host clock, which
/// costs a few ns per batch) and also cover the one-event epochs of
/// [`Cluster::run_until_condition`] and [`Cluster::with_app`].
#[derive(Copy, Clone, Debug, Default)]
pub struct EpochTiming {
    /// Time spent draining timestamp batches from the event queue.
    pub drain: Duration,
    /// Time spent preparing the world's region snapshot for every epoch
    /// (rebuilds included), plus partitioning parallel batches by home
    /// node.
    pub gather: Duration,
    /// Time spent executing events (worker fan-out for parallel batches,
    /// one inline worker for serial ones).
    pub execute: Duration,
    /// Time spent replaying worker outboxes in canonical order.
    pub commit: Duration,
    /// Timestamp batches executed through the parallel epoch engine.
    pub par_batches: u64,
    /// Events executed through the parallel epoch engine.
    pub par_events: u64,
    /// Timestamp batches executed on one worker (ineligible or tiny).
    pub serial_batches: u64,
    /// Events executed on one worker.
    pub serial_events: u64,
}

/// Index of a technology in per-technology state arrays (burst channels).
fn tech_slot(tech: Technology) -> usize {
    match tech {
        Technology::Bluetooth => 0,
        Technology::Wlan => 1,
        Technology::Gprs => 2,
    }
}

/// The node an event is addressed to — its home node, which partitioned
/// epochs group events by.
fn ev_target(ev: &Ev) -> NodeId {
    match ev {
        Ev::Start(n) | Ev::DaemonWake(n) | Ev::AppTimer(n, _) => *n,
        Ev::InquiryFound { seeker, .. } => *seeker,
        Ev::InquiryDone { node, .. } => *node,
        Ev::ServiceQueryArrive { to, .. }
        | Ev::ServiceReplyArrive { to, .. }
        | Ev::ConnectResultArrive { to, .. }
        | Ev::FrameArrive { to, .. }
        | Ev::PeerClosedArrive { to, .. }
        | Ev::LinkDownArrive { to, .. } => *to,
        Ev::ConnectSetupDone(setup) => setup.target,
        Ev::CrashStart(n) | Ev::CrashEnd(n) => *n,
    }
}

impl<A: Application> Cluster<A> {
    /// Creates an empty cluster with default radio profiles and no faults;
    /// all randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Cluster::with_env(seed, RadioEnv::default())
    }

    /// Creates an empty cluster running inside the given [`RadioEnv`]:
    /// its technology profiles drive every range/timing computation and its
    /// [`FaultPlan`](netsim::FaultPlan) is injected deterministically.
    ///
    /// An inert fault plan draws no randomness, so
    /// `Cluster::with_env(seed, RadioEnv::default())` is bit-identical to
    /// `Cluster::new(seed)`.
    pub fn with_env(seed: u64, env: RadioEnv) -> Self {
        Cluster {
            world: World::with_env(env.clone()),
            queue: EventQueue::new(),
            nodes: Vec::new(),
            infos: Vec::new(),
            actor_ids: Vec::new(),
            shared_config: None,
            links: BTreeMap::new(),
            next_link: 0,
            seed,
            env,
            trace: Trace::new(),
            started: false,
            threads: 1,
            batch_buf: Vec::new(),
            outbox: EpochOutbox::default(),
            gather_buf: GatherBuf::default(),
            feed_bufs: FeedBufs::default(),
            timing: EpochTiming::default(),
            collect_timing: false,
        }
    }

    /// Sets the spatial region edge (metres) of the world's neighbor
    /// index. Pure sharding knob — answers and digests are independent of
    /// it. Panics unless `edge` is finite and positive.
    pub fn set_region_edge(&mut self, edge: f64) {
        self.world.set_region_edge(edge);
    }

    /// Pre-allocates storage for `n` further nodes across the world's
    /// structure-of-arrays columns and the cluster's runtime table, so a
    /// crowd build does one big allocation per column instead of a
    /// doubling cascade.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.world.reserve_nodes(n);
        self.nodes.reserve(n);
        self.infos.reserve(n);
        self.actor_ids.reserve(n);
    }

    /// The radio environment this cluster runs in.
    pub fn env(&self) -> &RadioEnv {
        &self.env
    }

    /// Sets the worker count for the parallel epoch engine: `1` (the
    /// default) runs every epoch inline on one worker, `0` means "one
    /// worker per hardware thread", anything else is taken literally.
    ///
    /// The engine executes node-local timestamp batches concurrently —
    /// partitioned by home node, effects buffered per worker and committed
    /// in canonical batch order — so the trace digest is bit-identical for
    /// every worker count (see the engine comment below). `ph-harness`
    /// enforces this with digest-equality tests and `repro gate` checks it.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The configured epoch-engine worker count (see [`Cluster::set_threads`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Adds a device with a default [`DaemonConfig`] and the given
    /// application. When the cluster is already running, the device boots at
    /// the current virtual time (churn arrivals).
    pub fn add_node(&mut self, builder: NodeBuilder, app: A) -> NodeId {
        self.add_node_with(builder, |c| c, app)
    }

    /// Adds a device, letting `configure` adjust its daemon configuration.
    pub fn add_node_with(
        &mut self,
        builder: NodeBuilder,
        configure: impl FnOnce(DaemonConfig) -> DaemonConfig,
        app: A,
    ) -> NodeId {
        let id = self.world.add_node(builder);
        let name = self.world.shared_name(id);
        let info = DeviceInfo::new(
            DeviceId::new(id.index() as u64),
            Arc::clone(&name),
            self.world.technologies(id).iter().copied(),
        );
        let config = configure(DaemonConfig::new(info.clone()));
        let device = config.device.clone();
        let config = match self.shared_config.take() {
            Some(prev) if prev.eq_apart_from_device(&config) => prev,
            _ => Arc::new(config),
        };
        self.shared_config = Some(Arc::clone(&config));
        let actor_id = self.trace.intern_actor(name);
        let lane_seed = id.index() as u64;
        self.infos.push(info);
        self.actor_ids.push(actor_id);
        self.nodes.push(NodeRt {
            daemon: Daemon::with_shared_config(&device, config),
            app,
            lib: Library::new(),
            wakes: WakeSet::default(),
            rng: SimRng::lane(self.seed, lane_seed),
            fault: None,
        });
        if self.started {
            let now = self.queue.now();
            self.queue.schedule(now, Ev::Start(id));
        }
        id
    }

    /// Boots every device (schedules their start at the current time).
    /// Call once after adding the initial nodes.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let now = self.queue.now();
        for id in 0..self.nodes.len() {
            self.queue.schedule(now, Ev::Start(NodeId::from_index(id)));
        }
        for cw in self.env.faults().crashes() {
            let node = NodeId::from_index(cw.node as usize);
            let down = cw.down_from.max(now);
            let up = cw.up_at.max(down);
            self.queue.schedule(down, Ev::CrashStart(node));
            self.queue.schedule(up, Ev::CrashEnd(node));
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The world map (positions, mobility, range queries).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The device name of a node.
    pub fn name(&self, node: NodeId) -> &str {
        &self.infos[node.index()].name
    }

    /// The [`DeviceId`] of a node (stable mapping from the world index).
    pub fn device_id(&self, node: NodeId) -> DeviceId {
        DeviceId::new(node.index() as u64)
    }

    /// Read access to a node's application.
    pub fn app(&self, node: NodeId) -> &A {
        &self.nodes[node.index()].app
    }

    /// Read access to a node's daemon (neighbor table, registry — for tests
    /// and diagnostics).
    pub fn daemon(&self, node: NodeId) -> &Daemon {
        &self.nodes[node.index()].daemon
    }

    /// The message-sequence trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace, so harnesses can fold app-level
    /// counters (e.g. per-node gossip stats) into [`TraceStats`] before
    /// computing the run digest.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The always-on run counters (trace events, frames, inquiries,
    /// connects, handovers).
    pub fn stats(&self) -> &TraceStats {
        self.trace.stats()
    }

    /// Bounds the trace's event ring to `capacity` retained events; the
    /// [`TraceStats`] counters keep exact aggregate counts regardless.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// Clears the message-sequence trace (e.g. between measured operations),
    /// keeping the configured capacity bound. Counters reset too.
    pub fn clear_trace(&mut self) {
        let cap = self.trace.capacity();
        self.trace = if cap == usize::MAX {
            Trace::new()
        } else {
            Trace::with_capacity(cap)
        };
        // Re-interning in node order reassigns the same handles, but refresh
        // the stored ids anyway so they can never drift from the pool.
        for (info, slot) in self.infos.iter().zip(self.actor_ids.iter_mut()) {
            *slot = self.trace.intern_actor(Arc::clone(&info.name));
        }
    }

    /// The accumulated epoch phase breakdown (see [`EpochTiming`]).
    pub fn timing(&self) -> &EpochTiming {
        &self.timing
    }

    /// Enables (or disables) wall-clock sampling for [`EpochTiming`]. Off
    /// by default; the batch/event counters are maintained regardless.
    pub fn set_collect_timing(&mut self, on: bool) {
        self.collect_timing = on;
    }

    /// Processes events until `stop` returns `true` (checked after each
    /// event) or `deadline` passes. Returns the time at which `stop` first
    /// held, if it did.
    pub fn run_until_condition(
        &mut self,
        deadline: SimTime,
        mut stop: impl FnMut(&Self) -> bool,
    ) -> Option<SimTime> {
        if stop(self) {
            return Some(self.now());
        }
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            let (t, ev) = self.queue.pop().expect("peeked");
            self.serial_epoch(t, |w| w.run_ev(0, ev));
            if stop(self) {
                return Some(t);
            }
        }
        self.queue.advance_to(deadline);
        None
    }

    /// Runs `f` against a node's application at the current virtual time —
    /// the hook through which scenarios script "user" actions. Any PeerHood
    /// requests or timers the application issues are processed immediately.
    pub fn with_app<R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R) -> R {
        let now = self.queue.now();
        self.serial_epoch(now, |w| w.span(0, |w| w.app_callback(node, f)))
    }

    /// Runs `f` — the gather phase of one epoch — under the gather timer.
    fn timed_gather<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let tg = self.collect_timing.then(Instant::now);
        let r = f(self);
        if let Some(tg) = tg {
            self.timing.gather += tg.elapsed();
        }
        r
    }

    /// Runs `f` — the execute phase of one epoch — under the execute timer.
    fn timed_execute<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let te = self.collect_timing.then(Instant::now);
        let r = f(self);
        if let Some(te) = te {
            self.timing.execute += te.elapsed();
        }
        r
    }

    /// Runs `f` as an epoch of one worker at `t` and commits its outbox
    /// immediately. The worker covers every node and owns the real link
    /// table, so it can run any event; its buffers live on in the cluster
    /// between epochs.
    fn serial_epoch<R>(&mut self, t: SimTime, f: impl FnOnce(&mut EpochWorker<'_, A>) -> R) -> R {
        self.timed_gather(|c| c.world.prepare_epoch(t));
        let (mut out, r) = self.timed_execute(|c| {
            let mut w = EpochWorker {
                view: c.world.epoch_view(t),
                env: &c.env,
                infos: &c.infos,
                actor_ids: &c.actor_ids,
                trace: &c.trace,
                seed: c.seed,
                now: t,
                base: 0,
                nodes: &mut c.nodes,
                links: std::mem::take(&mut c.links),
                next_link: c.next_link,
                out: std::mem::take(&mut c.outbox),
                scratch: std::mem::take(&mut c.gather_buf),
                feed_bufs: std::mem::take(&mut c.feed_bufs),
            };
            let r = f(&mut w);
            let EpochWorker {
                links,
                next_link,
                out,
                scratch,
                feed_bufs,
                ..
            } = w;
            (c.links, c.next_link, c.gather_buf, c.feed_bufs) =
                (links, next_link, scratch, feed_bufs);
            (out, r)
        });
        self.commit(std::slice::from_mut(&mut out));
        self.outbox = out;
        r
    }

    /// Replays worker outboxes in canonical batch order — the one place an
    /// epoch's buffered effects reach the queue and the trace.
    ///
    /// Each box's spans carry ascending batch indices, so repeatedly taking
    /// the box whose next span comes first visits events in exactly the
    /// order a single-event loop would have run them. Replaying schedules
    /// reproduces the global sequence numbers; replaying records
    /// reproduces pool interning and ring eviction; the stat deltas are
    /// commutative sums. The boxes come back empty, capacity kept.
    fn commit(&mut self, boxes: &mut [EpochOutbox]) {
        let tc = self.collect_timing.then(Instant::now);
        for b in boxes.iter_mut() {
            b.schedules.reverse();
            b.records.reverse();
            b.spans.reverse();
        }
        while let Some(b) = boxes
            .iter_mut()
            .filter(|b| !b.spans.is_empty())
            .min_by_key(|b| b.spans.last().map(|s| s.0))
        {
            let (_, schedules, records) = b.spans.pop().expect("non-empty");
            for _ in 0..schedules {
                let (at, ev) = b.schedules.pop().expect("span bookkeeping");
                self.queue.schedule(at, ev);
            }
            for _ in 0..records {
                let record = b.records.pop().expect("span bookkeeping");
                record.replay(&mut self.trace);
            }
        }
        for b in boxes {
            self.trace.stats_mut().add(&std::mem::take(&mut b.stats));
        }
        if let Some(tc) = tc {
            self.timing.commit += tc.elapsed();
        }
    }
}

// ----------------------------------------------------------------------
// The epoch engine
// ----------------------------------------------------------------------
//
// Every event runs inside an *epoch*, through the one set of handlers on
// `EpochWorker`. One timestamp batch from `EventQueue::drain_batch` is one
// epoch: every event in it was already pending when the batch was drained,
// so nothing a handler does during the epoch can inject work into it (same-
// timestamp reschedules land in a *later* batch by sequence number — the
// queue's documented contract). Handlers read the world only through the
// frozen `EpochView`, mutate only their worker's own node range and link
// table, and buffer every externally-visible effect — event schedules, trace
// records, stat bumps — in the worker's outbox. `Cluster::commit` replays
// outboxes serially in canonical `(time, seq)` batch order, reproducing the
// exact global sequence numbers, pool intern order, ring eviction and
// counters of a one-event-at-a-time run.
//
// A batch whose every event is node-local under an empty link table
// (discovery, timers, service discovery) is partitioned by home node across
// scoped workers, each with a disjoint `&mut` node range, its events in
// batch order (so per-node RNG/daemon streams evolve exactly as serial) and
// a private, empty link table that the eligibility gate guarantees stays
// empty. Every other batch — connects completing, frames, teardowns, crash
// windows — is an epoch of one worker over all nodes that owns the real
// link table; so is each `run_until_condition` step and `with_app`
// callback. Crash state is a per-node flag read only for the node whose
// daemon is fed, so no shared state is ever mutable inside an epoch. The
// trace digest is therefore bit-identical for any worker count and fault
// plan; `repro gate` and the differential tests enforce that.

/// Buffered effects of one epoch worker, replayed serially at commit.
#[derive(Default)]
struct EpochOutbox {
    /// Events to schedule, in execution order.
    schedules: Vec<(SimTime, Ev)>,
    /// Trace records against the frozen pool, in execution order.
    records: Vec<PendingRecord>,
    /// One entry per executed event: `(batch_idx, schedules, records)` —
    /// how many of each that event buffered.
    spans: Vec<(u32, u32, u32)>,
    /// Commutative counter deltas. The record-owned counters
    /// (`events_recorded`/`events_dropped`/`messages`/`local_events`) stay
    /// zero here — the record replay accounts them.
    stats: TraceStats,
}

/// The event handlers — the simulated BT/WLAN/GPRS plugin layer — over one
/// worker's execution context: a disjoint `&mut` range of node runtimes, a
/// link table, shared frozen state, and the outbox collecting effects.
struct EpochWorker<'a, A> {
    view: EpochView<'a>,
    env: &'a RadioEnv,
    infos: &'a [DeviceInfo],
    actor_ids: &'a [ActorId],
    trace: &'a Trace,
    seed: u64,
    now: SimTime,
    /// First node index of this worker's chunk.
    base: usize,
    nodes: &'a mut [NodeRt<A>],
    /// The real link table for a one-worker epoch; a private empty one for
    /// each worker of a partitioned epoch.
    links: BTreeMap<LinkId, Link>,
    next_link: u64,
    out: EpochOutbox,
    /// Reused gather buffer for [`EpochView::neighbors`].
    scratch: GatherBuf,
    /// Reused work queue and output buffer of `feed_daemon`.
    feed_bufs: FeedBufs,
}

/// The daemon input queue and output buffer `feed_daemon` works through,
/// kept between calls so a quiescent run allocates neither per event.
#[derive(Default)]
struct FeedBufs {
    work: VecDeque<(NodeId, DaemonInput)>,
    outs: Vec<DaemonOutput>,
}

impl<A: Application> EpochWorker<'_, A> {
    fn rt(&mut self, node: NodeId) -> &mut NodeRt<A> {
        &mut self.nodes[node.index() - self.base]
    }

    /// Buffers an event schedule for the commit.
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.out.schedules.push((at, ev));
    }

    /// Runs `f` — one event, or one scripted app callback — and closes its
    /// effect span under `batch_idx`.
    fn span<R>(&mut self, batch_idx: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        let (schedules, records) = (self.out.schedules.len(), self.out.records.len());
        let r = f(self);
        self.out.spans.push((
            batch_idx,
            (self.out.schedules.len() - schedules) as u32,
            (self.out.records.len() - records) as u32,
        ));
        r
    }

    /// Executes one event and closes its effect span.
    fn run_ev(&mut self, batch_idx: u32, ev: Ev) {
        self.span(batch_idx, |w| w.handle(ev));
    }

    fn handle(&mut self, ev: Ev) {
        let now = self.now;
        match ev {
            Ev::Start(node) => {
                self.app_callback(node, |app, ctx| app.on_start(ctx));
                self.feed_daemon(node, DaemonInput::Tick);
            }
            Ev::DaemonWake(node) => {
                self.rt(node).wakes.remove(now);
                self.feed_daemon(node, DaemonInput::Tick);
            }
            Ev::AppTimer(node, token) => {
                self.app_callback(node, |app, ctx| app.on_timer(token, ctx));
            }
            Ev::InquiryFound {
                seeker,
                tech,
                found,
            } => {
                // The responder must still be in range when its answer lands.
                if self.view.reachable(seeker, found, tech) {
                    self.out.stats.inquiry_responses += 1;
                    let device = self.infos[found.index()].clone();
                    self.feed_daemon(
                        seeker,
                        DaemonInput::Plugin(PluginEvent::InquiryResponse {
                            technology: tech,
                            device,
                        }),
                    );
                }
            }
            Ev::InquiryDone { node, tech } => {
                self.feed_daemon(
                    node,
                    DaemonInput::Plugin(PluginEvent::InquiryComplete { technology: tech }),
                );
            }
            Ev::ServiceQueryArrive { to, from, tech } => {
                if self.frame_lost(to, tech) {
                    self.out.stats.frames_dropped += 1;
                } else {
                    let device = DeviceId::new(from.index() as u64);
                    self.feed_daemon(
                        to,
                        DaemonInput::Plugin(PluginEvent::ServiceQuery { device }),
                    );
                }
            }
            Ev::ServiceReplyArrive {
                to,
                from,
                services,
                tech,
            } => {
                if tech.is_some_and(|tech| self.frame_lost(to, tech)) {
                    self.out.stats.frames_dropped += 1;
                } else {
                    let device = DeviceId::new(from.index() as u64);
                    self.feed_daemon(
                        to,
                        DaemonInput::Plugin(PluginEvent::ServiceReply {
                            device,
                            services: services.map_or_else(Vec::new, |list| *list),
                        }),
                    );
                }
            }
            Ev::ConnectSetupDone(setup) => {
                let SetupDone {
                    initiator,
                    attempt,
                    target,
                    service,
                    tech,
                    resume,
                } = *setup;
                if !self.view.reachable(initiator, target, tech) {
                    // The peer moved away while setup was in flight: this is
                    // a failed connect like any other, plus its own counter
                    // so summaries can tell it apart from refusals.
                    let stats = &mut self.out.stats;
                    stats.connects_failed += 1;
                    stats.connects_lost_setup += 1;
                    self.feed_daemon(
                        initiator,
                        DaemonInput::Plugin(PluginEvent::ConnectResult {
                            attempt,
                            result: Err(format!("{tech} peer out of range during setup")),
                        }),
                    );
                    return;
                }
                if self.rt(target).down() {
                    // The target's daemon is inside a crash window: nobody
                    // is listening, so the transport reports a refusal.
                    self.out.stats.connects_failed += 1;
                    self.feed_daemon(
                        initiator,
                        DaemonInput::Plugin(PluginEvent::ConnectResult {
                            attempt,
                            result: Err(format!("{tech} peer daemon not responding")),
                        }),
                    );
                    return;
                }
                let link = LinkId::new(self.next_link);
                self.next_link += 1;
                self.links.insert(
                    link,
                    Link {
                        a: initiator,
                        b: target,
                        tech,
                        pending: Some((initiator, attempt)),
                        last_arrival_to_a: now,
                        last_arrival_to_b: now,
                        degraded_notified: false,
                    },
                );
                let device = self.infos[initiator.index()].clone();
                self.feed_daemon(
                    target,
                    DaemonInput::Plugin(PluginEvent::IncomingConnection {
                        link,
                        device,
                        service,
                        technology: tech,
                        resume,
                    }),
                );
            }
            Ev::ConnectResultArrive {
                to,
                attempt,
                result,
            } => {
                if result.is_ok() {
                    self.out.stats.connects_ok += 1;
                } else {
                    self.out.stats.connects_failed += 1;
                }
                self.feed_daemon(
                    to,
                    DaemonInput::Plugin(PluginEvent::ConnectResult {
                        attempt,
                        result: *result,
                    }),
                );
            }
            Ev::FrameArrive { to, link, payload } => {
                let Some(&Link { a, b, tech, .. }) = self.links.get(&link) else {
                    // Link torn down while the frame was in flight.
                    self.out.stats.frames_dropped += 1;
                    return;
                };
                if self.rt(to).down() || self.frame_lost(to, tech) {
                    // Frames toward a crashed daemon fall on the floor.
                    self.out.stats.frames_dropped += 1;
                } else if self.link_killed(to, tech) || !self.view.reachable(a, b, tech) {
                    self.out.stats.frames_dropped += 1;
                    self.tear_down_link(link);
                } else {
                    let stats = &mut self.out.stats;
                    stats.frames_delivered += 1;
                    stats.bytes_delivered += payload.len() as u64;
                    self.feed_daemon(
                        to,
                        DaemonInput::Plugin(PluginEvent::Frame {
                            link,
                            payload: *payload,
                        }),
                    );
                }
            }
            Ev::PeerClosedArrive { to, link } => {
                self.feed_daemon(to, DaemonInput::Plugin(PluginEvent::PeerClosed { link }));
            }
            Ev::LinkDownArrive { to, link } => {
                self.feed_daemon(to, DaemonInput::Plugin(PluginEvent::LinkDown { link }));
            }
            Ev::CrashStart(node) => {
                let seed = self.seed;
                match self.nodes.get_mut(node.index() - self.base) {
                    Some(rt) if !rt.down() => rt.fault(seed, node).down = true,
                    _ => return,
                }
                // Every radio link with an endpoint on the node dies; peers
                // notice after the usual transport detection delay.
                let dead: Vec<LinkId> = self
                    .links
                    .iter()
                    .filter(|(_, l)| l.a == node || l.b == node)
                    .map(|(id, _)| *id)
                    .collect();
                for link in dead {
                    self.tear_down_link(link);
                }
                // The daemon process restarts from empty soft state; the
                // local application sees its connections close. Any requests
                // it issues in response are lost — the daemon is down.
                let mut outs = Vec::new();
                self.rt(node).daemon.crash_restart(now, &mut outs);
                let mut discarded = VecDeque::new();
                for out in outs {
                    if let DaemonOutput::App(ev) = out {
                        self.deliver_app_event(node, ev, &mut discarded);
                    }
                }
            }
            Ev::CrashEnd(node) => {
                let restarted = self
                    .nodes
                    .get_mut(node.index() - self.base)
                    .and_then(|rt| rt.fault.as_mut())
                    .is_some_and(|f| std::mem::replace(&mut f.down, false));
                if restarted {
                    self.feed_daemon(node, DaemonInput::Tick);
                }
            }
        }
    }

    /// Runs an application callback with a buffered trace sink and
    /// schedules the timers it set.
    fn call_app<R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R) -> R {
        let mut timers = Vec::new();
        let r = {
            let rt = &mut self.nodes[node.index() - self.base];
            let mut ctx = AppCtx::with_sink(
                self.now,
                &self.infos[node.index()].name,
                &mut rt.lib,
                &mut timers,
                TraceSink::Buffer {
                    trace: self.trace,
                    actor_id: self.actor_ids[node.index()],
                    out: &mut self.out.records,
                },
            );
            f(&mut rt.app, &mut ctx)
        };
        for (at, token) in timers {
            self.schedule(at, Ev::AppTimer(node, token));
        }
        r
    }

    /// Runs a top-level application callback (boot, timer, scripted user
    /// action), then feeds the requests it queued into the daemon.
    fn app_callback<R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R) -> R {
        let r = self.call_app(node, f);
        self.after_app_callback(node);
        r
    }

    /// Routes an app callback's queued PeerHood requests into the daemon.
    fn after_app_callback(&mut self, node: NodeId) {
        let requests = self.rt(node).lib.drain();
        for req in requests {
            self.feed_daemon(node, DaemonInput::App(req));
        }
    }

    /// Runs the daemon input loop: daemon outputs may produce app events,
    /// whose handlers may queue further daemon requests, and so on until
    /// quiescent.
    fn feed_daemon(&mut self, node: NodeId, input: DaemonInput) {
        // Taken, not borrowed: handlers may re-enter `feed_daemon`, and a
        // nested call simply starts from fresh buffers.
        let FeedBufs { mut work, mut outs } = std::mem::take(&mut self.feed_bufs);
        work.push_back((node, input));
        while let Some((n, input)) = work.pop_front() {
            let now = self.now;
            let rt = self.rt(n);
            if rt.down() {
                // Crashed daemons consume nothing until their restart.
                continue;
            }
            let before = *rt.daemon.recovery_stats();
            rt.daemon.handle(now, input, &mut outs);
            let after = *rt.daemon.recovery_stats();
            if after != before {
                let stats = &mut self.out.stats;
                stats.retries += after.retries - before.retries;
                stats.timeouts += after.timeouts - before.timeouts;
                stats.gave_up += after.gave_up - before.gave_up;
                stats.resumed += after.resumed - before.resumed;
            }
            for out in outs.drain(..) {
                match out {
                    DaemonOutput::Plugin(cmd) => self.exec_command(n, cmd),
                    DaemonOutput::App(ev) => self.deliver_app_event(n, ev, &mut work),
                    DaemonOutput::WakeAt(t) => self.schedule_wake(n, t),
                }
            }
        }
        self.feed_bufs = FeedBufs { work, outs };
    }

    fn deliver_app_event(
        &mut self,
        node: NodeId,
        event: AppEvent,
        work: &mut VecDeque<(NodeId, DaemonInput)>,
    ) {
        if matches!(event, AppEvent::Handover { .. }) {
            self.out.stats.handovers += 1;
        }
        self.call_app(node, |app, ctx| app.on_event(event, ctx));
        for req in self.rt(node).lib.drain() {
            work.push_back((node, DaemonInput::App(req)));
        }
    }

    fn schedule_wake(&mut self, node: NodeId, at: SimTime) {
        let at = at.max(self.now);
        if self.rt(node).wakes.insert(at) {
            self.schedule(at, Ev::DaemonWake(node));
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------
    // Fault decisions draw from the charged node's fault lane only, in the
    // node's own event order. `SimRng::chance` consumes nothing for zero
    // probabilities, so with an inert plan these calls are pure no-ops and
    // the run digest matches a fault-free run bit-for-bit. Attribution:
    // frame loss and link kills charge the *receiver*, connection refusals
    // charge the *initiator*.

    /// Advances the receiving node's per-technology Gilbert channel and
    /// samples one frame. An inert profile draws nothing, so it also skips
    /// materializing the node's lazy fault state.
    fn frame_lost(&mut self, to: NodeId, tech: Technology) -> bool {
        let profile = *self.env.faults().profile(tech);
        if profile.is_inert() {
            return false;
        }
        let seed = self.seed;
        let f = self.rt(to).fault(seed, to);
        profile.frame_lost(&mut f.burst[tech_slot(tech)], &mut f.rng)
    }

    /// Samples whether the whole link dies under this frame (charged to the
    /// receiver's fault lane).
    fn link_killed(&mut self, to: NodeId, tech: Technology) -> bool {
        let p = self.env.faults().profile(tech).link_kill;
        let seed = self.seed;
        // `chance(0)` draws nothing — don't materialize fault state for it.
        p > 0.0 && self.rt(to).fault(seed, to).rng.chance(p)
    }

    /// Samples whether a connection attempt is refused outright (charged to
    /// the initiator's fault lane).
    fn connect_refused(&mut self, initiator: NodeId, tech: Technology) -> bool {
        let p = self.env.faults().profile(tech).connect_refuse;
        let seed = self.seed;
        p > 0.0 && self.rt(initiator).fault(seed, initiator).rng.chance(p)
    }

    // ------------------------------------------------------------------
    // Plugin command execution (the simulated BT/WLAN/GPRS plugins)
    // ------------------------------------------------------------------

    /// Executes one plugin command. In a partitioned epoch the link table
    /// is empty, so the link arms (`Accept`/`Reject`/`SendFrame`/
    /// `CloseLink`) find no link and do nothing — exactly what they do for
    /// any unknown link.
    fn exec_command(&mut self, node: NodeId, cmd: PluginCommand) {
        let now = self.now;
        match cmd {
            PluginCommand::StartInquiry { technology } => {
                self.out.stats.inquiries += 1;
                // One batched snapshot from the spatial index; every
                // responder is then scheduled off this single range query,
                // with every draw from the seeker's own lane.
                let neighbors = self.view.neighbors(node, technology, &mut self.scratch);
                let profile = self.env.profile(technology);
                for nb in neighbors {
                    let rng = &mut self.rt(node).rng;
                    if profile.discovery_misses(rng) {
                        continue;
                    }
                    let offset = profile.response_offset(rng);
                    self.schedule(
                        now + offset,
                        Ev::InquiryFound {
                            seeker: node,
                            tech: technology,
                            found: nb,
                        },
                    );
                }
                self.schedule(
                    now + profile.inquiry_duration,
                    Ev::InquiryDone {
                        node,
                        tech: technology,
                    },
                );
            }
            PluginCommand::QueryServices { device, technology } => {
                self.out.stats.service_queries += 1;
                let target = NodeId::from_index(device.raw() as usize);
                if self.view.reachable(node, target, technology) {
                    let delay = self
                        .env
                        .profile(technology)
                        .transfer_time(SDP_QUERY_BYTES, &mut self.rt(node).rng);
                    self.schedule(
                        now + delay,
                        Ev::ServiceQueryArrive {
                            to: target,
                            from: node,
                            tech: technology,
                        },
                    );
                } else {
                    // Unanswerable: deliver an empty reply after a timeout so
                    // pending application requests resolve.
                    self.schedule(
                        now + SDP_TIMEOUT,
                        Ev::ServiceReplyArrive {
                            to: node,
                            from: target,
                            services: None,
                            tech: None,
                        },
                    );
                }
            }
            PluginCommand::ServiceQueryReply { device, services } => {
                let target = NodeId::from_index(device.raw() as usize);
                // Route the reply back over the cheapest shared technology.
                let tech = Technology::ALL
                    .into_iter()
                    .find(|&t| self.view.reachable(node, target, t));
                if let Some(tech) = tech {
                    let bytes = SDP_QUERY_BYTES + SDP_RECORD_BYTES * services.len();
                    let delay = self
                        .env
                        .profile(tech)
                        .transfer_time(bytes, &mut self.rt(node).rng);
                    self.schedule(
                        now + delay,
                        Ev::ServiceReplyArrive {
                            to: target,
                            from: node,
                            services: (!services.is_empty()).then(|| Box::new(services)),
                            tech: Some(tech),
                        },
                    );
                }
            }
            PluginCommand::OpenConnection {
                attempt,
                device,
                service,
                technology,
                resume,
            } => {
                self.out.stats.connects_attempted += 1;
                let target = NodeId::from_index(device.raw() as usize);
                // The setup delay is drawn from the main stream *before* the
                // refusal decision, so an inert fault plan leaves the main
                // stream untouched.
                let delay = self
                    .env
                    .profile(technology)
                    .connect_time(&mut self.rt(node).rng);
                let ev = if self.connect_refused(node, technology) {
                    Ev::ConnectResultArrive {
                        to: node,
                        attempt,
                        result: Box::new(Err(format!("{technology} connection refused"))),
                    }
                } else if self.view.reachable(node, target, technology) {
                    Ev::ConnectSetupDone(Box::new(SetupDone {
                        initiator: node,
                        attempt,
                        target,
                        service,
                        tech: technology,
                        resume,
                    }))
                } else {
                    // A failed paging attempt costs about the setup time.
                    Ev::ConnectResultArrive {
                        to: node,
                        attempt,
                        result: Box::new(Err(format!("{technology} peer out of range"))),
                    }
                };
                self.schedule(now + delay, ev);
            }
            PluginCommand::AcceptConnection { link } => {
                let Some(l) = self.links.get_mut(&link) else {
                    return;
                };
                if let Some((initiator, attempt)) = l.pending.take() {
                    let tech = l.tech;
                    let delay = self
                        .env
                        .profile(tech)
                        .transfer_time(CTRL_BYTES, &mut self.rt(node).rng);
                    self.schedule(
                        now + delay,
                        Ev::ConnectResultArrive {
                            to: initiator,
                            attempt,
                            result: Box::new(Ok(link)),
                        },
                    );
                }
            }
            PluginCommand::RejectConnection { link, reason } => {
                let Some(Link {
                    tech,
                    pending: Some((initiator, attempt)),
                    ..
                }) = self.links.remove(&link)
                else {
                    return;
                };
                let delay = self
                    .env
                    .profile(tech)
                    .transfer_time(CTRL_BYTES, &mut self.rt(node).rng);
                self.schedule(
                    now + delay,
                    Ev::ConnectResultArrive {
                        to: initiator,
                        attempt,
                        result: Box::new(Err(reason)),
                    },
                );
            }
            PluginCommand::SendFrame { link, payload } => {
                let Some(l) = self.links.get_mut(&link) else {
                    return;
                };
                let (a, b, tech) = (l.a, l.b, l.tech);
                let peer = l.other(node);
                let delay = self
                    .env
                    .profile(tech)
                    .transfer_time(payload.len(), &mut self.nodes[node.index() - self.base].rng);
                let at = l.fifo_arrival(peer, now + delay);
                let stats = &mut self.out.stats;
                stats.frames_sent += 1;
                stats.bytes_sent += payload.len() as u64;
                if !self.view.reachable(a, b, tech) {
                    self.out.stats.frames_dropped += 1;
                    self.tear_down_link(link);
                    return;
                }
                // Edge-of-range warning: past 90 % of the radio range the
                // plugin reports a weakening link (once), letting the
                // daemon hand over make-before-break.
                let range = self.env.profile(tech).range_m;
                let mut degraded = false;
                if range.is_finite() {
                    let distance = self.view.position(a).distance(self.view.position(b));
                    degraded = distance > 0.9 * range && !l.degraded_notified;
                    l.degraded_notified = distance > 0.9 * range;
                }
                self.schedule(
                    at,
                    Ev::FrameArrive {
                        to: peer,
                        link,
                        payload: Box::new(payload),
                    },
                );
                if degraded {
                    self.feed_daemon(
                        node,
                        DaemonInput::Plugin(PluginEvent::LinkDegraded { link }),
                    );
                }
            }
            PluginCommand::CloseLink { link } => {
                if let Some(mut l) = self.links.remove(&link) {
                    let peer = l.other(node);
                    let delay = self
                        .env
                        .profile(l.tech)
                        .transfer_time(CTRL_BYTES, &mut self.rt(node).rng);
                    // The orderly close must not overtake in-flight frames.
                    let at = l.fifo_arrival(peer, now + delay);
                    self.schedule(at, Ev::PeerClosedArrive { to: peer, link });
                }
            }
        }
    }

    /// Reports a lost radio link to both endpoints after the transport's
    /// detection delay and forgets it.
    fn tear_down_link(&mut self, link: LinkId) {
        if let Some(l) = self.links.remove(&link) {
            let at = self.now + LINK_DOWN_DETECT;
            self.schedule(at, Ev::LinkDownArrive { to: l.a, link });
            self.schedule(at, Ev::LinkDownArrive { to: l.b, link });
        }
    }
}

impl<A: Application + Send> Cluster<A> {
    /// Processes events until the queue is exhausted or the next event is
    /// after `deadline`; the clock then stands at `deadline`.
    ///
    /// Events are drained one timestamp batch at a time, and each batch is
    /// one epoch (see the engine comment above): batches whose events are
    /// all node-local are partitioned across the configured workers, every
    /// other batch runs on one worker. Both produce bit-identical traces,
    /// so the digest is independent of [`Cluster::set_threads`].
    pub fn run_until(&mut self, deadline: SimTime) {
        let mut batch = std::mem::take(&mut self.batch_buf);
        loop {
            let t0 = self.collect_timing.then(Instant::now);
            let drained = self.queue.drain_batch(deadline, &mut batch);
            if let Some(t0) = t0 {
                self.timing.drain += t0.elapsed();
            }
            let Some(t) = drained else {
                break;
            };
            if batch.len() >= 2 && self.batch_eligible(&batch) {
                self.run_epoch(t, &mut batch);
            } else {
                self.timing.serial_batches += 1;
                self.timing.serial_events += batch.len() as u64;
                self.serial_epoch(t, |w| {
                    for (i, ev) in batch.drain(..).enumerate() {
                        w.run_ev(i as u32, ev);
                    }
                });
            }
        }
        self.batch_buf = batch;
        self.queue.advance_to(deadline);
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Whether every event in the batch is node-local under an empty link
    /// table — the precondition for partitioning it across workers.
    fn batch_eligible(&self, batch: &[Ev]) -> bool {
        self.links.is_empty()
            && batch.iter().all(|ev| {
                matches!(
                    ev,
                    Ev::Start(_)
                        | Ev::DaemonWake(_)
                        | Ev::AppTimer(..)
                        | Ev::InquiryFound { .. }
                        | Ev::InquiryDone { .. }
                        | Ev::ServiceQueryArrive { .. }
                        | Ev::ServiceReplyArrive { .. }
                )
            })
    }

    /// Executes one eligible timestamp batch as a partitioned epoch:
    /// partition by home node → concurrent node-local execution → serial
    /// outbox commit in canonical batch order.
    fn run_epoch(&mut self, t: SimTime, batch: &mut Vec<Ev>) {
        self.timing.par_batches += 1;
        self.timing.par_events += batch.len() as u64;

        // ---- gather: partition the batch by home node ----
        let (bounds, parts) = self.timed_gather(|c| {
            c.world.prepare_epoch(t);
            // Tag each event with (home node, batch position); sorting by that
            // key groups events per node while preserving per-node batch order,
            // which is what keeps each node's RNG/daemon stream serial-exact.
            let mut tagged: Vec<(u32, u32, Ev)> = batch
                .drain(..)
                .enumerate()
                .map(|(i, ev)| (ev_target(&ev).index() as u32, i as u32, ev))
                .collect();
            tagged.sort_unstable_by_key(|e| (e.0, e.1));
            let threads = netsim::par::effective_threads(c.threads);
            let workers = threads
                .min(tagged.len().div_ceil(EPOCH_MIN_EVENTS_PER_WORKER))
                .max(1);
            // Node-aligned cuts balancing the event count per worker. `bounds`
            // partitions the node table, `ev_cuts` the tagged event list.
            let mut bounds: Vec<usize> = vec![0];
            let mut ev_cuts: Vec<usize> = vec![0];
            let per = tagged.len().div_ceil(workers);
            let mut next_cut = per;
            for j in 1..tagged.len() {
                if j >= next_cut && tagged[j].0 != tagged[j - 1].0 && bounds.len() < workers {
                    bounds.push(tagged[j].0 as usize);
                    ev_cuts.push(j);
                    next_cut = j + per;
                }
            }
            bounds.push(c.nodes.len());
            ev_cuts.push(tagged.len());
            // Split the tagged events into per-worker owned parts (the events
            // must move — their payloads are consumed by the handlers).
            let mut parts: Vec<Vec<(u32, u32, Ev)>> = Vec::with_capacity(bounds.len() - 1);
            for w in (1..ev_cuts.len() - 1).rev() {
                parts.push(tagged.split_off(ev_cuts[w]));
            }
            parts.push(tagged);
            parts.reverse();
            (bounds, parts)
        });

        // ---- execute: one scoped worker per node range ----
        let mut boxes = self.timed_execute(|c| {
            let view = c.world.epoch_view(t);
            let (env, infos, actor_ids, trace) = (&c.env, &c.infos, &c.actor_ids, &c.trace);
            let (seed, next_link) = (c.seed, c.next_link);
            netsim::par::map_chunks_mut_with(
                &mut c.nodes,
                &bounds,
                parts,
                |_ci, base, chunk, mut part| {
                    // Execute in original batch order, not the node-grouped
                    // order the partitioning sort left behind: batch indices
                    // are unique and per-node ascending, so this preserves
                    // every node's serial-exact stream while making the
                    // worker's outbox spans ascend in batch index — the
                    // invariant the commit merge relies on.
                    part.sort_unstable_by_key(|e| e.1);
                    let mut w = EpochWorker {
                        view,
                        env,
                        infos,
                        actor_ids,
                        trace,
                        seed,
                        now: t,
                        base,
                        nodes: chunk,
                        links: BTreeMap::new(),
                        next_link,
                        out: EpochOutbox::default(),
                        scratch: GatherBuf::default(),
                        feed_bufs: FeedBufs::default(),
                    };
                    for (_, batch_idx, ev) in part {
                        w.run_ev(batch_idx, ev);
                    }
                    // The eligibility gate admits no event that creates a
                    // link, so the private table must still be empty.
                    debug_assert!(w.links.is_empty(), "partitioned epoch created a link");
                    w.out
                },
            )
        });

        // ---- commit: replay outboxes in canonical batch order ----
        self.commit(&mut boxes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geometry::Point2;
    use netsim::mobility::ScriptedPath;

    /// Records everything that happens to it; scripts nothing.
    #[derive(Default)]
    struct Recorder {
        appeared: Vec<String>,
        disappeared: Vec<String>,
        service_lists: Vec<(DeviceId, Vec<String>)>,
        connected: Vec<crate::types::ConnId>,
        incoming: Vec<crate::types::ConnId>,
        data: Vec<Bytes>,
        closed: Vec<crate::types::CloseReason>,
        handover: Vec<(Technology, Technology)>,
        register_community: bool,
    }

    impl Application for Recorder {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            if self.register_community {
                ctx.peerhood()
                    .register_service(ServiceInfo::new("PeerHoodCommunity"));
            }
        }

        fn on_event(&mut self, event: AppEvent, _ctx: &mut AppCtx<'_>) {
            match event {
                AppEvent::DeviceAppeared(i) => self.appeared.push(i.name.to_string()),
                AppEvent::DeviceDisappeared(i) => self.disappeared.push(i.name.to_string()),
                AppEvent::ServiceList {
                    device, services, ..
                } => self.service_lists.push((
                    device,
                    services.iter().map(|s| s.name().to_owned()).collect(),
                )),
                AppEvent::Connected { conn, .. } => self.connected.push(conn),
                AppEvent::Incoming { conn, .. } => self.incoming.push(conn),
                AppEvent::Data { payload, .. } => self.data.push(payload),
                AppEvent::Closed { reason, .. } => self.closed.push(reason),
                AppEvent::Handover { from, to, .. } => self.handover.push((from, to)),
                _ => {}
            }
        }
    }

    fn recorder(register: bool) -> Recorder {
        Recorder {
            register_community: register,
            ..Recorder::default()
        }
    }

    /// Logs `(token, virtual time)` for every timer that fires.
    #[derive(Default)]
    struct TimerLog(Vec<(u64, SimTime)>);

    impl Application for TimerLog {
        fn on_event(&mut self, _: AppEvent, _: &mut AppCtx<'_>) {}

        fn on_timer(&mut self, token: u64, ctx: &mut AppCtx<'_>) {
            self.0.push((token, ctx.now()));
        }
    }

    /// Work scheduled between `run_until` calls, earlier than an event
    /// already pending past the last deadline, runs before that event, and
    /// no callback ever sees the clock run backwards.
    #[test]
    fn work_scheduled_between_runs_precedes_a_later_pending_event() {
        let mut c = Cluster::new(1);
        // No radios: the two app timers are the only events after boot.
        let n = c.add_node(
            NodeBuilder::new("solo").with_technologies([]),
            TimerLog::default(),
        );
        c.start();
        c.with_app(n, |_, ctx| ctx.set_timer(Duration::from_secs(10), 2));
        c.run_until(SimTime::from_secs(5));
        c.with_app(n, |_, ctx| ctx.set_timer(Duration::from_secs(2), 1));
        c.run_until(SimTime::from_secs(20));
        let log = &c.app(n).0;
        assert!(
            log.windows(2).all(|w| w[0].1 <= w[1].1),
            "clock ran backwards: {log:?}"
        );
        let (t1, t2) = (SimTime::from_secs(7), SimTime::from_secs(10));
        assert_eq!(log[..], [(1, t1), (2, t2)]);
        assert_eq!(c.now(), SimTime::from_secs(20));
    }

    #[test]
    fn discovery_within_one_bluetooth_inquiry() {
        let mut c = Cluster::new(1);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(12));
        assert!(c.app(a).appeared.contains(&"bob".to_owned()));
        assert!(c.app(b).appeared.contains(&"alice".to_owned()));
        assert!(c.daemon(a).neighbors().contains(c.device_id(b)));
    }

    #[test]
    fn out_of_range_devices_are_not_discovered_over_bluetooth() {
        let mut c = Cluster::new(1);
        let a = c.add_node(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            recorder(false),
        );
        let _b = c.add_node(
            NodeBuilder::new("bob")
                .at(Point2::new(500.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(60));
        assert!(c.app(a).appeared.is_empty());
    }

    #[test]
    fn auto_service_discovery_populates_cache() {
        let mut c = Cluster::new(2);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let entry = c
            .daemon(a)
            .neighbors()
            .get(c.device_id(b))
            .expect("bob known");
        let (_, services) = entry.services.as_deref().expect("services cached");
        assert_eq!(services[0].name(), "PeerHoodCommunity");
    }

    #[test]
    fn connect_send_receive_close_round_trip() {
        let mut c = Cluster::new(3);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));

        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(20));
        assert_eq!(c.app(a).connected.len(), 1, "connect should succeed");
        assert_eq!(c.app(b).incoming.len(), 1);

        let conn = c.app(a).connected[0];
        c.with_app(a, |_, ctx| {
            ctx.peerhood().send(conn, Bytes::from_static(b"ping"))
        });
        c.run_until(SimTime::from_secs(21));
        assert_eq!(c.app(b).data, vec![Bytes::from_static(b"ping")]);

        c.with_app(a, |_, ctx| ctx.peerhood().close(conn));
        c.run_until(SimTime::from_secs(22));
        assert!(c
            .app(b)
            .closed
            .contains(&crate::types::CloseReason::PeerClose));
    }

    #[test]
    fn connect_to_unregistered_service_fails() {
        let mut c = Cluster::new(4);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "Nothing"));
        c.run_until(SimTime::from_secs(25));
        assert!(c.app(a).connected.is_empty());
    }

    #[test]
    fn departure_is_noticed_after_ttl() {
        let mut c = Cluster::new(5);
        let ttl = Duration::from_secs(30);
        let a = c.add_node_with(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            |cfg| cfg.with_neighbor_ttl(ttl),
            recorder(false),
        );
        // Bob walks away after 40 s (Bluetooth-only so he truly vanishes).
        let _b = c.add_node(
            NodeBuilder::new("bob")
                .moving(ScriptedPath::new(vec![
                    (SimTime::from_secs(0), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(40), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(60), Point2::new(800.0, 0.0)),
                ]))
                .with_technologies([Technology::Bluetooth]),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(40));
        assert!(c.app(a).appeared.contains(&"bob".to_owned()));
        c.run_until(SimTime::from_secs(120));
        assert!(
            c.app(a).disappeared.contains(&"bob".to_owned()),
            "disappearance must be reported after TTL"
        );
    }

    #[test]
    fn seamless_handover_from_bluetooth_to_wlan() {
        let mut c = Cluster::new(6);
        let a = c.add_node(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth, Technology::Wlan]),
            recorder(false),
        );
        // Bob starts 4 m away (BT range) and at t=30 s walks to 40 m
        // (outside BT, inside WLAN).
        let b = c.add_node(
            NodeBuilder::new("bob")
                .moving(ScriptedPath::new(vec![
                    (SimTime::from_secs(0), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(30), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(45), Point2::new(40.0, 0.0)),
                ]))
                .with_technologies([Technology::Bluetooth, Technology::Wlan]),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(20));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(25));
        assert_eq!(c.app(a).connected.len(), 1, "initial BT connect");
        let conn = c.app(a).connected[0];

        // Keep the connection chatty so the link loss is noticed: send a
        // frame every 2 s from t=26 on.
        for t in (26..70).step_by(2) {
            c.run_until(SimTime::from_secs(t));
            c.with_app(a, |_, ctx| {
                ctx.peerhood().send(conn, Bytes::from_static(b"chunk"))
            });
        }
        c.run_until(SimTime::from_secs(80));
        assert!(
            c.app(a)
                .handover
                .contains(&(Technology::Bluetooth, Technology::Wlan)),
            "initiator should hand over: {:?}",
            c.app(a).handover
        );
        assert!(
            c.app(b)
                .handover
                .contains(&(Technology::Bluetooth, Technology::Wlan)),
            "responder should rebind: {:?}",
            c.app(b).handover
        );
        assert!(c.app(a).closed.is_empty(), "connection must survive");
        // Frames kept flowing after the handover.
        assert!(c.app(b).data.len() >= 20, "got {}", c.app(b).data.len());
    }

    #[test]
    fn proactive_handover_fires_before_the_link_breaks() {
        // Bob walks slowly from 4 m to 14 m: the link degrades past 9 m
        // (90 % of Bluetooth range) well before it breaks at 10 m, so the
        // connection migrates to WLAN with zero frame loss and no
        // LinkDown-induced closure.
        let mut c = Cluster::new(33);
        let a = c.add_node(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth, Technology::Wlan]),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob")
                .moving(ScriptedPath::new(vec![
                    (SimTime::from_secs(0), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(30), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(130), Point2::new(14.0, 0.0)),
                ]))
                .with_technologies([Technology::Bluetooth, Technology::Wlan]),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(20));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(25));
        assert_eq!(c.app(a).connected.len(), 1);
        let conn = c.app(a).connected[0];

        const CHUNKS: usize = 50;
        for i in 0..CHUNKS {
            c.run_until(SimTime::from_secs(26 + 2 * i as u64));
            c.with_app(a, |_, ctx| {
                ctx.peerhood().send(conn, Bytes::from_static(b"chunk"))
            });
        }
        c.run_until(SimTime::from_secs(140));
        assert!(
            c.app(a)
                .handover
                .contains(&(Technology::Bluetooth, Technology::Wlan)),
            "handover should have happened: {:?}",
            c.app(a).handover
        );
        assert!(c.app(a).closed.is_empty(), "connection never closed");
        assert_eq!(
            c.app(b).data.len(),
            CHUNKS,
            "make-before-break loses no frames"
        );
    }

    #[test]
    fn connections_prefer_bluetooth_over_wlan_over_gprs() {
        // Both peers carry all three radios and sit 3 m apart: the daemon
        // must pick Bluetooth (the cheapest) for the connection.
        let mut c = Cluster::new(21);
        let a = c.add_node(
            NodeBuilder::new("a").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("b").at(Point2::new(3.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(20));
        assert_eq!(c.app(a).connected.len(), 1);
        // The neighbor entry confirms Bluetooth visibility was preferred.
        let entry = c.daemon(a).neighbors().get(bob).expect("known");
        assert_eq!(entry.preferred_technology(), Some(Technology::Bluetooth));
    }

    #[test]
    fn distant_peers_connect_over_gprs_only() {
        // 5 km apart: Bluetooth and WLAN are out; GPRS still carries the
        // connection through the operator proxy.
        let mut c = Cluster::new(22);
        let a = c.add_node(
            NodeBuilder::new("a").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("b").at(Point2::new(5_000.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(40));
        let bob = c.device_id(b);
        let entry = c.daemon(a).neighbors().get(bob).expect("GPRS-visible");
        assert_eq!(entry.visible_technologies(), vec![Technology::Gprs]);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(50));
        assert_eq!(c.app(a).connected.len(), 1, "GPRS connection established");
    }

    #[test]
    fn runs_are_deterministic() {
        fn run() -> (Vec<String>, usize) {
            let mut c = Cluster::new(77);
            let a = c.add_node(
                NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
                recorder(false),
            );
            let _b = c.add_node(
                NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
                recorder(true),
            );
            let _d = c.add_node(
                NodeBuilder::new("carol").at(Point2::new(0.0, 5.0)),
                recorder(true),
            );
            c.start();
            c.run_until(SimTime::from_secs(30));
            (c.app(a).appeared.clone(), c.trace().len())
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn late_node_boots_when_added_after_start() {
        let mut c = Cluster::new(8);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(30));
        assert!(c.app(a).appeared.is_empty());
        let _late = c.add_node(
            NodeBuilder::new("late").at(Point2::new(3.0, 0.0)),
            recorder(false),
        );
        c.run_until(SimTime::from_secs(60));
        assert!(c.app(a).appeared.contains(&"late".to_owned()));
    }

    #[test]
    fn stats_count_discovery_connects_and_frames() {
        let mut c = Cluster::new(3);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(20));
        let conn = c.app(a).connected[0];
        c.with_app(a, |_, ctx| {
            ctx.peerhood().send(conn, Bytes::from_static(b"ping"))
        });
        c.run_until(SimTime::from_secs(21));
        let stats = c.stats();
        assert!(stats.inquiries >= 2, "both nodes inquire: {stats}");
        assert!(stats.inquiry_responses >= 2, "{stats}");
        assert!(stats.connects_attempted >= 1, "{stats}");
        assert!(stats.connects_ok >= 1, "{stats}");
        assert!(stats.frames_sent >= 1, "{stats}");
        assert_eq!(stats.frames_dropped, 0, "{stats}");
        assert!(stats.bytes_delivered >= 4, "{stats}");
    }

    #[test]
    fn bounded_trace_keeps_counters_exact() {
        let mut c = Cluster::new(3);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        c.set_trace_capacity(1);
        c.with_app(a, |_, ctx| {
            ctx.trace_local("ONE");
            ctx.trace_local("TWO");
            ctx.trace_local("THREE");
        });
        assert_eq!(c.trace().len(), 1);
        assert_eq!(c.trace().labels(), vec!["THREE"]);
        assert_eq!(c.stats().events_recorded, 3);
        assert_eq!(c.stats().events_dropped, 2);
        // clear_trace keeps the bound but resets contents.
        c.clear_trace();
        assert!(c.trace().is_empty());
        assert_eq!(c.trace().capacity(), 1);
    }

    #[test]
    fn run_until_condition_reports_first_hit() {
        let mut c = Cluster::new(9);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let _b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(false),
        );
        c.start();
        let hit = c.run_until_condition(SimTime::from_secs(60), |c| !c.app(a).appeared.is_empty());
        let t = hit.expect("bob should appear within a minute");
        assert!(t <= SimTime::from_millis(10_240 + 500), "found at {t}");
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery
    // ------------------------------------------------------------------

    use crate::config::RecoveryPolicy;
    use netsim::{FaultPlan, FaultProfile};

    #[test]
    fn inert_fault_plan_reproduces_fault_free_digest() {
        fn run(env: Option<RadioEnv>) -> (u64, u64) {
            let mut c = match env {
                Some(env) => Cluster::with_env(77, env),
                None => Cluster::new(77),
            };
            for i in 0..6u32 {
                c.add_node(
                    NodeBuilder::new(format!("n{i}")).at(Point2::new(4.0 * f64::from(i), 0.0)),
                    recorder(i % 2 == 0),
                );
            }
            c.start();
            c.run_until(SimTime::from_secs(60));
            (c.trace().digest(), c.stats().digest())
        }
        let plain = run(None);
        // An explicitly attached all-zero plan draws no randomness anywhere.
        let inert = run(Some(RadioEnv::default().with_faults(FaultPlan::none())));
        assert_eq!(plain, inert);
    }

    #[test]
    fn certain_connect_refusal_is_retried_then_given_up() {
        let plan = FaultPlan::none().with_profile(
            Technology::Bluetooth,
            FaultProfile {
                connect_refuse: 1.0,
                ..FaultProfile::NONE
            },
        );
        let mut c = Cluster::with_env(8, RadioEnv::default().with_faults(plan));
        let a = c.add_node_with(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            |cfg| cfg.with_recovery(RecoveryPolicy::default()),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob")
                .at(Point2::new(4.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        // Default policy: 3 retries at 0.5/1/2 s backoff, then give up.
        c.run_until(SimTime::from_secs(60));
        assert!(c.app(a).connected.is_empty(), "every attempt is refused");
        let stats = c.stats();
        assert!(stats.retries >= 1, "refusals must be retried: {stats}");
        assert!(stats.gave_up >= 1, "exhaustion must be recorded: {stats}");
    }

    #[test]
    fn lost_service_queries_time_out_and_answer_empty() {
        let plan = FaultPlan::none().with_profile(
            Technology::Bluetooth,
            FaultProfile {
                frame_loss: 1.0,
                ..FaultProfile::NONE
            },
        );
        let mut c = Cluster::with_env(11, RadioEnv::default().with_faults(plan));
        let a = c.add_node_with(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            |cfg| cfg.with_recovery(RecoveryPolicy::default()),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob")
                .at(Point2::new(4.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            recorder(true),
        );
        c.start();
        // Inquiry is radio-level, so bob is still discovered; every SDP
        // frame is lost, so his services can never be learned.
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().request_service_list(bob));
        c.run_until(SimTime::from_secs(60));
        let lists = &c.app(a).service_lists;
        assert!(
            lists.iter().any(|(d, s)| *d == bob && s.is_empty()),
            "the query must resolve (empty) instead of hanging: {lists:?}"
        );
        let stats = c.stats();
        assert!(stats.timeouts >= 1, "query deadlines must fire: {stats}");
        assert!(stats.gave_up >= 1, "query retries must exhaust: {stats}");
    }

    #[test]
    fn crash_window_tears_links_and_restart_heals() {
        let plan = FaultPlan::none().with_crash(
            1, // bob, the second node added below
            Duration::from_secs(20),
            Duration::from_secs(10),
        );
        let mut c = Cluster::with_env(12, RadioEnv::default().with_faults(plan));
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(18));
        assert_eq!(c.app(a).connected.len(), 1, "pre-crash connect works");
        // Bob's daemon dies at t=20 s; the connection cannot survive (the
        // handover target is the same dead daemon).
        c.run_until(SimTime::from_secs(29));
        assert!(
            !c.app(a).closed.is_empty(),
            "the crash must close alice's connection"
        );
        // After the restart at t=30 s the service registry survives and a
        // fresh connect succeeds.
        c.run_until(SimTime::from_secs(55));
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(70));
        assert_eq!(c.app(a).connected.len(), 2, "post-restart connect works");
    }
}
