//! The simulated world: nodes, their radios, and range queries.
//!
//! [`World`] is the authoritative map from [`NodeId`] to position (via each
//! node's mobility model) and radio equipment. It answers the questions a
//! middleware driver needs: *who is in range of whom, over which technology,
//! at what time, and how long would this frame take to deliver?*
//!
//! Since the region-sharded engine, node state lives in structure-of-arrays
//! columns (one `Vec` per attribute) and range queries are served from a
//! **region index**: node positions are bucketed into radio-cell regions at a
//! *snapshot* time, and stay valid for queries at later times because every
//! [`Mobility`] model advertises a speed bound ([`Mobility::max_speed_mps`])
//! — a query at time `t` widens its search disc by the maximum drift since
//! the snapshot. Each index entry carries the node's snapshot position, so
//! the gather decides most candidates from the snapshot alone: a candidate
//! whose snapshot distance exceeds `range + drift` cannot be in range, one
//! within `range − drift` must be, and only the ring in between (and nodes
//! without a speed bound) is filtered by *exact* position. By the triangle
//! inequality the answers are those of an exact scan, independent of the
//! snapshot cadence and of the region edge length, which is what keeps
//! trace digests bit-identical for any region-grid size.
//!
//! Positions are **lazy**: a node's mobility model is only evaluated when a
//! query actually needs that node (per-node memoized by query time), so idle
//! nodes cost O(1) memory and no per-timestep work. Each node's mobility
//! model and memoized position live behind a per-node mutex
//! (`MotionCell`), so range queries work from `&World` — the epoch
//! engine hands one [`EpochView`] to all of its workers and each samples
//! lazily; the `&mut World` queries go through `Mutex::get_mut`, which is
//! lock-free. GPRS is range-independent and answered from a per-technology
//! membership list without touching the index at all. The pre-index
//! all-pairs implementations are kept as `*_naive` methods for differential
//! testing.
//!
//! The world itself has no event loop; drivers combine it with an
//! [`EventQueue`](crate::EventQueue).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::geometry::Point2;
use crate::mobility::{Mobility, Stationary};
use crate::radio::{RadioEnv, Technology};
use crate::time::SimTime;

/// Identifier of a node in a [`World`]. Dense and copyable; assigned in
/// insertion order starting from zero.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs from a raw index (for deserialization and tests).
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Configuration for one node, consumed by [`World::add_node`].
///
/// # Example
///
/// ```rust
/// use ph_netsim::{World, NodeBuilder, Technology};
/// use ph_netsim::geometry::Point2;
///
/// let mut world = World::new();
/// let id = world.add_node(
///     NodeBuilder::new("alice")
///         .at(Point2::new(1.0, 2.0))
///         .with_technologies([Technology::Bluetooth, Technology::Wlan]),
/// );
/// assert_eq!(world.name(id), "alice");
/// ```
#[derive(Debug)]
pub struct NodeBuilder {
    name: String,
    mobility: Box<dyn Mobility>,
    technologies: Vec<Technology>,
}

impl NodeBuilder {
    /// Starts building a node named `name`, stationary at the origin, with
    /// all three technologies enabled.
    pub fn new(name: impl Into<String>) -> Self {
        NodeBuilder {
            name: name.into(),
            mobility: Box::new(Stationary::new(Point2::ORIGIN)),
            technologies: Technology::ALL.to_vec(),
        }
    }

    /// Places the node stationary at `p`.
    pub fn at(mut self, p: Point2) -> Self {
        self.mobility = Box::new(Stationary::new(p));
        self
    }

    /// Uses a custom mobility model.
    pub fn moving(mut self, mobility: impl Mobility + 'static) -> Self {
        self.mobility = Box::new(mobility);
        self
    }

    /// Restricts the node's radios to `technologies`.
    pub fn with_technologies(mut self, technologies: impl IntoIterator<Item = Technology>) -> Self {
        self.technologies = technologies.into_iter().collect();
        self.technologies.sort();
        self.technologies.dedup();
        self
    }
}

/// Default region edge in metres: the largest *finite* stock technology
/// range (WLAN's 80 m), so any finite-range disc is covered by a small
/// constant number of regions. Configurable per world with
/// [`World::set_region_edge`]; the edge never affects query answers.
pub const REGION_EDGE_M: f64 = 80.0;

fn tech_slot(tech: Technology) -> usize {
    match tech {
        Technology::Bluetooth => 0,
        Technology::Wlan => 1,
        Technology::Gprs => 2,
    }
}

fn tech_bit(tech: Technology) -> u8 {
    1 << tech_slot(tech)
}

/// Radio sets by bitmask (bit = [`tech_slot`]), each in [`Technology::ALL`]
/// order — lets [`World::technologies`] answer from the one-byte mask
/// column without storing a `Vec<Technology>` per node.
const TECH_SETS: [&[Technology]; 8] = [
    &[],
    &[Technology::Bluetooth],
    &[Technology::Wlan],
    &[Technology::Bluetooth, Technology::Wlan],
    &[Technology::Gprs],
    &[Technology::Bluetooth, Technology::Gprs],
    &[Technology::Wlan, Technology::Gprs],
    &[Technology::Bluetooth, Technology::Wlan, Technology::Gprs],
];

/// Region coordinate of `p` under edge length `edge`.
fn region_of_point(p: Point2, edge: f64) -> (i64, i64) {
    ((p.x / edge).floor() as i64, (p.y / edge).floor() as i64)
}

/// Slack, relative to the radio range, that the snapshot classification
/// keeps from both of its bounds. The snapshot distance is compared
/// squared while the exact filter compares `hypot`; each side carries a
/// few ulps of rounding (under 1e-15 relative). The drift allowance's
/// 1e-6 m padding absorbs that at campus ranges; this margin of ~4500 ulps
/// keeps every unsampled decision on the exact filter's side at any range.
const CLASSIFY_SLACK: f64 = 1e-12;

/// Low bits of a gathered candidate that was neither accepted nor rejected
/// from its snapshot: its exact position decides. Any other value is the
/// [`tech_slot`] it was accepted over without sampling.
const NEEDS_SAMPLE: u64 = 3;

/// One technology a gather classifies against. A candidate whose squared
/// snapshot distance is at most `accept_sq` is in range at the query time
/// whatever its drift; one beyond `reject_sq` cannot be; one in between
/// needs its exact position.
#[derive(Clone, Copy, Debug, Default)]
struct Tier {
    slot: u8,
    accept_sq: f64,
    reject_sq: f64,
    /// `sqrt(reject_sq)`: the gather disc this tier needs.
    reach: f64,
}

impl Tier {
    fn new(tech: Technology, range: f64, drift: f64) -> Tier {
        let slot = tech_slot(tech) as u8;
        if range.is_infinite() {
            return Tier {
                slot,
                accept_sq: f64::INFINITY,
                reject_sq: f64::INFINITY,
                reach: f64::INFINITY,
            };
        }
        let slack = range * CLASSIFY_SLACK;
        let inner = range - slack - drift;
        let reach = range + slack + drift;
        Tier {
            slot,
            // A drift as wide as the range leaves nothing certain.
            accept_sq: if inner > 0.0 {
                inner * inner
            } else {
                f64::NEG_INFINITY
            },
            reject_sq: reach * reach,
            reach,
        }
    }

    /// The classification of a candidate with radio mask `mask` at squared
    /// snapshot distance `d2`, or `None` to reject it: the first tier it
    /// shares decides, unless that tier rejects it.
    fn classify(tiers: &[Tier], mask: u8, d2: f64) -> Option<u64> {
        for tier in tiers {
            if mask & (1 << tier.slot) == 0 {
                continue;
            }
            if d2 <= tier.accept_sq {
                return Some(u64::from(tier.slot));
            }
            if d2 <= tier.reject_sq {
                return Some(NEEDS_SAMPLE);
            }
        }
        None
    }
}

/// A reusable candidate buffer for region gathers — one per worker, passed
/// to [`EpochView::neighbors`]. Each entry packs a node index with how its
/// snapshot classified it (`pack`).
#[derive(Debug, Default)]
pub struct GatherBuf(Vec<u64>);

/// A gathered candidate: the node index in the high bits, so candidates
/// sort by node, and its classification in the low two.
fn pack(id: u32, class: u64) -> u64 {
    u64::from(id) << 2 | class
}

/// The `(node index, classification)` of a [`pack`]ed candidate.
fn unpack(c: u64) -> (u32, u64) {
    ((c >> 2) as u32, c & 3)
}

/// The gather kernel shared by [`World::neighbors_any`] and
/// [`EpochView::neighbors`], so their candidate sets cannot diverge.
/// Collects into `out`, ascending by node index, every bucketed node in a
/// snapshot region that the disc reaching every finite tier around `p`
/// touches and that [`Tier::classify`] keeps, plus every speed-unbounded
/// node (always sampled). Nodes sharing no tier's technology are dropped before the
/// sort.
fn gather(idx: &RegionIndex, tech_mask: &[u8], p: Point2, tiers: &[Tier], out: &mut GatherBuf) {
    let out = &mut out.0;
    out.clear();
    let mask = tiers.iter().fold(0u8, |m, tier| m | (1 << tier.slot));
    let r = tiers
        .iter()
        .map(|tier| tier.reach)
        .filter(|reach| reach.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    // Without a finite-range tier `r` stays negative: no region to scan.
    if r >= 0.0 {
        let (cx0, cy0) = region_of_point(Point2::new(p.x - r, p.y - r), idx.edge);
        let (cx1, cy1) = region_of_point(Point2::new(p.x + r, p.y + r), idx.edge);
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                let Some(&(start, end)) = idx.regions.get(&(cx, cy)) else {
                    continue;
                };
                for e in &idx.entries[start as usize..end as usize] {
                    if e.mask & mask == 0 {
                        continue;
                    }
                    let (dx, dy) = (e.pos.x - p.x, e.pos.y - p.y);
                    if let Some(class) = Tier::classify(tiers, e.mask, dx * dx + dy * dy) {
                        out.push(pack(e.id, class));
                    }
                }
            }
        }
    }
    for &i in &idx.unbounded {
        if tech_mask[i as usize] & mask != 0 {
            out.push(pack(i, NEEDS_SAMPLE));
        }
    }
    out.sort_unstable();
}

/// One speed-bounded node as of the snapshot: index, radio mask and
/// snapshot position.
#[derive(Clone, Copy, Debug)]
struct Entry {
    pos: Point2,
    id: u32,
    mask: u8,
}

/// Region bucketing of node positions at a snapshot time, plus the lazy
/// per-node position cache.
#[derive(Debug, Default)]
struct RegionIndex {
    /// Region edge length in metres.
    edge: f64,
    /// The time the snapshot was taken at; `None` when stale (nodes were
    /// added or no query has run yet).
    bucket_t: Option<SimTime>,
    /// Every speed-bounded node as of `bucket_t`, sorted by (region of its
    /// snapshot position, index): each region's nodes form one ascending
    /// run.
    entries: Vec<Entry>,
    /// Region → its run `start..end` in `entries`. Only cleared, inserted
    /// into and looked up — never iterated, so its order is unobservable.
    regions: HashMap<(i64, i64), (u32, u32)>,
    /// Nodes whose mobility reports an infinite speed bound: never
    /// bucketed, appended to every candidate gather instead.
    unbounded: Vec<u32>,
    /// Max finite [`Mobility::max_speed_mps`] across all nodes — bounds how
    /// far any bucketed node can drift from its snapshot position.
    max_speed_bound: f64,
    /// Gather buffer reused across [`World::neighbors_any`] calls.
    scratch: GatherBuf,
}

impl RegionIndex {
    /// How much any bucketed node may have moved since the snapshot, padded
    /// for interpolation rounding in the mobility models. Gathers widen
    /// their disc by this and classify candidates against it, so the
    /// padding only ever sends a candidate to the exact filter.
    fn drift_allowance(&self, t: SimTime) -> f64 {
        match self.bucket_t {
            Some(bt) if t >= bt => {
                self.max_speed_bound * (t - bt).as_secs_f64() * (1.0 + 1e-6) + 1e-6
            }
            _ => 0.0,
        }
    }
}

/// One node's mobility model together with its memoized position sample
/// (valid iff `pos_t` equals the query time; [`SimTime::MAX`] = never
/// sampled). Wrapped in a per-node [`Mutex`] so an [`EpochView`] can sample
/// lazily from `&World` on any worker; serial `&mut World` paths reach the
/// cell through `Mutex::get_mut` and never pay for the lock.
#[derive(Debug)]
struct MotionCell {
    mobility: Box<dyn Mobility>,
    pos: Point2,
    pos_t: SimTime,
}

/// Samples (and memoizes) the cell's position at `t`. `zero_speed` is the
/// node's speed bound being exactly zero: any prior sample then answers
/// every time — this is what makes parked crowds free.
fn sample_cell(cell: &mut MotionCell, zero_speed: bool, t: SimTime) -> Point2 {
    if cell.pos_t == t {
        return cell.pos;
    }
    let p = if zero_speed && cell.pos_t != SimTime::MAX {
        cell.pos
    } else {
        cell.mobility.position(t)
    };
    cell.pos = p;
    cell.pos_t = t;
    p
}

/// The collection of simulated devices and the physics between them.
///
/// Node state is structure-of-arrays: one column per attribute, indexed by
/// [`NodeId::index`]. A node that nothing queries costs a few pointers of
/// memory and zero per-timestep work.
#[derive(Debug)]
pub struct World {
    /// Node names, shared (not copied) with whoever asks for
    /// [`World::shared_name`]: the simulator's device identities and trace
    /// actor pool hold these same allocations.
    names: Vec<Arc<str>>,
    motion: Vec<Mutex<MotionCell>>,
    /// Per-node radio bitmask (bit = [`tech_slot`]); lets range queries
    /// test technologies without touching the motion cells.
    tech_mask: Vec<u8>,
    /// Per-node speed bound, captured from the mobility model at insertion.
    max_speed: Vec<f64>,
    /// Node indices carrying each technology, in [`Technology::ALL`] order;
    /// ascending by construction. Serves infinite-range (GPRS) queries.
    tech_members: [Vec<u32>; 3],
    index: RegionIndex,
    /// Radio environment: per-technology profiles and the fault plan.
    env: RadioEnv,
}

impl Default for World {
    fn default() -> Self {
        World {
            names: Vec::new(),
            motion: Vec::new(),
            tech_mask: Vec::new(),
            max_speed: Vec::new(),
            tech_members: [Vec::new(), Vec::new(), Vec::new()],
            index: RegionIndex {
                edge: REGION_EDGE_M,
                ..RegionIndex::default()
            },
            env: RadioEnv::default(),
        }
    }
}

impl World {
    /// Creates an empty world with the default [`RadioEnv`] (the built-in
    /// 2008-calibrated profiles, no faults).
    pub fn new() -> Self {
        World::default()
    }

    /// Creates an empty world with a custom radio environment.
    pub fn with_env(env: RadioEnv) -> Self {
        World {
            env,
            ..World::default()
        }
    }

    /// The radio environment this world runs under.
    pub fn env(&self) -> &RadioEnv {
        &self.env
    }

    /// The configured region edge length in metres.
    pub fn region_edge(&self) -> f64 {
        self.index.edge
    }

    /// Sets the region edge length in metres and invalidates the current
    /// snapshot. Smaller regions mean cheaper gathers in dense worlds;
    /// query answers are unaffected (pinned by the
    /// `region_edge_never_changes_answers` test).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not finite and positive.
    pub fn set_region_edge(&mut self, edge: f64) {
        assert!(
            edge.is_finite() && edge > 0.0,
            "region edge must be finite and positive, got {edge}"
        );
        self.index.edge = edge;
        self.index.bucket_t = None;
    }

    /// Pre-sizes every node column for `n` nodes, so bulk insertion does
    /// not rehash or reallocate per node.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.names.reserve(n);
        self.motion.reserve(n);
        self.tech_mask.reserve(n);
        self.max_speed.reserve(n);
    }

    /// Adds a node, returning its identifier.
    pub fn add_node(&mut self, builder: NodeBuilder) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        let mut mask = 0u8;
        for &tech in &builder.technologies {
            self.tech_members[tech_slot(tech)].push(id.0);
            mask |= tech_bit(tech);
        }
        let speed = builder.mobility.max_speed_mps();
        if speed.is_finite() {
            self.index.max_speed_bound = self.index.max_speed_bound.max(speed);
        } else {
            self.index.unbounded.push(id.0);
        }
        self.names.push(builder.name.into());
        self.motion.push(Mutex::new(MotionCell {
            mobility: builder.mobility,
            pos: Point2::ORIGIN,
            pos_t: SimTime::MAX,
        }));
        self.tech_mask.push(mask);
        self.max_speed.push(speed);
        // The snapshot taken for the previous population is stale.
        self.index.bucket_t = None;
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the world has no nodes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// The node's configured name.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this world.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// The node's name as a shared handle to the world's own allocation,
    /// for callers that keep the name (a device identity, a trace actor).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this world.
    pub fn shared_name(&self, id: NodeId) -> Arc<str> {
        Arc::clone(&self.names[id.index()])
    }

    /// The technologies the node is equipped with.
    pub fn technologies(&self, id: NodeId) -> &[Technology] {
        TECH_SETS[self.tech_mask[id.index()] as usize]
    }

    /// Whether the node carries a radio for `tech`.
    pub fn has_technology(&self, id: NodeId, tech: Technology) -> bool {
        self.tech_mask[id.index()] & tech_bit(tech) != 0
    }

    /// How far the region index assumes any speed-bounded node may have
    /// moved between the current snapshot and `t`: the fastest node's
    /// speed bound times the elapsed time, padded for interpolation
    /// rounding (0 without a snapshot, or at or before it). Neighbor
    /// queries at `t` accept a node from its snapshot alone when it lies
    /// within `range − drift_allowance(t)` and reject it beyond
    /// `range + drift_allowance(t)`.
    pub fn drift_allowance(&self, t: SimTime) -> f64 {
        self.index.drift_allowance(t)
    }

    /// The node's (memoized) position at time `t` — serial path, reaches the
    /// motion cell through `Mutex::get_mut` (no lock).
    fn sample_pos(&mut self, i: usize, t: SimTime) -> Point2 {
        let zero_speed = self.max_speed[i] == 0.0;
        let cell = self.motion[i].get_mut().expect("motion cell poisoned");
        sample_cell(cell, zero_speed, t)
    }

    /// The node's (memoized) position at time `t` from a shared reference —
    /// the worker path, briefly locking the node's motion cell. Answers are
    /// identical to [`World::sample_pos`]: memoization only caches the
    /// deterministic `Mobility::position` function, and per-cell locking
    /// keeps each memo update atomic.
    fn sample_pos_shared(&self, i: usize, t: SimTime) -> Point2 {
        let zero_speed = self.max_speed[i] == 0.0;
        let mut cell = self.motion[i].lock().expect("motion cell poisoned");
        sample_cell(&mut cell, zero_speed, t)
    }

    /// Samples every node at `t` and rebuilds the snapshot: O(N log N)
    /// for the entry sort, but only O(movers) mobility evaluations —
    /// zero-speed nodes reuse any prior sample.
    fn rebucket(&mut self, t: SimTime) {
        let n = self.names.len();
        let idx = &mut self.index;
        idx.entries.clear();
        // One exact allocation, kept across rebuilds: growth by doubling
        // would leave up to twice the entries' memory at peak.
        idx.entries.reserve_exact(n - idx.unbounded.len());
        for i in 0..n {
            let zero_speed = self.max_speed[i] == 0.0;
            let cell = self.motion[i].get_mut().expect("motion cell poisoned");
            let pos = sample_cell(cell, zero_speed, t);
            // Unbounded nodes are gathered unconditionally, never bucketed.
            if self.max_speed[i].is_finite() {
                idx.entries.push(Entry {
                    pos,
                    id: i as u32,
                    mask: self.tech_mask[i],
                });
            }
        }
        let edge = idx.edge;
        idx.entries
            .sort_unstable_by_key(|e| (region_of_point(e.pos, edge), e.id));
        idx.regions.clear();
        let mut start = 0;
        while start < idx.entries.len() {
            let region = region_of_point(idx.entries[start].pos, edge);
            let run =
                idx.entries[start..].partition_point(|e| region_of_point(e.pos, edge) == region);
            idx.regions
                .insert(region, (start as u32, (start + run) as u32));
            start += run;
        }
        idx.bucket_t = Some(t);
    }

    /// Makes the region snapshot usable for queries at `t`: rebuckets when
    /// there is no snapshot, when `t` precedes it, or when accumulated
    /// drift would inflate gathers beyond one extra region ring.
    fn ensure_buckets(&mut self, t: SimTime) {
        let stale = match self.index.bucket_t {
            None => true,
            Some(bt) => t < bt || self.index.drift_allowance(t) > self.index.edge,
        };
        if stale {
            self.rebucket(t);
        }
    }

    /// Makes the region snapshot usable for queries at `t` and returns
    /// nothing — the serial prologue every simulator epoch runs before
    /// handing an [`EpochView`] to its workers (snapshot rebuilds need
    /// `&mut`).
    pub fn prepare_epoch(&mut self, t: SimTime) {
        self.ensure_buckets(t);
    }

    /// A shared, `Sync` query view pinned to time `t`: workers call
    /// [`EpochView::neighbors`] / [`EpochView::reachable`] /
    /// [`EpochView::position`] concurrently, sampling positions lazily
    /// through the per-node motion cells. Answers are bit-identical to the
    /// `&mut self` queries at the same `t` (same gather, same exact filter,
    /// same memoized samples).
    ///
    /// # Panics
    ///
    /// Panics if the region snapshot is missing or newer than `t` — call
    /// [`World::prepare_epoch`] with this `t` first.
    pub fn epoch_view(&self, t: SimTime) -> EpochView<'_> {
        match self.index.bucket_t {
            Some(bt) if bt <= t => {}
            _ if self.names.is_empty() => {}
            _ => panic!("epoch_view({t}): call prepare_epoch first"),
        }
        EpochView {
            world: self,
            t,
            drift: self.index.drift_allowance(t),
        }
    }

    /// The node's position at time `t`.
    pub fn position(&mut self, id: NodeId, t: SimTime) -> Point2 {
        self.sample_pos(id.index(), t)
    }

    /// Whether `a` can reach `b` over `tech` at time `t`: both carry the
    /// radio and are within the technology's range (GPRS is
    /// range-independent — any two GPRS nodes reach each other through the
    /// operator proxy, matching the thesis's GPRSPlugin).
    pub fn reachable(&mut self, a: NodeId, b: NodeId, tech: Technology, t: SimTime) -> bool {
        if a == b {
            return false;
        }
        if !self.has_technology(a, tech) || !self.has_technology(b, tech) {
            return false;
        }
        let profile = self.env.profile(tech);
        if profile.range_m.is_infinite() {
            return true;
        }
        // Pairwise checks sample lazily (two memoized positions); they
        // never force an O(N) snapshot.
        let d = self.position(a, t).distance(self.position(b, t));
        self.env.profile(tech).in_range(d)
    }

    /// Reference implementation of [`World::reachable`] bypassing the
    /// position cache, for differential testing.
    pub fn reachable_naive(&mut self, a: NodeId, b: NodeId, tech: Technology, t: SimTime) -> bool {
        if a == b {
            return false;
        }
        if !self.has_technology(a, tech) || !self.has_technology(b, tech) {
            return false;
        }
        let profile = self.env.profile(tech);
        if profile.range_m.is_infinite() {
            return true;
        }
        let d = {
            let pa = self.motion[a.index()]
                .get_mut()
                .unwrap()
                .mobility
                .position(t);
            let pb = self.motion[b.index()]
                .get_mut()
                .unwrap()
                .mobility
                .position(t);
            pa.distance(pb)
        };
        self.env.profile(tech).in_range(d)
    }

    /// Reference all-pairs implementation of [`EpochView::neighbors`], for
    /// differential testing.
    pub fn neighbors_naive(&mut self, id: NodeId, tech: Technology, t: SimTime) -> Vec<NodeId> {
        let ids: Vec<NodeId> = self.node_ids().collect();
        ids.into_iter()
            .filter(|&other| other != id && self.reachable_naive(id, other, tech, t))
            .collect()
    }

    /// All nodes reachable from `id` over *any* shared technology at `t`,
    /// with the cheapest such technology (in [`Technology::ALL`] priority
    /// order) reported for each; ascending by id.
    pub fn neighbors_any(&mut self, id: NodeId, t: SimTime) -> Vec<(NodeId, Technology)> {
        self.ensure_buckets(t);
        let drift = self.index.drift_allowance(t);
        let p = self.sample_pos(id.index(), t);
        // One sweep classifies every technology the seeker carries, in
        // priority order; the disc is the widest finite range's.
        let mut tiers = [Tier::default(); 3];
        let mut len = 0;
        for tech in Technology::ALL {
            if self.has_technology(id, tech) {
                tiers[len] = Tier::new(tech, self.env.profile(tech).range_m, drift);
                len += 1;
            }
        }
        let mut scratch = std::mem::take(&mut self.index.scratch);
        gather(&self.index, &self.tech_mask, p, &tiers[..len], &mut scratch);
        let mut out: Vec<(NodeId, Technology)> = Vec::new();
        for &c in &scratch.0 {
            let (i, class) = unpack(c);
            let other = NodeId(i);
            if other == id {
                continue;
            }
            let tech = if class == NEEDS_SAMPLE {
                let d = p.distance(self.sample_pos(other.index(), t));
                Technology::ALL.into_iter().find(|&tech| {
                    if !self.has_technology(id, tech) || !self.has_technology(other, tech) {
                        return false;
                    }
                    let profile = self.env.profile(tech);
                    profile.range_m.is_infinite() || profile.in_range(d)
                })
            } else {
                Some(Technology::ALL[class as usize])
            };
            if let Some(tech) = tech {
                out.push((other, tech));
            }
        }
        self.index.scratch = scratch;
        // Nodes beyond every finite range can still be GPRS neighbors; the
        // finite sweep above has already classified everything nearby, so
        // only its (small) result prefix needs dedup checks.
        if self.has_technology(id, Technology::Gprs) {
            let finite = out.len();
            for &i in &self.tech_members[tech_slot(Technology::Gprs)] {
                let other = NodeId(i);
                if other == id || out[..finite].iter().any(|&(n, _)| n == other) {
                    continue;
                }
                out.push((other, Technology::Gprs));
            }
        }
        out.sort_unstable_by_key(|&(n, _)| n);
        out
    }

    /// Reference all-pairs implementation of [`World::neighbors_any`], for
    /// differential testing.
    pub fn neighbors_any_naive(&mut self, id: NodeId, t: SimTime) -> Vec<(NodeId, Technology)> {
        let ids: Vec<NodeId> = self.node_ids().collect();
        ids.into_iter()
            .filter(|&other| other != id)
            .filter_map(|other| {
                Technology::ALL
                    .into_iter()
                    .find(|&tech| self.reachable_naive(id, other, tech, t))
                    .map(|tech| (other, tech))
            })
            .collect()
    }
}

/// A shared query view over one [`World`], pinned to a single query time.
///
/// The view is `Copy`, `Sync`, and answers exactly like the `&mut`
/// queries at the same time: candidate gathering uses the same snapshot
/// index, drift allowance and classification, the exact filter uses the
/// same positions (sampled lazily through the per-node motion cells).
/// Obtained from [`World::epoch_view`] after [`World::prepare_epoch`]; the
/// simulator's epoch engine hands one view to all workers of a timestamp
/// batch, and it is the only way the simulator reads the world.
#[derive(Debug, Clone, Copy)]
pub struct EpochView<'a> {
    world: &'a World,
    t: SimTime,
    drift: f64,
}

impl EpochView<'_> {
    /// The query time this view is pinned to.
    pub fn time(&self) -> SimTime {
        self.t
    }

    fn has_technology(&self, id: NodeId, tech: Technology) -> bool {
        self.world.tech_mask[id.index()] & tech_bit(tech) != 0
    }

    /// The node's position at the view's time (lazily sampled, memoized).
    pub fn position(&self, id: NodeId) -> Point2 {
        self.world.sample_pos_shared(id.index(), self.t)
    }

    /// Whether `a` can reach `b` over `tech` at the view's time. Mirrors
    /// [`World::reachable`] exactly.
    pub fn reachable(&self, a: NodeId, b: NodeId, tech: Technology) -> bool {
        if a == b {
            return false;
        }
        if !self.has_technology(a, tech) || !self.has_technology(b, tech) {
            return false;
        }
        let profile = self.world.env.profile(tech);
        if profile.range_m.is_infinite() {
            return true;
        }
        profile.in_range(self.position(a).distance(self.position(b)))
    }

    /// All nodes reachable from `id` over `tech`, ascending by id.
    /// `scratch` is a caller-owned gather buffer (per-worker in a batch).
    pub fn neighbors(&self, id: NodeId, tech: Technology, scratch: &mut GatherBuf) -> Vec<NodeId> {
        if !self.has_technology(id, tech) {
            return Vec::new();
        }
        let profile = self.world.env.profile(tech);
        if profile.range_m.is_infinite() {
            return self.world.tech_members[tech_slot(tech)]
                .iter()
                .copied()
                .filter(|&i| i != id.0)
                .map(NodeId)
                .collect();
        }
        let p = self.position(id);
        let tiers = [Tier::new(tech, profile.range_m, self.drift)];
        gather(&self.world.index, &self.world.tech_mask, p, &tiers, scratch);
        scratch
            .0
            .iter()
            .map(|&c| unpack(c))
            .filter(|&(i, class)| {
                i != id.0
                    && (class != NEEDS_SAMPLE
                        || profile
                            .in_range(p.distance(self.world.sample_pos_shared(i as usize, self.t))))
            })
            .map(|(i, _)| NodeId(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::ScriptedPath;

    /// `id`'s neighbors over `tech` at `t`, through the epoch-view query.
    fn neighbors(w: &mut World, id: NodeId, tech: Technology, t: SimTime) -> Vec<NodeId> {
        w.prepare_epoch(t);
        w.epoch_view(t)
            .neighbors(id, tech, &mut GatherBuf::default())
    }

    fn two_node_world(dist: f64) -> (World, NodeId, NodeId) {
        let mut w = World::new();
        let a = w.add_node(NodeBuilder::new("a").at(Point2::ORIGIN));
        let b = w.add_node(NodeBuilder::new("b").at(Point2::new(dist, 0.0)));
        (w, a, b)
    }

    #[test]
    fn ids_are_dense_and_named() {
        let (w, a, b) = two_node_world(1.0);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(w.name(a), "a");
        assert_eq!(w.len(), 2);
        assert_eq!(w.node_ids().count(), 2);
    }

    #[test]
    fn bluetooth_range_respected() {
        let (mut w, a, b) = two_node_world(5.0);
        assert!(w.reachable(a, b, Technology::Bluetooth, SimTime::ZERO));
        let (mut w2, a2, b2) = two_node_world(15.0);
        assert!(!w2.reachable(a2, b2, Technology::Bluetooth, SimTime::ZERO));
        // ...but WLAN still covers 15 m.
        assert!(w2.reachable(a2, b2, Technology::Wlan, SimTime::ZERO));
    }

    #[test]
    fn gprs_reaches_any_distance() {
        let (mut w, a, b) = two_node_world(100_000.0);
        assert!(w.reachable(a, b, Technology::Gprs, SimTime::ZERO));
    }

    #[test]
    fn node_is_not_its_own_neighbor() {
        let (mut w, a, _) = two_node_world(1.0);
        assert!(!w.reachable(a, a, Technology::Bluetooth, SimTime::ZERO));
        assert!(!neighbors(&mut w, a, Technology::Bluetooth, SimTime::ZERO).contains(&a));
    }

    #[test]
    fn missing_radio_blocks_reachability() {
        let mut w = World::new();
        let a = w.add_node(
            NodeBuilder::new("bt-only")
                .at(Point2::ORIGIN)
                .with_technologies([Technology::Bluetooth]),
        );
        let b = w.add_node(
            NodeBuilder::new("wlan-only")
                .at(Point2::new(1.0, 0.0))
                .with_technologies([Technology::Wlan]),
        );
        for tech in Technology::ALL {
            assert!(!w.reachable(a, b, tech, SimTime::ZERO), "{tech}");
        }
        assert!(w.neighbors_any(a, SimTime::ZERO).is_empty());
    }

    #[test]
    fn neighbors_lists_in_range_nodes() {
        let mut w = World::new();
        let center = w.add_node(NodeBuilder::new("c").at(Point2::ORIGIN));
        let near = w.add_node(NodeBuilder::new("near").at(Point2::new(3.0, 0.0)));
        let far = w.add_node(NodeBuilder::new("far").at(Point2::new(50.0, 0.0)));
        let bt = neighbors(&mut w, center, Technology::Bluetooth, SimTime::ZERO);
        assert_eq!(bt, vec![near]);
        let wlan = neighbors(&mut w, center, Technology::Wlan, SimTime::ZERO);
        assert_eq!(wlan, vec![near, far]);
    }

    #[test]
    fn neighbors_any_prefers_cheapest_technology() {
        let mut w = World::new();
        let a = w.add_node(NodeBuilder::new("a").at(Point2::ORIGIN));
        let close = w.add_node(NodeBuilder::new("close").at(Point2::new(2.0, 0.0)));
        let mid = w.add_node(NodeBuilder::new("mid").at(Point2::new(40.0, 0.0)));
        let far = w.add_node(NodeBuilder::new("far").at(Point2::new(4_000.0, 0.0)));
        let got = w.neighbors_any(a, SimTime::ZERO);
        assert_eq!(
            got,
            vec![
                (close, Technology::Bluetooth),
                (mid, Technology::Wlan),
                (far, Technology::Gprs)
            ]
        );
    }

    #[test]
    fn mobility_changes_reachability_over_time() {
        let mut w = World::new();
        let fixed = w.add_node(NodeBuilder::new("fixed").at(Point2::ORIGIN));
        // Walks from in-range to out-of-range over 20 s.
        let walker = w.add_node(NodeBuilder::new("walker").moving(ScriptedPath::walk(
            SimTime::ZERO,
            Point2::new(5.0, 0.0),
            Point2::new(45.0, 0.0),
            2.0,
        )));
        assert!(w.reachable(fixed, walker, Technology::Bluetooth, SimTime::ZERO));
        assert!(!w.reachable(fixed, walker, Technology::Bluetooth, SimTime::from_secs(20)));
        // WLAN still holds at 45 m.
        assert!(w.reachable(fixed, walker, Technology::Wlan, SimTime::from_secs(20)));
    }

    #[test]
    fn tech_slots_index_the_priority_order() {
        // Gathers report an unsampled accept by slot and decode it through
        // `Technology::ALL`.
        for (slot, tech) in Technology::ALL.into_iter().enumerate() {
            assert_eq!(tech_slot(tech), slot);
        }
    }

    #[test]
    fn builder_dedups_technologies() {
        let mut w = World::new();
        let a = w.add_node(NodeBuilder::new("a").with_technologies([
            Technology::Wlan,
            Technology::Wlan,
            Technology::Bluetooth,
        ]));
        assert_eq!(
            w.technologies(a),
            &[Technology::Bluetooth, Technology::Wlan]
        );
    }

    #[test]
    fn grid_matches_naive_on_cell_boundaries() {
        // Nodes straddling region borders and negative coordinates.
        let mut w = World::new();
        let pts = [
            Point2::new(-0.5, 0.0),
            Point2::new(0.5, 0.0),
            Point2::new(79.9, 0.0),
            Point2::new(80.1, 0.0),
            Point2::new(-80.0, -80.0),
            Point2::new(160.0, 160.0),
            Point2::new(8.0, 6.0),
        ];
        for (i, p) in pts.iter().enumerate() {
            w.add_node(NodeBuilder::new(format!("n{i}")).at(*p));
        }
        for id in 0..pts.len() {
            let id = NodeId::from_index(id);
            for tech in Technology::ALL {
                assert_eq!(
                    neighbors(&mut w, id, tech, SimTime::ZERO),
                    w.neighbors_naive(id, tech, SimTime::ZERO),
                    "{id} {tech}"
                );
            }
            assert_eq!(
                w.neighbors_any(id, SimTime::ZERO),
                w.neighbors_any_naive(id, SimTime::ZERO),
                "{id}"
            );
        }
    }

    /// Walkers that fan out of one crowded region across query times,
    /// exercising drift-widened gathers, snapshot rebuilds, and
    /// backwards-in-time queries — all must match a fresh world and the
    /// naive path exactly.
    fn walker_world() -> World {
        let mut w = World::new();
        for i in 0..40 {
            w.add_node(NodeBuilder::new(format!("n{i}")).moving(ScriptedPath::walk(
                SimTime::ZERO,
                Point2::new(i as f64 * 0.5, 0.0),
                Point2::new(i as f64 * 21.0, i as f64 * 13.0),
                3.0,
            )));
        }
        w
    }

    #[test]
    fn bucket_reuse_across_epochs_matches_fresh_world() {
        // A rebuilt snapshot must leave nothing of the previous one behind:
        // a world whose index was already populated at another time
        // answers exactly like a fresh world that never saw it, for every
        // node and technology.
        let (t1, t2) = (SimTime::from_secs(5), SimTime::from_secs(60));
        let mut reused = walker_world();
        let mut fresh = walker_world();
        // Dirty `reused`'s buckets at t2 (and query t1 afterwards, going
        // backwards in time) before comparing at t1.
        for id in reused.node_ids().collect::<Vec<_>>() {
            neighbors(&mut reused, id, Technology::Bluetooth, t2);
        }
        for id in fresh.node_ids().collect::<Vec<_>>() {
            for tech in Technology::ALL {
                assert_eq!(
                    neighbors(&mut reused, id, tech, t1),
                    neighbors(&mut fresh, id, tech, t1),
                    "{id} {tech} at t1"
                );
                assert_eq!(
                    neighbors(&mut reused, id, tech, t1),
                    reused.neighbors_naive(id, tech, t1),
                    "{id} {tech} vs naive"
                );
            }
        }
    }

    #[test]
    fn drifted_queries_match_naive_between_snapshots() {
        // Query a sequence of times close enough together that the snapshot
        // is reused (drift allowance < edge): candidates must still be
        // exact, because the gather disc widens with the drift bound.
        let mut w = walker_world();
        let ids: Vec<NodeId> = w.node_ids().collect();
        for secs in [10u64, 12, 15, 20, 25, 30] {
            let t = SimTime::from_secs(secs);
            for &id in &ids {
                for tech in Technology::ALL {
                    assert_eq!(
                        neighbors(&mut w, id, tech, t),
                        w.neighbors_naive(id, tech, t),
                        "{id} {tech} at {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn region_edge_never_changes_answers() {
        // The tentpole invariant at the World layer: the region grid size
        // is a performance knob, not a semantics knob.
        let t = SimTime::from_secs(20);
        let mut reference = walker_world();
        let ids: Vec<NodeId> = reference.node_ids().collect();
        let expected: Vec<Vec<NodeId>> = ids
            .iter()
            .map(|&id| neighbors(&mut reference, id, Technology::Wlan, t))
            .collect();
        for edge in [5.0, 20.0, 80.0, 250.0, 1000.0] {
            let mut w = walker_world();
            w.set_region_edge(edge);
            assert_eq!(w.region_edge(), edge);
            for (k, &id) in ids.iter().enumerate() {
                assert_eq!(
                    neighbors(&mut w, id, Technology::Wlan, t),
                    expected[k],
                    "edge={edge} {id}"
                );
            }
        }
    }

    #[test]
    fn position_cache_survives_node_addition() {
        let mut w = World::new();
        let a = w.add_node(NodeBuilder::new("a").at(Point2::ORIGIN));
        assert_eq!(
            neighbors(&mut w, a, Technology::Bluetooth, SimTime::ZERO),
            vec![]
        );
        // Adding a node must invalidate the snapshot.
        let b = w.add_node(NodeBuilder::new("b").at(Point2::new(1.0, 0.0)));
        assert_eq!(
            neighbors(&mut w, a, Technology::Bluetooth, SimTime::ZERO),
            vec![b]
        );
    }

    #[test]
    fn custom_env_range_is_honored_by_all_query_paths() {
        use crate::radio::BLUETOOTH;
        let mut bt = BLUETOOTH.clone();
        bt.range_m = 30.0;
        let env = RadioEnv::default().with_profile(Technology::Bluetooth, bt);
        let mut w = World::with_env(env);
        let a = w.add_node(NodeBuilder::new("a").at(Point2::ORIGIN));
        let b = w.add_node(NodeBuilder::new("b").at(Point2::new(20.0, 0.0)));
        // 20 m: out of stock Bluetooth range, within the boosted env's.
        assert!(w.reachable(a, b, Technology::Bluetooth, SimTime::ZERO));
        assert!(w.reachable_naive(a, b, Technology::Bluetooth, SimTime::ZERO));
        assert_eq!(
            neighbors(&mut w, a, Technology::Bluetooth, SimTime::ZERO),
            vec![b]
        );
        assert_eq!(
            w.neighbors_any(a, SimTime::ZERO),
            vec![(b, Technology::Bluetooth)]
        );
        assert_eq!(w.env().profile(Technology::Bluetooth).range_m, 30.0);
    }

    #[test]
    fn neighbors_without_radio_is_empty() {
        let mut w = World::new();
        let a = w.add_node(
            NodeBuilder::new("bt-only")
                .at(Point2::ORIGIN)
                .with_technologies([Technology::Bluetooth]),
        );
        w.add_node(NodeBuilder::new("b").at(Point2::new(1.0, 0.0)));
        assert!(neighbors(&mut w, a, Technology::Gprs, SimTime::ZERO).is_empty());
        assert_eq!(
            neighbors(&mut w, a, Technology::Bluetooth, SimTime::ZERO).len(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_region_edge_is_rejected() {
        let mut w = World::new();
        w.set_region_edge(0.0);
    }
}
