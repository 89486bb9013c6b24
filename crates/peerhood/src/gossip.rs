//! Epidemic membership and multi-hop dissemination (the gossip layer).
//!
//! Two cooperating state machines, both sans-IO and payload-agnostic:
//!
//! * **Membership** — bounded partial views in the HyParView style. The
//!   *active* view holds up to [`GossipConfig::active_view`] peers that are
//!   currently reachable over a radio link; the *passive* view holds up to
//!   [`GossipConfig::passive_view`] peer names learned through shuffles, kept
//!   as promotion candidates for when they come back into range. Views never
//!   contain the local node and never overlap.
//! * **Dissemination** — eager-push/lazy-pull broadcast in the Plumtree
//!   style. Payloads are pushed whole along an implicit spanning tree (the
//!   *eager* peers); everyone else receives `IHAVE` digests and repairs gaps
//!   with `GRAFT`, while duplicate pushes trigger `PRUNE` demotions that trim
//!   the tree back to spanning shape.
//!
//! The classic papers assume long-lived TCP links; here "neighbor" means a
//! live simulated radio connection, so the adaptation differs in two
//! deliberate ways (see DESIGN.md §15): promotion out of the passive view
//! happens when a named peer *physically reappears* (we cannot dial a node
//! that is out of range), and `IHAVE` digests go to every connected peer
//! rather than only lazy tree edges, which is what lets ferry nodes carry
//! payload summaries between disjoint radio bubbles.
//!
//! Nothing here performs IO: callers feed [`Gossip::neighbor_up`] /
//! [`Gossip::neighbor_down`] / [`Gossip::on_msg`] / [`Gossip::on_tick`] and
//! drain [`Gossip::take_outbox`] onto whatever transport they own. All
//! randomness comes from one dedicated [`SimRng`] stream salted with
//! [`GossipConfig::rng_salt`] and the node name, drawn in dispatch order, so
//! a run's digest is bit-identical for any `--threads N`.
//!
//! Peer names are shared `Arc<str>`s (the transport hands in the one it
//! already holds, e.g. a device's `DeviceInfo::name`), so views, graft
//! providers and the outbox copy a pointer, not a string. `Arc<str>`
//! orders by its string contents, so every view iterates in name order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use codec::{decode_seq, encode_seq, Bytes, DecodeError, Fnv1a, Wire};
use netsim::{SimRng, SimTime};

/// Dedicated RNG stream label so gossip draws never collide with the world
/// engine's mobility/fault streams, even under the same master seed.
const GOSSIP_STREAM: u64 = 0x6f55_1b00_9055_1b00;

/// Derives a message id from the origin node's name and a per-origin
/// sequence number. Collision-free in practice for simulation scales.
#[must_use]
pub fn message_id(origin: &str, seq: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write(origin.as_bytes());
    h.write_u64(seq);
    h.finish()
}

/// Tuning knobs for the gossip layer, in the same consuming-builder style as
/// [`DaemonConfig`](crate::DaemonConfig):
///
/// ```
/// use std::time::Duration;
/// use ph_peerhood::gossip::GossipConfig;
///
/// let cfg = GossipConfig::default()
///     .active_view(5)
///     .passive_view(30)
///     .shuffle_every(Duration::from_secs(30));
/// assert_eq!(cfg.active_limit(), 5);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipConfig {
    active_view: usize,
    passive_view: usize,
    shuffle_active: usize,
    shuffle_passive: usize,
    shuffle_every: Duration,
    tick_every: Duration,
    graft_timeout: Duration,
    cache_capacity: usize,
    rng_salt: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            active_view: 5,
            passive_view: 30,
            shuffle_active: 3,
            shuffle_passive: 4,
            shuffle_every: Duration::from_secs(30),
            tick_every: Duration::from_secs(1),
            graft_timeout: Duration::from_secs(2),
            cache_capacity: 1024,
            rng_salt: 0,
        }
    }
}

impl GossipConfig {
    /// Caps the active view (connected peers treated as overlay neighbors).
    #[must_use]
    pub fn active_view(mut self, n: usize) -> Self {
        self.active_view = n.max(1);
        self
    }

    /// Caps the passive view (names remembered for later promotion).
    #[must_use]
    pub fn passive_view(mut self, n: usize) -> Self {
        self.passive_view = n;
        self
    }

    /// How many active-view names ride along in each shuffle.
    #[must_use]
    pub fn shuffle_active(mut self, n: usize) -> Self {
        self.shuffle_active = n;
        self
    }

    /// How many passive-view names ride along in each shuffle.
    #[must_use]
    pub fn shuffle_passive(mut self, n: usize) -> Self {
        self.shuffle_passive = n;
        self
    }

    /// Interval between periodic view shuffles.
    #[must_use]
    pub fn shuffle_every(mut self, every: Duration) -> Self {
        self.shuffle_every = every;
        self
    }

    /// Interval between gossip housekeeping ticks (graft retries, shuffles).
    #[must_use]
    pub fn tick_every(mut self, every: Duration) -> Self {
        self.tick_every = every;
        self
    }

    /// How long to wait for a grafted payload before asking another holder.
    #[must_use]
    pub fn graft_timeout(mut self, after: Duration) -> Self {
        self.graft_timeout = after;
        self
    }

    /// Bounds the per-node dedup/payload cache (entries, FIFO eviction).
    ///
    /// Size this well above the number of distinct message ids that can be
    /// in flight at once (the default, 1024, is plenty for every shipped
    /// scenario). Plumtree's duplicate suppression *is* this cache: an
    /// undersized cache forgets an id while copies of it still circulate,
    /// so the next copy looks fresh and is re-broadcast — in a dense mesh
    /// that recirculation feeds on itself and never quiesces.
    #[must_use]
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n.max(1);
        self
    }

    /// Salts the per-node RNG stream; harnesses pass the run seed here.
    #[must_use]
    pub fn rng_salt(mut self, salt: u64) -> Self {
        self.rng_salt = salt;
        self
    }

    /// Active-view bound.
    #[must_use]
    pub fn active_limit(&self) -> usize {
        self.active_view
    }

    /// Passive-view bound.
    #[must_use]
    pub fn passive_limit(&self) -> usize {
        self.passive_view
    }

    /// Housekeeping tick interval (drives the owner's timer).
    #[must_use]
    pub fn tick_interval(&self) -> Duration {
        self.tick_every
    }

    /// Shuffle interval.
    #[must_use]
    pub fn shuffle_interval(&self) -> Duration {
        self.shuffle_every
    }

    /// Dedup-cache bound.
    #[must_use]
    pub fn cache_limit(&self) -> usize {
        self.cache_capacity
    }

    /// RNG stream salt.
    #[must_use]
    pub fn salt(&self) -> u64 {
        self.rng_salt
    }
}

mod tag {
    pub const PUSH: u8 = 1;
    pub const IHAVE: u8 = 2;
    pub const GRAFT: u8 = 3;
    pub const PRUNE: u8 = 4;
    pub const SHUFFLE: u8 = 5;
    pub const SHUFFLE_REPLY: u8 = 6;
}

/// One gossip protocol message. Batches of these ride inside the community
/// wire protocol's `PS_GOSSIP` request/response pair; the sender is implied
/// by the connection the batch arrived on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipMsg {
    /// Eager push of a full payload, `hops` links from its origin.
    Push {
        /// Message id from [`message_id`].
        id: u64,
        /// Radio hops traveled so far (origin counts as 0).
        hops: u8,
        /// Opaque payload.
        payload: Bytes,
    },
    /// Lazy digest: "I hold these payloads, graft if you miss one."
    IHave {
        /// Cached message ids.
        ids: Vec<u64>,
    },
    /// Pull request for a payload previously announced via `IHave`.
    Graft {
        /// Message id to repair.
        id: u64,
    },
    /// Demote me to your lazy set; your pushes reach me another way.
    Prune,
    /// Periodic membership exchange carrying a sample of known peer names.
    Shuffle {
        /// Sampled names (includes the sender itself).
        peers: Vec<String>,
    },
    /// Reply half of a shuffle with the receiver's own sample.
    ShuffleReply {
        /// Sampled names.
        peers: Vec<String>,
    },
}

impl Wire for GossipMsg {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            GossipMsg::Push { id, hops, payload } => {
                out.push(tag::PUSH);
                id.encode_to(out);
                hops.encode_to(out);
                payload.encode_to(out);
            }
            GossipMsg::IHave { ids } => {
                out.push(tag::IHAVE);
                ids.encode_to(out);
            }
            GossipMsg::Graft { id } => {
                out.push(tag::GRAFT);
                id.encode_to(out);
            }
            GossipMsg::Prune => out.push(tag::PRUNE),
            GossipMsg::Shuffle { peers } => {
                out.push(tag::SHUFFLE);
                peers.encode_to(out);
            }
            GossipMsg::ShuffleReply { peers } => {
                out.push(tag::SHUFFLE_REPLY);
                peers.encode_to(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let t = u8::decode(input)?;
        match t {
            tag::PUSH => Ok(GossipMsg::Push {
                id: u64::decode(input)?,
                hops: u8::decode(input)?,
                payload: Bytes::decode(input)?,
            }),
            tag::IHAVE => Ok(GossipMsg::IHave {
                ids: Vec::<u64>::decode(input)?,
            }),
            tag::GRAFT => Ok(GossipMsg::Graft {
                id: u64::decode(input)?,
            }),
            tag::PRUNE => Ok(GossipMsg::Prune),
            tag::SHUFFLE => Ok(GossipMsg::Shuffle {
                peers: Vec::<String>::decode(input)?,
            }),
            tag::SHUFFLE_REPLY => Ok(GossipMsg::ShuffleReply {
                peers: Vec::<String>::decode(input)?,
            }),
            other => Err(DecodeError::BadTag {
                what: "GossipMsg",
                tag: other,
            }),
        }
    }
}

/// Encodes a batch of gossip messages (the payload of one wire frame).
pub fn encode_batch(msgs: &[GossipMsg], out: &mut Vec<u8>) {
    encode_seq(msgs, out);
}

/// Decodes a batch written by [`encode_batch`].
///
/// # Errors
///
/// Propagates any [`DecodeError`] from the length prefix or an element.
pub fn decode_batch(input: &mut &[u8]) -> Result<Vec<GossipMsg>, DecodeError> {
    decode_seq(input)
}

/// Broadcast-layer counters, mirrored into `TraceStats` by the harnesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Full payloads pushed eagerly (per peer, per message).
    pub eager: u64,
    /// `IHAVE` id announcements sent (per peer, per id).
    pub lazy: u64,
    /// `GRAFT` repair requests sent.
    pub graft: u64,
    /// `PRUNE` demotions sent in response to duplicate pushes.
    pub prune: u64,
    /// Duplicate pushes received (overhead: duplicates per delivered payload).
    pub duplicate: u64,
}

/// A payload that reached this node for the first time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Message id.
    pub id: u64,
    /// Radio hops from the origin.
    pub hops: u8,
    /// Connected peer that delivered it.
    pub from: Arc<str>,
    /// The payload itself.
    pub payload: Bytes,
}

#[derive(Clone, Debug)]
struct CacheEntry {
    hops: u8,
    payload: Bytes,
}

#[derive(Clone, Debug)]
struct MissingEntry {
    providers: Vec<Arc<str>>,
    asked: usize,
    deadline: SimTime,
}

/// The per-node gossip state machine. See the module docs for the protocol
/// shape and the IO contract.
#[derive(Clone, Debug)]
pub struct Gossip {
    me: String,
    cfg: GossipConfig,
    rng: SimRng,
    connected: BTreeSet<Arc<str>>,
    active: BTreeSet<Arc<str>>,
    passive: BTreeSet<Arc<str>>,
    /// Active peers demoted off the eager tree by a `Prune`.
    lazy: BTreeSet<Arc<str>>,
    cache: BTreeMap<u64, CacheEntry>,
    cache_order: VecDeque<u64>,
    missing: BTreeMap<u64, MissingEntry>,
    next_shuffle: SimTime,
    outbox: Vec<(Arc<str>, GossipMsg)>,
    /// `IHave` ids queued per peer since the last [`Gossip::take_outbox`],
    /// which appends them as one message per peer.
    lazy_ids: BTreeMap<Arc<str>, Vec<u64>>,
    stats: GossipStats,
}

impl Gossip {
    /// Creates the state machine for node `me`. The RNG stream is derived
    /// from the config salt and the node name, so two nodes in the same run
    /// draw from independent deterministic streams.
    pub fn new(me: impl Into<String>, cfg: GossipConfig) -> Gossip {
        let me = me.into();
        let seed = GOSSIP_STREAM ^ cfg.rng_salt ^ Fnv1a::hash(me.as_bytes());
        let next_shuffle = SimTime::ZERO + cfg.shuffle_every;
        Gossip {
            me,
            rng: SimRng::from_seed(seed),
            connected: BTreeSet::new(),
            active: BTreeSet::new(),
            passive: BTreeSet::new(),
            lazy: BTreeSet::new(),
            cache: BTreeMap::new(),
            cache_order: VecDeque::new(),
            missing: BTreeMap::new(),
            next_shuffle,
            outbox: Vec::new(),
            lazy_ids: BTreeMap::new(),
            stats: GossipStats::default(),
            cfg,
        }
    }

    /// This node's name.
    #[must_use]
    pub fn me(&self) -> &str {
        &self.me
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &GossipConfig {
        &self.cfg
    }

    /// Connected peers currently treated as overlay neighbors (≤ bound).
    #[must_use]
    pub fn active_view(&self) -> &BTreeSet<Arc<str>> {
        &self.active
    }

    /// Known-but-not-active peer names (≤ bound, disjoint from active).
    #[must_use]
    pub fn passive_view(&self) -> &BTreeSet<Arc<str>> {
        &self.passive
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> GossipStats {
        self.stats
    }

    /// Number of cached payloads.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// True once `id` has been published to or delivered at this node.
    #[must_use]
    pub fn has_seen(&self, id: u64) -> bool {
        self.cache.contains_key(&id)
    }

    /// A radio link to `peer` came up. Promotes it into the views and
    /// announces every cached payload id so store-and-forward works across
    /// bubbles (the ferry pattern).
    pub fn neighbor_up(&mut self, peer: &Arc<str>, _now: SimTime) {
        if **peer == *self.me {
            return;
        }
        self.connected.insert(Arc::clone(peer));
        self.admit(peer);
        self.rebalance();
        if !self.cache.is_empty() {
            self.stats.lazy += self.cache_order.len() as u64;
            self.lazy_ids
                .entry(Arc::clone(peer))
                .or_default()
                .extend(&self.cache_order);
        }
    }

    /// The radio link to `peer` is gone. Demotes it to the passive view and
    /// force-promotes a replacement if one is in range (active-view failure).
    pub fn neighbor_down(&mut self, peer: &str, _now: SimTime) {
        self.connected.remove(peer);
        self.lazy.remove(peer);
        if let Some(demoted) = self.active.take(peer) {
            self.insert_passive(&demoted);
        }
        for entry in self.missing.values_mut() {
            entry.providers.retain(|p| **p != *peer);
        }
        self.rebalance();
    }

    /// Publishes a locally-originated payload: caches it, eager-pushes to
    /// the tree, and lazily announces to everyone else.
    pub fn publish(&mut self, id: u64, payload: Bytes, _now: SimTime) {
        if self.cache.contains_key(&id) {
            return;
        }
        self.insert_cache(id, 0, payload);
        self.broadcast(id, None);
    }

    /// Handles one message from a connected `peer`, returning any payloads
    /// that reached this node for the first time.
    pub fn on_msg(&mut self, peer: &Arc<str>, msg: GossipMsg, now: SimTime) -> Vec<Delivery> {
        if **peer == *self.me {
            return Vec::new();
        }
        // Messages arrive over live connections; be defensive about a missed
        // neighbor_up so the views never desynchronize from the transport.
        if !self.connected.contains(peer) {
            self.connected.insert(Arc::clone(peer));
            self.admit(peer);
            self.rebalance();
        }
        match msg {
            GossipMsg::Push { id, hops, payload } => {
                if self.cache.contains_key(&id) {
                    self.stats.duplicate += 1;
                    self.stats.prune += 1;
                    self.outbox.push((Arc::clone(peer), GossipMsg::Prune));
                    if self.active.contains(peer) {
                        self.lazy.insert(Arc::clone(peer));
                    }
                    return Vec::new();
                }
                self.missing.remove(&id);
                self.insert_cache(id, hops, payload.clone());
                // First delivery repairs the tree: the deliverer is an eager
                // edge from now on.
                self.lazy.remove(peer);
                self.broadcast(id, Some(peer));
                vec![Delivery {
                    id,
                    hops,
                    from: Arc::clone(peer),
                    payload,
                }]
            }
            GossipMsg::IHave { ids } => {
                for id in ids {
                    if self.cache.contains_key(&id) {
                        continue;
                    }
                    let entry = self.missing.entry(id).or_insert(MissingEntry {
                        providers: Vec::new(),
                        asked: 0,
                        deadline: SimTime::ZERO,
                    });
                    if !entry.providers.contains(peer) {
                        entry.providers.push(Arc::clone(peer));
                    }
                    if entry.providers.len() == 1 {
                        entry.deadline = now + self.cfg.graft_timeout;
                        self.stats.graft += 1;
                        self.outbox
                            .push((Arc::clone(peer), GossipMsg::Graft { id }));
                    }
                }
                Vec::new()
            }
            GossipMsg::Graft { id } => {
                self.lazy.remove(peer);
                if let Some(entry) = self.cache.get(&id) {
                    let hops = entry.hops.saturating_add(1);
                    let payload = entry.payload.clone();
                    self.stats.eager += 1;
                    self.outbox
                        .push((Arc::clone(peer), GossipMsg::Push { id, hops, payload }));
                }
                Vec::new()
            }
            GossipMsg::Prune => {
                if self.active.contains(peer) {
                    self.lazy.insert(Arc::clone(peer));
                }
                Vec::new()
            }
            GossipMsg::Shuffle { peers } => {
                for name in peers {
                    self.insert_passive(&Arc::from(name));
                }
                let sample = self.sample_peers(peer);
                self.outbox
                    .push((Arc::clone(peer), GossipMsg::ShuffleReply { peers: sample }));
                Vec::new()
            }
            GossipMsg::ShuffleReply { peers } => {
                for name in peers {
                    self.insert_passive(&Arc::from(name));
                }
                Vec::new()
            }
        }
    }

    /// Periodic housekeeping: graft retries for still-missing payloads and
    /// the shuffle timer. Call once per [`GossipConfig::tick_interval`].
    pub fn on_tick(&mut self, now: SimTime) {
        self.retry_grafts(now);
        if now >= self.next_shuffle {
            self.next_shuffle = now + self.cfg.shuffle_every;
            self.shuffle();
        }
    }

    /// Drains queued `(destination, message)` pairs for the transport. The
    /// ids announced to one peer since the last call go out as one `IHave`,
    /// after every other message to that peer, so a payload pushed in the
    /// same flush arrives before its announcement and is never grafted.
    pub fn take_outbox(&mut self) -> Vec<(Arc<str>, GossipMsg)> {
        let mut out = std::mem::take(&mut self.outbox);
        let lazy = std::mem::take(&mut self.lazy_ids);
        out.extend(
            lazy.into_iter()
                .map(|(peer, ids)| (peer, GossipMsg::IHave { ids })),
        );
        out
    }

    fn retry_grafts(&mut self, now: SimTime) {
        let timeout = self.cfg.graft_timeout;
        let mut grafts: Vec<(Arc<str>, u64)> = Vec::new();
        for (&id, entry) in &mut self.missing {
            if entry.deadline > now || entry.providers.is_empty() {
                continue;
            }
            // The previous holder never answered; rotate to the next one
            // that is still in range.
            let n = entry.providers.len();
            for step in 1..=n {
                let idx = (entry.asked + step) % n;
                if self.connected.contains(&entry.providers[idx]) {
                    entry.asked = idx;
                    grafts.push((Arc::clone(&entry.providers[idx]), id));
                    break;
                }
            }
            entry.deadline = now + timeout;
        }
        for (peer, id) in grafts {
            self.stats.graft += 1;
            self.outbox.push((peer, GossipMsg::Graft { id }));
        }
    }

    fn shuffle(&mut self) {
        let candidates: Vec<Arc<str>> = self
            .active
            .iter()
            .filter(|p| self.connected.contains(*p))
            .cloned()
            .collect();
        let Some(target) = self.rng.pick(&candidates).cloned() else {
            return;
        };
        let peers = self.sample_peers(&target);
        self.outbox.push((target, GossipMsg::Shuffle { peers }));
    }

    /// Samples `shuffle_active` active + `shuffle_passive` passive names
    /// (plus this node itself, so shuffles spread our own name).
    fn sample_peers(&mut self, exclude: &str) -> Vec<String> {
        let mut sample = vec![self.me.clone()];
        let mut actives: Vec<&Arc<str>> = self.active.iter().filter(|p| ***p != *exclude).collect();
        self.rng.shuffle(&mut actives);
        actives.truncate(self.cfg.shuffle_active);
        let mut passives: Vec<&Arc<str>> =
            self.passive.iter().filter(|p| ***p != *exclude).collect();
        self.rng.shuffle(&mut passives);
        passives.truncate(self.cfg.shuffle_passive);
        sample.extend(actives.into_iter().chain(passives).map(|p| p.to_string()));
        sample
    }

    /// Pushes `id` to eager connected peers and announces it to every other
    /// connected peer, skipping `via` (who just gave it to us).
    fn broadcast(&mut self, id: u64, via: Option<&Arc<str>>) {
        let entry = &self.cache[&id];
        let hops = entry.hops.saturating_add(1);
        let payload = entry.payload.clone();
        let mut pushes: Vec<Arc<str>> = Vec::new();
        let mut announces: Vec<Arc<str>> = Vec::new();
        for peer in &self.connected {
            if via.is_some_and(|v| **v == **peer) {
                continue;
            }
            if self.active.contains(peer) && !self.lazy.contains(peer) {
                pushes.push(peer.clone());
            } else {
                announces.push(peer.clone());
            }
        }
        for peer in pushes {
            self.stats.eager += 1;
            self.outbox.push((
                peer,
                GossipMsg::Push {
                    id,
                    hops,
                    payload: payload.clone(),
                },
            ));
        }
        for peer in announces {
            self.stats.lazy += 1;
            self.lazy_ids.entry(peer).or_default().push(id);
        }
    }

    /// Admits a freshly-connected peer into the views: straight into the
    /// active view while it has room, otherwise parked in the passive view.
    fn admit(&mut self, peer: &Arc<str>) {
        if **peer == *self.me || self.active.contains(peer) {
            return;
        }
        if self.active.len() < self.cfg.active_view {
            self.passive.remove(peer);
            self.active.insert(Arc::clone(peer));
        } else {
            self.insert_passive(peer);
        }
    }

    /// Forced promotion: whenever the active view is under its bound and a
    /// connected peer sits in the passive view, promote one at random.
    fn rebalance(&mut self) {
        while self.active.len() < self.cfg.active_view {
            let candidates: Vec<Arc<str>> = self
                .passive
                .iter()
                .filter(|p| self.connected.contains(*p))
                .cloned()
                .collect();
            let Some(pick) = self.rng.pick(&candidates).cloned() else {
                return;
            };
            self.passive.remove(&pick);
            self.active.insert(pick);
        }
    }

    fn insert_passive(&mut self, peer: &Arc<str>) {
        if **peer == *self.me || self.active.contains(peer) || self.passive.contains(peer) {
            return;
        }
        while self.passive.len() >= self.cfg.passive_view {
            let names: Vec<Arc<str>> = self.passive.iter().cloned().collect();
            let Some(evict) = self.rng.pick(&names).cloned() else {
                return;
            };
            self.passive.remove(&evict);
        }
        if self.cfg.passive_view > 0 {
            self.passive.insert(Arc::clone(peer));
        }
    }

    fn insert_cache(&mut self, id: u64, hops: u8, payload: Bytes) {
        while self.cache.len() >= self.cfg.cache_capacity {
            if let Some(old) = self.cache_order.pop_front() {
                self.cache.remove(&old);
            } else {
                break;
            }
        }
        self.cache.insert(id, CacheEntry { hops, payload });
        self.cache_order.push_back(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GossipConfig {
        GossipConfig::default().rng_salt(7)
    }

    fn n(name: &str) -> Arc<str> {
        Arc::from(name)
    }

    fn all_msgs() -> Vec<GossipMsg> {
        vec![
            GossipMsg::Push {
                id: 42,
                hops: 3,
                payload: Bytes::from(b"payload".to_vec()),
            },
            GossipMsg::IHave { ids: vec![1, 2, 3] },
            GossipMsg::Graft { id: 9 },
            GossipMsg::Prune,
            GossipMsg::Shuffle {
                peers: vec!["a".into(), "b".into()],
            },
            GossipMsg::ShuffleReply {
                peers: vec!["c".into()],
            },
        ]
    }

    #[test]
    fn every_gossip_msg_round_trips() {
        for msg in all_msgs() {
            let bytes = msg.encode();
            let back = GossipMsg::decode_exact(&bytes).expect("decode");
            assert_eq!(msg, back);
        }
    }

    #[test]
    fn batch_round_trips() {
        let msgs = all_msgs();
        let mut out = Vec::new();
        encode_batch(&msgs, &mut out);
        let mut input = out.as_slice();
        let back = decode_batch(&mut input).expect("decode batch");
        assert!(input.is_empty());
        assert_eq!(msgs, back);
    }

    #[test]
    fn bad_tag_rejected() {
        let err = GossipMsg::decode_exact(&[0x7f]).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::BadTag {
                what: "GossipMsg",
                ..
            }
        ));
    }

    #[test]
    fn neighbor_up_promotes_until_bound() {
        let mut g = Gossip::new("me", cfg().active_view(2));
        let t = SimTime::ZERO;
        g.neighbor_up(&n("a"), t);
        g.neighbor_up(&n("b"), t);
        g.neighbor_up(&n("c"), t);
        assert_eq!(g.active_view().len(), 2);
        assert!(g.passive_view().contains("c"));
    }

    #[test]
    fn neighbor_down_force_promotes_connected_passive() {
        let mut g = Gossip::new("me", cfg().active_view(1));
        let t = SimTime::ZERO;
        g.neighbor_up(&n("a"), t);
        g.neighbor_up(&n("b"), t);
        assert!(g.active_view().contains("a"));
        assert!(g.passive_view().contains("b"));
        g.neighbor_down("a", t);
        // b was in range, so it is force-promoted into the emptied slot.
        assert!(g.active_view().contains("b"));
        assert!(g.passive_view().contains("a"));
    }

    #[test]
    fn publish_reaches_connected_peer() {
        let t = SimTime::ZERO;
        let mut a = Gossip::new("a", cfg());
        let mut b = Gossip::new("b", cfg());
        a.neighbor_up(&n("b"), t);
        b.neighbor_up(&n("a"), t);
        a.take_outbox();
        b.take_outbox();
        a.publish(message_id("a", 0), Bytes::from(b"hello".to_vec()), t);
        let out = a.take_outbox();
        assert_eq!(out.len(), 1);
        let (dest, msg) = out.into_iter().next().unwrap();
        assert_eq!(&*dest, "b");
        let delivered = b.on_msg(&n("a"), msg, t);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, Bytes::from(b"hello".to_vec()));
        assert_eq!(delivered[0].hops, 1);
    }

    #[test]
    fn duplicate_push_prunes_sender() {
        let t = SimTime::ZERO;
        let mut b = Gossip::new("b", cfg());
        b.neighbor_up(&n("a"), t);
        b.neighbor_up(&n("c"), t);
        b.take_outbox();
        let push = GossipMsg::Push {
            id: 1,
            hops: 1,
            payload: Bytes::from(b"x".to_vec()),
        };
        assert_eq!(b.on_msg(&n("a"), push.clone(), t).len(), 1);
        assert_eq!(b.on_msg(&n("c"), push, t).len(), 0);
        assert_eq!(b.stats().duplicate, 1);
        let prunes: Vec<_> = b
            .take_outbox()
            .into_iter()
            .filter(|(dest, msg)| &**dest == "c" && matches!(msg, GossipMsg::Prune))
            .collect();
        assert_eq!(prunes.len(), 1);
    }

    #[test]
    fn ihave_triggers_graft_and_repair() {
        let t = SimTime::ZERO;
        let mut a = Gossip::new("a", cfg());
        let mut b = Gossip::new("b", cfg());
        a.neighbor_up(&n("b"), t);
        b.neighbor_up(&n("a"), t);
        a.take_outbox();
        b.take_outbox();
        let id = message_id("a", 1);
        a.publish(id, Bytes::from(b"blob".to_vec()), t);
        a.take_outbox();
        // b hears only the digest (as if it connected late)...
        b.on_msg(&n("a"), GossipMsg::IHave { ids: vec![id] }, t);
        let graft = b
            .take_outbox()
            .into_iter()
            .find(|(dest, msg)| &**dest == "a" && matches!(msg, GossipMsg::Graft { .. }))
            .expect("graft queued");
        assert_eq!(b.stats().graft, 1);
        // ...and the graft pulls the payload across.
        a.on_msg(&n("b"), graft.1, t);
        let (_, push) = a
            .take_outbox()
            .into_iter()
            .find(|(dest, _)| &**dest == "b")
            .expect("push queued");
        let delivered = b.on_msg(&n("a"), push, t);
        assert_eq!(delivered.len(), 1);
        assert!(b.has_seen(id));
    }

    #[test]
    fn lazy_announcements_to_one_peer_coalesce_per_flush() {
        let t = SimTime::ZERO;
        let mut g = Gossip::new("g", cfg().active_view(1));
        g.neighbor_up(&n("eager"), t);
        g.neighbor_up(&n("lazy"), t);
        g.take_outbox();
        let ids: Vec<u64> = (0..3).map(|seq| message_id("g", seq)).collect();
        for &id in &ids {
            g.publish(id, Bytes::from(vec![1]), t);
        }
        assert_eq!(g.stats().lazy, 3, "stats count ids, not messages");
        let to_lazy: Vec<GossipMsg> = g
            .take_outbox()
            .into_iter()
            .filter(|(dest, _)| &**dest == "lazy")
            .map(|(_, msg)| msg)
            .collect();
        assert_eq!(to_lazy, [GossipMsg::IHave { ids }]);
        // The next flush starts afresh.
        g.publish(message_id("g", 3), Bytes::from(vec![1]), t);
        let out = g.take_outbox();
        let ihaves: Vec<&GossipMsg> = out
            .iter()
            .filter(|(dest, _)| &**dest == "lazy")
            .map(|(_, msg)| msg)
            .collect();
        assert_eq!(
            ihaves,
            [&GossipMsg::IHave {
                ids: vec![message_id("g", 3)]
            }]
        );
    }

    #[test]
    fn graft_retries_rotate_to_live_provider() {
        let t0 = SimTime::ZERO;
        let mut b = Gossip::new("b", cfg());
        b.neighbor_up(&n("a"), t0);
        b.neighbor_up(&n("c"), t0);
        b.take_outbox();
        b.on_msg(&n("a"), GossipMsg::IHave { ids: vec![5] }, t0);
        b.on_msg(&n("c"), GossipMsg::IHave { ids: vec![5] }, t0);
        b.take_outbox();
        // a never answers and drops off; the retry must target c.
        b.neighbor_down("a", t0);
        let t1 = t0 + Duration::from_secs(5);
        b.on_tick(t1);
        let grafts: Vec<_> = b
            .take_outbox()
            .into_iter()
            .filter(|(_, msg)| matches!(msg, GossipMsg::Graft { id: 5 }))
            .collect();
        assert_eq!(grafts.len(), 1);
        assert_eq!(&*grafts[0].0, "c");
    }

    #[test]
    fn shuffle_spreads_names_into_passive_view() {
        let t = SimTime::ZERO;
        let mut a = Gossip::new("a", cfg());
        let mut b = Gossip::new("b", cfg());
        a.neighbor_up(&n("b"), t);
        a.neighbor_up(&n("x"), t);
        a.neighbor_down("x", t);
        b.neighbor_up(&n("a"), t);
        a.take_outbox();
        b.take_outbox();
        let horizon = SimTime::ZERO + Duration::from_secs(120);
        a.on_tick(horizon);
        let shuffles: Vec<_> = a
            .take_outbox()
            .into_iter()
            .filter(|(_, msg)| matches!(msg, GossipMsg::Shuffle { .. }))
            .collect();
        assert_eq!(shuffles.len(), 1);
        let (dest, msg) = shuffles.into_iter().next().unwrap();
        assert_eq!(&*dest, "b");
        b.on_msg(&n("a"), msg, t);
        // b learned about x (and a itself was filtered as already active).
        assert!(b.passive_view().contains("x"));
        let reply = b
            .take_outbox()
            .into_iter()
            .find(|(_, m)| matches!(m, GossipMsg::ShuffleReply { .. }));
        assert!(reply.is_some());
    }

    #[test]
    fn cache_is_bounded_fifo() {
        let t = SimTime::ZERO;
        let mut g = Gossip::new("g", cfg().cache_capacity(4));
        for seq in 0..10u64 {
            g.publish(message_id("g", seq), Bytes::from(vec![seq as u8]), t);
        }
        assert_eq!(g.cache_len(), 4);
        assert!(!g.has_seen(message_id("g", 0)));
        assert!(g.has_seen(message_id("g", 9)));
    }

    #[test]
    fn views_never_contain_self() {
        let t = SimTime::ZERO;
        let mut g = Gossip::new("me", cfg());
        g.neighbor_up(&n("me"), t);
        g.on_msg(
            &n("a"),
            GossipMsg::Shuffle {
                peers: vec!["me".into(), "z".into()],
            },
            t,
        );
        assert!(!g.active_view().contains("me"));
        assert!(!g.passive_view().contains("me"));
        assert!(g.passive_view().contains("z"));
    }
}
