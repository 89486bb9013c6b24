//! Message-sequence tracing.
//!
//! The thesis documents its reference implementation with message sequence
//! charts (Figures 11–17). To *reproduce a figure* we record every protocol
//! message exchanged during a simulated operation into a [`Trace`], assert
//! the recorded sequence in tests, and render it as an ASCII MSC from the
//! `repro msc` harness command.
//!
//! At evaluation scale (hundreds to a thousand nodes) a naive trace — three
//! owned `String`s per event in an unbounded `Vec` — dominates both heap
//! traffic and memory. The trace therefore stores events *interned*: actor
//! and label strings live once in a string pool and each event is a fixed
//! 20-byte record of [`ActorId`]/[`LabelId`] handles. The event log is a
//! ring buffer with a configurable capacity ([`Trace::with_capacity`]);
//! when full, the oldest events are evicted but the always-on counters in
//! [`TraceStats`] keep counting, so aggregate figures survive even when the
//! verbatim log does not.

use codec::{DecodeError, Wire};
use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::time::SimTime;

/// Interned handle for an actor (device) name in a [`Trace`]'s string pool.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(u32);

/// Interned handle for a message label in a [`Trace`]'s string pool.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(u32);

/// One traced protocol event: a labelled message from one actor to another.
///
/// Actors are free-form strings (device names); a self-directed event
/// (`from == to`) represents a local action such as "display list".
///
/// This is the *resolved* (owned-string) view handed out by query methods;
/// internally the trace stores compact interned records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time at which the event occurred.
    pub at: SimTime,
    /// Originating actor.
    pub from: String,
    /// Receiving actor.
    pub to: String,
    /// Message label, e.g. `PS_GETPROFILE` or `NO_MEMBERS_YET`.
    pub label: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.from == self.to {
            write!(f, "[{}] {}: {}", self.at, self.from, self.label)
        } else {
            write!(
                f,
                "[{}] {} -> {}: {}",
                self.at, self.from, self.to, self.label
            )
        }
    }
}

// SimTime travels on the wire as its microsecond count.
impl Wire for SimTime {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.as_micros().encode_to(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        u64::decode(input).map(SimTime::from_micros)
    }
}

/// Always-on counters for one simulation run.
///
/// These are cheap enough to maintain at any scale: aggregate figures remain
/// exact even when the bounded event ring has evicted the verbatim log. The
/// event-kind counters are updated by [`Trace::record`]; the frame and
/// daemon-level counters are bumped by the simulation driver (the peerhood
/// `Cluster`) via [`Trace::stats_mut`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events ever recorded (including evicted ones).
    pub events_recorded: u64,
    /// Events evicted from the bounded ring.
    pub events_dropped: u64,
    /// Recorded events with distinct from/to actors (messages on the wire).
    pub messages: u64,
    /// Recorded self-directed events (local actions).
    pub local_events: u64,
    /// Frames handed to the radio layer.
    pub frames_sent: u64,
    /// Frames that arrived at their destination.
    pub frames_delivered: u64,
    /// Frames lost to range, link failure or injected faults (data and
    /// SDP query/reply frames alike).
    pub frames_dropped: u64,
    /// Payload bytes handed to the radio layer.
    pub bytes_sent: u64,
    /// Payload bytes that arrived.
    pub bytes_delivered: u64,
    /// Discovery (inquiry) rounds started.
    pub inquiries: u64,
    /// Devices found by discovery rounds.
    pub inquiry_responses: u64,
    /// Connection attempts initiated.
    pub connects_attempted: u64,
    /// Connections successfully established.
    pub connects_ok: u64,
    /// Connection attempts that failed.
    pub connects_failed: u64,
    /// Seamless-connectivity handovers performed.
    pub handovers: u64,
    /// Remote service-list queries issued.
    pub service_queries: u64,
    /// Of `connects_failed`: attempts that died because the peer moved out
    /// of range *mid-setup* (after paging had begun), as opposed to
    /// range/refusal checks at initiation.
    pub connects_lost_setup: u64,
    /// Recovery: operations re-issued after a timeout or failure (backoff
    /// retries of connections, service queries and community requests).
    pub retries: u64,
    /// Recovery: deadlines that expired (connection attempts and service
    /// queries that never answered in time).
    pub timeouts: u64,
    /// Recovery: operations abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Recovery: connections successfully resumed (make-before-break
    /// handover rebinds after link death).
    pub resumed: u64,
    /// Gossip: full payloads pushed eagerly along the broadcast tree.
    pub gossip_eager: u64,
    /// Gossip: lazy `IHAVE` id announcements sent.
    pub gossip_lazy: u64,
    /// Gossip: `GRAFT` repair requests sent for missing payloads.
    pub gossip_graft: u64,
    /// Gossip: `PRUNE` demotions sent on duplicate pushes.
    pub gossip_prune: u64,
    /// Gossip: duplicate pushes received (dissemination overhead).
    pub gossip_duplicate: u64,
}

impl TraceStats {
    /// Adds another stats block counter-wise. Every field is a monotone sum,
    /// so folding per-worker deltas in *any* order reproduces the serial
    /// totals exactly — the property the parallel epoch engine's outbox
    /// commit relies on. Callers merging worker deltas must leave
    /// `events_recorded`/`events_dropped`/`messages`/`local_events` at zero
    /// in the delta: those four are owned by the trace-record replay.
    pub fn add(&mut self, d: &TraceStats) {
        self.events_recorded += d.events_recorded;
        self.events_dropped += d.events_dropped;
        self.messages += d.messages;
        self.local_events += d.local_events;
        self.frames_sent += d.frames_sent;
        self.frames_delivered += d.frames_delivered;
        self.frames_dropped += d.frames_dropped;
        self.bytes_sent += d.bytes_sent;
        self.bytes_delivered += d.bytes_delivered;
        self.inquiries += d.inquiries;
        self.inquiry_responses += d.inquiry_responses;
        self.connects_attempted += d.connects_attempted;
        self.connects_ok += d.connects_ok;
        self.connects_failed += d.connects_failed;
        self.handovers += d.handovers;
        self.service_queries += d.service_queries;
        self.connects_lost_setup += d.connects_lost_setup;
        self.retries += d.retries;
        self.timeouts += d.timeouts;
        self.gave_up += d.gave_up;
        self.resumed += d.resumed;
        self.gossip_eager += d.gossip_eager;
        self.gossip_lazy += d.gossip_lazy;
        self.gossip_graft += d.gossip_graft;
        self.gossip_prune += d.gossip_prune;
        self.gossip_duplicate += d.gossip_duplicate;
    }

    /// Folds every counter into a deterministic FNV-1a digest, used by the
    /// determinism tests alongside [`Trace::digest`].
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for v in [
            self.events_recorded,
            self.events_dropped,
            self.messages,
            self.local_events,
            self.frames_sent,
            self.frames_delivered,
            self.frames_dropped,
            self.bytes_sent,
            self.bytes_delivered,
            self.inquiries,
            self.inquiry_responses,
            self.connects_attempted,
            self.connects_ok,
            self.connects_failed,
            self.handovers,
            self.service_queries,
        ] {
            h.write_u64(v);
        }
        // The fault/recovery counters joined later; they are folded in only
        // when at least one is nonzero so that fault-free runs keep the
        // digests they had before the counters existed.
        let recovery = [
            self.connects_lost_setup,
            self.retries,
            self.timeouts,
            self.gave_up,
            self.resumed,
        ];
        if recovery.iter().any(|&v| v != 0) {
            for v in recovery {
                h.write_u64(v);
            }
        }
        // Same late-joiner rule for the gossip counters: gossip-free runs
        // keep their pre-gossip digests bit-for-bit.
        let gossip = [
            self.gossip_eager,
            self.gossip_lazy,
            self.gossip_graft,
            self.gossip_prune,
            self.gossip_duplicate,
        ];
        if gossip.iter().any(|&v| v != 0) {
            for v in gossip {
                h.write_u64(v);
            }
        }
        h.finish()
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events={} (dropped {}), messages={}, local={}, frames sent/delivered/dropped={}/{}/{}, \
             bytes sent/delivered={}/{}, inquiries={} (responses {}), \
             connects ok/failed={}/{} (refused {}, lost mid-setup {}), handovers={}, \
             service queries={}, retries={}, timeouts={}, gave up={}, resumed={}, \
             gossip eager/lazy/graft/prune/dup={}/{}/{}/{}/{}",
            self.events_recorded,
            self.events_dropped,
            self.messages,
            self.local_events,
            self.frames_sent,
            self.frames_delivered,
            self.frames_dropped,
            self.bytes_sent,
            self.bytes_delivered,
            self.inquiries,
            self.inquiry_responses,
            self.connects_ok,
            self.connects_failed,
            self.connects_failed.saturating_sub(self.connects_lost_setup),
            self.connects_lost_setup,
            self.handovers,
            self.service_queries,
            self.retries,
            self.timeouts,
            self.gave_up,
            self.resumed,
            self.gossip_eager,
            self.gossip_lazy,
            self.gossip_graft,
            self.gossip_prune,
            self.gossip_duplicate,
        )
    }
}

/// Incremental FNV-1a (64-bit) — the repo-local digest primitive.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Interning pool: each distinct actor/label string is stored once.
#[derive(Clone, Debug, Default)]
struct StrPool {
    strings: Vec<Box<str>>,
    index: HashMap<Box<str>, u32>,
}

impl StrPool {
    /// Interns `s`; an owned `String` on a miss keeps its allocation.
    fn intern(&mut self, s: impl AsRef<str> + Into<Box<str>>) -> u32 {
        if let Some(&id) = self.index.get(s.as_ref()) {
            return id;
        }
        let id = self.strings.len() as u32;
        let s: Box<str> = s.into();
        self.index.insert(s.clone(), id);
        self.strings.push(s);
        id
    }

    fn get(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Heap bytes held by the pool (string payloads; map overhead estimated
    /// as one extra copy of the payload plus a fixed per-entry cost).
    fn approx_mem_bytes(&self) -> usize {
        let payload: usize = self.strings.iter().map(|s| s.len()).sum();
        payload * 2 + self.strings.len() * 48
    }
}

/// The interned 20-byte event record the ring buffer actually stores.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct CompactEvent {
    at: SimTime,
    from: ActorId,
    to: ActorId,
    label: LabelId,
}

/// An append-only log of trace events for one simulation run.
///
/// Events are stored interned (see the module docs); every query method
/// resolves handles back to strings, so the public surface still speaks
/// `&str`/[`TraceEvent`].
///
/// # Example
///
/// ```rust
/// use ph_netsim::{Trace, SimTime};
///
/// let mut trace = Trace::new();
/// trace.record(SimTime::from_secs(1), "client", "server", "PS_GETPROFILE");
/// trace.record(SimTime::from_secs(2), "server", "client", "PROFILE");
/// assert_eq!(trace.labels(), vec!["PS_GETPROFILE", "PROFILE"]);
/// ```
#[derive(Clone, Debug)]
pub struct Trace {
    pool: StrPool,
    events: VecDeque<CompactEvent>,
    capacity: usize,
    stats: TraceStats,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

// Two traces are equal when their retained, resolved event sequences are
// equal — pool layout and eviction history are representation details.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.events.len() == other.events.len()
            && self.events.iter().zip(other.events.iter()).all(|(a, b)| {
                a.at == b.at
                    && self.pool.get(a.from.0) == other.pool.get(b.from.0)
                    && self.pool.get(a.to.0) == other.pool.get(b.to.0)
                    && self.pool.get(a.label.0) == other.pool.get(b.label.0)
            })
    }
}

impl Trace {
    /// Creates an empty, unbounded trace.
    pub fn new() -> Self {
        Trace {
            pool: StrPool::default(),
            events: VecDeque::new(),
            capacity: usize::MAX,
            stats: TraceStats::default(),
        }
    }

    /// Creates an empty trace that retains at most `capacity` events,
    /// evicting the oldest when full. The ring storage is pre-allocated so
    /// the steady-state record path performs no heap allocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            pool: StrPool::default(),
            events: VecDeque::with_capacity(capacity),
            capacity,
            stats: TraceStats::default(),
        }
    }

    /// The maximum number of retained events (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Changes the retention bound, evicting oldest events if over the new
    /// bound.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.events.len() > capacity {
            self.events.pop_front();
            self.stats.events_dropped += 1;
        }
    }

    /// Interns an actor name, returning a stable handle for the zero-copy
    /// record path ([`Trace::record_ids`]). An owned `String` that is new
    /// to the pool is kept rather than copied.
    pub fn intern_actor(&mut self, name: impl AsRef<str> + Into<Box<str>>) -> ActorId {
        ActorId(self.pool.intern(name))
    }

    /// Interns a message label, returning a stable handle (see
    /// [`Trace::intern_actor`]).
    pub fn intern_label(&mut self, label: impl AsRef<str> + Into<Box<str>>) -> LabelId {
        LabelId(self.pool.intern(label))
    }

    /// Looks up an actor handle *without* interning: the read-only fast path
    /// for concurrent workers that buffer records against a frozen pool and
    /// fall back to owned strings on a miss.
    pub fn lookup_actor(&self, name: &str) -> Option<ActorId> {
        self.pool.lookup(name).map(ActorId)
    }

    /// Looks up a label handle without interning (see [`Trace::lookup_actor`]).
    pub fn lookup_label(&self, label: &str) -> Option<LabelId> {
        self.pool.lookup(label).map(LabelId)
    }

    /// The string behind an actor handle.
    pub fn actor_name(&self, id: ActorId) -> &str {
        self.pool.get(id.0)
    }

    /// The string behind a label handle.
    pub fn label_name(&self, id: LabelId) -> &str {
        self.pool.get(id.0)
    }

    /// Appends an event. Strings already present in the pool are not
    /// re-allocated; with pre-interned handles use [`Trace::record_ids`] to
    /// skip the pool lookups entirely.
    pub fn record(
        &mut self,
        at: SimTime,
        from: impl AsRef<str>,
        to: impl AsRef<str>,
        label: impl AsRef<str>,
    ) {
        let from = self.intern_actor(from.as_ref());
        let to = self.intern_actor(to.as_ref());
        let label = self.intern_label(label.as_ref());
        self.record_ids(at, from, to, label);
    }

    /// Appends an event from pre-interned handles: the allocation-free hot
    /// path (on a bounded trace the ring never grows).
    pub fn record_ids(&mut self, at: SimTime, from: ActorId, to: ActorId, label: LabelId) {
        self.stats.events_recorded += 1;
        if from == to {
            self.stats.local_events += 1;
        } else {
            self.stats.messages += 1;
        }
        if self.events.len() >= self.capacity {
            if self.capacity == 0 {
                self.stats.events_dropped += 1;
                return;
            }
            self.events.pop_front();
            self.stats.events_dropped += 1;
        }
        self.events.push_back(CompactEvent {
            at,
            from,
            to,
            label,
        });
    }

    /// The always-on counters.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Mutable access to the counters, for simulation drivers that account
    /// frames, inquiries, connects and handovers here.
    pub fn stats_mut(&mut self) -> &mut TraceStats {
        &mut self.stats
    }

    /// All retained events in order, resolved to owned strings.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.iter().map(|e| self.resolve(e)).collect()
    }

    fn resolve(&self, e: &CompactEvent) -> TraceEvent {
        TraceEvent {
            at: e.at,
            from: self.pool.get(e.from.0).to_owned(),
            to: self.pool.get(e.to.0).to_owned(),
            label: self.pool.get(e.label.0).to_owned(),
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The sequence of labels, in recording order.
    pub fn labels(&self) -> Vec<&str> {
        self.events
            .iter()
            .map(|e| self.pool.get(e.label.0))
            .collect()
    }

    /// Whether `needle` labels occur in order (not necessarily contiguously).
    pub fn contains_subsequence(&self, needle: &[&str]) -> bool {
        let mut it = needle.iter();
        let mut want = match it.next() {
            Some(w) => *w,
            None => return true,
        };
        for e in &self.events {
            if self.pool.get(e.label.0) == want {
                match it.next() {
                    Some(w) => want = *w,
                    None => return true,
                }
            }
        }
        false
    }

    /// Approximate heap footprint in bytes: ring storage plus string pool.
    /// Used by the scale harness to report peak trace memory.
    pub fn approx_mem_bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<CompactEvent>() + self.pool.approx_mem_bytes()
    }

    /// A deterministic FNV-1a digest of the retained events and the
    /// counters. Two runs of the same seeded scenario must agree on this.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for e in &self.events {
            h.write_u64(e.at.as_micros());
            h.write(self.pool.get(e.from.0).as_bytes());
            h.write(&[0xff]);
            h.write(self.pool.get(e.to.0).as_bytes());
            h.write(&[0xff]);
            h.write(self.pool.get(e.label.0).as_bytes());
            h.write(&[0xfe]);
        }
        h.write_u64(self.stats.digest());
        h.finish()
    }

    /// Renders the trace as an ASCII message sequence chart with one column
    /// per actor (in order of first appearance), mirroring the thesis's MSC
    /// figures.
    pub fn render_msc(&self) -> String {
        let mut actors: Vec<&str> = Vec::new();
        for e in &self.events {
            for actor in [self.pool.get(e.from.0), self.pool.get(e.to.0)] {
                if !actors.contains(&actor) {
                    actors.push(actor);
                }
            }
        }
        if actors.is_empty() {
            return String::from("(empty trace)\n");
        }
        let col_width = actors.iter().map(|a| a.len()).max().unwrap_or(0).max(12) + 4;
        let column = |actor: &str| actors.iter().position(|a| *a == actor).unwrap();
        let center = |i: usize| 10 + i * col_width + col_width / 2;

        let mut out = String::new();
        // Header row.
        out.push_str(&" ".repeat(10));
        for a in &actors {
            let pad = col_width - a.len();
            let left = pad / 2;
            out.push_str(&" ".repeat(left));
            out.push_str(a);
            out.push_str(&" ".repeat(pad - left));
        }
        out.push('\n');
        for e in &self.events {
            let (from, to, label) = (
                self.pool.get(e.from.0),
                self.pool.get(e.to.0),
                self.pool.get(e.label.0),
            );
            let (ci, cj) = (column(from), column(to));
            let time = format!("{:>8} ", e.at);
            let mut line: Vec<char> = format!("{}{}", time, " ".repeat(actors.len() * col_width))
                .chars()
                .collect();
            for (i, _) in actors.iter().enumerate() {
                line[center(i)] = '|';
            }
            if ci == cj {
                // Local action: annotate beside the actor's lifeline.
                let start = center(ci) + 2;
                for (k, ch) in format!("* {}", label).chars().enumerate() {
                    if start + k < line.len() {
                        line[start + k] = ch;
                    }
                }
            } else {
                let (lo, hi) = if ci < cj {
                    (center(ci), center(cj))
                } else {
                    (center(cj), center(ci))
                };
                for cell in line.iter_mut().take(hi).skip(lo + 1) {
                    *cell = '-';
                }
                if ci < cj {
                    line[hi - 1] = '>';
                } else {
                    line[lo + 1] = '<';
                }
                // Overlay the label mid-arrow.
                let label: Vec<char> = label.chars().collect();
                let mid = (lo + hi) / 2;
                let start = mid.saturating_sub(label.len() / 2).max(lo + 2);
                for (k, ch) in label.iter().enumerate() {
                    let pos = start + k;
                    if pos < hi - 1 {
                        line[pos] = *ch;
                    }
                }
            }
            out.push_str(line.iter().collect::<String>().trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record(SimTime::from_secs(1), "client", "server1", "PS_GETPROFILE");
        t.record(SimTime::from_secs(2), "server1", "client", "PROFILE_INFO");
        t.record(SimTime::from_secs(3), "client", "client", "DISPLAY");
        t
    }

    #[test]
    fn labels_in_order() {
        assert_eq!(
            sample().labels(),
            vec!["PS_GETPROFILE", "PROFILE_INFO", "DISPLAY"]
        );
    }

    #[test]
    fn subsequence_matching() {
        let t = sample();
        assert!(t.contains_subsequence(&["PS_GETPROFILE", "DISPLAY"]));
        assert!(t.contains_subsequence(&[]));
        assert!(!t.contains_subsequence(&["DISPLAY", "PS_GETPROFILE"]));
        assert!(!t.contains_subsequence(&["MISSING"]));
    }

    #[test]
    fn msc_renders_all_actors_and_labels() {
        let msc = sample().render_msc();
        assert!(msc.contains("client"));
        assert!(msc.contains("server1"));
        assert!(msc.contains("PS_GETPROFILE"));
        assert!(msc.contains("* DISPLAY"));
    }

    #[test]
    fn msc_empty_trace() {
        assert_eq!(Trace::new().render_msc(), "(empty trace)\n");
    }

    #[test]
    fn event_display_forms() {
        let t = sample();
        let arrow = t.events()[0].to_string();
        assert!(arrow.contains("client -> server1"));
        let local = t.events()[2].to_string();
        assert!(local.contains("client: DISPLAY"));
    }

    #[test]
    fn interning_reuses_pool_entries() {
        let mut t = Trace::new();
        let a = t.intern_actor("alice");
        assert_eq!(t.intern_actor("alice"), a);
        assert_eq!(t.actor_name(a), "alice");
        let l = t.intern_label("PING");
        assert_eq!(t.intern_label("PING"), l);
        assert_eq!(t.label_name(l), "PING");
        // record() goes through the same pool.
        t.record(SimTime::ZERO, "alice", "alice", "PING");
        assert_eq!(t.events()[0].from, "alice");
    }

    #[test]
    fn bounded_ring_evicts_oldest() {
        let mut t = Trace::with_capacity(2);
        t.record(SimTime::from_secs(1), "a", "b", "ONE");
        t.record(SimTime::from_secs(2), "a", "b", "TWO");
        t.record(SimTime::from_secs(3), "a", "b", "THREE");
        assert_eq!(t.len(), 2);
        assert_eq!(t.labels(), vec!["TWO", "THREE"]);
        assert_eq!(t.stats().events_recorded, 3);
        assert_eq!(t.stats().events_dropped, 1);
    }

    #[test]
    fn set_capacity_trims_and_counts() {
        let mut t = sample();
        t.set_capacity(1);
        assert_eq!(t.labels(), vec!["DISPLAY"]);
        assert_eq!(t.stats().events_dropped, 2);
        assert_eq!(t.capacity(), 1);
    }

    #[test]
    fn stats_classify_event_kinds() {
        let t = sample();
        assert_eq!(t.stats().events_recorded, 3);
        assert_eq!(t.stats().messages, 2);
        assert_eq!(t.stats().local_events, 1);
    }

    #[test]
    fn recovery_counters_fold_only_when_nonzero() {
        let mut base = TraceStats {
            frames_sent: 10,
            frames_delivered: 9,
            ..TraceStats::default()
        };
        let d0 = base.digest();
        base.retries = 1;
        assert_ne!(base.digest(), d0, "nonzero recovery counter must fold in");
        base.retries = 0;
        assert_eq!(base.digest(), d0, "all-zero recovery counters are absent");
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        assert_eq!(sample().digest(), sample().digest());
        let mut other = Trace::new();
        other.record(SimTime::from_secs(2), "server1", "client", "PROFILE_INFO");
        other.record(SimTime::from_secs(1), "client", "server1", "PS_GETPROFILE");
        other.record(SimTime::from_secs(3), "client", "client", "DISPLAY");
        assert_ne!(sample().digest(), other.digest());
    }

    #[test]
    fn record_ids_is_equivalent_to_record() {
        let mut a = Trace::new();
        let alice = a.intern_actor("alice");
        let bob = a.intern_actor("bob");
        let ping = a.intern_label("PING");
        a.record_ids(SimTime::from_secs(1), alice, bob, ping);
        let mut b = Trace::new();
        b.record(SimTime::from_secs(1), "alice", "bob", "PING");
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn lookup_is_read_only() {
        let mut t = Trace::new();
        let a = t.intern_actor("alice");
        let l = t.intern_label("PING");
        assert_eq!(t.lookup_actor("alice"), Some(a));
        assert_eq!(t.lookup_label("PING"), Some(l));
        assert_eq!(t.lookup_actor("bob"), None);
        assert_eq!(t.lookup_label("PONG"), None);
        // A miss must not have interned anything.
        assert_eq!(t.lookup_actor("bob"), None);
    }

    #[test]
    fn stats_add_is_field_wise_and_commutative() {
        let mut a = TraceStats {
            frames_sent: 3,
            inquiries: 1,
            retries: 2,
            ..TraceStats::default()
        };
        let b = TraceStats {
            frames_sent: 4,
            handovers: 5,
            resumed: 1,
            ..TraceStats::default()
        };
        let mut ba = b;
        ba.add(&a);
        a.add(&b);
        assert_eq!(a, ba);
        assert_eq!(a.frames_sent, 7);
        assert_eq!(a.handovers, 5);
        assert_eq!(a.retries, 2);
        assert_eq!(a.resumed, 1);
    }

    #[test]
    fn approx_mem_accounts_pool_and_ring() {
        let mut t = Trace::with_capacity(64);
        let before = t.approx_mem_bytes();
        t.record(SimTime::ZERO, "some-actor", "other-actor", "A_LABEL");
        assert!(t.approx_mem_bytes() > before);
    }
}
