//! Region-sharded event lanes with a deterministic serial merge.
//!
//! The region-ownership engine shards the world into radio-cell regions and
//! gives each region its own [`TimerWheel`] lane. Events are routed to the
//! lane owning their target region; lanes pop independently and the merge
//! reconstructs the exact global `(time, sequence)` order a single shared
//! wheel would have produced.
//!
//! The trick that makes lane routing *unobservable* is the payload-embedded
//! **global sequence number**: every [`RegionLanes::schedule`] call stamps the
//! event with a counter that is global across lanes, so same-timestamp events
//! from different lanes can be re-interleaved exactly. As a consequence the
//! pop stream — and therefore every trace digest downstream — is bit-identical
//! for *any* lane count and *any* region-to-lane mapping. That invariant is
//! pinned by differential tests against a single-queue reference
//! (`EventQueue`, compiled for tests only) in this module and by the
//! resharded crowd reruns of `repro gate`.
//!
//! Boundary handoff falls out of the same design: when a node crosses from
//! one region to another, newly scheduled events simply route to the new
//! owner lane, while events still resident in the old lane stay valid — their
//! global sequence number, not their lane, decides where they land in the
//! merged stream.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Maps a region coordinate to a lane index in `0..lane_count`.
///
/// Pure FNV-1a over the coordinate bytes, so the mapping is stable across
/// runs and platforms. The mapping never affects the pop order (see module
/// docs) — it only spreads scheduling work across lanes.
///
/// # Panics
///
/// Panics if `lane_count` is zero.
pub fn lane_for(region: (i64, i64), lane_count: usize) -> usize {
    assert!(lane_count > 0, "lane_for requires at least one lane");
    let mut h = FNV_OFFSET;
    for b in region
        .0
        .to_le_bytes()
        .into_iter()
        .chain(region.1.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % lane_count as u64) as usize
}

/// A time-ordered event queue sharded into per-region timer-wheel lanes.
///
/// Behaves like one time-ordered queue for engines that route events by
/// region: popping advances [`RegionLanes::now`], scheduling in the past
/// panics, and events pop in `(time, insertion-order)` order — where the
/// insertion order is tracked *globally* across lanes, so the observable
/// stream is independent of how events are routed.
///
/// # Example
///
/// ```rust
/// use ph_netsim::region::RegionLanes;
/// use ph_netsim::SimTime;
///
/// let mut q = RegionLanes::new(4);
/// q.schedule(1, SimTime::from_secs(2), "beta");
/// q.schedule(3, SimTime::from_secs(1), "alpha");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "alpha")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "beta")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct RegionLanes<E> {
    lanes: Vec<TimerWheel<(u64, E)>>,
    /// Min-heap of `(time, lane)` candidates. Lazily revalidated: every
    /// scheduled event pushes its exact `(at, lane)` entry, and entries are
    /// discarded when the lane's head no longer matches.
    heads: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Fully merged batch for the timestamp currently being delivered.
    staged: VecDeque<(u64, E)>,
    staged_at: SimTime,
    /// Scratch for merging one timestamp across lanes.
    merge_buf: Vec<(u64, E)>,
    seq: u64,
    now: SimTime,
    len: usize,
}

impl<E> RegionLanes<E> {
    /// Creates an empty queue with `lane_count` lanes (minimum 1) and the
    /// clock at [`SimTime::ZERO`].
    pub fn new(lane_count: usize) -> Self {
        Self::with_capacity(lane_count, 0)
    }

    /// Like [`RegionLanes::new`], but sizes each lane for roughly
    /// `capacity / lane_count` in-flight events.
    pub fn with_capacity(lane_count: usize, capacity: usize) -> Self {
        let lanes = lane_count.max(1);
        let per_lane = capacity / lanes;
        RegionLanes {
            lanes: (0..lanes)
                .map(|_| TimerWheel::with_capacity(per_lane))
                .collect(),
            heads: BinaryHeap::new(),
            staged: VecDeque::new(),
            staged_at: SimTime::ZERO,
            merge_buf: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            len: 0,
        }
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The lane owning `region` under this queue's lane count.
    pub fn route(&self, region: (i64, i64)) -> usize {
        lane_for(region, self.lanes.len())
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or [`SimTime::ZERO`] before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` on `lane` to fire at absolute time `at`.
    ///
    /// The lane only decides which wheel stores the event; the global
    /// sequence number stamped here decides its position among
    /// same-timestamp events in the pop stream.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`RegionLanes::now`] or `lane` is out
    /// of range.
    pub fn schedule(&mut self, lane: usize, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        let gseq = self.seq;
        self.seq += 1;
        self.lanes[lane].schedule(at, (gseq, event));
        self.heads.push(Reverse((at, lane as u32)));
        self.len += 1;
    }

    /// Schedules `event` on `lane` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, lane: usize, delay: Duration, event: E) {
        self.schedule(lane, self.now + delay, event);
    }

    /// Discards stale head entries until the top of `heads` matches a live
    /// lane head (or the heap is empty). Afterwards, the heap top — if any —
    /// is the earliest pending timestamp across all lanes.
    fn settle(&mut self) {
        while let Some(&Reverse((t, lane))) = self.heads.peek() {
            match self.lanes[lane as usize].peek() {
                // Exact match: this entry's event is still the lane head.
                Some(actual) if actual == t => return,
                // The event that pushed this entry was already popped
                // (actual > t) or the lane drained entirely. An earlier
                // live head would sit above us in the heap, so discarding
                // is safe.
                _ => {
                    self.heads.pop();
                }
            }
        }
    }

    /// Merges every event at the earliest pending timestamp into `staged`,
    /// ordered by global sequence number. No-op if `staged` is non-empty or
    /// nothing is pending.
    fn stage_next(&mut self) {
        if !self.staged.is_empty() {
            return;
        }
        self.settle();
        let Some(&Reverse((t, _))) = self.heads.peek() else {
            return;
        };
        // Pop every head entry at `t`. Each corresponds 1:1 to a pending
        // event at exactly `t` in its lane (entries are pushed per event and
        // only invalidated by pops, which cannot have happened at the
        // current minimum), so popping one lane event per entry drains the
        // timestamp completely.
        self.merge_buf.clear();
        while let Some(&Reverse((et, lane))) = self.heads.peek() {
            if et != t {
                break;
            }
            self.heads.pop();
            let (at, payload) = self.lanes[lane as usize]
                .pop()
                .expect("head entry without a lane event");
            debug_assert_eq!(at, t, "lane head diverged from its heap entry");
            self.merge_buf.push(payload);
        }
        self.merge_buf.sort_unstable_by_key(|&(gseq, _)| gseq);
        self.staged.extend(self.merge_buf.drain(..));
        self.staged_at = t;
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty (the clock is left
    /// where it was).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.stage_next();
        let (_, event) = self.staged.pop_front()?;
        self.now = self.staged_at;
        self.len -= 1;
        Some((self.staged_at, event))
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because lanes may rotate wheel slots internally;
    /// the observable pop stream is unaffected.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.staged.is_empty() {
            return Some(self.staged_at);
        }
        self.settle();
        self.heads.peek().map(|&Reverse((t, _))| t)
    }

    /// Pops the entire batch of events sharing the earliest pending
    /// timestamp, provided it is at or before `deadline`, into `out`
    /// (cleared first, capacity reused). Returns that timestamp, or `None`
    /// if nothing is due.
    ///
    /// Events scheduled *at the returned timestamp* while the caller
    /// processes the batch land in a later batch at the same timestamp,
    /// because their global sequence numbers are larger.
    pub fn drain_batch(&mut self, deadline: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        self.stage_next();
        if self.staged.is_empty() || self.staged_at > deadline {
            return None;
        }
        self.now = self.staged_at;
        self.len -= self.staged.len();
        out.extend(self.staged.drain(..).map(|(_, e)| e));
        Some(self.staged_at)
    }

    /// Advances the clock to `t` without popping anything. Moving backwards
    /// is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if an event earlier than `t` is still pending.
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        if let Some(first) = self.peek_time() {
            assert!(
                first >= t,
                "cannot advance past pending event at {first:?} to {t:?}"
            );
        }
        self.now = t;
    }

    /// Drops all pending events without touching the clock.
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.heads.clear();
        self.staged.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::SimRng;

    #[test]
    fn lane_for_is_stable_and_in_range() {
        for lanes in [1usize, 2, 7, 64] {
            for x in -3i64..3 {
                for y in -3i64..3 {
                    let l = lane_for((x, y), lanes);
                    assert!(l < lanes);
                    assert_eq!(l, lane_for((x, y), lanes));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn lane_for_zero_lanes_panics() {
        let _ = lane_for((0, 0), 0);
    }

    /// The core tentpole invariant: for a workload with heavy timestamp
    /// collisions, the pop stream matches a single serial [`EventQueue`]
    /// bit-for-bit regardless of lane count or routing.
    #[test]
    fn pop_stream_matches_serial_queue_for_any_lane_count() {
        for lane_count in [1usize, 2, 3, 7, 16, 64] {
            let mut rng = SimRng::from_seed(2008 + lane_count as u64);
            let mut serial = EventQueue::new();
            let mut sharded = RegionLanes::new(lane_count);
            for i in 0..2000u32 {
                // Few distinct timestamps → many same-time ties to merge.
                let at = SimTime::from_micros(rng.range_u64(0..40) * 1000);
                let region = (rng.range_u64(0..10) as i64, rng.range_u64(0..10) as i64);
                serial.schedule(at, i);
                let lane = sharded.route(region);
                sharded.schedule(lane, at, i);
            }
            assert_eq!(serial.len(), sharded.len());
            loop {
                let a = serial.pop();
                let b = sharded.pop();
                assert_eq!(a, b, "diverged with {lane_count} lanes");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(serial.now(), sharded.now());
        }
    }

    /// Re-scheduling while draining — the feedback pattern the simulator
    /// actually uses — must also be lane-invariant, including events
    /// scheduled at the timestamp currently being delivered.
    #[test]
    fn feedback_scheduling_matches_serial_queue() {
        for lane_count in [1usize, 3, 8] {
            let mut rng_s = SimRng::from_seed(77);
            let mut rng_p = SimRng::from_seed(77);
            let mut serial = EventQueue::new();
            let mut sharded = RegionLanes::new(lane_count);
            for i in 0..50u32 {
                let at = SimTime::from_micros(u64::from(i % 5) * 500);
                serial.schedule(at, i);
                sharded.schedule(i as usize % lane_count, at, i);
            }
            let mut order_s = Vec::new();
            let mut order_p = Vec::new();
            let mut spawned_s = 1000u32;
            let mut spawned_p = 1000u32;
            while let Some((t, e)) = serial.pop() {
                order_s.push((t, e));
                if e < 200 && rng_s.chance(0.4) {
                    // Sometimes at the same timestamp, sometimes later.
                    let delay = rng_s.range_u64(0..3) * 500;
                    serial.schedule(t + Duration::from_micros(delay), spawned_s);
                    spawned_s += 1;
                }
            }
            while let Some((t, e)) = sharded.pop() {
                order_p.push((t, e));
                if e < 200 && rng_p.chance(0.4) {
                    let delay = rng_p.range_u64(0..3) * 500;
                    let lane = (e as usize).wrapping_mul(31) % lane_count;
                    sharded.schedule(lane, t + Duration::from_micros(delay), spawned_p);
                    spawned_p += 1;
                }
            }
            assert_eq!(order_s, order_p, "diverged with {lane_count} lanes");
        }
    }

    #[test]
    fn drain_batch_matches_event_queue_contract() {
        let mut q = RegionLanes::new(4);
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        q.schedule(0, t1, 'a');
        q.schedule(3, t2, 'x');
        q.schedule(2, t1, 'b');
        let mut batch = Vec::new();
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), Some(t1));
        assert_eq!(batch, vec!['a', 'b']);
        assert_eq!(q.now(), t1);
        // Scheduled at the drained timestamp → next batch, same timestamp.
        q.schedule(1, t1, 'c');
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), Some(t1));
        assert_eq!(batch, vec!['c']);
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), Some(t2));
        assert_eq!(batch, vec!['x']);
        q.schedule(0, SimTime::from_secs(10), 'z');
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), None);
        assert!(batch.is_empty());
        assert_eq!(q.len(), 1);
    }

    /// Lookahead-safety property: a drained batch is a *closed set*.
    /// Whatever a handler schedules while the batch executes — even at the
    /// very timestamp being drained — lands in a strictly later batch, so
    /// an epoch worker can never observe an event spawned by a
    /// concurrently-executing lane of its own window. The batched stream
    /// must still equal the serial single-pop stream with identical
    /// feedback.
    #[test]
    fn drained_batches_never_admit_feedback_from_their_own_window() {
        // Deterministic feedback: every third event spawns a child, half of
        // them at the *same* timestamp the parent was delivered at.
        let child_delay = |id: u32| id.is_multiple_of(3).then(|| u64::from(id % 2) * 250);
        for lane_count in [1usize, 3, 8, 32] {
            let mut rng = SimRng::from_seed(9000 + lane_count as u64);
            let mut sharded = RegionLanes::new(lane_count);
            let mut serial = EventQueue::new();
            for id in 0..300u32 {
                let at = SimTime::from_micros(rng.range_u64(0..15) * 250);
                let lane = rng.range_u64(0..lane_count as u64) as usize;
                sharded.schedule(lane, at, id);
                serial.schedule(at, id);
            }
            let deadline = SimTime::from_secs(60);
            let mut batch = Vec::new();
            let mut batch_order = Vec::new();
            let mut born_in_batch = std::collections::HashMap::new();
            let mut spawn_id = 10_000u32;
            let mut batch_idx = 0usize;
            let mut last_t = SimTime::ZERO;
            while let Some(t) = sharded.drain_batch(deadline, &mut batch) {
                assert!(
                    t >= last_t,
                    "batch time went backwards (lanes={lane_count})"
                );
                last_t = t;
                for &id in &batch {
                    if let Some(&born) = born_in_batch.get(&id) {
                        assert!(
                            born < batch_idx,
                            "event {id} delivered inside the window that spawned it \
                             (lanes={lane_count}, batch={batch_idx})"
                        );
                    }
                    batch_order.push((t, id));
                    if let Some(d) = child_delay(id) {
                        let lane = (id as usize).wrapping_mul(31) % lane_count;
                        sharded.schedule(lane, t + Duration::from_micros(d), spawn_id);
                        born_in_batch.insert(spawn_id, batch_idx);
                        spawn_id += 1;
                    }
                }
                batch_idx += 1;
            }
            let mut serial_order = Vec::new();
            let mut spawn_id = 10_000u32;
            while let Some((t, id)) = serial.pop() {
                serial_order.push((t, id));
                if let Some(d) = child_delay(id) {
                    serial.schedule(t + Duration::from_micros(d), spawn_id);
                    spawn_id += 1;
                }
            }
            assert_eq!(batch_order, serial_order, "lanes={lane_count}");
        }
    }

    #[test]
    fn mixed_pop_and_drain_batch_agree_with_serial() {
        let mut serial = EventQueue::new();
        let mut sharded = RegionLanes::new(5);
        for i in 0..300u32 {
            let at = SimTime::from_micros(u64::from(i % 9) * 250);
            serial.schedule(at, i);
            sharded.schedule(i as usize % 5, at, i);
        }
        let deadline = SimTime::from_secs(1);
        let mut bs = Vec::new();
        let mut bp = Vec::new();
        loop {
            let ts = serial.drain_batch(deadline, &mut bs);
            let tp = sharded.drain_batch(deadline, &mut bp);
            assert_eq!(ts, tp);
            assert_eq!(bs, bp);
            if ts.is_none() {
                break;
            }
            // Interleave a single pop between batches when possible.
            assert_eq!(serial.pop(), sharded.pop());
        }
        serial.advance_to(deadline);
        sharded.advance_to(deadline);
        assert_eq!(serial.now(), sharded.now());
    }

    #[test]
    fn advance_to_moves_forward_only() {
        let mut q: RegionLanes<()> = RegionLanes::new(2);
        q.advance_to(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        q.advance_to(SimTime::from_secs(1));
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot advance past pending event")]
    fn advance_past_pending_event_panics() {
        let mut q = RegionLanes::new(2);
        q.schedule(1, SimTime::from_secs(2), ());
        q.advance_to(SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = RegionLanes::new(2);
        q.schedule(0, SimTime::from_secs(10), ());
        q.pop();
        q.schedule(1, SimTime::from_secs(1), ());
    }

    #[test]
    fn clear_empties_every_lane_and_staged_batch() {
        let mut q = RegionLanes::new(3);
        q.schedule(0, SimTime::from_secs(1), 1u32);
        q.schedule(1, SimTime::from_secs(1), 2u32);
        q.schedule(2, SimTime::from_secs(2), 3u32);
        // Stage the first batch, then clear with one event mid-delivery.
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }
}
