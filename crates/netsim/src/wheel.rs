//! Hierarchical timing wheel — the O(1)-amortized scheduler core.
//!
//! [`TimerWheel`] replaces a global binary heap for the common simulation
//! workload: most timers fire within seconds of being armed (inquiry scans,
//! frame arrivals, response offsets), while a long tail (periodic daemon
//! wakes far ahead, application timeouts) sits beyond the near horizon.
//!
//! # Layout
//!
//! Time is bucketed into *ticks* of `2^10` µs (≈1 ms). There are
//! [`LEVELS`] wheels of [`SLOTS`] slots each; level `l` spans
//! `SLOTS^(l+1)` ticks, so the whole structure covers
//! `64^4` ticks ≈ 4.7 h of simulated time. Timers beyond that live in an
//! *overflow* binary heap and are pulled into the wheels as the horizon
//! approaches them. A per-level `u64` occupancy bitmap lets the wheel jump
//! over empty slots in one `trailing_zeros` instruction instead of ticking
//! through them.
//!
//! A timer's level is the position of the highest bit in which its tick
//! differs from the wheel's `horizon` tick (the first not-yet-expired
//! tick). That rule — rather than a distance comparison — guarantees every
//! slot holds ticks from exactly one "rotation", and that cascading a slot
//! strictly demotes its timers to lower levels, so expiry terminates.
//!
//! # Ordering contract
//!
//! Expired timers are funnelled through a small *ready* heap ordered by
//! `(at, seq)` — identical to the tie-break of the old global heap — so the
//! pop stream is **bit-identical** to a `BinaryHeap` scheduler fed the same
//! schedule calls. `wheel_matches_reference_model` in this module and the
//! property tests in `tests/` enforce that equivalence.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the number of slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; beyond their combined span timers overflow to a heap.
pub const LEVELS: usize = 4;
/// log2 of the level-0 tick length in microseconds (1024 µs ≈ 1 ms).
const TICK_BITS: u32 = 10;
/// Bit width of the wheel-covered tick range (`LEVELS * SLOT_BITS`).
const SPAN_BITS: u32 = LEVELS as u32 * SLOT_BITS;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// Reversed comparison turns `BinaryHeap`'s max-heap into the `(at, seq)`
// min-heap the simulator needs. Only `(at, seq)` participate, so `E` needs
// no bounds.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

/// Hierarchical timing wheel ordered by `(at, seq)`.
///
/// See the [module docs](self) for the layout and the determinism contract.
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// `levels[l][s]` holds timers whose tick maps to slot `s` of level `l`.
    levels: Vec<Vec<Vec<Entry<E>>>>,
    /// Per-level occupancy bitmap; bit `s` set ⇔ `levels[l][s]` non-empty.
    occupied: [u64; LEVELS],
    /// Timers beyond the wheel span, pulled in as the horizon approaches.
    overflow: BinaryHeap<Entry<E>>,
    /// Timers whose slot has been expired, in exact `(at, seq)` heap order.
    ready: BinaryHeap<Entry<E>>,
    /// First tick that has not been expired yet; every pending timer in the
    /// wheels or overflow has `tick >= horizon`, everything earlier is in
    /// `ready` (or already popped).
    horizon: u64,
    /// Next sequence number (insertion-order tie-break).
    seq: u64,
    /// Number of pending (scheduled, not popped) timers.
    live: usize,
}

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_micros() >> TICK_BITS
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            ready: BinaryHeap::new(),
            horizon: 0,
            seq: 0,
            live: 0,
        }
    }

    /// Schedules `event` at absolute time `at`. `at` may be in the "past"
    /// relative to already-popped timers — ordering with respect to
    /// *pending* timers is still exact — so the caller (the event queue)
    /// owns the no-time-travel policy.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        self.place(Entry { at, seq, event });
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Timestamp of the earliest pending timer, without popping it.
    ///
    /// Takes `&mut self` because it may expire slots into the ready heap
    /// (pure bookkeeping: the pop stream is unaffected).
    pub fn peek(&mut self) -> Option<SimTime> {
        loop {
            if let Some(top) = self.ready.peek() {
                return Some(top.at);
            }
            if !self.refill_ready() {
                return None;
            }
        }
    }

    /// Removes and returns the earliest pending timer.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some(entry) = self.ready.pop() {
                self.live -= 1;
                return Some((entry.at, entry.event));
            }
            if !self.refill_ready() {
                return None;
            }
        }
    }

    /// Inserts an entry into the structure it belongs to at the current
    /// horizon: the ready heap (tick already expired), a wheel slot, or the
    /// overflow heap (beyond the wheel span).
    fn place(&mut self, entry: Entry<E>) {
        let t = tick_of(entry.at);
        if t < self.horizon {
            self.ready.push(entry);
            return;
        }
        if (t >> SPAN_BITS) != (self.horizon >> SPAN_BITS) {
            self.overflow.push(entry);
            return;
        }
        let x = t ^ self.horizon;
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((t >> (level as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Earliest occupied level-0 slot's tick, if any. Level-0 slots hold
    /// exactly one tick each, all within the horizon's 64-tick block.
    fn level0_candidate(&self) -> Option<u64> {
        if self.occupied[0] == 0 {
            return None;
        }
        let s = self.occupied[0].trailing_zeros() as u64;
        let block = self.horizon & !(SLOTS as u64 - 1);
        debug_assert!(s >= (self.horizon & (SLOTS as u64 - 1)));
        Some(block + s)
    }

    /// Earliest occupied higher-level slot as `(start_tick, level, slot)`,
    /// where `start_tick` is the first tick the slot can contain.
    fn cascade_candidate(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for level in 1..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let s = self.occupied[level].trailing_zeros() as u64;
            let shift = level as u32 * SLOT_BITS;
            let p = self.horizon >> shift;
            debug_assert!(s >= (p & (SLOTS as u64 - 1)));
            let q = (p & !(SLOTS as u64 - 1)) + s;
            let start = q << shift;
            if best.is_none_or(|(b, _, _)| start < b) {
                best = Some((start, level, s as usize));
            }
        }
        best
    }

    /// Moves the next batch of timers into the ready heap. Returns `false`
    /// when nothing is pending anywhere.
    fn refill_ready(&mut self) -> bool {
        loop {
            // Pull overflow timers whose tick entered the wheel span.
            while let Some(top) = self.overflow.peek() {
                if (tick_of(top.at) >> SPAN_BITS) != (self.horizon >> SPAN_BITS) {
                    break;
                }
                let entry = self.overflow.pop().expect("peeked");
                self.place(entry);
            }

            let c0 = self.level0_candidate();
            let cascade = self.cascade_candidate();
            match (c0, cascade) {
                (None, None) => {
                    let Some(top) = self.overflow.peek() else {
                        return false;
                    };
                    // Jump the horizon to the overflow timer's span block so
                    // the pull above picks it up next iteration. Safe: the
                    // wheels are empty, so nothing is skipped.
                    self.horizon = tick_of(top.at) & !((1u64 << SPAN_BITS) - 1);
                }
                // A higher-level slot may contain ticks at or before the
                // earliest level-0 tick, so it must cascade first.
                (_, Some((start, level, slot))) if c0.is_none_or(|t| start <= t) => {
                    self.horizon = self.horizon.max(start);
                    self.occupied[level] &= !(1 << slot);
                    let entries = std::mem::take(&mut self.levels[level][slot]);
                    for entry in entries {
                        // Every timer here shares the slot's tick prefix, so
                        // re-placing against the advanced horizon strictly
                        // demotes it (see module docs) — the loop terminates.
                        self.place(entry);
                    }
                }
                (Some(t0), _) => {
                    let slot = (t0 & (SLOTS as u64 - 1)) as usize;
                    self.occupied[0] &= !(1 << slot);
                    let entries = std::mem::take(&mut self.levels[0][slot]);
                    for entry in entries {
                        debug_assert_eq!(tick_of(entry.at), t0);
                        self.ready.push(entry);
                    }
                    self.horizon = t0 + 1;
                    return true;
                }
                (None, Some(_)) => unreachable!("guarded by the cascade arm"),
            }
        }
    }
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_secs(3), 'c');
        w.schedule(SimTime::from_micros(1), 'a');
        w.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order_across_structures() {
        let mut w = TimerWheel::new();
        // Same microsecond, interleaved with a far timer that goes to a
        // higher level and an overflow timer, to cross slot boundaries.
        let t = SimTime::from_millis(500);
        w.schedule(SimTime::from_secs(30_000), 999); // overflow
        for i in 0..50 {
            w.schedule(t, i);
        }
        let mut order = Vec::new();
        while let Some((at, e)) = w.pop() {
            if at == t {
                order.push(e);
            }
        }
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn same_tick_different_micros_sorted() {
        // Two events inside the same 1024 µs tick must still pop in `at`
        // order even when scheduled in reverse.
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_micros(900), 'b');
        w.schedule(SimTime::from_micros(100), 'a');
        assert_eq!(w.pop().unwrap(), (SimTime::from_micros(100), 'a'));
        assert_eq!(w.pop().unwrap(), (SimTime::from_micros(900), 'b'));
    }

    #[test]
    fn overflow_timers_come_back() {
        let mut w = TimerWheel::new();
        // Far beyond the 4.7 h wheel span.
        let far = SimTime::from_secs(100_000);
        w.schedule(far, "far");
        w.schedule(SimTime::from_secs(1), "near");
        assert_eq!(w.pop().unwrap(), (SimTime::from_secs(1), "near"));
        assert_eq!(w.peek(), Some(far));
        assert_eq!(w.pop().unwrap(), (far, "far"));
    }

    #[test]
    fn schedule_while_draining_current_tick() {
        let mut w = TimerWheel::new();
        let t = SimTime::from_millis(5);
        w.schedule(t, 0);
        assert_eq!(w.pop().unwrap(), (t, 0));
        // Same timestamp, scheduled after the first fired: must still pop,
        // and after any pending earlier-seq timers at that time.
        w.schedule(t, 1);
        w.schedule(t, 2);
        assert_eq!(w.pop().unwrap(), (t, 1));
        assert_eq!(w.pop().unwrap(), (t, 2));
    }

    #[test]
    fn wheel_matches_reference_model() {
        // Differential check against a sort-based model across a random
        // workload mixing near, far, overflow and tied timers.
        let mut rng = SimRng::from_seed(0x77AEE1);
        for _round in 0..20 {
            let mut w = TimerWheel::new();
            let mut model: Vec<(u64, u64, u32)> = Vec::new(); // (at µs, seq, id)
            let mut clock = 0u64;
            let mut next_id = 0u32;
            for _op in 0..400 {
                match rng.range_u64(0..10) {
                    // Mostly schedules, at a spread of horizons.
                    0..=5 => {
                        let delta = match rng.range_u64(0..4) {
                            0 => rng.range_u64(0..2_000),             // same/near tick
                            1 => rng.range_u64(0..5_000_000),         // seconds
                            2 => rng.range_u64(0..600_000_000),       // minutes
                            _ => rng.range_u64(0..40_000_000_000u64), // overflow range
                        };
                        let at = clock + delta;
                        w.schedule(SimTime::from_micros(at), next_id);
                        model.push((at, u64::from(next_id), next_id));
                        next_id += 1;
                    }
                    _ => {
                        model.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
                        let expect = (!model.is_empty()).then(|| model.remove(0));
                        let got = w.pop();
                        assert_eq!(
                            got,
                            expect.map(|(at, _, id)| (SimTime::from_micros(at), id))
                        );
                        if let Some((at, _, _)) = expect {
                            clock = at;
                        }
                        assert_eq!(w.len(), model.len());
                    }
                }
            }
            // Drain: the full remaining stream must match.
            model.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
            let drained: Vec<(SimTime, u32)> = std::iter::from_fn(|| w.pop()).collect();
            let expected: Vec<(SimTime, u32)> = model
                .iter()
                .map(|&(at, _, id)| (SimTime::from_micros(at), id))
                .collect();
            assert_eq!(drained, expected);
        }
    }
}
