//! Deterministic event queue for discrete-event simulation.
//!
//! Events are ordered by their scheduled [`SimTime`]; ties are broken by
//! insertion order (a monotonically increasing sequence number), so two runs
//! that schedule the same events in the same order always execute them in the
//! same order — the foundation of reproducible experiments.
//!
//! The queue is backed by a [hierarchical timing wheel](crate::wheel):
//! scheduling and popping near-horizon events is O(1) amortized, and
//! far-future timers overflow to a heap, with the same `(at, seq)`
//! tie-break as a global `BinaryHeap`.

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// A time-ordered queue of simulation events.
///
/// The queue owns the virtual clock: popping an event advances
/// [`EventQueue::now`] to that event's timestamp. Scheduling an event in the
/// past is a logic error and panics, because it would mean the simulation is
/// not causally consistent.
///
/// # Example
///
/// ```rust
/// use ph_netsim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "beta");
/// q.schedule(SimTime::from_secs(1), "alpha");
/// let (t1, e1) = q.pop().unwrap();
/// assert_eq!((t1, e1), (SimTime::from_secs(1), "alpha"));
/// let (t2, e2) = q.pop().unwrap();
/// assert_eq!((t2, e2), (SimTime::from_secs(2), "beta"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or [`SimTime::ZERO`] before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`].
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        self.wheel.schedule(at, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty (the clock is left
    /// where it was).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.wheel.pop()?;
        self.now = at;
        Some((at, event))
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because the wheel may rotate slots into its ready
    /// heap; the observable pop stream is unaffected.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek()
    }

    /// Pops the entire batch of events sharing the earliest pending
    /// timestamp, provided it is at or before `deadline`, into `out`
    /// (cleared first, capacity reused). Returns that timestamp, or `None`
    /// if nothing is due.
    ///
    /// Events scheduled *at the returned timestamp* while the caller
    /// processes the batch land in a later batch at the same timestamp —
    /// exactly the order a pop-one-at-a-time loop would produce, since
    /// their sequence numbers are larger. A batch past the deadline stays
    /// in the queue untouched, so an event scheduled before it in the
    /// meantime still pops first.
    pub fn drain_batch(&mut self, deadline: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let t = self.peek_time().filter(|&t| t <= deadline)?;
        while self.peek_time() == Some(t) {
            out.push(self.pop().expect("peeked").1);
        }
        Some(t)
    }

    /// Advances the clock to `t` without popping anything.
    ///
    /// Useful after draining all events up to a deadline, so subsequent
    /// scheduling is relative to the deadline. Moving backwards is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if an event earlier than `t` is still pending (advancing past
    /// it would break causality).
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
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_advances_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        q.advance_to(SimTime::from_secs(1)); // no-op backwards
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot advance past pending event")]
    fn advance_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.advance_to(SimTime::from_secs(3));
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(7), ());
        q.schedule(SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn drain_batch_groups_one_timestamp() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        q.schedule(t1, 'a');
        q.schedule(t2, 'x');
        q.schedule(t1, 'b');
        let mut batch = Vec::new();
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), Some(t1));
        assert_eq!(batch, vec!['a', 'b']);
        assert_eq!(q.now(), t1);
        // An event scheduled at the drained timestamp lands in the next
        // batch at the same timestamp, preserving serial pop order.
        q.schedule(t1, 'c');
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), Some(t1));
        assert_eq!(batch, vec!['c']);
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), Some(t2));
        assert_eq!(batch, vec!['x']);
        // Past the deadline: nothing drains.
        q.schedule(SimTime::from_secs(10), 'z');
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), None);
        assert!(batch.is_empty());
    }

    /// Lookahead safety: a drained batch is a closed set. Whatever a
    /// handler schedules while the batch executes — even at the very
    /// timestamp being drained — lands in a strictly later batch, so an
    /// epoch worker never observes an event spawned inside its own window.
    /// The batched stream must still equal the one-pop-at-a-time stream
    /// with identical feedback.
    #[test]
    fn drained_batches_never_admit_feedback_from_their_own_window() {
        // Every third event spawns a child, half of them at the *same*
        // timestamp the parent was delivered at.
        let child_delay = |id: u32| id.is_multiple_of(3).then(|| u64::from(id % 2) * 250);
        let mut rng = crate::rng::SimRng::from_seed(9000);
        let mut batched = EventQueue::new();
        let mut serial = EventQueue::new();
        for id in 0..300u32 {
            let at = SimTime::from_micros(rng.range_u64(0..15) * 250);
            batched.schedule(at, id);
            serial.schedule(at, id);
        }
        let deadline = SimTime::from_secs(60);
        let mut batch = Vec::new();
        let mut batch_order = Vec::new();
        let mut born_in_batch = std::collections::HashMap::new();
        let mut spawn_id = 10_000u32;
        let mut batch_idx = 0usize;
        while let Some(t) = batched.drain_batch(deadline, &mut batch) {
            for &id in &batch {
                if let Some(&born) = born_in_batch.get(&id) {
                    assert!(
                        born < batch_idx,
                        "event {id} ran in the window that spawned it"
                    );
                }
                batch_order.push((t, id));
                if let Some(d) = child_delay(id) {
                    batched.schedule(t + Duration::from_micros(d), spawn_id);
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
        assert_eq!(batch_order, serial_order);
    }

    /// A batch past the deadline must stay behind work scheduled before
    /// it after the drain came up empty, and the clock must never run
    /// backwards.
    #[test]
    fn event_scheduled_after_an_empty_drain_pops_first() {
        let mut q = EventQueue::new();
        let (deadline, early, late) = (
            SimTime::from_secs(5),
            SimTime::from_secs(6),
            SimTime::from_secs(7),
        );
        q.schedule(late, 'b');
        let mut batch = Vec::new();
        assert_eq!(q.drain_batch(deadline, &mut batch), None);
        q.advance_to(deadline);
        q.schedule(early, 'a');
        let far = SimTime::from_secs(60);
        assert_eq!(q.drain_batch(far, &mut batch), Some(early));
        assert_eq!((batch.as_slice(), q.now()), (&['a'][..], early));
        assert_eq!(q.drain_batch(far, &mut batch), Some(late));
        assert_eq!((batch.as_slice(), q.now()), (&['b'][..], late));
    }
}
