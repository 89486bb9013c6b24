//! The application trait that PeerHood-enabled applications implement.
//!
//! An [`Application`] is a callback-driven state machine living on one
//! device. Drivers hand it daemon events together with an [`AppCtx`], through
//! which it reaches its PeerHood [`Library`], schedules private timers and
//! records message-sequence trace events.

use std::time::Duration;

use netsim::{ActorId, LabelId, SimTime, Trace};

use crate::api::AppEvent;
use crate::library::Library;

/// An actor reference inside a [`PendingRecord`]: an interned handle when the
/// frozen pool already knew the string at buffering time, the owned string
/// otherwise (resolved by interning at replay).
#[derive(Clone, Debug)]
pub enum PendingActor {
    /// Handle valid against the trace the record was buffered for.
    Id(ActorId),
    /// String unknown to the frozen pool; interned at replay.
    Raw(String),
}

/// A label reference inside a [`PendingRecord`] (see [`PendingActor`]).
#[derive(Clone, Debug)]
pub enum PendingLabel {
    /// Handle valid against the trace the record was buffered for.
    Id(LabelId),
    /// String unknown to the frozen pool; interned at replay.
    Raw(String),
}

/// One trace record buffered by a simulator epoch worker, to be replayed
/// into the run's [`Trace`] later in canonical (serial) order.
///
/// Replaying buffered records in the exact order a serial run would have
/// called [`Trace::record`] reproduces the serial pool intern order, ring
/// eviction and counters bit-for-bit: `Id` variants resolve to the same
/// handles a serial run reused, and `Raw` strings are interned at the same
/// canonical position a serial run would have interned them (interning is
/// idempotent, so repeats within a batch collapse to the first occurrence).
#[derive(Clone, Debug)]
pub struct PendingRecord {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Originating actor (always pre-interned: the node's own actor handle).
    pub from: ActorId,
    /// Receiving actor.
    pub to: PendingActor,
    /// Message label.
    pub label: PendingLabel,
}

impl PendingRecord {
    /// Appends this record to `trace`, interning any `Raw` strings.
    pub fn replay(self, trace: &mut Trace) {
        let to = match self.to {
            PendingActor::Id(id) => id,
            PendingActor::Raw(s) => trace.intern_actor(s),
        };
        let label = match self.label {
            PendingLabel::Id(id) => id,
            PendingLabel::Raw(s) => trace.intern_label(s),
        };
        trace.record_ids(self.at, self.from, to, label);
    }
}

/// Where an [`AppCtx`]'s trace calls go.
///
/// `Buffer` is the simulator's epoch-worker path: the trace is borrowed
/// read-only (possibly shared with other workers), so records are buffered
/// as [`PendingRecord`]s — resolving actor/label strings against the frozen
/// pool where possible — and replayed serially at commit time. The live
/// TCP driver keeps no trace and discards them.
pub enum TraceSink<'a> {
    /// Discard all records.
    None,
    /// Buffer records against a frozen trace for canonical-order replay.
    Buffer {
        /// The run's trace, frozen for the duration of the epoch.
        trace: &'a Trace,
        /// The owning node's pre-interned actor handle.
        actor_id: ActorId,
        /// Destination buffer, drained by the commit phase.
        out: &'a mut Vec<PendingRecord>,
    },
}

/// Execution context passed into every [`Application`] callback.
pub struct AppCtx<'a> {
    now: SimTime,
    actor: &'a str,
    lib: &'a mut Library,
    timers: &'a mut Vec<(SimTime, u64)>,
    sink: TraceSink<'a>,
}

impl<'a> AppCtx<'a> {
    /// Builds a context whose trace calls are discarded (the live TCP
    /// driver's).
    pub fn new(
        now: SimTime,
        actor: &'a str,
        lib: &'a mut Library,
        timers: &'a mut Vec<(SimTime, u64)>,
    ) -> Self {
        AppCtx::with_sink(now, actor, lib, timers, TraceSink::None)
    }

    /// Builds a context with an explicit [`TraceSink`] (the simulator's
    /// epoch workers use this with [`TraceSink::Buffer`]).
    pub fn with_sink(
        now: SimTime,
        actor: &'a str,
        lib: &'a mut Library,
        timers: &'a mut Vec<(SimTime, u64)>,
        sink: TraceSink<'a>,
    ) -> Self {
        AppCtx {
            now,
            actor,
            lib,
            timers,
            sink,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The local device's name (used as the MSC actor label).
    pub fn actor(&self) -> &str {
        self.actor
    }

    /// The PeerHood Library: enqueue daemon requests here.
    pub fn peerhood(&mut self) -> &mut Library {
        self.lib
    }

    /// Schedules a private timer `after` from now; the application's
    /// [`Application::on_timer`] fires with `token`.
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        self.timers.push((self.now + after, token));
    }

    /// Records a protocol message from this application to `to` in the run's
    /// message-sequence trace (no-op when the driver attached none).
    pub fn trace(&mut self, to: &str, label: &str) {
        match &mut self.sink {
            TraceSink::None => {}
            TraceSink::Buffer {
                trace,
                actor_id,
                out,
            } => out.push(PendingRecord {
                at: self.now,
                from: *actor_id,
                to: match trace.lookup_actor(to) {
                    Some(id) => PendingActor::Id(id),
                    None => PendingActor::Raw(to.to_owned()),
                },
                label: match trace.lookup_label(label) {
                    Some(id) => PendingLabel::Id(id),
                    None => PendingLabel::Raw(label.to_owned()),
                },
            }),
        }
    }

    /// Records a local action (self-directed trace event), e.g. the MSC
    /// figures' "display list" steps.
    pub fn trace_local(&mut self, label: &str) {
        match &mut self.sink {
            TraceSink::None => {}
            TraceSink::Buffer {
                trace,
                actor_id,
                out,
            } => out.push(PendingRecord {
                at: self.now,
                from: *actor_id,
                to: PendingActor::Id(*actor_id),
                label: match trace.lookup_label(label) {
                    Some(id) => PendingLabel::Id(id),
                    None => PendingLabel::Raw(label.to_owned()),
                },
            }),
        }
    }
}

/// A PeerHood-enabled application.
///
/// Implementations must be deterministic functions of their inputs: any
/// randomness should come from state seeded at construction, so simulation
/// runs stay reproducible.
pub trait Application {
    /// Called once when the device boots, before any event. Register
    /// services and kick off initial requests here.
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        let _ = ctx;
    }

    /// Called for every daemon event addressed to this application.
    fn on_event(&mut self, event: AppEvent, ctx: &mut AppCtx<'_>);

    /// Called when a timer set via [`AppCtx::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut AppCtx<'_>) {
        let _ = (token, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_exposes_time_actor_and_library() {
        let mut lib = Library::new();
        let mut timers = Vec::new();
        let mut ctx = AppCtx::new(SimTime::from_secs(3), "alice", &mut lib, &mut timers);
        assert_eq!(ctx.now(), SimTime::from_secs(3));
        assert_eq!(ctx.actor(), "alice");
        ctx.peerhood().request_device_list();
        ctx.set_timer(Duration::from_secs(2), 9);
        let _ = ctx;
        assert_eq!(lib.len(), 1);
        assert_eq!(timers, vec![(SimTime::from_secs(5), 9)]);
    }

    #[test]
    fn buffered_sink_replays_identically_to_direct_records() {
        // Reference: the records a serial run makes, straight into a trace.
        let at = SimTime::from_secs(1);
        let mut direct = Trace::new();
        direct.intern_actor("alice"); // add_node interns every actor up front
        direct.record(at, "alice", "bob", "PING");
        direct.record(at, "alice", "alice", "DISPLAY");
        direct.record(at, "alice", "bob", "PING"); // repeat: must reuse pool entries
        assert_eq!(direct.labels(), vec!["PING", "DISPLAY", "PING"]);
        // Buffered path: the app's calls against a frozen trace, then replay.
        let mut buffered = Trace::new();
        let alice = buffered.intern_actor("alice");
        let mut out = Vec::new();
        {
            let mut lib = Library::new();
            let mut timers = Vec::new();
            let mut ctx = AppCtx::with_sink(
                at,
                "alice",
                &mut lib,
                &mut timers,
                TraceSink::Buffer {
                    trace: &buffered,
                    actor_id: alice,
                    out: &mut out,
                },
            );
            ctx.trace("bob", "PING");
            ctx.trace_local("DISPLAY");
            ctx.trace("bob", "PING");
        }
        assert_eq!(out.len(), 3);
        // "bob"/"PING" were unknown to the frozen pool → Raw both times;
        // replay interns them once at the canonical first occurrence.
        assert!(matches!(out[0].to, PendingActor::Raw(_)));
        assert!(matches!(out[1].to, PendingActor::Id(id) if id == alice));
        for r in out {
            r.replay(&mut buffered);
        }
        assert_eq!(direct, buffered);
        assert_eq!(direct.digest(), buffered.digest());
        assert_eq!(direct.stats().messages, buffered.stats().messages);
        assert_eq!(direct.stats().local_events, buffered.stats().local_events);
    }

    #[test]
    fn trace_is_noop_without_sink() {
        let mut lib = Library::new();
        let mut timers = Vec::new();
        let mut ctx = AppCtx::new(SimTime::ZERO, "a", &mut lib, &mut timers);
        ctx.trace("b", "X"); // must not panic
    }

    #[test]
    fn default_trait_methods_are_callable() {
        struct Nop;
        impl Application for Nop {
            fn on_event(&mut self, _event: AppEvent, _ctx: &mut AppCtx<'_>) {}
        }
        let mut app = Nop;
        let mut lib = Library::new();
        let mut timers = Vec::new();
        let mut ctx = AppCtx::new(SimTime::ZERO, "a", &mut lib, &mut timers);
        app.on_start(&mut ctx);
        app.on_timer(1, &mut ctx);
    }
}
