//! # ph-netsim — deterministic simulator of a mobile wireless environment
//!
//! This crate is the lowest substrate of the PeerHood Social reproduction. It
//! models the *mobile environment* of the thesis: personal trusted devices
//! moving through 2-D space, equipped with some subset of the three wireless
//! technologies PeerHood supports (Bluetooth, WLAN, GPRS), discovering each
//! other and exchanging frames with technology-realistic latencies.
//!
//! The simulator is a classic discrete-event design:
//!
//! * [`SimTime`] is a virtual clock (microsecond resolution);
//! * [`EventQueue`] orders arbitrary user events by time over a
//!   [`TimerWheel`], with a tie-breaking sequence number so that execution
//!   is fully deterministic;
//! * [`World`] tracks node positions via pluggable [`mobility`] models and
//!   answers range/reachability queries per [`Technology`];
//! * [`SimRng`] is a seeded, forkable random source so that every run with the
//!   same seed produces bit-identical results.
//!
//! The crate deliberately knows nothing about PeerHood or social networking:
//! upper layers (the `ph-peerhood` middleware driver) translate their protocol
//! actions into world queries and scheduled events.
//!
//! ## Example
//!
//! ```rust
//! use ph_netsim::{World, NodeBuilder, Technology, SimTime, geometry::Point2};
//!
//! let mut world = World::new();
//! let a = world.add_node(NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)));
//! let b = world.add_node(NodeBuilder::new("bob").at(Point2::new(5.0, 0.0)));
//! let t = SimTime::ZERO;
//! assert!(world.reachable(a, b, Technology::Bluetooth, t));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod geometry;
pub mod mobility;
pub mod par;
pub mod radio;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wheel;
pub mod world;

pub use event::EventQueue;
pub use fault::{BurstState, CrashWindow, FaultPlan, FaultProfile};
pub use radio::{RadioEnv, TechSet, Technology, TechnologyProfile};
pub use rng::SimRng;
pub use time::SimTime;
pub use trace::{ActorId, LabelId, Trace, TraceEvent, TraceStats};
pub use wheel::TimerWheel;
pub use world::{EpochView, GatherBuf, NodeBuilder, NodeId, World};
