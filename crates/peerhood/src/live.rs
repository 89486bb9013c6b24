//! The live driver: the same daemon state machine over real TCP sockets.
//!
//! The simulator ([`crate::sim`]) executes [`Daemon`](crate::daemon::Daemon)
//! inside a virtual world; this module executes the *identical* state
//! machine against real sockets, proving the sans-IO design is not
//! simulator-bound. There is one implementation of sockets, handshakes,
//! backpressure and the daemon host loop: the [`LiveServer`] reactor
//! (sharded non-blocking accept loops, bounded per-connection write queues
//! with explicit backpressure shedding, idle and handshake deadlines, and
//! optional store persistence via [`LivePersist`]). It serves thousands of
//! concurrent thin clients on its own, and [`LiveNet`] groups several
//! in-process servers into a neighborhood whose members discover, query
//! and dial each other over loopback TCP. Both take one [`LiveConfig`]
//! and speak one wire protocol ([`wire`]).
//!
//! See `examples/live_tcp_demo.rs` for a two-device `LiveNet` run and
//! `repro live` (the harness load generator) for driving a `LiveServer`.

mod config;
mod neighborhood;
mod reactor;
pub mod wire;

pub use config::LiveConfig;
pub use neighborhood::LiveNet;
pub use reactor::{LivePersist, LiveServer, LiveStats};
