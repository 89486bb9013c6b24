//! # ph-codec — the zero-dependency substrate of the PeerHood Social workspace
//!
//! The thesis system (PeerHood Community) is a serverless, self-contained
//! middleware; this workspace mirrors that property at the build level. Every
//! capability that a typical Rust project pulls from crates.io is provided
//! here instead, in small, well-tested form:
//!
//! * [`Wire`] — the unified wire-codec trait every protocol message in the
//!   workspace encodes through, with a structured [`DecodeError`];
//! * [`Bytes`] — a cheaply cloneable, immutable byte buffer (the
//!   `bytes::Bytes` subset the middleware needs);
//! * [`Fnv1a`] — the 64-bit FNV-1a hash behind every digest, message id
//!   and idempotency token;
//! * [`rng`] — splitmix64 seeding + xoshiro256++ generation, the single
//!   deterministic randomness source of the simulator;
//! * [`json`] — a minimal JSON value model and writer for harness reports;
//! * [`prop`] — a deterministic property-test harness with choice-stream
//!   shrinking and regression-seed replay.
//!
//! The crate depends on `std` only. Nothing in the workspace may depend on
//! crates.io — see `DESIGN.md` ("zero-dependency policy").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod fnv;
pub mod json;
pub mod prop;
pub mod rng;
mod wire;

pub use bytes::Bytes;
pub use fnv::Fnv1a;
pub use wire::{decode_seq, encode_seq, read_len, take, DecodeError, Wire};
