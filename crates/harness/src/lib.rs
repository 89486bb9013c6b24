//! # ph-harness — the experiment harness
//!
//! Regenerates every table and figure of the thesis evaluation (see
//! `DESIGN.md` for the experiment index) plus the ablations. The `repro`
//! binary is the command-line entry point; each module is also a library
//! API the benches and tests reuse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod bubbles;
pub mod crowd;
pub mod functionality;
pub mod gate;
pub mod live;
pub mod msc;
pub mod report;
pub mod scenario;
pub mod table8;
pub mod user;

pub use bubbles::{BubblesConfig, BubblesReport};
pub use report::TextTable;
pub use scenario::{fault_profile, lab, LabConfig, LabScenario};
pub use table8::Table8Report;
