//! In-memory spans recorded around the benchmark's own calls into the
//! program's public functions.
//!
//! A span is aggregated by name into a count, a total and a self time (the
//! total minus the time covered by child spans opened inside it on the same
//! thread). Spans of other threads are merged in with [`Spans::merge`].

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every span name the benchmark records, in report order.
pub const NAMES: [&str; 9] = [
    "setup",
    "run",
    "world.query",
    "client.encode",
    "client.roundtrip",
    "client.decode",
    "replay.dispatch",
    "replay.journal_append",
    "replay.compact",
];

/// Aggregate of every span recorded under one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAgg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total: Duration,
    /// Sum of span durations minus their same-thread children.
    pub self_time: Duration,
}

/// A span recorder; a disabled recorder only runs the closures.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    /// Child time accumulated by each open span, innermost last.
    open: Vec<Duration>,
    agg: BTreeMap<&'static str, SpanAgg>,
}

impl Spans {
    /// A recorder that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            open: Vec::new(),
            agg: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        debug_assert!(NAMES.contains(&name), "undeclared span {name}");
        self.open.push(Duration::ZERO);
        let t0 = Instant::now();
        let out = f(self);
        let took = t0.elapsed();
        let children = self.open.pop().expect("spans close in the order they open");
        if let Some(parent) = self.open.last_mut() {
            *parent += took;
        }
        let agg = self.agg.entry(name).or_default();
        agg.count += 1;
        agg.total += took;
        agg.self_time += took.saturating_sub(children);
        out
    }

    /// Folds another thread's spans into this recorder.
    pub fn merge(&mut self, other: &Spans) {
        for (name, a) in &other.agg {
            let agg = self.agg.entry(name).or_default();
            agg.count += a.count;
            agg.total += a.total;
            agg.self_time += a.self_time;
        }
    }

    /// The aggregate for `name` (all zero when never recorded).
    pub fn get(&self, name: &str) -> SpanAgg {
        self.agg.get(name).copied().unwrap_or_default()
    }
}
