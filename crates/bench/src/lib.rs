//! A hand-rolled benchmark harness with a Criterion-compatible surface.
//!
//! The workspace is hermetic (see `DESIGN.md`, "zero-dependency policy"), so
//! the `benches/` files run on this small in-repo timer instead of
//! `criterion`. The API mirrors the subset of Criterion they use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`Bencher::iter`]/[`Bencher::iter_batched`], [`criterion_group!`] /
//! [`criterion_main!`] — so a bench file only changes its `use` line.
//!
//! # Methodology
//!
//! Each benchmark is warmed up for [`WARMUP`] (timing discarded), then runs
//! [`BenchmarkGroup::sample_size`] samples. A sample executes a fixed batch
//! of iterations (sized during warmup so one batch takes roughly
//! [`TARGET_BATCH`]) and records the mean per-iteration time. The report
//! prints the min / median / p90 of the per-sample means, plus derived
//! throughput when [`Throughput`] was declared.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Warm-up budget per benchmark before any sample is recorded.
pub const WARMUP: Duration = Duration::from_millis(300);

/// Target wall-clock duration of one sample batch.
pub const TARGET_BATCH: Duration = Duration::from_millis(5);

/// Default number of recorded samples per benchmark.
pub const DEFAULT_SAMPLE_SIZE: usize = 50;

/// The top-level benchmark driver (mirrors `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            throughput: None,
        }
    }
}

/// How much work one iteration processes, for derived throughput reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// A parameterized benchmark name (mirrors `criterion::BenchmarkId`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id carrying just a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Batch-size hint for [`Bencher::iter_batched`] (the setup cost of a batch
/// is excluded from timing either way).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs are cheap to hold; one input per iteration.
    SmallInput,
    /// Larger inputs; also one input per iteration here.
    LargeInput,
}

/// A group of related benchmarks sharing sample-size and throughput settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of recorded samples (min 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(10);
        self
    }

    /// Declares the work per iteration for throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut bencher);
        self.report(&id.to_string(), &bencher.samples);
        self
    }

    /// Runs one benchmark that borrows a prepared input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (kept for API compatibility; reporting is per-bench).
    pub fn finish(self) {}

    fn report(&self, bench: &str, samples: &[Duration]) {
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort_unstable();
        if sorted.is_empty() {
            println!("{}/{bench}: no samples", self.name);
            return;
        }
        let min = sorted[0];
        let p50 = sorted[sorted.len() / 2];
        let p90 = sorted[(sorted.len() * 9 / 10).min(sorted.len() - 1)];
        let mut line = format!(
            "{}/{bench}  time: [min {} · p50 {} · p90 {}]",
            self.name,
            fmt_duration(min),
            fmt_duration(p50),
            fmt_duration(p90),
        );
        if let Some(tp) = self.throughput {
            let per_sec = |count: u64| count as f64 / p50.as_secs_f64().max(f64::MIN_POSITIVE);
            match tp {
                Throughput::Bytes(n) => {
                    line.push_str(&format!(
                        "  thrpt: {:.1} MiB/s",
                        per_sec(n) / (1024.0 * 1024.0)
                    ));
                }
                Throughput::Elements(n) => {
                    line.push_str(&format!("  thrpt: {:.0} elem/s", per_sec(n)));
                }
            }
        }
        println!("{line}");
    }
}

/// Times closures for one benchmark (mirrors `criterion::Bencher`).
pub struct Bencher {
    sample_size: usize,
    /// Mean per-iteration time of each recorded sample.
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, called repeatedly.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        let batch = calibrate(|| {
            black_box(routine());
        });
        self.samples = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    black_box(routine());
                }
                start.elapsed() / (batch as u32)
            })
            .collect();
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
        _size: BatchSize,
    ) {
        // Setup runs outside the timed section, so batches are single
        // iterations and calibration only bounds the warm-up.
        let mut warmup_left = WARMUP;
        while warmup_left > Duration::ZERO {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            warmup_left = warmup_left.saturating_sub(start.elapsed().max(Duration::from_nanos(1)));
        }
        self.samples = (0..self.sample_size)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                start.elapsed()
            })
            .collect();
    }
}

/// Warm-up: run `routine` for [`WARMUP`], then derive a batch size that makes
/// one sample take about [`TARGET_BATCH`].
fn calibrate(mut routine: impl FnMut()) -> u64 {
    let warmup_start = Instant::now();
    let mut iters: u64 = 0;
    while warmup_start.elapsed() < WARMUP {
        routine();
        iters += 1;
    }
    let per_iter = warmup_start.elapsed() / (iters.max(1) as u32);
    let batch = TARGET_BATCH.as_nanos() / per_iter.as_nanos().max(1);
    batch.clamp(1, 1_000_000) as u64
}

/// Human-readable duration with an SI-style unit.
fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Bundles benchmark functions into one runner (mirrors
/// `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running the given groups (mirrors
/// `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_samples_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("selftest");
        group.sample_size(10);
        group.throughput(Throughput::Bytes(64));
        let mut ran = 0u64;
        group.bench_function("noop", |b| {
            b.iter(|| {
                ran += 1;
                ran
            })
        });
        group.finish();
        assert!(ran > 0);
    }

    #[test]
    fn iter_batched_gets_fresh_inputs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("selftest");
        group.sample_size(10);
        group.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u8, 2, 3],
                |mut v| {
                    v.push(4);
                    v
                },
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }

    #[test]
    fn benchmark_id_displays_parameter() {
        assert_eq!(BenchmarkId::from_parameter(40).to_string(), "40");
    }

    #[test]
    fn duration_formatting_picks_sane_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(4)), "4.00 s");
    }
}
