//! What every workload shares: run options, the outcome it returns, and
//! the small statistics it reports with.

use std::path::PathBuf;
use std::time::Duration;

use codec::json::Json;

use crate::metrics::Metrics;

/// `setup_s` samples per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 7;

/// A check the benchmark can be told to break, to show that the check trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Simulator workloads: the second rep runs with another seed, so the
    /// reps' trace digests differ.
    Digest,
    /// `live_write`: an extra comment is appended to the journal before it
    /// is replayed, so the replayed store differs from the served one.
    Journal,
}

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Traced run: one rep, timing and allocation counting on, spans.
    pub traced: bool,
    /// Shrink every input to a size that runs in well under a second.
    pub toy: bool,
    /// A check to break on purpose.
    pub inject: Option<Inject>,
    /// Directory for files the workload writes.
    pub work_dir: PathBuf,
}

/// What a workload run returns.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Facts reported as information only: digests, Table 8, rep counts.
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Records `failed` failures of a check, with the reason.
    pub fn fail(&mut self, failed: u64, note: String) {
        self.failed += failed;
        self.notes.push(note);
    }
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `xs` sorted ascending.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank quantile `q` of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where procfs
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    harness::crowd::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Sets the three latency metrics from per-operation latencies in ms.
pub fn latency_metrics(m: &mut Metrics, latencies_ms: Vec<f64>, traced: bool) {
    let s = sorted(latencies_ms);
    if traced {
        m.set("latency_p999_ms", quantile(&s, 0.999));
        m.set("latency_samples", s.len() as f64);
    } else {
        m.set("latency_p50_ms", quantile(&s, 0.50));
        m.set("latency_p99_ms", quantile(&s, 0.99));
    }
}

/// Sets the span metrics: a count for every span, and total and self time
/// for the `setup` and `run` spans that every workload records.
pub fn span_metrics(m: &mut Metrics, spans: &crate::spans::Spans) {
    const COUNTS: [&str; 9] = [
        "span.setup.count",
        "span.run.count",
        "span.world.query.count",
        "span.client.encode.count",
        "span.client.roundtrip.count",
        "span.client.decode.count",
        "span.replay.dispatch.count",
        "span.replay.journal_append.count",
        "span.replay.compact.count",
    ];
    for (name, metric) in crate::spans::NAMES.iter().zip(COUNTS) {
        m.set(metric, spans.get(name).count as f64);
    }
    let setup = spans.get("setup");
    m.set("span.setup.total_s", setup.total.as_secs_f64());
    m.set("span.setup.self_s", setup.self_time.as_secs_f64());
    let run = spans.get("run");
    m.set("span.run.total_s", run.total.as_secs_f64());
    m.set("span.run.self_s", run.self_time.as_secs_f64());
}

/// FNV-1a over a sequence of words: folds per-seed digests into one.
pub fn fold_digests(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
