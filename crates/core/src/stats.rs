//! Engine statistics: the raw numbers behind Figs. 9–12 and §V-E.
//!
//! [`LatencyStats`] is backed by a log2-bucketed
//! [`Histogram`](scue_util::obs::Histogram), so every latency metric now
//! carries a full distribution (min/p50/p95/p99/max), not just
//! count/total/max. It stays `Copy` — the histogram is a fixed array —
//! so `EngineStats` snapshots remain free to pass around.

use scue_cache::MdCacheStats;
use scue_nvm::{Cycle, MemStats};
use scue_util::obs::{Histogram, Json};

/// Accumulator for a latency distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    hist: Histogram,
}

impl LatencyStats {
    /// An empty distribution.
    pub const fn new() -> Self {
        Self {
            hist: Histogram::new(),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, cycles: Cycle) {
        self.hist.record(cycles);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Sum of all samples, cycles.
    pub fn total(&self) -> u64 {
        self.hist.total()
    }

    /// Smallest sample; `None` when empty (never a spurious 0 or
    /// `u64::MAX`).
    pub fn min(&self) -> Option<u64> {
        self.hist.min()
    }

    /// Largest sample, cycles (0 when empty).
    pub fn max(&self) -> u64 {
        self.hist.max()
    }

    /// Mean latency (0 if empty).
    pub fn mean(&self) -> f64 {
        self.hist.mean()
    }

    /// Median estimate, cycles.
    pub fn p50(&self) -> u64 {
        self.hist.p50()
    }

    /// 95th-percentile estimate, cycles.
    pub fn p95(&self) -> u64 {
        self.hist.p95()
    }

    /// 99th-percentile estimate, cycles.
    pub fn p99(&self) -> u64 {
        self.hist.p99()
    }

    /// The underlying histogram (bucket-level access for exports).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.hist.merge(&other.hist);
    }

    /// Summary as JSON: count, mean, min, max, p50/p95/p99.
    pub fn summary_json(&self) -> Json {
        self.hist.summary_json()
    }
}

/// Everything the engine counts while running.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Latency of each user-data persist, from arrival at the controller
    /// to scheme-defined completion (Fig. 9's metric).
    pub write_latency: LatencyStats,
    /// Latency of each user-data read miss serviced by the secure path.
    pub read_latency: LatencyStats,
    /// Memory accesses by kind (§V-E).
    pub mem: MemStats,
    /// HMAC computations issued.
    pub hashes: u64,
    /// Metadata-cache hits / misses / fills.
    pub mdcache: MdCacheStats,
    /// Counter-block minor overflows handled (64-line re-encryptions).
    pub overflows: u64,
    /// Persists completed (leaf write-throughs).
    pub persists: u64,
}

impl EngineStats {
    /// Mean write latency in cycles.
    pub fn mean_write_latency(&self) -> f64 {
        self.write_latency.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_accumulate() {
        let mut s = LatencyStats::default();
        s.record(10);
        s.record(30);
        assert_eq!(s.count(), 2);
        assert_eq!(s.total(), 40);
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), 30);
        assert!((s.mean() - 20.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_mean_is_zero() {
        assert_eq!(LatencyStats::default().mean(), 0.0);
        assert_eq!(EngineStats::default().mean_write_latency(), 0.0);
    }

    #[test]
    fn empty_min_is_none() {
        // Regression: an empty distribution must not report min as 0 or
        // u64::MAX.
        let s = LatencyStats::default();
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), 0);
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let mut s = LatencyStats::default();
        for v in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 5000] {
            s.record(v);
        }
        assert!(s.p50() < s.p99());
        assert!(s.p99() <= s.max());
        assert!(s.min().unwrap() <= s.p50());
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = LatencyStats::default();
        let mut b = LatencyStats::default();
        a.record(10);
        b.record(90);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), 90);
    }
}
