//! The result line every run prints, and the request log it is built
//! from.

use scue_util::obs::Json;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run reports, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "req_per_s",
    "req_p50_us",
    "req_p99_us",
    "peak_rss_mb",
    "sim_write_lat_cycles",
    "sim_exec_cycles",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints as its last stdout line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Names of the reported metrics, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics.set(
                &m.name,
                Json::obj()
                    .with("value", Json::F64(m.value))
                    .with("unit", Json::Str(m.unit.to_string())),
            );
        }
        Json::obj()
            .with("correct", Json::Bool(self.failed == 0))
            .with("attempted", Json::U64(self.attempted))
            .with("failed", Json::U64(self.failed))
            .with("metrics", metrics)
    }
}

/// Sub-buckets per power of two in [`LatencyHist`]: a recorded value is
/// kept to within 1/16384 of itself.
const SUB_BITS: u32 = 14;
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// A log-linear latency histogram of fixed size. The request log must
/// not grow with the request count: its memory would land in
/// `peak_rss_mb` and differ between runs that fit different numbers of
/// requests into the budget.
#[derive(Debug)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB_BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHist {
    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as usize + 1) << SUB_BITS) | ((v >> shift) as usize & (SUB_BUCKETS - 1))
    }

    /// The midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        let (octave, sub) = (i >> SUB_BITS, (i & (SUB_BUCKETS - 1)) as u64);
        if octave == 0 {
            return sub as f64;
        }
        let shift = octave as u32 - 1;
        let low = (SUB_BUCKETS as u64 | sub) << shift;
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Times `f` and records its duration in ns.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.record(start.elapsed().as_nanos() as u64);
        value
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile (0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        let rank = nearest_rank(q, self.total as usize) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        0.0
    }
}

/// The 1-based nearest rank of quantile `q` among `n` sorted values.
fn nearest_rank(q: f64, n: usize) -> usize {
    (q * n as f64).ceil().max(1.0) as usize
}

/// The p99 of each run of `size` consecutive requests.
///
/// A shared host slows down in bursts of tens of milliseconds, so a
/// whole-run p99 counts how many bursts a run happened to meet. The
/// median of short windows' p99s skips the windows a burst hit, yet moves
/// when the tail of every window does. It suits only streams whose
/// requests all do the same work: with mixed requests, most windows
/// would miss the heavier kinds.
#[derive(Debug)]
struct WindowedP99 {
    size: usize,
    current: Vec<u64>,
    /// One value per complete window: 8 bytes per `size` requests.
    p99s: Vec<u64>,
}

impl WindowedP99 {
    fn new(size: usize) -> Self {
        Self {
            size,
            current: Vec::with_capacity(size),
            p99s: Vec::new(),
        }
    }

    fn record(&mut self, ns: u64) {
        self.current.push(ns);
        if self.current.len() == self.size {
            self.current.sort_unstable();
            self.p99s
                .push(self.current[nearest_rank(0.99, self.size) - 1]);
            self.current.clear();
        }
    }

    /// Median of the complete windows' p99s; `None` before the first.
    fn median(&self) -> Option<f64> {
        let mut p99s = self.p99s.clone();
        p99s.sort_unstable();
        (!p99s.is_empty()).then(|| p99s[nearest_rank(0.5, p99s.len()) - 1] as f64)
    }
}

/// Host latencies of every request in the timed loop, plus failures.
#[derive(Debug, Default)]
pub struct RequestLog {
    latencies_ns: LatencyHist,
    windows: Option<WindowedP99>,
    pub failed: u64,
}

impl RequestLog {
    /// A log whose `req_p99_us` is the median, over consecutive windows
    /// of `size` requests, of each window's p99 (see [`WindowedP99`]).
    pub fn windowed(size: usize) -> Self {
        Self {
            windows: Some(WindowedP99::new(size)),
            ..Self::default()
        }
    }

    /// Times one request; `f` returns whether it succeeded.
    pub fn time(&mut self, f: impl FnOnce() -> bool) -> bool {
        let start = Instant::now();
        let ok = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.latencies_ns.record(ns);
        if let Some(windows) = &mut self.windows {
            windows.record(ns);
        }
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// The reported p99 in ns: windowed if this log has windows and one
    /// of them is complete, otherwise over every request.
    fn p99_ns(&self) -> f64 {
        self.windows
            .as_ref()
            .and_then(WindowedP99::median)
            .unwrap_or_else(|| self.latencies_ns.percentile(0.99))
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.latencies_ns.count()
    }

    /// The end-to-end request metrics for a loop that ran `wall`.
    pub fn push_metrics(&self, report: &mut Report, wall: Duration) {
        report.attempted = self.attempted();
        report.failed = self.failed;
        report.push(
            "req_per_s",
            self.attempted() as f64 / wall.as_secs_f64(),
            "1/s",
        );
        report.push("req_p50_us", self.latencies_ns.percentile(0.50) / 1e3, "us");
        report.push("req_p99_us", self.p99_ns() / 1e3, "us");
    }
}

/// Runs the first set-up and times it.
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = setup();
    (value, start.elapsed())
}

/// Runs [`SETUP_REPEATS`]` - 1` more set-ups, dropping each result, and
/// returns the median of their times and `first`. Call it after reading
/// `peak_rss_mb`, so the extra set-ups' allocations never reach it.
pub fn setup_median<T>(first: Duration, mut setup: impl FnMut() -> T) -> Duration {
    let mut times = vec![first];
    for _ in 1..SETUP_REPEATS {
        times.push(timed_setup(&mut setup).1);
    }
    times.sort_unstable();
    times[times.len() / 2]
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the run header (stdout, before the result line).
pub fn header(workload: &str, seed: u64, request: &str, image_fs: &str) {
    println!(
        "# perfbench workload={workload} seed={seed} threads=1 request=\"{request}\" image_fs={image_fs}"
    );
}

/// Prints the request count once the loop has ended.
pub fn footer(requests: u64, passes: u64, wall: Duration) {
    println!(
        "# requests={requests} passes={passes} timed_s={:.3}",
        wall.as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_keeps_values_to_one_bucket() {
        let mut h = LatencyHist::default();
        let tolerance = |v: f64| v / SUB_BUCKETS as f64;
        for v in [
            0u64,
            1,
            16_383,
            16_384,
            16_385,
            32_769,
            123_456_789,
            u64::MAX,
        ] {
            let i = LatencyHist::index(v);
            let mid = LatencyHist::value(i);
            assert!(
                (mid - v as f64).abs() <= tolerance(v as f64),
                "{v} -> {mid}"
            );
            h.record(v);
        }
        let mut h2 = LatencyHist::default();
        for v in 1..=1000u64 {
            h2.record(v * 1000);
        }
        assert!((h2.percentile(0.5) - 500_000.0).abs() <= tolerance(500_000.0));
        assert!((h2.percentile(0.99) - 990_000.0).abs() <= tolerance(990_000.0));
        assert_eq!(h.count(), 8);
        assert_eq!(LatencyHist::default().percentile(0.5), 0.0);
    }

    #[test]
    fn windowed_p99_skips_a_burst_in_a_minority_of_windows() {
        let mut w = WindowedP99::new(100);
        assert_eq!(w.median(), None);
        for window in 0..5u64 {
            for i in 1..=100u64 {
                // Window 2 is a burst: every request in it is slow.
                w.record(if window == 2 { 10_000 } else { i * 10 });
            }
        }
        w.record(1_000_000);
        assert_eq!(w.p99s.len(), 5, "the partial sixth window is not counted");
        assert_eq!(w.median(), Some(990.0));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.push("setup_s", 0.25, "s");
        let line = r.to_json().render();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
