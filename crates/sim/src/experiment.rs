//! Experiment sweeps: one function per paper figure/table data series.
//!
//! Each function replays the same workload traces under every scheme (or
//! parameter value) on the Table II system and returns the normalised
//! series the corresponding figure plots. The bench harness binaries
//! print them; the `figure_shapes` integration test asserts their shape
//! (who wins, by roughly what factor).
//!
//! Every grid takes a `jobs` count and fans its cells out on
//! [`scue_util::par::run_indexed`]: one cell per `scheme × workload`
//! (or `hash-latency × workload`) measurement. A cell is a pure
//! function of its parameters — the trace is regenerated from
//! `(workload, scale, seed)` inside the cell — so the assembled rows,
//! and any JSON rendered from them, are byte-identical at every job
//! count (pinned by the `par_determinism` integration test).

use crate::config::SystemConfig;
use crate::runner::System;
use scue::{LatencyStats, SchemeKind};
use scue_crypto::engine::PAPER_HASH_LATENCIES;
use scue_util::obs::Json;
use scue_util::par;
use scue_workloads::Workload;

/// Digest of one run's raw write-latency distribution, in cycles — the
/// percentile columns Fig. 9/11 tables carry next to the normalised
/// means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl LatencySummary {
    /// Digests a recorded distribution.
    pub fn of(stats: &LatencyStats) -> Self {
        Self {
            mean: stats.mean(),
            p50: stats.p50(),
            p95: stats.p95(),
            p99: stats.p99(),
            max: stats.max(),
        }
    }

    /// The digest as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("mean", Json::F64(self.mean))
            .with("p50", Json::U64(self.p50))
            .with("p95", Json::U64(self.p95))
            .with("p99", Json::U64(self.p99))
            .with("max", Json::U64(self.max))
    }
}

/// One workload's row in a scheme-comparison figure.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// The workload.
    pub workload: Workload,
    /// Raw Baseline value (cycles or mean latency) for reference.
    pub baseline_raw: f64,
    /// Per-scheme values normalised to Baseline, in
    /// [`SchemeKind::FIGURE_SCHEMES`] order.
    pub normalized: Vec<(SchemeKind, f64)>,
    /// Raw write-latency digests per scheme, Baseline first.
    pub summaries: Vec<(SchemeKind, LatencySummary)>,
}

impl WorkloadRow {
    /// The normalised value for one scheme.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is not part of the row.
    pub fn value(&self, scheme: SchemeKind) -> f64 {
        self.normalized
            .iter()
            .find(|(s, _)| *s == scheme)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{scheme} not in row"))
    }

    /// The raw write-latency digest for one scheme, when recorded.
    pub fn summary(&self, scheme: SchemeKind) -> Option<&LatencySummary> {
        self.summaries
            .iter()
            .find(|(s, _)| *s == scheme)
            .map(|(_, summary)| summary)
    }
}

/// Arithmetic mean of one scheme's normalised values across rows (the
/// paper's "on average" numbers).
pub fn mean_of(rows: &[WorkloadRow], scheme: SchemeKind) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.value(scheme)).sum::<f64>() / rows.len() as f64
}

/// What a scheme run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean write latency (Fig. 9).
    WriteLatency,
    /// Total execution cycles (Fig. 10).
    ExecTime,
    /// Security-metadata memory accesses (§V-E).
    MetadataAccesses,
}

fn measure_run(
    metric: Metric,
    system_cfg: SystemConfig,
    workload: Workload,
    scale: usize,
    seed: u64,
) -> (f64, LatencySummary) {
    let trace = workload.generate(scale, seed);
    let mut system = System::new(system_cfg);
    let result = system
        .run_trace(&trace)
        .expect("no attacks are injected during figure runs");
    let value = match metric {
        Metric::WriteLatency => result.mean_write_latency(),
        Metric::ExecTime => result.cycles as f64,
        Metric::MetadataAccesses => result.engine.mem.metadata_total() as f64,
    };
    (value, LatencySummary::of(&result.engine.write_latency))
}

/// Measures one `(workload, scheme)` grid of cells in parallel,
/// returning cell results in `workload-major × scheme-minor` order.
fn measure_grid(
    metric: Metric,
    workloads: &[Workload],
    schemes: &[SchemeKind],
    scale: usize,
    seed: u64,
    jobs: usize,
) -> Vec<(f64, LatencySummary)> {
    let cells: Vec<(Workload, SchemeKind)> = workloads
        .iter()
        .flat_map(|&w| schemes.iter().map(move |&s| (w, s)))
        .collect();
    par::run_indexed(jobs, &cells, |_, &(workload, scheme), _| {
        measure_run(metric, SystemConfig::figure(scheme), workload, scale, seed)
    })
}

/// Runs every workload under Baseline + the four figure schemes on up
/// to `jobs` threads — one parallel cell per `scheme × workload` — and
/// normalises each row to its Baseline cell.
pub fn comparison_grid(
    metric: Metric,
    workloads: &[Workload],
    scale: usize,
    seed: u64,
    jobs: usize,
) -> Vec<WorkloadRow> {
    let schemes: Vec<SchemeKind> = std::iter::once(SchemeKind::Baseline)
        .chain(SchemeKind::FIGURE_SCHEMES)
        .collect();
    let measured = measure_grid(metric, workloads, &schemes, scale, seed, jobs);
    workloads
        .iter()
        .enumerate()
        .map(|(wi, &workload)| {
            let row = &measured[wi * schemes.len()..(wi + 1) * schemes.len()];
            let (baseline_raw, baseline_summary) = row[0];
            let mut summaries = vec![(SchemeKind::Baseline, baseline_summary)];
            let normalized = SchemeKind::FIGURE_SCHEMES
                .iter()
                .zip(&row[1..])
                .map(|(&scheme, &(raw, summary))| {
                    summaries.push((scheme, summary));
                    (scheme, raw / baseline_raw.max(1.0))
                })
                .collect();
            WorkloadRow {
                workload,
                baseline_raw,
                normalized,
                summaries,
            }
        })
        .collect()
}

/// Fig. 9: write latencies normalised to Baseline, per workload.
pub fn fig9_write_latency(
    workloads: &[Workload],
    scale: usize,
    seed: u64,
    jobs: usize,
) -> Vec<WorkloadRow> {
    comparison_grid(Metric::WriteLatency, workloads, scale, seed, jobs)
}

/// Fig. 10: execution time normalised to Baseline, per workload.
pub fn fig10_exec_time(
    workloads: &[Workload],
    scale: usize,
    seed: u64,
    jobs: usize,
) -> Vec<WorkloadRow> {
    comparison_grid(Metric::ExecTime, workloads, scale, seed, jobs)
}

/// §V-E: metadata memory accesses normalised to the Lazy scheme.
pub fn metadata_accesses_vs_lazy(
    workloads: &[Workload],
    scale: usize,
    seed: u64,
    jobs: usize,
) -> Vec<(Workload, Vec<(SchemeKind, f64)>)> {
    let schemes = [
        SchemeKind::Lazy,
        SchemeKind::Plp,
        SchemeKind::BmfIdeal,
        SchemeKind::Scue,
    ];
    let measured = measure_grid(
        Metric::MetadataAccesses,
        workloads,
        &schemes,
        scale,
        seed,
        jobs,
    );
    workloads
        .iter()
        .enumerate()
        .map(|(wi, &w)| {
            let row = &measured[wi * schemes.len()..(wi + 1) * schemes.len()];
            let lazy = row[0].0;
            let series = schemes[1..]
                .iter()
                .zip(&row[1..])
                .map(|(&s, &(raw, _))| (s, raw / lazy.max(1.0)))
                .collect();
            (w, series)
        })
        .collect()
}

/// One workload's hash-latency sensitivity row (Figs. 11–12): SCUE
/// values at {20, 40, 80, 160} cycles, normalised to the 20-cycle run.
#[derive(Debug, Clone)]
pub struct HashSweepRow {
    /// The workload.
    pub workload: Workload,
    /// `(hash_latency, normalized_value)`, ascending latency.
    pub points: Vec<(u64, f64)>,
    /// Raw write-latency digests per hash latency, ascending latency.
    pub summaries: Vec<(u64, LatencySummary)>,
}

/// Figs. 11–12: SCUE sensitivity to hash latency, one parallel cell
/// per `hash-latency × workload`.
pub fn hash_latency_sweep(
    metric: Metric,
    workloads: &[Workload],
    scale: usize,
    seed: u64,
    jobs: usize,
) -> Vec<HashSweepRow> {
    let cells: Vec<(Workload, u64)> = workloads
        .iter()
        .flat_map(|&w| PAPER_HASH_LATENCIES.iter().map(move |&lat| (w, lat)))
        .collect();
    let measured = par::run_indexed(jobs, &cells, |_, &(workload, lat), _| {
        measure_run(
            metric,
            SystemConfig::figure(SchemeKind::Scue).with_hash_latency(lat),
            workload,
            scale,
            seed,
        )
    });
    let n = PAPER_HASH_LATENCIES.len();
    workloads
        .iter()
        .enumerate()
        .map(|(wi, &workload)| {
            let row = &measured[wi * n..(wi + 1) * n];
            let base = row[0].0;
            let mut summaries = Vec::new();
            let points = PAPER_HASH_LATENCIES
                .iter()
                .zip(row)
                .map(|(&lat, &(raw, summary))| {
                    summaries.push((lat, summary));
                    (lat, raw / base.max(1.0))
                })
                .collect();
            HashSweepRow {
                workload,
                points,
                summaries,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap smoke sweep: two workloads, small scale — the full-shape
    /// assertions live in the `figure_shapes` integration test.
    #[test]
    fn fig9_smoke() {
        let rows = fig9_write_latency(&[Workload::Array], 300, 1, 2);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.baseline_raw > 0.0);
        for (_, v) in &row.normalized {
            assert!(*v >= 0.9, "secure schemes are never cheaper than baseline");
        }
    }

    #[test]
    fn hash_sweep_is_monotonic_smoke() {
        let rows = hash_latency_sweep(Metric::WriteLatency, &[Workload::Queue], 300, 1, 2);
        let points = &rows[0].points;
        assert_eq!(points.len(), 4);
        assert!(
            (points[0].1 - 1.0).abs() < 1e-9,
            "normalised to the 20-cycle run"
        );
        assert!(
            points[3].1 >= points[0].1,
            "160-cycle hashes cannot be cheaper"
        );
    }

    #[test]
    fn mean_of_averages() {
        let rows = vec![
            WorkloadRow {
                workload: Workload::Array,
                baseline_raw: 1.0,
                normalized: vec![(SchemeKind::Scue, 1.1)],
                summaries: vec![],
            },
            WorkloadRow {
                workload: Workload::Queue,
                baseline_raw: 1.0,
                normalized: vec![(SchemeKind::Scue, 1.3)],
                summaries: vec![],
            },
        ];
        assert!((mean_of(&rows, SchemeKind::Scue) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn rows_carry_per_scheme_latency_digests() {
        let rows = fig9_write_latency(&[Workload::Queue], 300, 1, 2);
        let row = &rows[0];
        assert_eq!(row.summaries.len(), SchemeKind::FIGURE_SCHEMES.len() + 1);
        assert_eq!(row.summaries[0].0, SchemeKind::Baseline);
        let scue = row.summary(SchemeKind::Scue).expect("scue digest");
        assert!(scue.p50 <= scue.p95 && scue.p95 <= scue.p99 && scue.p99 <= scue.max);
        assert!(scue.mean > 0.0);
    }
}
