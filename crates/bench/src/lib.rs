//! Shared plumbing for the figure/table harness binaries.
//!
//! Every binary prints a Table II banner, runs its sweep (fanned out
//! over [`scue_util::par::run_indexed`] worker threads), and emits the
//! same rows/series the corresponding paper figure plots, normalised
//! the same way. The bins that replay generated workloads read their
//! trace length and seed from `SCUE_SCALE` and `SCUE_SEED` (see
//! [`Sweep`]); the fan-out width comes from `--jobs N` or `SCUE_JOBS`
//! (default: available parallelism). Results are byte-identical at any
//! job count — only the trailing `provenance` object in the JSON twins
//! records the width and wall-clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use scue::SchemeKind;
use scue_sim::cli;
use scue_sim::experiment::{HashSweepRow, WorkloadRow};
use scue_util::obs::Json;
use scue_util::par;
use scue_workloads::Workload;
use std::path::PathBuf;

/// Schema version stamped into every figure-twin JSON document.
pub const FIGURE_SCHEMA_VERSION: u64 = 1;

/// The run parameters of a bin that replays generated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    /// Worker threads, from `--jobs N` or `SCUE_JOBS`.
    pub jobs: usize,
    /// Trace length per workload (ops), from `SCUE_SCALE` (default
    /// 60 000; zero is rejected).
    pub scale: usize,
    /// Workload seed, from `SCUE_SEED` (default 1).
    pub seed: u64,
}

impl Sweep {
    /// Reads a sweep off a bin's command-line tokens (`--jobs N` is the
    /// only flag) and the raw `SCUE_JOBS`, `SCUE_SCALE` and `SCUE_SEED`
    /// values; a bad value is an error naming its flag or variable.
    pub fn parse(
        tokens: impl Iterator<Item = String>,
        jobs: Option<&str>,
        scale: Option<&str>,
        seed: Option<&str>,
    ) -> Result<Sweep, String> {
        Ok(Sweep {
            jobs: cli::jobs_only(tokens, jobs)?,
            scale: cli::env_value("SCUE_SCALE", scale, 60_000, |&n| n > 0)?,
            seed: cli::env_value("SCUE_SEED", seed, 1, |_| true)?,
        })
    }

    /// [`banner`], also naming the sweep's trace scale and seed.
    pub fn banner(&self, title: &str) {
        print_banner(title, Some(self));
    }
}

/// Prints the Table II configuration banner every harness leads with.
pub fn banner(title: &str) {
    print_banner(title, None);
}

fn print_banner(title: &str, sweep: Option<&Sweep>) {
    println!("==============================================================");
    println!("{title}");
    println!("--------------------------------------------------------------");
    println!("system: 8-ary 9-level SIT over 16 GB PCM (Table II)");
    println!("  caches: L1 64KB/2w, L2 512KB/8w, L3 4MB/8w, metadata 256KB/8w");
    println!("  PCM: tRCD/tCL/tCWD/tFAW/tWTR/tWR = 48/15/13/50/7.5/300 ns");
    println!("  WPQ: 64 user + 10 metadata entries; hash: 40 cycles default");
    if let Some(sweep) = sweep {
        println!("  workload scale: {} ops, seed {}", sweep.scale, sweep.seed);
    }
    println!("==============================================================");
}

/// Runs `f` once per workload on up to `jobs` worker threads and
/// returns the results in workload order (built on
/// [`par::run_indexed`], so the output is schedule-independent).
///
/// # Panics
///
/// Propagates the lowest-indexed sweep panic, labelled with its
/// workload.
pub fn parallel_sweep<T, F>(jobs: usize, workloads: &[Workload], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Workload) -> T + Sync,
{
    par::run_indexed(jobs, workloads, |_, &workload, _| f(workload))
}

/// Resolves the bench bin's job count from the live process arguments
/// (`--jobs N` is the only flag) and `SCUE_JOBS`, exiting 2 with a
/// usage line on any error.
pub fn jobs_or_die(bin: &str) -> usize {
    cli::parse_or_exit(bin, "[--jobs N]", cli::jobs_only)
}

/// [`jobs_or_die`] for a workload sweep: also reads `SCUE_SCALE` and
/// `SCUE_SEED`, exiting 2 with a usage line on any bad value.
pub fn sweep_or_die(bin: &str) -> Sweep {
    let env = |name| std::env::var(name).ok();
    cli::parse_or_exit(bin, "[--jobs N]", |tokens, jobs| {
        let (scale, seed) = (env("SCUE_SCALE"), env("SCUE_SEED"));
        Sweep::parse(tokens, jobs, scale.as_deref(), seed.as_deref())
    })
}

/// Prints a scheme-comparison table (Figs. 9–10 layout) and the per-scheme
/// means the paper quotes.
pub fn print_scheme_table(rows: &[WorkloadRow]) {
    print!("{:>12}", "workload");
    for scheme in SchemeKind::FIGURE_SCHEMES {
        print!(" {:>10}", scheme.policy().name);
    }
    println!();
    for row in rows {
        print!("{:>12}", row.workload.name());
        for scheme in SchemeKind::FIGURE_SCHEMES {
            print!(" {:>10.3}", row.value(scheme));
        }
        println!();
    }
    println!("{:->60}", "");
    print!("{:>12}", "mean");
    for scheme in SchemeKind::FIGURE_SCHEMES {
        print!(" {:>10.3}", scue_sim::experiment::mean_of(rows, scheme));
    }
    println!();
}

/// Prints the raw write-latency percentile table (cycles) that
/// accompanies a Fig. 9-style normalised table: one `p50/p95/p99` cell
/// per scheme, Baseline included.
pub fn print_latency_percentile_table(rows: &[WorkloadRow]) {
    let schemes: Vec<SchemeKind> = std::iter::once(SchemeKind::Baseline)
        .chain(SchemeKind::FIGURE_SCHEMES)
        .collect();
    println!("write-latency percentiles, cycles (p50/p95/p99):");
    print!("{:>12}", "workload");
    for scheme in &schemes {
        print!(" {:>14}", scheme.policy().name);
    }
    println!();
    for row in rows {
        print!("{:>12}", row.workload.name());
        for scheme in &schemes {
            match row.summary(*scheme) {
                Some(s) => print!(" {:>14}", format!("{}/{}/{}", s.p50, s.p95, s.p99)),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Where figure twins land: `SCUE_BENCH_DIR`, else `results` under the
/// working directory (the recipes run from the workspace root).
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("SCUE_BENCH_DIR").unwrap_or_else(|_| "results".to_string()))
}

/// Writes a figure's machine-readable twin to `<name>.json` in
/// [`results_dir`] and prints the path.
///
/// # Panics
///
/// Panics if the results directory cannot be created or written.
pub fn write_figure_json(name: &str, doc: &Json) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, doc.render_doc()).expect("write figure json");
    println!("wrote {}", path.display());
}

/// The shared skeleton of a figure-twin document: schema version, kind
/// tag and, for a workload sweep, its trace scale and seed.
pub fn figure_doc(kind: &str, sweep: Option<&Sweep>) -> Json {
    let mut doc = Json::obj()
        .with("schema_version", Json::U64(FIGURE_SCHEMA_VERSION))
        .with("kind", Json::Str(kind.to_string()));
    if let Some(sweep) = sweep {
        doc.set("scale", Json::U64(sweep.scale as u64));
        doc.set("seed", Json::U64(sweep.seed));
    }
    doc
}

/// Serialises scheme-comparison rows (normalised values + raw latency
/// digests) for a figure twin.
pub fn rows_to_json(rows: &[WorkloadRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                let mut normalized = Json::obj();
                for (scheme, v) in &row.normalized {
                    normalized.set(scheme.policy().name, Json::F64(*v));
                }
                let mut percentiles = Json::obj();
                for (scheme, summary) in &row.summaries {
                    percentiles.set(scheme.policy().name, summary.to_json());
                }
                Json::obj()
                    .with("workload", Json::Str(row.workload.name().to_string()))
                    .with("baseline_raw", Json::F64(row.baseline_raw))
                    .with("normalized", normalized)
                    .with("write_latency_cycles", percentiles)
            })
            .collect(),
    )
}

/// Serialises hash-latency sweep rows (Figs. 11–12: normalised values
/// keyed by hash latency, plus raw latency digests) for a figure twin.
pub fn hash_rows_to_json(rows: &[HashSweepRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                let mut points = Json::obj();
                for (lat, v) in &row.points {
                    points.set(&lat.to_string(), Json::F64(*v));
                }
                let mut percentiles = Json::obj();
                for (lat, s) in &row.summaries {
                    percentiles.set(&lat.to_string(), s.to_json());
                }
                Json::obj()
                    .with("workload", Json::Str(row.workload.name().to_string()))
                    .with("normalized", points)
                    .with("write_latency_cycles", percentiles)
            })
            .collect(),
    )
}

/// Per-hash-latency means over a sweep's workloads (the figure's
/// quoted averages), keyed by latency.
pub fn hash_means(rows: &[HashSweepRow]) -> Json {
    let mut means = Json::obj();
    if rows.is_empty() {
        return means;
    }
    for (i, (lat, _)) in rows[0].points.iter().enumerate() {
        let sum: f64 = rows.iter().map(|row| row.points[i].1).sum();
        means.set(&lat.to_string(), Json::F64(sum / rows.len() as f64));
    }
    means
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(scale: Option<&str>, seed: Option<&str>) -> Result<Sweep, String> {
        Sweep::parse(std::iter::empty(), Some("3"), scale, seed)
    }

    #[test]
    fn defaults_without_env() {
        let defaults = Sweep {
            jobs: 3,
            scale: 60_000,
            seed: 1,
        };
        assert_eq!(sweep(None, None), Ok(defaults));
    }

    #[test]
    fn env_scale_and_seed_apply_and_bad_values_name_the_variable() {
        let applied = sweep(Some("400"), Some("0")).map(|s| (s.scale, s.seed));
        assert_eq!(applied, Ok((400, 0)));
        let zero = sweep(Some("0"), None);
        assert_eq!(zero, Err("invalid value for SCUE_SCALE: `0`".into()));
        let seed = sweep(None, Some("abc"));
        assert_eq!(seed, Err("invalid value for SCUE_SEED: `abc`".into()));
        // The job count is read first, as in every other bin.
        let jobs = Sweep::parse(std::iter::empty(), Some("x"), Some("abc"), None);
        assert_eq!(jobs, Err("invalid value for SCUE_JOBS: `x`".into()));
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let workloads = [Workload::Array, Workload::Mcf, Workload::Queue];
        for jobs in [1, 2, 7] {
            let names = parallel_sweep(jobs, &workloads, |w| w.name().to_string());
            assert_eq!(names, vec!["array", "mcf", "queue"], "jobs={jobs}");
        }
    }

    #[test]
    fn figure_json_round_trips() {
        use scue_sim::experiment::LatencySummary;
        let row = WorkloadRow {
            workload: Workload::Array,
            baseline_raw: 450.0,
            normalized: vec![(SchemeKind::Scue, 1.05)],
            summaries: vec![(
                SchemeKind::Scue,
                LatencySummary {
                    mean: 476.0,
                    p50: 476,
                    p95: 476,
                    p99: 476,
                    max: 476,
                },
            )],
        };
        let sweep = sweep(Some("400"), Some("9")).unwrap();
        let doc = figure_doc("scue-test", Some(&sweep)).with("rows", rows_to_json(&[row]));
        let parsed = Json::parse(&doc.render_doc()).expect("figure twin must parse");
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_u64),
            Some(FIGURE_SCHEMA_VERSION)
        );
        assert_eq!(parsed.get("scale").and_then(Json::as_u64), Some(400));
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(9));
        // A bin that generates no workload records neither.
        let bare = figure_doc("scue-test", None);
        assert!(bare.get("scale").is_none() && bare.get("seed").is_none());
        let rows = parsed.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[0]
                .get("write_latency_cycles")
                .and_then(|p| p.get("SCUE"))
                .and_then(|s| s.get("p99"))
                .and_then(Json::as_u64),
            Some(476)
        );
    }
}
