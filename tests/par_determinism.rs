//! The parallel-determinism battery: every figure grid and a torture
//! campaign must render byte-identical JSON at `--jobs` 1, 4 and 7 —
//! and identical to the committed serial golden, so a scheduling
//! regression cannot slip in as "just noise".
//!
//! Regenerate the goldens after an intentional model change with:
//!
//! ```text
//! SCUE_UPDATE_GOLDEN=1 cargo test --test par_determinism
//! ```

use scue_bench::{hash_rows_to_json, rows_to_json};
use scue_sim::attack::{self, AttackConfig};
use scue_sim::experiment::{
    comparison_grid, hash_latency_sweep, metadata_accesses_vs_lazy, Metric,
};
use scue_sim::profile::{self, ProfileConfig};
use scue_sim::torture::{self, TortureConfig};
use scue_util::obs::span::Clock;
use scue_util::obs::Json;
use scue_workloads::Workload;
use std::path::PathBuf;

/// Small but non-trivial grid parameters: two workloads with different
/// access patterns, a scale that exercises cache evictions.
const WORKLOADS: [Workload; 2] = [Workload::Array, Workload::Queue];
const SCALE: usize = 500;
const SEED: u64 = 1;

/// The job counts every document is rendered at: serial, a typical
/// width, and a prime that never divides the cell count evenly.
const JOB_COUNTS: [usize; 3] = [1, 4, 7];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `rendered` against the committed golden (or rewrites the
/// golden when `SCUE_UPDATE_GOLDEN` is set).
fn assert_matches_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var("SCUE_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "{name}: serial output diverged from the committed golden \
         (SCUE_UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

/// Renders a document at every job count, asserts byte-identity across
/// them, checks the serial rendering against the golden, and returns it.
fn assert_jobs_invariant(name: &str, render_at: impl Fn(usize) -> String) {
    let serial = render_at(1);
    for jobs in JOB_COUNTS {
        let rendered = render_at(jobs);
        assert_eq!(
            rendered, serial,
            "{name}: output at jobs={jobs} diverged from serial"
        );
    }
    assert_matches_golden(name, &serial);
}

#[test]
fn comparison_grids_are_jobs_invariant() {
    for (name, metric) in [
        ("fig09_grid.json", Metric::WriteLatency),
        ("fig10_grid.json", Metric::ExecTime),
    ] {
        assert_jobs_invariant(name, |jobs| {
            rows_to_json(&comparison_grid(metric, &WORKLOADS, SCALE, SEED, jobs)).render_doc()
        });
    }
}

#[test]
fn hash_sweeps_are_jobs_invariant() {
    for (name, metric) in [
        ("fig11_hash_sweep.json", Metric::WriteLatency),
        ("fig12_hash_sweep.json", Metric::ExecTime),
    ] {
        assert_jobs_invariant(name, |jobs| {
            hash_rows_to_json(&hash_latency_sweep(metric, &WORKLOADS, SCALE, SEED, jobs))
                .render_doc()
        });
    }
}

#[test]
fn metadata_access_grid_is_jobs_invariant() {
    assert_jobs_invariant("memaccess_grid.json", |jobs| {
        let rows = metadata_accesses_vs_lazy(&WORKLOADS, SCALE, SEED, jobs);
        Json::Arr(
            rows.iter()
                .map(|(workload, series)| {
                    let mut ratios = Json::obj();
                    for (scheme, v) in series {
                        ratios.set(scheme.policy().name, Json::F64(*v));
                    }
                    Json::obj()
                        .with("workload", Json::Str(workload.name().to_string()))
                        .with("vs_lazy", ratios)
                })
                .collect(),
        )
        .render_doc()
    });
}

#[test]
fn profile_document_is_jobs_invariant() {
    // The span profiler on the virtual clock: per-thread tick
    // durations, allocator attribution and the Chrome trace must all
    // be schedule-independent, so the whole `scue-profile` document
    // (the bin attaches `provenance` separately) is golden-checked.
    let cfg = ProfileConfig {
        schemes: vec![scue::SchemeKind::Scue, scue::SchemeKind::Baseline],
        ops: 60,
        seed: 3,
        clock: Clock::Virtual,
    };
    assert_jobs_invariant("profile_virtual.json", |jobs| {
        profile::to_doc(&cfg, &profile::run(&cfg, jobs)).render_doc()
    });
}

#[test]
fn torture_campaign_is_jobs_invariant() {
    // The full zoo campaign: 100 crash points per scheme, every
    // (scheme, case) cell fanned out, violations minimised in-cell.
    let cfg = TortureConfig {
        seed: 7,
        ops: 60,
        eadr: false,
        strict_baseline: false,
        strict_windows: false,
    };
    assert_jobs_invariant("torture_campaign.json", |jobs| {
        torture::campaign_with_jobs(&cfg, 100, &scue::SchemeKind::ALL, jobs)
            .to_json()
            .render_doc()
    });
}

#[test]
fn zoo_timing_grid_matches_golden() {
    // Cycle-level results for every scheme in the zoo, not just the
    // figure schemes: write-latency digest, execution cycles, metadata
    // traffic, hashes and overflows per scheme × workload. The small
    // metadata cache makes array and mcf miss and evict dirty nodes, so
    // the ancestor fetches and victim drains of every write path show.
    // Each cell is an independent system run fanned out on
    // `par::run_indexed`, so one rendering is checked against the golden.
    let workloads = [Workload::Array, Workload::Queue, Workload::Mcf];
    let caches = [("figure", 256 * 1024), ("mdcache_16k", 16 * 1024)];
    let cells: Vec<(usize, Workload, scue::SchemeKind)> = (0..caches.len())
        .flat_map(|c| {
            workloads
                .iter()
                .flat_map(move |&w| scue::SchemeKind::ALL.map(|s| (c, w, s)))
        })
        .collect();
    let measured = scue_util::par::run_indexed(4, &cells, |_, &(c, workload, scheme), _| {
        let mut cfg = scue_sim::SystemConfig::figure(scheme);
        cfg.mem.mdcache_bytes = caches[c].1;
        let result = scue_sim::System::new(cfg)
            .run_trace(&workload.generate(SCALE, SEED))
            .expect("no attacks are injected");
        let engine = result.engine;
        Json::obj()
            .with("cache", Json::Str(caches[c].0.to_string()))
            .with("workload", Json::Str(workload.name().to_string()))
            .with("scheme", Json::Str(scheme.policy().name.to_string()))
            .with(
                "write_latency",
                scue_sim::experiment::LatencySummary::of(&engine.write_latency).to_json(),
            )
            .with("cycles", Json::U64(result.cycles))
            .with("meta_reads", Json::U64(engine.mem.meta_reads))
            .with("meta_writes", Json::U64(engine.mem.meta_writes))
            .with("mdcache_misses", Json::U64(engine.mdcache.misses))
            .with("hashes", Json::U64(engine.hashes))
            .with("overflows", Json::U64(engine.overflows))
    });
    assert_matches_golden("zoo_timing_grid.json", &Json::Arr(measured).render_doc());
}

#[test]
fn attack_campaign_is_jobs_invariant() {
    // The full scheme-zoo attack battery: every scheme faces the whole
    // tamper taxonomy at sampled injection points, each (scheme, spec)
    // cell fanned out, violations minimised in-cell. The golden pins
    // the Table I detection story — latency histograms on every secure
    // scheme, silent corruption only on Baseline.
    let cfg = AttackConfig {
        seed: 7,
        ops: 64,
        drive_ops: 120,
    };
    assert_jobs_invariant("attack_campaign.json", |jobs| {
        attack::campaign_with_jobs(&cfg, 8, &scue::SchemeKind::ALL, jobs)
            .to_json()
            .render_doc()
    });
}
