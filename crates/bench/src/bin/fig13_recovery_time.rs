//! Fig. 13: SIT recovery time in SCUE when composed with STAR bitmap
//! lines (SCUE-STAR) or the Anubis shadow table (SCUE-AGIT), across
//! metadata cache sizes.
//!
//! Paper reference at a 4 MB metadata cache: ~0.05 s (SCUE-STAR) and
//! ~0.17 s (SCUE-AGIT), 100 ns per metadata fetch.
//!
//! The analytic model is cross-checked against a *measured* full
//! counter-summing recovery on a live machine image.

use scue::fastrec::{recovery_cost, FastRecovery, RecoveryCost, FIG13_CACHE_SIZES};
use scue::{SchemeKind, SecureMemConfig, SecureMemory};
use scue_bench::{banner, figure_doc, jobs_or_die, write_figure_json};
use scue_nvm::LineAddr;
use scue_sim::cli::provenance;
use scue_util::obs::Json;
use scue_util::par;

fn cost_json(cost: &RecoveryCost) -> Json {
    let phase = |fetches: u64, ns: u64| {
        Json::obj()
            .with("fetches", Json::U64(fetches))
            .with("ns", Json::U64(ns))
    };
    let p = &cost.phases;
    Json::obj()
        .with("fetches", Json::U64(cost.fetches))
        .with("time_s", Json::F64(cost.time_s()))
        .with(
            "phases",
            Json::obj()
                .with("scan", phase(p.scan_fetches, p.scan_ns()))
                .with("counter_summing", phase(p.summing_fetches, p.summing_ns()))
                .with("re_hash", phase(p.rehash_fetches, p.rehash_ns())),
        )
}

fn main() {
    let jobs = jobs_or_die("fig13_recovery_time");
    banner("Fig. 13 — recovery time vs. metadata cache size");
    let started = std::time::Instant::now();
    // One cell per cache size: the analytic STAR/AGIT pair.
    let costs = par::run_indexed(jobs, &FIG13_CACHE_SIZES, |_, &bytes, _| {
        (
            recovery_cost(FastRecovery::Star, bytes),
            recovery_cost(FastRecovery::Agit, bytes),
        )
    });
    println!(
        "{:>12} {:>14} {:>14} {:>14}",
        "md cache", "stale nodes", "SCUE-STAR (s)", "SCUE-AGIT (s)"
    );
    for (&bytes, (star, agit)) in FIG13_CACHE_SIZES.iter().zip(&costs) {
        println!(
            "{:>9} KB {:>14} {:>14.4} {:>14.4}",
            bytes / 1024,
            star.stale_nodes,
            star.time_s(),
            agit.time_s()
        );
    }
    println!();
    println!("paper @4 MB: SCUE-STAR ~0.05 s, SCUE-AGIT ~0.17 s");

    // Cross-check: an actual counter-summing recovery over a populated
    // image, with the same 100 ns/fetch model.
    let mut mem = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
    let mut now = 0;
    for i in 0..2_000u64 {
        now = mem
            .persist_data(LineAddr::new((i * 97) % 4096), [i as u8; 64], now)
            .expect("clean run");
    }
    mem.crash(now);
    let report = mem.recover();
    println!();
    println!(
        "measured full reconstruction: {} leaves, {} fetches, {:.3} ms ({:?})",
        report.leaves_checked,
        report.metadata_fetches,
        report.modelled_ns as f64 / 1e6,
        report.outcome
    );

    let wall_ms = started.elapsed().as_millis() as u64;
    let points = Json::Arr(
        FIG13_CACHE_SIZES
            .iter()
            .zip(&costs)
            .map(|(&bytes, (star, agit))| {
                Json::obj()
                    .with("mdcache_bytes", Json::U64(bytes))
                    .with("stale_nodes", Json::U64(star.stale_nodes))
                    .with("scue_star", cost_json(star))
                    .with("scue_agit", cost_json(agit))
            })
            .collect(),
    );
    let rp = report.phases;
    let measured = Json::obj()
        .with("outcome", Json::Str(format!("{:?}", report.outcome)))
        .with("leaves_checked", Json::U64(report.leaves_checked))
        .with("metadata_fetches", Json::U64(report.metadata_fetches))
        .with("modelled_ns", Json::U64(report.modelled_ns))
        .with(
            "phase_fetches",
            Json::obj()
                .with("scan", Json::U64(rp.scan_fetches))
                .with("counter_summing", Json::U64(rp.summing_fetches))
                .with("re_hash", Json::U64(rp.rehash_fetches)),
        );
    let doc = figure_doc("scue-fig13-recovery-time", None)
        .with("points", points)
        .with("measured_full_reconstruction", measured)
        .with("provenance", provenance(jobs, wall_ms));
    write_figure_json("fig13_recovery_time", &doc);
}
