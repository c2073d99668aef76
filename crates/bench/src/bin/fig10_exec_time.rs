//! Fig. 10: execution time on every workload, normalised to Baseline.
//!
//! Paper reference (averages): PLP 1.96×, Lazy 1.17×, BMF-ideal 1.11×,
//! SCUE 1.07×.
//!
//! Besides the normalised table, the harness writes a machine-readable
//! twin to `results/fig10_exec_time.json` (the fig09/fig13 schema).
//! The sweep fans out over `--jobs` worker threads; the twin is
//! byte-identical at any job count apart from its trailing
//! `provenance` object.

use scue::SchemeKind;
use scue_bench::{
    figure_doc, print_scheme_table, rows_to_json, sweep_or_die, write_figure_json, Sweep,
};
use scue_sim::cli::provenance;
use scue_sim::experiment::{comparison_grid, mean_of, Metric};
use scue_util::obs::Json;
use scue_workloads::Workload;

fn main() {
    let sweep = sweep_or_die("fig10_exec_time");
    sweep.banner("Fig. 10 — execution time normalised to Baseline");
    let Sweep { jobs, scale, seed } = sweep;
    let started = std::time::Instant::now();
    let rows = comparison_grid(Metric::ExecTime, &Workload::ALL, scale, seed, jobs);
    let wall_ms = started.elapsed().as_millis() as u64;
    print_scheme_table(&rows);
    println!();
    println!("paper means: PLP 1.96, Lazy 1.17, BMF-ideal 1.11, SCUE 1.07");
    println!("sweep wall-clock: {wall_ms} ms at --jobs {jobs}");

    let mut means = Json::obj();
    for scheme in SchemeKind::FIGURE_SCHEMES {
        means.set(scheme.policy().name, Json::F64(mean_of(&rows, scheme)));
    }
    let doc = figure_doc("scue-fig10-exec-time", Some(&sweep))
        .with("rows", rows_to_json(&rows))
        .with("means", means)
        .with("provenance", provenance(jobs, wall_ms));
    write_figure_json("fig10_exec_time", &doc);
}
