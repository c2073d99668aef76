//! Fig. 12: SCUE execution time vs. hash latency {20,40,80,160} cycles,
//! normalised to the 20-cycle run.
//!
//! Paper reference: 1.14× at 160 cycles.
//!
//! Writes a machine-readable twin to
//! `results/fig12_hash_exec_time.json`, byte-identical at any `--jobs`
//! count apart from its trailing `provenance` object.

use scue_bench::{
    figure_doc, hash_means, hash_rows_to_json, sweep_or_die, write_figure_json, Sweep,
};
use scue_crypto::engine::PAPER_HASH_LATENCIES;
use scue_sim::cli::provenance;
use scue_sim::experiment::{hash_latency_sweep, Metric};
use scue_workloads::Workload;

fn main() {
    let sweep = sweep_or_die("fig12_hash_exec_time");
    sweep.banner("Fig. 12 — SCUE execution time vs. hash latency (norm. to 20 cyc)");
    let Sweep { jobs, scale, seed } = sweep;
    let started = std::time::Instant::now();
    let rows = hash_latency_sweep(Metric::ExecTime, &Workload::ALL, scale, seed, jobs);
    let wall_ms = started.elapsed().as_millis() as u64;
    print!("{:>12}", "workload");
    for lat in PAPER_HASH_LATENCIES {
        print!(" {:>9}", format!("{lat}_hash"));
    }
    println!();
    let mut sums = [0.0f64; 4];
    for row in &rows {
        print!("{:>12}", row.workload.name());
        for (i, (_, v)) in row.points.iter().enumerate() {
            print!(" {:>9.3}", v);
            sums[i] += v;
        }
        println!();
    }
    println!("{:->52}", "");
    print!("{:>12}", "mean");
    for s in sums {
        print!(" {:>9.3}", s / rows.len() as f64);
    }
    println!();
    println!();
    println!("paper: 1.14x at 160 cycles");
    println!("sweep wall-clock: {wall_ms} ms at --jobs {jobs}");

    let doc = figure_doc("scue-fig12-hash-exec-time", Some(&sweep))
        .with("rows", hash_rows_to_json(&rows))
        .with("means", hash_means(&rows))
        .with("provenance", provenance(jobs, wall_ms));
    write_figure_json("fig12_hash_exec_time", &doc);
}
