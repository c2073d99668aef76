//! Fig. 11: SCUE write latency vs. hash latency {20,40,80,160} cycles,
//! normalised to the 20-cycle run.
//!
//! Paper reference: 1.20× on average (up to 1.36×) at 160 cycles.
//!
//! Writes a machine-readable twin to
//! `results/fig11_hash_write_latency.json`, byte-identical at any
//! `--jobs` count apart from its trailing `provenance` object.

use scue_bench::{
    figure_doc, hash_means, hash_rows_to_json, sweep_or_die, write_figure_json, Sweep,
};
use scue_crypto::engine::PAPER_HASH_LATENCIES;
use scue_sim::cli::provenance;
use scue_sim::experiment::{hash_latency_sweep, Metric};
use scue_workloads::Workload;

fn main() {
    let sweep = sweep_or_die("fig11_hash_write_latency");
    sweep.banner("Fig. 11 — SCUE write latency vs. hash latency (norm. to 20 cyc)");
    let Sweep { jobs, scale, seed } = sweep;
    let started = std::time::Instant::now();
    let rows = hash_latency_sweep(Metric::WriteLatency, &Workload::ALL, scale, seed, jobs);
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
    println!("raw SCUE write-latency percentiles, cycles (p50/p95/p99):");
    print!("{:>12}", "workload");
    for lat in PAPER_HASH_LATENCIES {
        print!(" {:>14}", format!("{lat}_hash"));
    }
    println!();
    for row in &rows {
        print!("{:>12}", row.workload.name());
        for (_, s) in &row.summaries {
            print!(" {:>14}", format!("{}/{}/{}", s.p50, s.p95, s.p99));
        }
        println!();
    }
    println!();
    println!("paper: 1.20x mean (max 1.36x) at 160 cycles");
    println!("sweep wall-clock: {wall_ms} ms at --jobs {jobs}");

    let doc = figure_doc("scue-fig11-hash-write-latency", Some(&sweep))
        .with("rows", hash_rows_to_json(&rows))
        .with("means", hash_means(&rows))
        .with("provenance", provenance(jobs, wall_ms));
    write_figure_json("fig11_hash_write_latency", &doc);
}
