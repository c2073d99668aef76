//! §V-E: security-metadata memory accesses, normalised to the Lazy
//! scheme.
//!
//! Paper reference: PLP ≈ 7.04× Lazy (9-level SIT); BMF-ideal ≈ −8.7 %
//! vs Lazy; SCUE ≈ Lazy.

use scue_bench::{sweep_or_die, Sweep};
use scue_sim::experiment::metadata_accesses_vs_lazy;
use scue_workloads::Workload;

fn main() {
    let sweep = sweep_or_die("memaccess");
    sweep.banner("§V-E — metadata memory accesses normalised to Lazy");
    let Sweep { jobs, scale, seed } = sweep;
    let rows = metadata_accesses_vs_lazy(&Workload::ALL, scale, seed, jobs);
    print!("{:>12}", "workload");
    for (scheme, _) in rows.first().map_or(&[][..], |(_, series)| series) {
        print!(" {:>10}", scheme.policy().name);
    }
    println!();
    let mut sums = [0.0f64; 3];
    for (workload, series) in &rows {
        print!("{:>12}", workload.name());
        for (i, (_, v)) in series.iter().enumerate() {
            print!(" {:>10.3}", v);
            sums[i] += v;
        }
        println!();
    }
    println!("{:->46}", "");
    print!("{:>12}", "mean");
    for s in sums {
        print!(" {:>10.3}", s / rows.len() as f64);
    }
    println!();
    println!();
    println!("paper: PLP 7.04x, BMF-ideal 0.913x, SCUE ~1x (vs Lazy)");
}
