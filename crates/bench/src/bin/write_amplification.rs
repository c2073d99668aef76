//! Endurance ablation: NVM write amplification per scheme.
//!
//! PCM endurance is 10^7–10^12 writes (§II-D3); security metadata
//! multiplies the write stream. This harness reports, per scheme, total
//! NVM line-writes per user-visible persisted line — the §V-E traffic
//! viewed through the endurance lens.

use scue::SchemeKind;
use scue_bench::{parallel_sweep, sweep_or_die, Sweep};
use scue_sim::{System, SystemConfig};
use scue_workloads::Workload;

fn main() {
    let sweep = sweep_or_die("write_amplification");
    sweep.banner("Ablation — NVM write amplification (writes per persisted line)");
    let Sweep { jobs, scale, seed } = sweep;
    let workloads = [
        Workload::Array,
        Workload::Queue,
        Workload::Rbtree,
        Workload::Lbm,
        Workload::Mcf,
    ];
    print!("{:>10}", "scheme");
    for w in workloads {
        print!(" {:>9}", w.name());
    }
    println!(" {:>9}", "mean");
    for scheme in SchemeKind::ALL {
        let amps = parallel_sweep(jobs, &workloads, |w| {
            let trace = w.generate(scale, seed);
            let mut system = System::new(SystemConfig::figure(scheme));
            let r = system.run_trace(&trace).expect("clean run");
            let persists = r.engine.persists.max(1) as f64;
            r.engine.mem.total_writes() as f64 / persists
        });
        print!("{:>10}", scheme.policy().name);
        let mut sum = 0.0;
        for a in &amps {
            print!(" {:>9.2}", a);
            sum += a;
        }
        println!(" {:>9.2}", sum / amps.len() as f64);
    }
    println!();
    println!("Baseline ~1 (counters lazily written); secure schemes ~2 (Supermem");
    println!("counter write-through rides the data line); PLP adds the shadow branch.");
}
