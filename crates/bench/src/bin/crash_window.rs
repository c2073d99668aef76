//! §III-B / Fig. 5: the root crash-inconsistency window, measured.
//!
//! Sweeps the crash instant relative to a persist and reports each
//! scheme's recovery outcome, plus a workload-level sweep showing
//! Lazy/Eager failure rates vs. SCUE's zero.

use scue::{RecoveryOutcome, SchemeKind, SecureMemConfig, SecureMemory};
use scue_bench::banner;
use scue_nvm::LineAddr;
use scue_sim::{System, SystemConfig};
use scue_workloads::Workload;

fn main() {
    banner("§III-B — the crash window, measured");

    println!("single persist; crash N cycles later; can the machine recover?");
    let swept = [
        SchemeKind::Lazy,
        SchemeKind::Eager,
        SchemeKind::Plp,
        SchemeKind::Scue,
    ];
    print!("{:>8}", "N");
    for scheme in swept {
        print!(" {:>10}", scheme.policy().name);
    }
    println!();
    for delay in [0u64, 10, 20, 40, 80, 200, 1_000] {
        print!("{delay:>8}");
        for scheme in swept {
            let mut mem = SecureMemory::new(SecureMemConfig::small_test(scheme));
            mem.persist_data(LineAddr::new(0), [1u8; 64], 0)
                .expect("clean run");
            mem.crash(delay);
            let ok = mem.recover().outcome.is_success();
            print!(" {:>10}", if ok { "ok" } else { "FAIL" });
        }
        println!();
    }

    println!();
    println!("workload sweep: crash at 16 random instants during `queue`");
    println!("{:>10} {:>14}", "scheme", "recovered");
    for scheme in [
        SchemeKind::Lazy,
        SchemeKind::Eager,
        SchemeKind::Plp,
        SchemeKind::BmfIdeal,
        SchemeKind::Scue,
    ] {
        let mut recovered = 0;
        for i in 0..16u64 {
            let trace = Workload::Queue.generate(3_000, 77);
            let mut system = System::new(SystemConfig::fast(scheme));
            system
                .run_until(&trace, 30_000 + i * 37_911)
                .expect("clean run");
            system.crash();
            if system.engine_mut().recover().outcome == RecoveryOutcome::Clean {
                recovered += 1;
            }
        }
        println!("{:>10} {:>11}/16", scheme.policy().name, recovered);
    }
    println!();
    println!("paper: only PLP/BMF-ideal/SCUE are root crash-consistent;");
    println!("SCUE does it with 128 B of registers instead of PTT/256 MB nvMC.");
}
