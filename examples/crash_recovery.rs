//! The crash window, demonstrated (Fig. 5 / §III-B).
//!
//! Crashes each scheme at a spread of instants during a persistent
//! workload and tabulates the recovery outcome: Lazy always fails, Eager
//! fails inside its propagation window, SCUE/PLP/BMF-ideal always
//! recover.
//!
//! ```text
//! cargo run --release -p scue-sim --example crash_recovery
//! ```

use scue::{RecoveryOutcome, SchemeKind, SecureMemConfig, SecureMemory};
use scue_nvm::LineAddr;
use scue_sim::{System, SystemConfig};
use scue_workloads::Workload;

fn outcome_symbol(outcome: RecoveryOutcome) -> &'static str {
    if outcome.is_success() {
        "recovered"
    } else {
        "FAILED"
    }
}

fn main() {
    println!("-- crash at five points during a persistent queue workload --");
    let crash_points = [20_000u64, 100_000, 400_000, 1_200_000, 3_000_000];
    println!("{:>10} | {}", "scheme", "outcomes at each crash point");
    for scheme in [
        SchemeKind::Lazy,
        SchemeKind::Eager,
        SchemeKind::Plp,
        SchemeKind::BmfIdeal,
        SchemeKind::Scue,
    ] {
        let mut row = Vec::new();
        for &stop in &crash_points {
            let trace = Workload::Queue.generate(5_000, 7);
            let mut system = System::new(SystemConfig::fast(scheme));
            system.run_until(&trace, stop).expect("no attacks");
            system.crash();
            row.push(outcome_symbol(system.engine_mut().recover().outcome));
        }
        println!("{:>10} | {}", scheme.policy().name, row.join(", "));
    }

    println!();
    println!("-- the eager crash window, cycle by cycle --");
    // One persist through a bare engine; crash at increasing delays after
    // it and watch the window close once propagation (~hash latency)
    // lands.
    for delay in [0u64, 10, 30, 60, 200, 100_000] {
        let mut mem = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Eager));
        let done = mem
            .persist_data(LineAddr::new(0), [1u8; 64], 0)
            .expect("no attacks");
        mem.crash(done.saturating_sub(done) + delay); // crash at `delay`
        let outcome = mem.recover().outcome;
        println!(
            "  eager, crash {delay:>6} cycles after the persist: {}",
            outcome_symbol(outcome)
        );
    }

    println!();
    println!("-- SCUE at the same instants --");
    for delay in [0u64, 10, 30] {
        let mut mem = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
        mem.persist_data(LineAddr::new(0), [1u8; 64], 0)
            .expect("no attacks");
        mem.crash(delay);
        println!(
            "  SCUE,  crash {delay:>6} cycles after the persist: {}",
            outcome_symbol(mem.recover().outcome)
        );
    }
    println!();
    println!("SCUE's Recovery_root is updated in the same instant as the leaf");
    println!("persist, so there is no window to crash inside (§IV-A).");
}
