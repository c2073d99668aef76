//! §III-C: does eADR solve root crash consistency? (No.)
//!
//! eADR flushes cache contents to NVM on power failure but performs no
//! computation: un-recomputed HMACs and un-propagated root updates stay
//! stale. This harness crashes each scheme with and without eADR and
//! shows that eADR changes nothing about the recovery verdicts — SCUE's
//! instantaneous root update is still required.

use scue::{RecoveryOutcome, SchemeKind, SecureMemConfig, SecureMemory};
use scue_bench::banner;
use scue_nvm::LineAddr;

fn verdict(scheme: SchemeKind, eadr: bool) -> RecoveryOutcome {
    let mut mem = SecureMemory::new(SecureMemConfig::small_test(scheme).with_eadr(eadr));
    let mut now = 0;
    for i in 0..96u64 {
        now = mem
            .persist_data(LineAddr::new((i * 41) % 4096), [i as u8; 64], now)
            .expect("clean run");
    }
    // Crash at the instant the final persist was issued: its root
    // propagation (Eager's crash window) is still in flight.
    let crash_at = now;
    mem.persist_data(LineAddr::new(4032), [0xFF; 64], now)
        .expect("clean run");
    mem.crash(crash_at);
    mem.recover().outcome
}

fn show(outcome: RecoveryOutcome) -> &'static str {
    match outcome {
        RecoveryOutcome::Clean => "recovers",
        RecoveryOutcome::Unverified => "unverified",
        _ => "FAILS",
    }
}

fn main() {
    banner("§III-C — eADR does not substitute for instantaneous root updates");
    println!("{:>10} {:>14} {:>14}", "scheme", "ADR only", "with eADR");
    for scheme in SchemeKind::ALL {
        println!(
            "{:>10} {:>14} {:>14}",
            scheme.policy().name,
            show(verdict(scheme, false)),
            show(verdict(scheme, true))
        );
    }
    println!();
    println!("eADR flushes bytes but computes nothing (no HMACs, no propagation):");
    println!("Lazy still fails either way; SCUE recovers either way (§III-C).");
}
