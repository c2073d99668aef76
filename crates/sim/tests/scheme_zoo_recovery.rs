//! Property tests for the recoverable-metadata scheme zoo.
//!
//! Each new scheme (Phoenix, Triad-L1/L2, Zuo, Freij) gets the same
//! property the original six are held to by the torture campaign, but
//! driven through the randomised property harness: for a prop-sampled
//! `(ops, crash_at, fault)` case, crash the engine mid-stream, recover,
//! and hold the result to the differential recovery oracle (shadow
//! audit of every persisted value inside [`torture::run_case`]).
//!
//! A failure shrinks to a locally minimal case and panics with the
//! replayable `scheme:ops:crash_at:fault` spec, so a regression lands
//! in the issue tracker as one `scue-torture --replay ...` line.
//!
//! Replay one specific generated case with
//! `SCUE_PROP_CASE_SEED=<seed> cargo test -p scue-sim --test
//! scheme_zoo_recovery <scheme>`.

use scue::SchemeKind;
use scue_sim::torture::{self, CaseSpec, FaultKind, TortureConfig};
use scue_util::prop::{run_property, ProptestConfig, Strategy};
use scue_util::rng::Rng;

/// Samples full torture cases: op-stream length, crash cycle, and a
/// fault drawn from the whole taxonomy. Shrinking reduces ops and
/// crash_at toward 1 but pins the sampled fault — the minimal repro
/// keeps the failure's hypothesis.
struct ZooStrategy;

impl Strategy for ZooStrategy {
    type Value = CaseSpec;

    fn generate(&self, rng: &mut Rng) -> CaseSpec {
        CaseSpec {
            ops: rng.gen_range(1..256usize),
            crash_at: rng.gen_range(1..500_000u64),
            fault: FaultKind::ALL[rng.gen_range(0..FaultKind::ALL.len())],
        }
    }

    fn shrink(&self, v: &CaseSpec) -> Vec<CaseSpec> {
        let mut out = Vec::new();
        if v.ops > 1 {
            for ops in [1, v.ops / 2, v.ops - 1] {
                out.push(CaseSpec { ops, ..*v });
            }
        }
        if v.crash_at > 1 {
            for crash_at in [1, v.crash_at / 2, v.crash_at - 1] {
                out.push(CaseSpec { crash_at, ..*v });
            }
        }
        out.retain(|c| c != v);
        out
    }
}

/// Runs the crash/recover/audit property for one scheme; panics with
/// the minimal replayable spec on an oracle violation.
fn recovery_property_holds(scheme: SchemeKind) {
    let cfg = TortureConfig::default();
    let prop = ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    };
    if let Err(failure) = run_property(&prop, &ZooStrategy, |case| {
        let result = torture::run_case(scheme, &cfg, case);
        torture::oracle(scheme, &cfg, &result)
    }) {
        panic!(
            "{scheme}: recovery property violated — {}\n  minimal replay: \
             scue-torture --seed {} --replay {}\n  (case seed {:#x}, {} shrink steps)",
            failure.message,
            cfg.seed,
            failure.minimal.replay_spec(scheme),
            failure.case_seed,
            failure.shrink_steps,
        );
    }
}

#[test]
fn phoenix_recovery_property_holds() {
    recovery_property_holds(SchemeKind::Phoenix);
}

#[test]
fn triad_l1_recovery_property_holds() {
    recovery_property_holds(SchemeKind::TriadL1);
}

#[test]
fn triad_l2_recovery_property_holds() {
    recovery_property_holds(SchemeKind::TriadL2);
}

#[test]
fn zuo_recovery_property_holds() {
    recovery_property_holds(SchemeKind::Zuo);
}

#[test]
fn freij_recovery_property_holds() {
    recovery_property_holds(SchemeKind::Freij);
}

/// The shrinker's contract, demonstrated on a synthetic failure: any
/// violating case must reduce to the smallest case that still violates,
/// and the minimal case must render as a parseable replay spec.
#[test]
fn shrinker_reduces_failures_to_replayable_specs() {
    let prop = ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    };
    // Synthetic property that "fails" whenever ops >= 10 and the crash
    // lands at cycle >= 100: the minimum is exactly (10, 100).
    let failure = run_property(&prop, &ZooStrategy, |case: CaseSpec| {
        if case.ops >= 10 && case.crash_at >= 100 {
            Err(format!("synthetic failure at ops={}", case.ops))
        } else {
            Ok(())
        }
    })
    .expect_err("the synthetic property must fail");
    assert_eq!(failure.minimal.ops, 10, "{:?}", failure);
    assert_eq!(failure.minimal.crash_at, 100, "{:?}", failure);
    let spec = failure.minimal.replay_spec(SchemeKind::Phoenix);
    let (scheme, case) =
        CaseSpec::diagnose_replay(&spec).unwrap_or_else(|e| panic!("minimal spec `{spec}`: {e}"));
    assert_eq!(scheme, SchemeKind::Phoenix);
    assert_eq!(case, failure.minimal);
}
