//! `crash-campaign`: torture cases (`run_case` + `oracle`) alternating
//! with attack cases (`run_attack_case` + `oracle`), over every scheme,
//! every `FaultKind` and every `AttackKind`. A request is one case; an
//! oracle violation fails it.
//!
//! A pass runs the seeded case list once; the loop runs whole passes
//! until the budget is spent, and every later pass must reproduce the
//! outcome classes of pass 1.
//!
//! Crash points are drawn the way the torture campaign draws them: half
//! uniform over the simulated length of each scheme's pre-crash persist
//! stream, half jittered around its persistence boundaries. Both come
//! from a few traced probe engines per scheme in set-up. The probes are
//! also where this workload's `sim_` metrics come from.

use crate::layers::{self, REQUEST_SPAN};
use crate::report::{self, LatencyHist, Report, RequestLog};
use crate::Args;
use scue::{LatencyStats, SchemeKind, SecureMemConfig, SecureMemory};
use scue_nvm::LineAddr;
use scue_sim::attack::{self, AttackCaseResult, AttackClass, AttackConfig, AttackKind, AttackSpec};
use scue_sim::torture::{self, CaseClass, CaseResult, CaseSpec, FaultKind, TortureConfig};
use scue_util::obs::{span, EventKind};
use scue_util::rng::{Rng, SplitMix64};
use std::time::{Duration, Instant};

/// Torture/attack case pairs per pass: ten rounds of every
/// (scheme, fault) and (scheme, attack) pairing.
const PAIRS_PER_PASS: usize = 10 * 11 * 7 * 4;

/// Data lines the probe stream writes (the torture op span).
const PROBE_SPAN: u64 = 192;

/// One campaign request.
#[derive(Debug, Clone, Copy)]
enum Case {
    Torture(SchemeKind, CaseSpec),
    Attack(SchemeKind, AttackSpec),
}

/// What a case reduced to: its class, which every pass must repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Torture(CaseClass),
    Attack(AttackClass),
}

/// Probe streams per scheme.
const PROBE_STREAMS: u64 = 4;

/// One scheme's set-up probe of the pre-crash persist stream.
struct Probe {
    /// Simulated persist latencies.
    writes: LatencyStats,
    /// Simulated cycles of all streams together.
    cycles: u64,
    /// Cycle the longest stream ends at.
    end: u64,
    /// Cycles where persistence state changes (persist completions, WPQ
    /// drains, metadata evictions): where torn state is most likely.
    boundaries: Vec<u64>,
}

/// Everything set-up produces.
struct Inputs {
    torture: TortureConfig,
    attack: AttackConfig,
    cases: Vec<Case>,
    probes: Vec<Probe>,
}

/// Runs [`PROBE_STREAMS`] seeded streams of the torture stream's shape
/// (its op count over its line span), each on a fresh traced engine.
fn probe(scheme: SchemeKind, seed: u64, ops: usize) -> Probe {
    let mut probe = Probe {
        writes: LatencyStats::new(),
        cycles: 0,
        end: 1,
        boundaries: Vec::new(),
    };
    for stream in 0..PROBE_STREAMS {
        let mut mem =
            SecureMemory::new(SecureMemConfig::small_test(scheme).with_counter_repair(true));
        mem.enable_tracing(1 << 14);
        let mut sm = SplitMix64::new(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((scheme as u64) << 8 | stream),
        );
        let mut now = 0;
        for _ in 0..ops {
            let addr = LineAddr::new(sm.next_u64() % PROBE_SPAN);
            let fill = (sm.next_u64() % 251) as u8 + 1;
            now = mem
                .persist_data(addr, [fill; 64], now)
                .expect("a fresh engine accepts every persist");
        }
        probe.writes.merge(&mem.stats().write_latency);
        probe.cycles += now;
        probe.end = probe.end.max(now);
        probe.boundaries.extend(
            mem.trace()
                .events()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::PersistComplete { .. }
                            | EventKind::WpqDrain { .. }
                            | EventKind::MdCacheEvict { .. }
                    )
                })
                .map(|e| e.cycle)
                .filter(|&c| c > 0 && c <= now),
        );
    }
    probe.boundaries.sort_unstable();
    probe.boundaries.dedup();
    if probe.boundaries.is_empty() {
        probe.boundaries.push(probe.end);
    }
    probe
}

/// A crash point for `probe`: even draws uniform over the stream, odd
/// draws jittered around a persistence boundary.
fn crash_point(rng: &mut Rng, probe: &Probe, odd: bool) -> u64 {
    if odd {
        let b = probe.boundaries[rng.gen_range(0..probe.boundaries.len())];
        (b + rng.gen_range(0..32u64)).saturating_sub(16).max(1)
    } else {
        rng.gen_range(1..=probe.end)
    }
}

fn setup(seed: u64) -> Inputs {
    let torture = TortureConfig {
        seed,
        ..TortureConfig::default()
    };
    let attack = AttackConfig {
        seed,
        ..AttackConfig::default()
    };
    let probes: Vec<Probe> = SchemeKind::ALL
        .iter()
        .map(|&s| probe(s, seed, torture.ops))
        .collect();
    let mut rng = Rng::from_seed(seed ^ 0xCA5E);
    let schemes = SchemeKind::ALL.len();
    let attack_lo = (attack.ops / 4).max(1);
    let mut cases = Vec::with_capacity(2 * PAIRS_PER_PASS);
    for i in 0..PAIRS_PER_PASS {
        let s = i % schemes;
        let scheme = SchemeKind::ALL[s];
        let round = i / schemes;
        cases.push(Case::Torture(
            scheme,
            CaseSpec {
                ops: torture.ops,
                crash_at: crash_point(&mut rng, &probes[s], round % 2 == 1),
                fault: FaultKind::ALL[round % FaultKind::ALL.len()],
            },
        ));
        cases.push(Case::Attack(
            scheme,
            AttackSpec {
                attack: AttackKind::ALL[round % AttackKind::ALL.len()],
                ops: attack.ops,
                inject_at: rng.gen_range(attack_lo..attack.ops),
            },
        ));
    }
    Inputs {
        torture,
        attack,
        cases,
        probes,
    }
}

/// Outside-timed split of a pass: case bodies vs. oracles, per kind.
#[derive(Debug, Default)]
struct PassTimes {
    torture_case_ns: LatencyHist,
    torture_oracle_ns: LatencyHist,
    attack_case_ns: LatencyHist,
    attack_oracle_ns: LatencyHist,
    repaired_leaves: u64,
}

/// Runs one case and its oracle; `None` on an oracle violation.
fn run_case(inputs: &Inputs, case: Case, times: &mut PassTimes) -> Option<Class> {
    let _span = span::enter(REQUEST_SPAN);
    match case {
        Case::Torture(scheme, spec) => {
            let result: CaseResult = times
                .torture_case_ns
                .time(|| torture::run_case(scheme, &inputs.torture, spec));
            times.repaired_leaves += result.repaired_leaves;
            let verdict = times
                .torture_oracle_ns
                .time(|| torture::oracle(scheme, &inputs.torture, &result));
            verdict.ok().map(|()| Class::Torture(result.class))
        }
        Case::Attack(scheme, spec) => {
            let result: AttackCaseResult = times
                .attack_case_ns
                .time(|| attack::run_attack_case(scheme, &inputs.attack, spec));
            let verdict = times
                .attack_oracle_ns
                .time(|| attack::oracle(scheme, spec, &result));
            verdict.ok().map(|()| Class::Attack(result.class))
        }
    }
}

/// Runs every case once; `None` entries are oracle violations.
fn run_pass(inputs: &Inputs, log: &mut RequestLog, times: &mut PassTimes) -> Vec<Option<Class>> {
    inputs
        .cases
        .iter()
        .map(|&case| {
            let mut class = None;
            log.time(|| {
                class = run_case(inputs, case, times);
                class.is_some()
            });
            class
        })
        .collect()
}

/// Cases of `pass` whose class differs from `reference` (violations were
/// already counted by their request).
fn audit(pass: &[Option<Class>], reference: &[Option<Class>]) -> u64 {
    pass.iter()
        .zip(reference)
        .filter(|(got, want)| got.is_some() && want.is_some() && got != want)
        .count() as u64
}

fn push_sim_metrics(report: &mut Report, inputs: &Inputs) {
    let mut writes = LatencyStats::new();
    for p in &inputs.probes {
        writes.merge(&p.writes);
    }
    report.push("sim_write_lat_cycles", writes.mean(), "cycles");
    report.push(
        "sim_exec_cycles",
        inputs.probes.iter().map(|p| p.cycles).sum::<u64>() as f64,
        "cycles",
    );
}

/// Runs the campaign: the end-to-end loop or the traced per-layer run.
pub fn run(args: &Args) -> Report {
    let (inputs, first_setup) = report::timed_setup(|| setup(args.seed));
    report::header(
        &args.workload,
        args.seed,
        &format!(
            "one torture or attack case with its oracle ({} per pass)",
            inputs.cases.len()
        ),
        "none",
    );
    if args.trace {
        return run_traced(&inputs, first_setup);
    }
    let mut log = RequestLog::default();
    let start = Instant::now();
    let reference = run_pass(&inputs, &mut log, &mut PassTimes::default());
    let mut passes = 1;
    while start.elapsed() < args.budget {
        let pass = run_pass(&inputs, &mut log, &mut PassTimes::default());
        log.failed += audit(&pass, &reference);
        passes += 1;
    }
    let wall = start.elapsed();
    report::footer(log.attempted(), passes, wall);
    let peak_rss = report::peak_rss_mb();
    let setup_time = report::setup_median(first_setup, || setup(args.seed));

    let mut report = Report::default();
    report.push("setup_s", setup_time.as_secs_f64(), "s");
    log.push_metrics(&mut report, wall);
    report.push("peak_rss_mb", peak_rss, "MB");
    push_sim_metrics(&mut report, &inputs);
    report
}

fn run_traced(inputs: &Inputs, setup_time: Duration) -> Report {
    let mut report = Report::default();
    let mut log = RequestLog::default();
    let mut times = PassTimes::default();
    let start = Instant::now();
    let reference = run_pass(inputs, &mut log, &mut times);
    let untraced = start.elapsed();

    let mut traced_log = RequestLog::default();
    let traced = layers::traced(|| run_pass(inputs, &mut traced_log, &mut PassTimes::default()));
    report.attempted = log.attempted() + traced_log.attempted();
    report.failed = log.failed + traced_log.failed + audit(&traced.value, &reference);

    report.push("workloads.gen_ms", setup_time.as_secs_f64() * 1e3, "ms");
    report.push(
        "sim.runner.allocs_per_req",
        traced.allocs as f64 / traced_log.attempted().max(1) as f64,
        "count",
    );
    report.push(
        "sim.torture.case_us_p50",
        times.torture_case_ns.percentile(0.5) / 1e3,
        "us",
    );
    report.push(
        "sim.torture.oracle_us_p50",
        times.torture_oracle_ns.percentile(0.5) / 1e3,
        "us",
    );
    report.push(
        "sim.attack.case_us_p50",
        times.attack_case_ns.percentile(0.5) / 1e3,
        "us",
    );
    report.push(
        "sim.attack.oracle_us_p50",
        times.attack_oracle_ns.percentile(0.5) / 1e3,
        "us",
    );
    for class in CaseClass::ALL {
        let n = reference
            .iter()
            .filter(|c| **c == Some(Class::Torture(class)))
            .count();
        report.push(format!("sim.torture.{}", class.name()), n as f64, "count");
    }
    for class in AttackClass::ALL {
        let n = reference
            .iter()
            .filter(|c| **c == Some(Class::Attack(class)))
            .count();
        report.push(format!("sim.attack.{}", class.name()), n as f64, "count");
    }
    report.push(
        "core.recovery.repaired_leaves",
        times.repaired_leaves as f64,
        "count",
    );
    report.push("core.recovery.ms", traced.recovery_ms(untraced), "ms");
    traced.push_common(&mut report, untraced);
    layers::push_primitives(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_covers_every_scheme_fault_and_attack() {
        let inputs = setup(3);
        assert_eq!(inputs.cases.len(), 2 * PAIRS_PER_PASS);
        for scheme in SchemeKind::ALL {
            for fault in FaultKind::ALL {
                assert!(inputs.cases.iter().any(|c| matches!(c,
                    Case::Torture(s, spec) if *s == scheme && spec.fault == fault)));
            }
            for kind in AttackKind::ALL {
                assert!(inputs.cases.iter().any(|c| matches!(c,
                    Case::Attack(s, spec) if *s == scheme && spec.attack == kind)));
            }
        }
    }

    #[test]
    fn oracles_accept_a_slice_of_the_campaign() {
        let inputs = setup(9);
        let mut times = PassTimes::default();
        for &case in inputs.cases.iter().step_by(7) {
            assert!(run_case(&inputs, case, &mut times).is_some(), "{case:?}");
        }
    }
}
