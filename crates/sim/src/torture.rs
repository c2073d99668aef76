//! Crash-point torture campaigns: fault injection × crash-cycle
//! sampling × a differential recovery oracle, with shrinking repros.
//!
//! A *case* drives one [`SecureMemory`] through a deterministic op
//! stream, crashes it at a sampled cycle with a [`FaultPlan`] (torn
//! in-flight writes, torn counter blocks, bit flips, dropped writes,
//! stuck bytes — or nothing), recovers, and audits the survivor against
//! a shadow copy of every value the program persisted. The oracle then
//! classifies the outcome by the property each scheme's policy row
//! gives it:
//!
//! * root-crash-consistent schemes (the trust base covers every
//!   persisted leaf at every instant) must recover with every persisted
//!   value intact when no fault landed, and must *detect or repair* —
//!   never silently serve — any fault that did;
//! * secure schemes with a crash window (a stale or deferred root) may
//!   fail recovery with `RootMismatch` even without a fault (the §III-B
//!   window) — that is the expected comparison point, not a violation;
//! * unverified schemes never verify, so they must never *report*
//!   tampering; their silent corruption — even on a fault-free crash,
//!   because cached counter increments die with power — is the expected
//!   motivation for the tree (unless [`TortureConfig::strict_baseline`]
//!   deliberately holds them to the secure oracle, which manufactures a
//!   violation to exercise the shrinker end-to-end).
//!
//! [`Torture`] runs the campaign through [`crate::campaign`], which
//! minimises any oracle violation with the
//! in-repo property-test shrinker and reports it with a replay command
//! that reproduces the exact (trace, crash-cycle, fault) triple.

use crate::campaign::{self, Campaign, Tally};
use scue::{CrashError, RecoveryOutcome, SchemeKind, SecureMemConfig, SecureMemory};
use scue_nvm::{Cycle, FaultPlan, LineAddr, NvmFault};
use scue_util::obs::{EventKind, Json};
use scue_util::rng::{Rng, SplitMix64};
use std::collections::BTreeMap;

/// Data-line span the op stream writes into (three leaves of the
/// `small_test` geometry: enough counter churn to matter, small enough
/// to revisit lines and exercise rewrites).
const OP_ADDR_SPAN: u64 = 192;

/// Address used to prove the machine resumes after recovery — outside
/// the op span so it never collides with campaign state.
const RESUME_ADDR: u64 = 4000;

/// Which fault (if any) a torture case injects at the crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Clean crash: ADR holds, nothing breaks.
    None,
    /// ADR failure: every WPQ entry still draining tears at 8-byte
    /// granularity.
    TornWpq,
    /// The last-persisted leaf counter block tears (prefix new, suffix
    /// one write stale) — the Osiris-repairable case.
    TornCounter,
    /// One bit flips in a persisted user-data line.
    BitFlipData,
    /// One bit flips in a leaf counter block.
    BitFlipCounter,
    /// The last write to a persisted data line never reached media.
    DropWrite,
    /// A byte of a persisted data line is stuck at a fixed value.
    StuckByte,
}

impl FaultKind {
    /// Every fault kind, in campaign rotation order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::None,
        FaultKind::TornWpq,
        FaultKind::TornCounter,
        FaultKind::BitFlipData,
        FaultKind::BitFlipCounter,
        FaultKind::DropWrite,
        FaultKind::StuckByte,
    ];

    /// Stable name used in JSON and replay specs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::TornWpq => "torn_wpq",
            FaultKind::TornCounter => "torn_counter",
            FaultKind::BitFlipData => "bit_flip_data",
            FaultKind::BitFlipCounter => "bit_flip_counter",
            FaultKind::DropWrite => "drop_write",
            FaultKind::StuckByte => "stuck_byte",
        }
    }

    /// Parses a replay-spec fault name.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One torture case: how far the op stream runs, when power fails, and
/// what breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CaseSpec {
    /// Ops the deterministic stream may issue before the crash.
    pub ops: usize,
    /// Cycle at which power fails (op issue stops at this cycle too).
    pub crash_at: Cycle,
    /// The injected fault.
    pub fault: FaultKind,
}

impl CaseSpec {
    /// Renders the scheme-qualified replay spec
    /// (`scheme:ops:crash_at:fault`).
    pub fn replay_spec(&self, scheme: SchemeKind) -> String {
        format!(
            "{}:{}:{}:{}",
            scheme.policy().token,
            self.ops,
            self.crash_at,
            self.fault.name()
        )
    }

    /// Parses a `scheme:ops:crash_at:fault` replay spec; the error names
    /// the offending field and echoes the offending value.
    pub fn diagnose_replay(spec: &str) -> Result<(SchemeKind, CaseSpec), String> {
        campaign::parse_spec(spec, |fields| {
            Ok(CaseSpec {
                ops: fields.field("ops", |s| s.parse().ok())?,
                crash_at: fields.field("crash_at", |s| s.parse().ok())?,
                fault: fields.field("fault", FaultKind::parse)?,
            })
        })
    }
}

/// How one case ended, after crash → recover → audit → resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CaseClass {
    /// Recovery succeeded and every persisted value read back intact.
    RecoveredIntact,
    /// Recovery succeeded after Osiris-style counter repair; values
    /// intact.
    RepairedCounter,
    /// Recovery failed with `RootMismatch` on a scheme whose crash
    /// window permits it (no root crash consistency, no applied fault).
    ExpectedWindowFail,
    /// Recovery itself reported the damage (leaf MAC or root mismatch
    /// with an applied fault).
    DetectedAtRecovery,
    /// Recovery passed but a post-recovery read caught the damage.
    DetectedOnRead,
    /// Baseline's unverified recovery with values intact.
    UnverifiedSurvived,
    /// A read returned successfully with wrong bytes.
    SilentCorruption,
    /// The machine could not serve fresh traffic after recovery.
    ResumeFailure,
}

impl CaseClass {
    /// Every class, in JSON tally order.
    pub const ALL: [CaseClass; 8] = [
        CaseClass::RecoveredIntact,
        CaseClass::RepairedCounter,
        CaseClass::ExpectedWindowFail,
        CaseClass::DetectedAtRecovery,
        CaseClass::DetectedOnRead,
        CaseClass::UnverifiedSurvived,
        CaseClass::SilentCorruption,
        CaseClass::ResumeFailure,
    ];

    /// Stable snake_case name used as the JSON tally key.
    pub fn name(self) -> &'static str {
        match self {
            CaseClass::RecoveredIntact => "recovered_intact",
            CaseClass::RepairedCounter => "repaired_counter",
            CaseClass::ExpectedWindowFail => "expected_window_fail",
            CaseClass::DetectedAtRecovery => "detected_at_recovery",
            CaseClass::DetectedOnRead => "detected_on_read",
            CaseClass::UnverifiedSurvived => "unverified_survived",
            CaseClass::SilentCorruption => "silent_corruption",
            CaseClass::ResumeFailure => "resume_failure",
        }
    }
}

/// Campaign-wide knobs shared by every case.
#[derive(Debug, Clone, Copy)]
pub struct TortureConfig {
    /// Master seed: op stream, crash sampling and fault targeting all
    /// derive from it.
    pub seed: u64,
    /// Ops per case (the crash usually cuts the stream short).
    pub ops: usize,
    /// Model eADR (raw metadata-cache flush on crash).
    pub eadr: bool,
    /// Hold Baseline to the secure-scheme oracle. Baseline *cannot*
    /// satisfy it under applied faults — this deliberately breaks the
    /// oracle to exercise the shrinking minimiser end-to-end.
    pub strict_baseline: bool,
    /// Treat crash-window failures as oracle violations
    /// instead of expected comparison points. The model checker's
    /// replay bridge uses this to demand that an abstract
    /// counterexample reproduces as a *violation* on the concrete
    /// engine, not as a tolerated window fail.
    pub strict_windows: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            ops: 240,
            eadr: false,
            strict_baseline: false,
            strict_windows: false,
        }
    }
}

/// The audited outcome of one case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Classified outcome.
    pub class: CaseClass,
    /// Whether any injected fault actually changed the NVM image.
    pub fault_applied: bool,
    /// Leaf blocks Osiris repair fixed during recovery.
    pub repaired_leaves: u64,
    /// Pre-image journal entries the bounded store history dropped
    /// (nonzero means torn/dropped-write faults may have degraded to
    /// no-ops — the campaign surfaces it rather than hiding it).
    pub history_dropped: u64,
    /// Human-readable detail (first anomaly seen).
    pub detail: String,
}

/// The `i`-th op of the deterministic stream: `(address, fill byte)`.
/// Shared with the real-process crash campaign ([`crate::crashtest`]),
/// whose child and parent regenerate the same stream independently.
pub(crate) fn op_at(seed: u64, i: usize) -> (LineAddr, u8) {
    let mut sm = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let addr = sm.next_u64() % OP_ADDR_SPAN;
    let fill = (sm.next_u64() % 251) as u8 + 1; // never zero: distinguishes "never written"
    (LineAddr::new(addr), fill)
}

/// Builds the fault plan for a case, targeting lines the op stream
/// actually wrote (targets derive from op indices, never from map
/// iteration order, so a case replays bit-identically).
fn fault_plan(mem: &SecureMemory, cfg: &TortureConfig, case: CaseSpec, issued: usize) -> FaultPlan {
    if case.fault == FaultKind::None || (issued == 0 && case.fault != FaultKind::TornWpq) {
        return if case.fault == FaultKind::TornWpq {
            FaultPlan::tearing()
        } else {
            FaultPlan::none()
        };
    }
    let mut h = SplitMix64::new(
        cfg.seed ^ case.crash_at.wrapping_mul(0xA24B_AED4_963E_E407) ^ issued as u64,
    );
    let pick_op = |h: &mut SplitMix64| (h.next_u64() % issued.max(1) as u64) as usize;
    let geom = mem.context().geometry();
    match case.fault {
        FaultKind::None => FaultPlan::none(),
        FaultKind::TornWpq => FaultPlan::tearing(),
        FaultKind::TornCounter => {
            // Tear the counter block of the *last* persisted leaf: its
            // previous journalled content is exactly one write stale, so
            // Osiris replay distance is 1.
            let (addr, _) = op_at(cfg.seed, issued - 1);
            let leaf_addr = geom.node_addr(geom.leaf_of_data(addr));
            let words_new = 1 + (h.next_u64() % 7) as usize;
            FaultPlan::none().with_fault(NvmFault::TornWrite {
                addr: leaf_addr,
                words_new,
            })
        }
        FaultKind::BitFlipData => {
            let (addr, _) = op_at(cfg.seed, pick_op(&mut h));
            FaultPlan::none().with_fault(NvmFault::BitFlip {
                addr,
                byte: (h.next_u64() % 64) as usize,
                bit: (h.next_u64() % 8) as u8,
            })
        }
        FaultKind::BitFlipCounter => {
            let (addr, _) = op_at(cfg.seed, pick_op(&mut h));
            let leaf_addr = geom.node_addr(geom.leaf_of_data(addr));
            FaultPlan::none().with_fault(NvmFault::BitFlip {
                addr: leaf_addr,
                byte: (h.next_u64() % 64) as usize,
                bit: (h.next_u64() % 8) as u8,
            })
        }
        FaultKind::DropWrite => {
            let (addr, _) = op_at(cfg.seed, pick_op(&mut h));
            FaultPlan::none().with_fault(NvmFault::DroppedWrite { addr })
        }
        FaultKind::StuckByte => {
            let (addr, _) = op_at(cfg.seed, pick_op(&mut h));
            FaultPlan::none().with_fault(NvmFault::StuckAt {
                addr,
                byte: (h.next_u64() % 64) as usize,
                value: h.next_u64() as u8,
            })
        }
    }
}

/// Runs one case end to end: op stream → crash(+faults) → recover →
/// shadow audit → resume probe.
pub fn run_case(scheme: SchemeKind, cfg: &TortureConfig, case: CaseSpec) -> CaseResult {
    run_case_custom(scheme, cfg, case, None)
}

/// [`run_case`] with the fault plan overridden — the model checker's
/// replay bridge lowers abstract torn-prefix crashes into plans that
/// [`fault_plan`]'s rotation cannot express (`case.fault` is ignored
/// when an override is given).
pub(crate) fn run_case_custom(
    scheme: SchemeKind,
    cfg: &TortureConfig,
    case: CaseSpec,
    plan_override: Option<FaultPlan>,
) -> CaseResult {
    let mut mem = SecureMemory::new(
        SecureMemConfig::small_test(scheme)
            .with_eadr(cfg.eadr)
            .with_counter_repair(true),
    );
    mem.enable_fault_injection();
    let mut result = run_case_with(&mut mem, scheme, cfg, case, plan_override);
    result.history_dropped = mem.store().history_stats().dropped;
    result
}

/// The case body, separated so [`run_case`] can read the store's
/// journal stats after any of the early returns below.
fn run_case_with(
    mem: &mut SecureMemory,
    scheme: SchemeKind,
    cfg: &TortureConfig,
    case: CaseSpec,
    plan_override: Option<FaultPlan>,
) -> CaseResult {
    // Phase 1: the deterministic op stream, cut off at the crash cycle.
    let mut shadow: BTreeMap<u64, u8> = BTreeMap::new();
    let mut now: Cycle = 0;
    let mut issued = 0usize;
    for i in 0..case.ops {
        if now >= case.crash_at {
            break;
        }
        let (addr, fill) = op_at(cfg.seed, i);
        match mem.persist_data(addr, [fill; 64], now) {
            Ok(done) => now = done,
            Err(e) => {
                return CaseResult {
                    class: CaseClass::ResumeFailure,
                    fault_applied: false,
                    repaired_leaves: 0,
                    history_dropped: 0,
                    detail: format!("pre-crash persist of {addr} failed: {e}"),
                };
            }
        }
        shadow.insert(addr.raw(), fill);
        issued += 1;
    }

    // Phase 2: power failure with the planned faults.
    let plan = plan_override.unwrap_or_else(|| fault_plan(mem, cfg, case, issued));
    let records = mem.crash_with_faults(case.crash_at, &plan);
    let fault_applied = records.iter().any(|r| r.applied);

    audit(mem, scheme, &shadow, fault_applied)
}

/// Phases 3–5 of a case, shared with the real-process crash campaign
/// ([`crate::crashtest`]): recover, read back every line of `shadow`
/// (address → fill byte), prove the machine serves a fresh write, and
/// classify the outcome. An integrity error is a detection wherever it
/// surfaces, including on the resume probe: a damaged node that covers
/// only the probe's line is first read there.
pub(crate) fn audit(
    mem: &mut SecureMemory,
    scheme: SchemeKind,
    shadow: &BTreeMap<u64, u8>,
    fault_applied: bool,
) -> CaseResult {
    let report = mem.recover();
    let repaired_leaves = report.repaired_leaves;
    let outcome = |class, detail: String| CaseResult {
        class,
        fault_applied,
        repaired_leaves,
        history_dropped: 0,
        detail,
    };
    if report.outcome.is_failure() {
        // Only a fault-free `RootMismatch` on a scheme with a crash
        // window is the expected comparison point; any other rejection
        // is a detection the oracle weighs.
        let window = !fault_applied
            && !scheme.policy().root_crash_consistent()
            && report.outcome == RecoveryOutcome::RootMismatch;
        let class = if window {
            CaseClass::ExpectedWindowFail
        } else {
            CaseClass::DetectedAtRecovery
        };
        return outcome(class, format!("recovery: {:?}", report.outcome));
    }

    let mut t = 0;
    for (&raw, &fill) in shadow {
        match mem.read_data(LineAddr::new(raw), t) {
            Ok((data, done)) => {
                t = done;
                if data != [fill; 64] {
                    return outcome(
                        CaseClass::SilentCorruption,
                        format!("line {raw}: read wrong bytes without detection"),
                    );
                }
            }
            Err(CrashError::Integrity(e)) => {
                return outcome(CaseClass::DetectedOnRead, format!("read audit: {e}"));
            }
            Err(e) => {
                return outcome(CaseClass::ResumeFailure, format!("read audit aborted: {e}"));
            }
        }
    }

    let resume = LineAddr::new(RESUME_ADDR);
    let resumed = mem
        .persist_data(resume, [0xA5; 64], t)
        .and_then(|done| mem.read_data(resume, done));
    match resumed {
        Ok((data, _)) if data == [0xA5; 64] => {}
        Ok(_) => {
            return outcome(
                CaseClass::ResumeFailure,
                "resume write read back wrong".to_string(),
            );
        }
        Err(CrashError::Integrity(e)) => {
            return outcome(CaseClass::DetectedOnRead, format!("resume probe: {e}"));
        }
        Err(e) => {
            return outcome(
                CaseClass::ResumeFailure,
                format!("resume traffic failed: {e}"),
            );
        }
    }

    let class = if !scheme.policy().is_secure() {
        CaseClass::UnverifiedSurvived
    } else if repaired_leaves > 0 {
        CaseClass::RepairedCounter
    } else {
        CaseClass::RecoveredIntact
    };
    outcome(class, String::new())
}

/// The differential oracle: is this `(scheme, case, result)` acceptable?
///
/// Returns `Err(reason)` on a violation. `strict_baseline` folds
/// Baseline into the secure-scheme rules (deliberately unsatisfiable —
/// the shrinker-demo mode).
pub fn oracle(scheme: SchemeKind, cfg: &TortureConfig, result: &CaseResult) -> Result<(), String> {
    let secure = scheme.policy().is_secure() || cfg.strict_baseline;
    let violation = |why: &str| {
        Err(format!(
            "{scheme}: {why} ({}, fault_applied={}) {}",
            result.class.name(),
            result.fault_applied,
            result.detail
        ))
    };
    if !secure {
        // Baseline keeps counter increments dirty in the metadata cache
        // until eviction, so *any* crash (fault or not) can decrypt with
        // a stale counter — silent corruption is the paper's motivating
        // failure, never a violation here. What Baseline can never do is
        // *detect* anything: it has no verification to pass or fail.
        return match result.class {
            CaseClass::UnverifiedSurvived | CaseClass::SilentCorruption => Ok(()),
            _ => violation("baseline must survive unverified"),
        };
    }
    match result.class {
        CaseClass::SilentCorruption => violation("secure scheme served wrong data silently"),
        CaseClass::ResumeFailure => violation("machine unusable after recovery"),
        CaseClass::UnverifiedSurvived => violation("secure scheme skipped verification"),
        CaseClass::RecoveredIntact => Ok(()),
        CaseClass::RepairedCounter | CaseClass::DetectedOnRead => {
            if result.fault_applied {
                Ok(())
            } else {
                violation("damage reported without an applied fault")
            }
        }
        CaseClass::DetectedAtRecovery => {
            if result.fault_applied {
                Ok(())
            } else {
                violation("recovery rejected a fault-free crash image")
            }
        }
        CaseClass::ExpectedWindowFail => {
            if scheme.policy().root_crash_consistent()
                || (!scheme.policy().is_secure() && cfg.strict_baseline)
            {
                violation("root-crash-consistent scheme hit the crash window")
            } else if cfg.strict_windows {
                violation("crash-window failure under the strict-windows oracle")
            } else {
                Ok(())
            }
        }
    }
}

/// The torture campaign: `points` crash cases per scheme under `cfg`.
#[derive(Debug, Clone, Copy)]
pub struct Torture {
    /// Configuration in force.
    pub cfg: TortureConfig,
    /// Crash points sampled per scheme.
    pub points: usize,
}

/// Per-scheme torture sums.
#[derive(Debug, Clone, Default)]
pub struct TortureSums {
    /// Cases in which at least one fault changed the image.
    pub faults_applied: u64,
    /// Total leaf counters repaired across all cases.
    pub repaired_leaves: u64,
    /// Pre-image journal entries dropped by the bounded store history
    /// across all cases (see [`scue_nvm::HistoryStats`]).
    pub history_dropped: u64,
}

impl Campaign for Torture {
    type Case = CaseSpec;
    type Class = CaseClass;
    type Result = CaseResult;
    type Sums = TortureSums;

    const KIND: &'static str = "scue-torture";
    const SCHEMA_VERSION: u64 = 1;
    const CLASSES: &'static [CaseClass] = &CaseClass::ALL;
    const SHRINK_EVALS: u32 = 200;

    fn class_name(class: CaseClass) -> &'static str {
        class.name()
    }

    /// Even indices uniform over the stream's lifetime, odd indices
    /// jittered around persistence boundaries (where torn state is most
    /// likely), fault kinds rotating through [`FaultKind::ALL`].
    fn sample(&self, scheme: SchemeKind) -> Vec<CaseSpec> {
        let cfg = &self.cfg;
        let (boundaries, end) = probe_boundaries(scheme, cfg);
        let mut rng =
            Rng::from_seed(cfg.seed ^ (scheme as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        (0..self.points)
            .map(|i| {
                let crash_at = if i % 2 == 0 {
                    rng.gen_range(1..=end)
                } else {
                    let b = boundaries[rng.gen_range(0..boundaries.len())];
                    let jitter = rng.gen_range(0..32u64);
                    (b + jitter).saturating_sub(16).max(1)
                };
                CaseSpec {
                    ops: cfg.ops,
                    crash_at,
                    fault: FaultKind::ALL[i % FaultKind::ALL.len()],
                }
            })
            .collect()
    }

    fn run(&self, scheme: SchemeKind, case: CaseSpec) -> CaseResult {
        run_case(scheme, &self.cfg, case)
    }

    fn class(result: &CaseResult) -> CaseClass {
        result.class
    }

    fn detail(result: &CaseResult) -> &str {
        &result.detail
    }

    fn oracle(&self, scheme: SchemeKind, _: &CaseSpec, result: &CaseResult) -> Result<(), String> {
        oracle(scheme, &self.cfg, result)
    }

    /// Fewer ops and an earlier crash are "smaller"; the fault kind is
    /// pinned (it is the hypothesis under test).
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

    fn add(sums: &mut TortureSums, _: &CaseSpec, result: &CaseResult) {
        sums.faults_applied += u64::from(result.fault_applied);
        sums.repaired_leaves += result.repaired_leaves;
        sums.history_dropped += result.history_dropped;
    }

    fn params_json(&self, doc: Json) -> Json {
        doc.with("seed", Json::U64(self.cfg.seed))
            .with("points", Json::U64(self.points as u64))
            .with("ops", Json::U64(self.cfg.ops as u64))
            .with("eadr", Json::Bool(self.cfg.eadr))
            .with("strict_baseline", Json::Bool(self.cfg.strict_baseline))
            .with("strict_windows", Json::Bool(self.cfg.strict_windows))
    }

    fn sums_json(sums: &TortureSums, outcomes: Json, entry: Json) -> Json {
        entry
            .with("faults_applied", Json::U64(sums.faults_applied))
            .with("outcomes", outcomes)
            .with("repaired_leaves", Json::U64(sums.repaired_leaves))
            .with("history_dropped", Json::U64(sums.history_dropped))
    }

    fn tally_line(tally: &Tally<Self>) -> String {
        format!(
            "faults_applied={} repaired_leaves={} violations={}",
            tally.sums.faults_applied, tally.sums.repaired_leaves, tally.violations
        )
    }

    fn case_json(case: &CaseSpec, entry: Json) -> Json {
        entry
            .with("ops", Json::U64(case.ops as u64))
            .with("crash_at", Json::U64(case.crash_at))
            .with("fault", Json::Str(case.fault.name().to_string()))
    }

    fn replay_command(&self, scheme: SchemeKind, case: &CaseSpec) -> Option<String> {
        let cfg = &self.cfg;
        let mut cmd = format!("scue-torture --seed {}", cfg.seed);
        if cfg.eadr {
            cmd.push_str(" --eadr");
        }
        if cfg.strict_baseline {
            cmd.push_str(" --strict-baseline");
        }
        if cfg.strict_windows {
            cmd.push_str(" --strict-windows");
        }
        cmd.push_str(&format!(" --replay {}", case.replay_spec(scheme)));
        Some(cmd)
    }

    fn describe(result: &CaseResult) -> String {
        format!(
            "fault_applied={}, repaired_leaves={}",
            result.fault_applied, result.repaired_leaves
        )
    }

    fn warning(sums: &TortureSums) -> Option<String> {
        (sums.history_dropped > 0).then(|| {
            format!(
                "store history journal dropped {} pre-images \
                 (raise the cap if fault fidelity matters)",
                sums.history_dropped
            )
        })
    }
}

/// Probes one scheme's op stream with tracing on, returning interesting
/// crash boundaries (persist completions, WPQ drains, evictions) and the
/// stream's end cycle.
fn probe_boundaries(scheme: SchemeKind, cfg: &TortureConfig) -> (Vec<Cycle>, Cycle) {
    let mut mem = SecureMemory::new(
        SecureMemConfig::small_test(scheme)
            .with_eadr(cfg.eadr)
            .with_counter_repair(true),
    );
    mem.enable_tracing(1 << 14);
    let mut now = 0;
    for i in 0..cfg.ops {
        let (addr, fill) = op_at(cfg.seed, i);
        match mem.persist_data(addr, [fill; 64], now) {
            Ok(done) => now = done,
            Err(_) => break,
        }
    }
    let mut boundaries: Vec<Cycle> = mem
        .trace()
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
        .filter(|&c| c > 0 && c <= now)
        .collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    if boundaries.is_empty() {
        boundaries.push(now.max(1));
    }
    (boundaries, now.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> TortureConfig {
        TortureConfig {
            seed: 7,
            ops: 60,
            eadr: false,
            strict_baseline: false,
            strict_windows: false,
        }
    }

    #[test]
    fn strict_windows_turns_window_fails_into_violations() {
        let cfg = quick_cfg();
        let strict = TortureConfig {
            strict_windows: true,
            ..cfg
        };
        let result = CaseResult {
            class: CaseClass::ExpectedWindowFail,
            fault_applied: false,
            repaired_leaves: 0,
            history_dropped: 0,
            detail: String::new(),
        };
        for scheme in [SchemeKind::Lazy, SchemeKind::Eager] {
            oracle(scheme, &cfg, &result).expect("window fail is tolerated by default");
            let err = oracle(scheme, &strict, &result)
                .expect_err("strict-windows must flag the window fail");
            assert!(err.contains("strict-windows"), "{err}");
        }
        // RCC schemes are violations either way.
        oracle(SchemeKind::Scue, &cfg, &result).unwrap_err();
        oracle(SchemeKind::Scue, &strict, &result).unwrap_err();
        // And the replay command advertises the mode.
        let case = CaseSpec {
            ops: 1,
            crash_at: 10,
            fault: FaultKind::None,
        };
        let command = |cfg| {
            Torture { cfg, points: 1 }
                .replay_command(SchemeKind::Lazy, &case)
                .unwrap()
        };
        assert!(command(strict).contains("--strict-windows"));
        assert!(!command(cfg).contains("--strict-windows"));
    }

    #[test]
    fn replay_spec_round_trips() {
        for scheme in SchemeKind::ALL {
            for fault in FaultKind::ALL {
                let case = CaseSpec {
                    ops: 120,
                    crash_at: 48_213,
                    fault,
                };
                let spec = case.replay_spec(scheme);
                let (s, c) = CaseSpec::diagnose_replay(&spec).expect("own spec must parse");
                assert_eq!((s, c), (scheme, case));
                assert_eq!(c.replay_spec(s), spec, "parse→render identity");
            }
        }
        assert!(CaseSpec::diagnose_replay("scue:1:2:bogus").is_err());
        assert!(CaseSpec::diagnose_replay("scue:1:2").is_err());
        assert!(CaseSpec::diagnose_replay("scue:1:2:none:extra").is_err());
    }

    #[test]
    fn malformed_replay_specs_name_the_field_and_value() {
        for (spec, field, value) in [
            ("mercury:1:2:none", "scheme", "mercury"),
            ("scue:many:2:none", "ops", "many"),
            ("scue:1:late:none", "crash_at", "late"),
            ("scue:1:2:bogus", "fault", "bogus"),
            ("scue:1:2:none:extra", "trailing", "extra"),
        ] {
            let err = CaseSpec::diagnose_replay(spec).unwrap_err();
            assert!(err.contains(field), "{err:?} must name {field}");
            assert!(
                err.contains(&format!("`{value}`")),
                "{err:?} must show `{value}`"
            );
        }
        let err = CaseSpec::diagnose_replay("scue:1:2").unwrap_err();
        assert!(err.contains("fault"), "{err:?}");
    }

    #[test]
    fn cases_are_deterministic() {
        let cfg = quick_cfg();
        let case = CaseSpec {
            ops: 40,
            crash_at: 30_000,
            fault: FaultKind::TornWpq,
        };
        let a = run_case(SchemeKind::Scue, &cfg, case);
        let b = run_case(SchemeKind::Scue, &cfg, case);
        assert_eq!(a.class, b.class);
        assert_eq!(a.fault_applied, b.fault_applied);
        assert_eq!(a.detail, b.detail);
    }

    #[test]
    fn clean_crashes_recover_intact_on_consistent_schemes() {
        let cfg = quick_cfg();
        for scheme in [SchemeKind::Scue, SchemeKind::Plp, SchemeKind::BmfIdeal] {
            for crash_at in [5_000u64, 60_000, 400_000] {
                let case = CaseSpec {
                    ops: cfg.ops,
                    crash_at,
                    fault: FaultKind::None,
                };
                let result = run_case(scheme, &cfg, case);
                assert_eq!(
                    result.class,
                    CaseClass::RecoveredIntact,
                    "{scheme} {crash_at}"
                );
                oracle(scheme, &cfg, &result).unwrap();
            }
        }
    }

    #[test]
    fn torn_counter_under_scue_is_repaired() {
        let cfg = quick_cfg();
        // Crash late enough that several ops were issued.
        let case = CaseSpec {
            ops: cfg.ops,
            crash_at: 500_000,
            fault: FaultKind::TornCounter,
        };
        let result = run_case(SchemeKind::Scue, &cfg, case);
        oracle(SchemeKind::Scue, &cfg, &result).unwrap();
        assert!(result.fault_applied, "torn write must land: {result:?}");
        assert_eq!(result.class, CaseClass::RepairedCounter, "{result:?}");
        assert!(result.repaired_leaves > 0);
    }

    #[test]
    fn small_campaign_has_no_violations_and_expected_window_fails() {
        let cfg = quick_cfg();
        let report = campaign::run(&Torture { cfg, points: 14 }, &SchemeKind::ALL, 1);
        assert_eq!(report.total_violations(), 0, "{:?}", report.violations);
        // Lazy must hit its crash window somewhere in 14 points.
        let lazy = report
            .tallies
            .iter()
            .find(|t| t.scheme == SchemeKind::Lazy)
            .unwrap();
        assert!(
            lazy.outcomes
                .get(&CaseClass::ExpectedWindowFail)
                .copied()
                .unwrap_or(0)
                > 0,
            "{lazy:?}"
        );
        // Faults landed somewhere across the campaign.
        assert!(report.tallies.iter().any(|t| t.sums.faults_applied > 0));
    }

    #[test]
    fn broken_oracle_produces_a_shrunk_replayable_repro() {
        // strict_baseline holds Baseline to the secure oracle, which a
        // bit-flipped image cannot satisfy: a guaranteed violation.
        let cfg = TortureConfig {
            strict_baseline: true,
            ..quick_cfg()
        };
        let case = CaseSpec {
            ops: cfg.ops,
            crash_at: 500_000,
            fault: FaultKind::BitFlipData,
        };
        let result = run_case(SchemeKind::Baseline, &cfg, case);
        let message = oracle(SchemeKind::Baseline, &cfg, &result)
            .expect_err("bit flip on baseline must violate the strict oracle");
        let torture = Torture { cfg, points: 1 };
        let violation = campaign::minimise(&torture, SchemeKind::Baseline, case, message);
        assert!(violation.shrink_steps > 0, "shrinker must make progress");
        assert!(
            violation.case.ops <= case.ops && violation.case.crash_at <= case.crash_at,
            "minimal case is no larger: {violation:?}"
        );
        // The replay spec reproduces the violation exactly.
        let spec = violation.case.replay_spec(violation.scheme);
        let (scheme, replayed) = CaseSpec::diagnose_replay(&spec).unwrap();
        let replay_result = run_case(scheme, &cfg, replayed);
        oracle(scheme, &cfg, &replay_result).expect_err("replay must reproduce the violation");
        // And the printed command names the bin, seed and spec.
        let cmd = torture
            .replay_command(violation.scheme, &violation.case)
            .unwrap();
        assert!(cmd.contains("scue-torture"));
        assert!(cmd.contains("--strict-baseline"));
        assert!(cmd.contains(&spec));
    }

    #[test]
    fn campaign_is_byte_identical_across_job_counts() {
        let cfg = quick_cfg();
        let schemes = [SchemeKind::Scue, SchemeKind::Plp];
        let torture = Torture { cfg, points: 6 };
        let serial = campaign::run(&torture, &schemes, 1).to_json().render_doc();
        for jobs in [3, 7] {
            let parallel = campaign::run(&torture, &schemes, jobs)
                .to_json()
                .render_doc();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn tallies_carry_repaired_leaf_totals() {
        // A known-repairing cell (late torn counter under Scue) must
        // surface its repaired-leaf count through the merge: the tally
        // covers the repaired_counter outcome count, and its JSON
        // rendering carries the field.
        let cfg = quick_cfg();
        let case = CaseSpec {
            ops: cfg.ops,
            crash_at: 500_000,
            fault: FaultKind::TornCounter,
        };
        let result = run_case(SchemeKind::Scue, &cfg, case);
        assert_eq!(result.class, CaseClass::RepairedCounter, "{result:?}");
        assert!(result.repaired_leaves > 0, "{result:?}");
        let torture = Torture { cfg, points: 1 };
        let cell = campaign::run_cell(&torture, SchemeKind::Scue, case);
        let report = campaign::merge(&torture, &[SchemeKind::Scue], vec![cell]);
        let tally = &report.tallies[0];
        let repaired_cases = tally
            .outcomes
            .get(&CaseClass::RepairedCounter)
            .copied()
            .unwrap_or(0);
        assert_eq!(repaired_cases, 1);
        assert_eq!(tally.sums.repaired_leaves, result.repaired_leaves);
        assert!(tally.sums.repaired_leaves >= repaired_cases, "{tally:?}");
        let rendered = report.to_json().render_doc();
        assert!(
            rendered.contains(&format!("\"repaired_leaves\":{}", result.repaired_leaves)),
            "{rendered}"
        );
    }

    #[test]
    fn campaign_json_is_versioned_and_parses() {
        let cfg = quick_cfg();
        let torture = Torture { cfg, points: 7 };
        let report = campaign::run(&torture, &[SchemeKind::Scue, SchemeKind::Baseline], 1);
        let doc = report.to_json();
        let parsed = Json::parse(&doc.render_doc()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_u64),
            Some(Torture::SCHEMA_VERSION)
        );
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some(Torture::KIND)
        );
        let schemes = parsed.get("schemes").and_then(Json::as_arr).unwrap();
        assert_eq!(schemes.len(), 2);
        for s in schemes {
            let cases = s.get("cases").and_then(Json::as_u64).unwrap();
            let outcomes = s.get("outcomes").unwrap();
            let sum: u64 = CaseClass::ALL
                .iter()
                .map(|c| outcomes.get(c.name()).and_then(Json::as_u64).unwrap())
                .sum();
            assert_eq!(sum, cases, "outcome tallies must partition the cases");
        }
    }
}
