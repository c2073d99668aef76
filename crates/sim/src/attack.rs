//! Seeded attack campaigns with per-scheme detection-latency oracles.
//!
//! The torture module answers "does recovery hold under *accidental*
//! damage"; this module answers Table I's other half: how quickly does
//! each scheme in the zoo notice a *deliberate* NVM tamper injected
//! mid-run? A case drives one [`SecureMemory`] through the same
//! deterministic op stream as the torture campaign ([`op_at`]), injects
//! one attack from the §IV-B2 taxonomy at a sampled op index, then
//! keeps the machine busy — the rest of the op stream plus a read scan
//! wide enough to thrash the 16-line metadata cache — counting the ops
//! until the first [`CrashError::Integrity`]. That count is the online
//! detection latency; a crash + recovery + shadow audit backstop
//! classifies everything the runtime window missed.
//!
//! Expected shape, asserted by the [`oracle`]:
//!
//! * every integrity-protected scheme detects an effective tamper —
//!   online on a verified refetch, at recovery (SCUE's Recovery_root
//!   catches the replay its shortcut write path launders), or on the
//!   post-recovery audit;
//! * Baseline never *detects* anything: tampering surfaces only as
//!   silent corruption, the paper's motivating failure;
//! * a window scheme whose backstop recovery dies of its own §III-B
//!   crash window is recorded as [`AttackClass::WindowInconclusive`] —
//!   the root was stale regardless of the attack, so the failure cannot
//!   be attributed to detection.
//!
//! [`Attack`] runs the campaign through [`crate::campaign`], which
//! shrinks oracle violations to a minimal
//! `scheme:attack:ops:inject_at` spec and reports them with a replay
//! command, exactly like the torture campaign.

use crate::campaign::{self, Campaign, Tally};
use crate::torture::op_at;
use scue::attack as tamper;
use scue::{RecoveryOutcome, RootDiscipline, SchemeKind, SecureMemConfig, SecureMemory};
use scue_itree::geometry::{NodeId, Parent};
use scue_nvm::{Cycle, LineAddr};
use scue_util::obs::{Histogram, Json};
use scue_util::rng::Rng;
use std::collections::BTreeMap;

/// Reads issued after the setup stream to evict the victim's metadata
/// (16-line, 2-way cache: 24 distinct far leaves displace everything).
const CHURN_READS: usize = 24;

/// First data line of the churn sweep — leaves 32+, far from the op
/// stream's span and from the drive scan below.
const CHURN_BASE_LINE: u64 = 2048;

/// Data line written once after the churn to drain the victim buffer,
/// so post-injection fetches really come from (tampered) NVM.
const SETTLE_LINE: u64 = 3904;

/// The drive scan walks one line per leaf across this many data lines
/// (leaves 0–31): enough distinct metadata to keep evicting and
/// refetching the tampered branch.
const SCAN_SPAN_LINES: u64 = 2048;

/// One tamper class from the §IV-B2 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackKind {
    /// Restore a recorded (line, MAC) leaf tuple: self-consistent, so
    /// only counter sums (parent dummies, Recovery_root, nvMC) tell.
    Replay,
    /// Restore old leaf counters but keep the newer MAC — caught by
    /// leaf HMAC checking.
    Rollback,
    /// Swap two leaves' self-consistent tuples across addresses — the
    /// root sum is preserved, the address-keyed MACs are not.
    Splice,
    /// Bump one counter slot of a stored intermediate SIT node — an
    /// attack on the dummy-counter mechanism itself.
    DummyCounter,
}

impl AttackKind {
    /// Every attack kind, in campaign rotation order.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::Replay,
        AttackKind::Rollback,
        AttackKind::Splice,
        AttackKind::DummyCounter,
    ];

    /// Stable name used in JSON and replay specs.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Replay => "replay",
            AttackKind::Rollback => "rollback",
            AttackKind::Splice => "splice",
            AttackKind::DummyCounter => "dummy_counter",
        }
    }

    /// Parses a replay-spec attack name.
    pub fn parse(s: &str) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One attack case: which tamper, how long the op stream runs, and the
/// op index after which the tamper lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AttackSpec {
    /// The injected attack.
    pub attack: AttackKind,
    /// Total persists in the deterministic op stream.
    pub ops: usize,
    /// Injection point: the attack lands after this many ops
    /// (`inject_at <= ops`; the remaining ops become drive traffic).
    pub inject_at: usize,
}

impl AttackSpec {
    /// Renders the scheme-qualified replay spec
    /// (`scheme:attack:ops:inject_at`).
    pub fn replay_spec(&self, scheme: SchemeKind) -> String {
        format!(
            "{}:{}:{}:{}",
            scheme.policy().token,
            self.attack.name(),
            self.ops,
            self.inject_at
        )
    }

    /// Parses a `scheme:attack:ops:inject_at` replay spec; the error
    /// names the offending field and echoes the offending value.
    pub fn diagnose_replay(spec: &str) -> Result<(SchemeKind, AttackSpec), String> {
        campaign::parse_spec(spec, |fields| {
            let attack = fields.field("attack", AttackKind::parse)?;
            let (ops, ops_token) = fields.token("ops", |s| s.parse::<usize>().ok())?;
            let (inject_at, inject_token) = fields.token("inject_at", |s| s.parse().ok())?;
            if inject_at > ops {
                return Err(format!(
                    "invalid inject_at in replay spec: `{inject_token}` exceeds ops `{ops_token}`"
                ));
            }
            Ok(AttackSpec {
                attack,
                ops,
                inject_at,
            })
        })
    }
}

/// How one attack case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackClass {
    /// A drive-phase access raised [`CrashError::Integrity`].
    DetectedOnline,
    /// The backstop recovery rejected the image (leaf MAC / root / nvMC
    /// mismatch attributable to the tamper).
    DetectedAtRecovery,
    /// Recovery passed but the post-recovery shadow audit raised an
    /// integrity error.
    DetectedOnAudit,
    /// A non-root-crash-consistent scheme failed backstop recovery with
    /// `RootMismatch` — its own §III-B window, not attributable to the
    /// attack.
    WindowInconclusive,
    /// A read returned wrong bytes with no error (online or at audit).
    SilentCorruption,
    /// The tamper changed NVM but legitimate write-backs overwrote the
    /// evidence before anything verified it; the audit proved every
    /// persisted value intact.
    UndetectedErased,
    /// The injection did not change NVM at all (e.g. a replay of a leaf
    /// that was never rewritten), so there was nothing to detect.
    UndetectedNoop,
    /// The tamper is still in NVM, nothing detected it, and the audit
    /// passed — a detection hole (oracle violation on secure schemes).
    Undetected,
    /// The engine failed for a non-integrity reason.
    EngineFailure,
}

impl AttackClass {
    /// Every class, in JSON tally order.
    pub const ALL: [AttackClass; 9] = [
        AttackClass::DetectedOnline,
        AttackClass::DetectedAtRecovery,
        AttackClass::DetectedOnAudit,
        AttackClass::WindowInconclusive,
        AttackClass::SilentCorruption,
        AttackClass::UndetectedErased,
        AttackClass::UndetectedNoop,
        AttackClass::Undetected,
        AttackClass::EngineFailure,
    ];

    /// Stable snake_case name used as the JSON tally key.
    pub fn name(self) -> &'static str {
        match self {
            AttackClass::DetectedOnline => "detected_online",
            AttackClass::DetectedAtRecovery => "detected_at_recovery",
            AttackClass::DetectedOnAudit => "detected_on_audit",
            AttackClass::WindowInconclusive => "window_inconclusive",
            AttackClass::SilentCorruption => "silent_corruption",
            AttackClass::UndetectedErased => "undetected_erased",
            AttackClass::UndetectedNoop => "undetected_noop",
            AttackClass::Undetected => "undetected",
            AttackClass::EngineFailure => "engine_failure",
        }
    }

    /// Whether the scheme *reported* the tamper (any detection bucket).
    pub fn is_detection(self) -> bool {
        matches!(
            self,
            AttackClass::DetectedOnline
                | AttackClass::DetectedAtRecovery
                | AttackClass::DetectedOnAudit
        )
    }
}

/// Campaign-wide knobs shared by every case.
#[derive(Debug, Clone, Copy)]
pub struct AttackConfig {
    /// Master seed: op stream and injection-point sampling derive from
    /// it.
    pub seed: u64,
    /// Persists in each case's op stream (at least 2, so an injection
    /// point exists inside the stream).
    pub ops: usize,
    /// Read-scan budget after the op stream ends.
    pub drive_ops: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            ops: 96,
            drive_ops: 160,
        }
    }
}

/// The audited outcome of one attack case.
#[derive(Debug, Clone)]
pub struct AttackCaseResult {
    /// Classified outcome.
    pub class: AttackClass,
    /// Whether the injection actually changed NVM bytes (line or MAC).
    pub mutated: bool,
    /// Ops completed after injection before the first integrity error
    /// (`Some` only for [`AttackClass::DetectedOnline`]).
    pub latency: Option<u64>,
    /// Human-readable detail (first anomaly seen).
    pub detail: String,
}

/// One (line, sideband-MAC) NVM snapshot of a tampered address, used to
/// decide mutation and erasure.
#[derive(Clone, Copy, PartialEq, Eq)]
struct NvmTuple {
    line: [u8; 64],
    mac: u64,
}

fn snapshot(mem: &SecureMemory, addr: LineAddr) -> NvmTuple {
    NvmTuple {
        line: mem.store().read_line(addr),
        mac: mem.sideband().get(addr),
    }
}

/// Runs one attack case end to end: setup stream → cache churn →
/// injection → drive (remaining persists + read scan) → crash /
/// recover / audit backstop.
pub fn run_attack_case(
    scheme: SchemeKind,
    cfg: &AttackConfig,
    spec: AttackSpec,
) -> AttackCaseResult {
    let fail = |detail: String| AttackCaseResult {
        class: AttackClass::EngineFailure,
        mutated: false,
        latency: None,
        detail,
    };
    let mut mem = SecureMemory::new(SecureMemConfig::small_test(scheme).with_counter_repair(true));
    let geom = mem.context().geometry().clone();
    let inject_at = spec.inject_at.min(spec.ops);
    let target_op = inject_at / 2;
    let (target_addr, _) = op_at(cfg.seed, target_op);
    let target_leaf = geom.leaf_of_data(target_addr).index;

    // Phase 1: setup stream, recording the replay capsule mid-way (what
    // a bus snooper captures while the victim runs).
    let mut shadow: BTreeMap<u64, u8> = BTreeMap::new();
    let mut now: Cycle = 0;
    let mut capsule = None;
    for i in 0..inject_at {
        let (addr, fill) = op_at(cfg.seed, i);
        match mem.persist_data(addr, [fill; 64], now) {
            Ok(done) => now = done,
            Err(e) => return fail(format!("setup persist of {addr} failed: {e}")),
        }
        shadow.insert(addr.raw(), fill);
        if i == target_op {
            capsule = Some(tamper::record_leaf(&mem, target_leaf));
        }
    }

    // Phase 2: evict the victim branch (churn reads over far leaves),
    // then drain the victim buffer with one persist so post-injection
    // fetches really hit NVM.
    for j in 0..CHURN_READS {
        let addr = LineAddr::new(CHURN_BASE_LINE + j as u64 * 64);
        match mem.read_data(addr, now) {
            Ok((_, done)) => now = done,
            Err(e) => return fail(format!("churn read of {addr} failed: {e}")),
        }
    }
    let settle = LineAddr::new(SETTLE_LINE);
    match mem.persist_data(settle, [0x5C; 64], now) {
        Ok(done) => now = done,
        Err(e) => return fail(format!("settle persist failed: {e}")),
    }
    shadow.insert(settle.raw(), 0x5C);

    // Phase 3: injection. Snapshot the affected NVM tuples around the
    // tamper so mutation (did it change anything?) and erasure (was the
    // evidence later overwritten?) are decidable.
    //
    // The dummy-counter attack has no target under a per-leaf nvMC: the
    // trust base is on chip, not the stored SIT intermediate levels, so
    // tampering those lines attacks storage the scheme never reads.
    // Modelled — like a leaf whose parent is the attack-proof on-chip
    // root — as a no-op injection.
    let dummy_parent = match geom.parent(NodeId::new(0, target_leaf)) {
        Parent::Node(p) if scheme.policy().root != RootDiscipline::PerLeaf => Some(p),
        _ => None,
    };
    let affected: Vec<LineAddr> = match spec.attack {
        AttackKind::Replay | AttackKind::Rollback => match &capsule {
            Some(c) => vec![c.addr()],
            None => Vec::new(),
        },
        AttackKind::Splice => {
            let other = (target_leaf + 1) % 3;
            vec![
                geom.node_addr(NodeId::new(0, target_leaf)),
                geom.node_addr(NodeId::new(0, other)),
            ]
        }
        AttackKind::DummyCounter => dummy_parent
            .map(|p| vec![geom.node_addr(p)])
            .unwrap_or_default(),
    };
    let before: Vec<NvmTuple> = affected.iter().map(|&a| snapshot(&mem, a)).collect();
    match spec.attack {
        AttackKind::Replay => {
            if let Some(c) = &capsule {
                tamper::replay_leaf(&mut mem, c);
            }
        }
        AttackKind::Rollback => {
            if let Some(c) = &capsule {
                tamper::roll_back_leaf(&mut mem, c);
            }
        }
        AttackKind::Splice => {
            tamper::splice_leaves(&mut mem, target_leaf, (target_leaf + 1) % 3);
        }
        AttackKind::DummyCounter => {
            if let Some(parent) = dummy_parent {
                let slot = NodeId::new(0, target_leaf).parent_slot();
                tamper::tamper_dummy_counter(&mut mem, parent.level, parent.index, slot);
            }
        }
    }
    let tampered: Vec<NvmTuple> = affected.iter().map(|&a| snapshot(&mem, a)).collect();
    let mutated = before != tampered;

    // Phase 4: drive to first detection. The rest of the op stream runs
    // with probe reads of the victim line interleaved, then a read scan
    // walks one line per leaf to keep refetching through the tampered
    // branch. Every access counts one op of latency.
    let mut steps: u64 = 0;
    let mut online: Option<AttackCaseResult> = None;
    let check_read = |mem: &mut SecureMemory,
                      addr: LineAddr,
                      now: &mut Cycle,
                      steps: &mut u64,
                      shadow: &BTreeMap<u64, u8>|
     -> Option<AttackCaseResult> {
        *steps += 1;
        match mem.read_data(addr, *now) {
            Ok((data, done)) => {
                *now = done;
                if let Some(&fill) = shadow.get(&addr.raw()) {
                    if data != [fill; 64] {
                        return Some(AttackCaseResult {
                            class: AttackClass::SilentCorruption,
                            mutated,
                            latency: None,
                            detail: format!("online read of {addr} returned wrong bytes"),
                        });
                    }
                }
                None
            }
            Err(e) => match e.as_integrity() {
                Some(ie) => Some(AttackCaseResult {
                    class: AttackClass::DetectedOnline,
                    mutated,
                    latency: Some(*steps),
                    detail: format!("online: {ie}"),
                }),
                None => Some(AttackCaseResult {
                    class: AttackClass::EngineFailure,
                    mutated,
                    latency: None,
                    detail: format!("drive read of {addr} failed: {e}"),
                }),
            },
        }
    };
    'drive: {
        for i in inject_at..spec.ops {
            let (addr, fill) = op_at(cfg.seed, i);
            steps += 1;
            match mem.persist_data(addr, [fill; 64], now) {
                Ok(done) => {
                    now = done;
                    shadow.insert(addr.raw(), fill);
                }
                Err(e) => {
                    online = Some(match e.as_integrity() {
                        Some(ie) => AttackCaseResult {
                            class: AttackClass::DetectedOnline,
                            mutated,
                            latency: Some(steps),
                            detail: format!("online: {ie}"),
                        },
                        None => AttackCaseResult {
                            class: AttackClass::EngineFailure,
                            mutated,
                            latency: None,
                            detail: format!("drive persist of {addr} failed: {e}"),
                        },
                    });
                    break 'drive;
                }
            }
            if i % 2 == 1 {
                if let Some(r) = check_read(&mut mem, target_addr, &mut now, &mut steps, &shadow) {
                    online = Some(r);
                    break 'drive;
                }
            }
        }
        for k in 0..cfg.drive_ops {
            let addr = if k % 3 == 2 {
                target_addr
            } else {
                LineAddr::new((k as u64 * 64) % SCAN_SPAN_LINES)
            };
            if let Some(r) = check_read(&mut mem, addr, &mut now, &mut steps, &shadow) {
                online = Some(r);
                break 'drive;
            }
        }
    }
    if let Some(result) = online {
        return result;
    }

    // Phase 5: backstop. Decide whether the tamper evidence is still in
    // NVM, then crash, recover, and audit every persisted value.
    let erased = !affected.is_empty()
        && affected
            .iter()
            .zip(&tampered)
            .all(|(&a, t)| snapshot(&mem, a) != *t);
    mem.crash(now);
    let report = mem.recover();
    if report.outcome.is_failure() {
        let class = if !scheme.policy().root_crash_consistent()
            && report.outcome == RecoveryOutcome::RootMismatch
        {
            AttackClass::WindowInconclusive
        } else {
            AttackClass::DetectedAtRecovery
        };
        return AttackCaseResult {
            class,
            mutated,
            latency: None,
            detail: format!("recovery: {:?}", report.outcome),
        };
    }
    let mut t = 0;
    for (&raw, &fill) in &shadow {
        match mem.read_data(LineAddr::new(raw), t) {
            Ok((data, done)) => {
                t = done;
                if data != [fill; 64] {
                    return AttackCaseResult {
                        class: AttackClass::SilentCorruption,
                        mutated,
                        latency: None,
                        detail: format!("audit read of line {raw} returned wrong bytes"),
                    };
                }
            }
            Err(e) => {
                return match e.as_integrity() {
                    Some(ie) => AttackCaseResult {
                        class: AttackClass::DetectedOnAudit,
                        mutated,
                        latency: None,
                        detail: format!("audit: {ie}"),
                    },
                    None => AttackCaseResult {
                        class: AttackClass::EngineFailure,
                        mutated,
                        latency: None,
                        detail: format!("audit read of line {raw} failed: {e}"),
                    },
                };
            }
        }
    }
    let class = if !mutated {
        AttackClass::UndetectedNoop
    } else if erased {
        AttackClass::UndetectedErased
    } else {
        AttackClass::Undetected
    };
    AttackCaseResult {
        class,
        mutated,
        latency: None,
        detail: String::new(),
    }
}

/// The attack oracle: is this `(scheme, spec, result)` acceptable?
///
/// Returns `Err(reason)` on a violation.
pub fn oracle(
    scheme: SchemeKind,
    spec: AttackSpec,
    result: &AttackCaseResult,
) -> Result<(), String> {
    let violation = |why: &str| {
        Err(format!(
            "{scheme}: {} {why} ({}, mutated={}) {}",
            spec.attack.name(),
            result.class.name(),
            result.mutated,
            result.detail
        ))
    };
    if !scheme.policy().is_secure() {
        // Baseline has no verification to pass or fail: any *detection*
        // is a modelling bug. Silent corruption — or nothing observable
        // at all — is the expected Table I row.
        return match result.class {
            AttackClass::SilentCorruption
            | AttackClass::Undetected
            | AttackClass::UndetectedErased
            | AttackClass::UndetectedNoop => Ok(()),
            _ => violation("baseline cannot detect tampering"),
        };
    }
    match result.class {
        AttackClass::DetectedOnline
        | AttackClass::DetectedAtRecovery
        | AttackClass::DetectedOnAudit => {
            if result.mutated {
                Ok(())
            } else {
                violation("detection reported without an effective tamper")
            }
        }
        AttackClass::WindowInconclusive => {
            if scheme.policy().root_crash_consistent() {
                violation("root-crash-consistent scheme hit the crash window")
            } else {
                Ok(())
            }
        }
        AttackClass::SilentCorruption => violation("secure scheme served tampered data silently"),
        AttackClass::Undetected => violation("effective tamper left undetected in NVM"),
        AttackClass::UndetectedErased | AttackClass::UndetectedNoop => Ok(()),
        AttackClass::EngineFailure => violation("engine failure during the attack case"),
    }
}

/// The attack campaign: `points` attack cases per scheme under `cfg`.
#[derive(Debug, Clone, Copy)]
pub struct Attack {
    /// Configuration in force.
    pub cfg: AttackConfig,
    /// Cases sampled per scheme.
    pub points: usize,
}

/// Per-scheme attack sums.
#[derive(Debug, Clone, Default)]
pub struct AttackSums {
    /// Cases whose injection actually changed NVM.
    pub mutated: u64,
    /// Outcome tallies per attack kind, aligned with
    /// [`AttackKind::ALL`].
    pub per_attack: [BTreeMap<AttackClass, u64>; 4],
    /// Online detection latencies (ops from injection to the first
    /// integrity error).
    pub latency: Histogram,
}

impl Campaign for Attack {
    type Case = AttackSpec;
    type Class = AttackClass;
    type Result = AttackCaseResult;
    type Sums = AttackSums;

    const KIND: &'static str = "scue-attack";
    const SCHEMA_VERSION: u64 = 1;
    const CLASSES: &'static [AttackClass] = &AttackClass::ALL;
    const SHRINK_EVALS: u32 = 120;

    fn class_name(class: AttackClass) -> &'static str {
        class.name()
    }

    /// Attack kinds rotate through [`AttackKind::ALL`]; injection points
    /// spread over the middle of the op stream.
    fn sample(&self, scheme: SchemeKind) -> Vec<AttackSpec> {
        let ops = self.cfg.ops;
        let mut rng =
            Rng::from_seed(self.cfg.seed ^ (scheme as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        let lo = (ops / 4).max(1);
        (0..self.points)
            .map(|i| AttackSpec {
                attack: AttackKind::ALL[i % AttackKind::ALL.len()],
                ops,
                inject_at: rng.gen_range(lo..ops),
            })
            .collect()
    }

    fn run(&self, scheme: SchemeKind, spec: AttackSpec) -> AttackCaseResult {
        run_attack_case(scheme, &self.cfg, spec)
    }

    fn class(result: &AttackCaseResult) -> AttackClass {
        result.class
    }

    fn detail(result: &AttackCaseResult) -> &str {
        &result.detail
    }

    fn oracle(
        &self,
        scheme: SchemeKind,
        spec: &AttackSpec,
        result: &AttackCaseResult,
    ) -> Result<(), String> {
        oracle(scheme, *spec, result)
    }

    /// Fewer ops and an earlier injection are "smaller"; the attack kind
    /// is pinned (it is the hypothesis under test).
    fn shrink(&self, v: &AttackSpec) -> Vec<AttackSpec> {
        let mut out = Vec::new();
        if v.ops > 1 {
            for ops in [1, v.ops / 2, v.ops - 1] {
                out.push(AttackSpec {
                    ops,
                    inject_at: v.inject_at.min(ops),
                    ..*v
                });
            }
        }
        if v.inject_at > 0 {
            for inject_at in [0, v.inject_at / 2, v.inject_at - 1] {
                out.push(AttackSpec { inject_at, ..*v });
            }
        }
        out.retain(|c| c != v);
        out
    }

    fn add(sums: &mut AttackSums, spec: &AttackSpec, result: &AttackCaseResult) {
        sums.mutated += u64::from(result.mutated);
        let kind = AttackKind::ALL.iter().position(|&k| k == spec.attack);
        *sums.per_attack[kind.unwrap_or(0)]
            .entry(result.class)
            .or_insert(0) += 1;
        if let Some(latency) = result.latency {
            sums.latency.record(latency);
        }
    }

    fn params_json(&self, doc: Json) -> Json {
        doc.with("seed", Json::U64(self.cfg.seed))
            .with("points", Json::U64(self.points as u64))
            .with("ops", Json::U64(self.cfg.ops as u64))
            .with("drive_ops", Json::U64(self.cfg.drive_ops as u64))
    }

    fn sums_json(sums: &AttackSums, outcomes: Json, entry: Json) -> Json {
        let attacks = AttackKind::ALL
            .iter()
            .zip(&sums.per_attack)
            .map(|(kind, tally)| {
                Json::obj()
                    .with("attack", Json::Str(kind.name().to_string()))
                    .with("outcomes", campaign::outcomes_json::<Attack>(tally))
            })
            .collect();
        entry
            .with("mutated", Json::U64(sums.mutated))
            .with("outcomes", outcomes)
            .with("attacks", Json::Arr(attacks))
            .with("detection_latency", sums.latency.summary_json())
    }

    fn tally_line(tally: &Tally<Self>) -> String {
        let latency = &tally.sums.latency;
        let latency = if latency.is_empty() {
            "latency=none".to_string()
        } else {
            format!(
                "latency(n={} mean={:.1} max={})",
                latency.count(),
                latency.mean(),
                latency.max(),
            )
        };
        format!(
            "mutated={} violations={} {latency}",
            tally.sums.mutated, tally.violations
        )
    }

    fn case_json(spec: &AttackSpec, entry: Json) -> Json {
        entry
            .with("attack", Json::Str(spec.attack.name().to_string()))
            .with("ops", Json::U64(spec.ops as u64))
            .with("inject_at", Json::U64(spec.inject_at as u64))
    }

    fn replay_command(&self, scheme: SchemeKind, spec: &AttackSpec) -> Option<String> {
        Some(format!(
            "scue-attack --seed {} --drive {} --replay {}",
            self.cfg.seed,
            self.cfg.drive_ops,
            spec.replay_spec(scheme)
        ))
    }

    fn describe(result: &AttackCaseResult) -> String {
        match result.latency {
            Some(l) => format!("mutated={}, latency={l}", result.mutated),
            None => format!("mutated={}", result.mutated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AttackConfig {
        AttackConfig {
            seed: 5,
            ops: 48,
            drive_ops: 120,
        }
    }

    #[test]
    fn replay_specs_round_trip_for_every_scheme_and_attack() {
        for scheme in SchemeKind::ALL {
            for attack in AttackKind::ALL {
                let spec = AttackSpec {
                    attack,
                    ops: 48,
                    inject_at: 17,
                };
                let rendered = spec.replay_spec(scheme);
                let (s2, spec2) = AttackSpec::diagnose_replay(&rendered)
                    .unwrap_or_else(|e| panic!("`{rendered}` must parse: {e}"));
                assert_eq!(s2, scheme);
                assert_eq!(spec2, spec);
                assert_eq!(spec2.replay_spec(s2), rendered, "parse→render identity");
            }
        }
    }

    #[test]
    fn malformed_replay_specs_name_the_field_and_value() {
        for (spec, field, value) in [
            ("mercury:replay:48:17", "scheme", "mercury"),
            ("scue:teleport:48:17", "attack", "teleport"),
            ("scue:replay:many:17", "ops", "many"),
            ("scue:replay:48:soon", "inject_at", "soon"),
            ("scue:replay:48:49", "inject_at", "49"),
            ("scue:replay:48:17:extra", "trailing", "extra"),
        ] {
            let err = AttackSpec::diagnose_replay(spec).unwrap_err();
            assert!(err.contains(field), "{err:?} must name {field}");
            assert!(
                err.contains(&format!("`{value}`")),
                "{err:?} must show `{value}`"
            );
        }
        let err = AttackSpec::diagnose_replay("scue:replay").unwrap_err();
        assert!(err.contains("ops"), "{err:?}");
    }

    #[test]
    fn scue_detects_every_attack_kind() {
        let cfg = quick_cfg();
        for attack in AttackKind::ALL {
            let spec = AttackSpec {
                attack,
                ops: 48,
                inject_at: 24,
            };
            let result = run_attack_case(SchemeKind::Scue, &cfg, spec);
            assert!(
                result.class.is_detection(),
                "{}: {:?}",
                attack.name(),
                result
            );
            assert!(result.mutated, "{}: injection must bite", attack.name());
            oracle(SchemeKind::Scue, spec, &result).unwrap();
        }
    }

    #[test]
    fn baseline_never_detects() {
        let cfg = quick_cfg();
        for attack in AttackKind::ALL {
            let spec = AttackSpec {
                attack,
                ops: 48,
                inject_at: 24,
            };
            let result = run_attack_case(SchemeKind::Baseline, &cfg, spec);
            assert!(
                !result.class.is_detection(),
                "{}: baseline cannot verify, got {:?}",
                attack.name(),
                result
            );
            oracle(SchemeKind::Baseline, spec, &result).unwrap();
        }
    }

    #[test]
    fn oracle_rejects_the_failure_modes() {
        let spec = AttackSpec {
            attack: AttackKind::Replay,
            ops: 10,
            inject_at: 5,
        };
        let result = |class, mutated| AttackCaseResult {
            class,
            mutated,
            latency: None,
            detail: String::new(),
        };
        // Secure scheme serving tampered data or missing the tamper.
        for class in [AttackClass::SilentCorruption, AttackClass::Undetected] {
            let err = oracle(SchemeKind::Scue, spec, &result(class, true)).unwrap_err();
            assert!(err.to_lowercase().contains("scue"), "{err}");
        }
        // RCC scheme has no window to blame.
        oracle(
            SchemeKind::Scue,
            spec,
            &result(AttackClass::WindowInconclusive, true),
        )
        .unwrap_err();
        oracle(
            SchemeKind::Lazy,
            spec,
            &result(AttackClass::WindowInconclusive, true),
        )
        .unwrap();
        // Baseline claiming a detection is a modelling bug.
        oracle(
            SchemeKind::Baseline,
            spec,
            &result(AttackClass::DetectedOnline, true),
        )
        .unwrap_err();
        // Detection without an effective tamper is phantom detection.
        oracle(
            SchemeKind::Scue,
            spec,
            &result(AttackClass::DetectedOnline, false),
        )
        .unwrap_err();
    }

    #[test]
    fn campaign_is_clean_and_jobs_invariant_at_small_scale() {
        let cfg = quick_cfg();
        let schemes = [SchemeKind::Baseline, SchemeKind::Lazy, SchemeKind::Scue];
        let attack = Attack { cfg, points: 4 };
        let serial = campaign::run(&attack, &schemes, 1);
        assert_eq!(serial.total_violations(), 0, "{:?}", serial.violations);
        let rendered = serial.to_json().render_doc();
        for jobs in [3, 5] {
            let parallel = campaign::run(&attack, &schemes, jobs)
                .to_json()
                .render_doc();
            assert_eq!(parallel, rendered, "jobs={jobs}");
        }
        // Secure schemes must show online latencies; Baseline must not.
        for tally in &serial.tallies {
            if tally.scheme.policy().is_secure() {
                assert!(
                    !tally.sums.latency.is_empty(),
                    "{}: no online detections",
                    tally.scheme
                );
            } else {
                assert!(tally.sums.latency.is_empty());
            }
        }
    }

    #[test]
    fn document_is_versioned_and_outcomes_partition_cases() {
        let cfg = quick_cfg();
        let attack = Attack { cfg, points: 4 };
        let report = campaign::run(&attack, &[SchemeKind::Scue, SchemeKind::Baseline], 1);
        let doc = Json::parse(&report.to_json().render_doc()).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(Attack::SCHEMA_VERSION)
        );
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some(Attack::KIND));
        for s in doc.get("schemes").and_then(Json::as_arr).unwrap() {
            let cases = s.get("cases").and_then(Json::as_u64).unwrap();
            let outcomes = s.get("outcomes").unwrap();
            let sum: u64 = AttackClass::ALL
                .iter()
                .map(|c| outcomes.get(c.name()).and_then(Json::as_u64).unwrap())
                .sum();
            assert_eq!(sum, cases, "outcomes must partition the cases");
            let per_attack: u64 = s
                .get("attacks")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .flat_map(|a| {
                    let o = a.get("outcomes").unwrap();
                    AttackClass::ALL
                        .iter()
                        .map(|c| o.get(c.name()).and_then(Json::as_u64).unwrap())
                        .collect::<Vec<_>>()
                })
                .sum();
            assert_eq!(per_attack, cases, "per-attack tallies must partition too");
        }
    }
}
