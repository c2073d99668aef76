//! Real-process crash campaigns against the durable file-backed NVM.
//!
//! Where [`crate::torture`] *simulates* power failure inside one
//! process, this harness spawns a real child process that persists a
//! deterministic op stream into a file-backed image with CoW
//! checkpoints, and the parent SIGKILLs it at a sampled epoch — so the
//! kill genuinely lands mid-persist, mid-checkpoint, or mid-fsync,
//! wherever the scheduler happens to put it. The parent then optionally
//! damages the image with a [`DurableFault`] (torn root slot, stale-slot
//! bit rot, torn page program, truncated tail), reopens it, recovers,
//! and audits the survivor with the simulated campaign's own audit
//! (`torture::audit`) and differential oracle:
//!
//! * root-crash-consistent schemes must come back with every
//!   checkpointed value intact after a clean kill, and must detect — or
//!   typed-degrade at open, never panic — any injected damage;
//! * secure schemes with a crash window keep their §III-B exemption;
//! * unverified schemes stay unverified.
//!
//! The kill is racy by design: the child may or may not have committed
//! one more checkpoint than the parent observed. The parent therefore
//! derives the audit shadow from the *image's own* committed generation
//! (each generation covers exactly `epoch × ops_per_epoch` ops of the
//! seeded stream), so every race outcome is audited exactly — the
//! pass/fail verdict is deterministic even though individual tallies
//! can differ run to run. The same race is why [`Crashtest`] runs
//! through [`crate::campaign`] without shrinking or replay.

use crate::campaign::{Campaign, Report, Tally};
use crate::torture::{self, op_at, CaseClass, CaseResult, TortureConfig};
use scue::{SchemeKind, SecureMemConfig, SecureMemory};
use scue_nvm::{apply_durable, DurableFault};
use scue_util::obs::Json;
use scue_util::rng::SplitMix64;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Campaign-wide knobs.
#[derive(Debug, Clone)]
pub struct CrashtestConfig {
    /// Master seed: op stream, kill-epoch sampling and fault targeting.
    pub seed: u64,
    /// Kill points sampled per scheme.
    pub kills: usize,
    /// Checkpoint epochs per child run.
    pub epochs: usize,
    /// Ops persisted between consecutive checkpoints.
    pub ops_per_epoch: usize,
    /// Directory holding the per-case image files.
    pub dir: PathBuf,
}

impl Default for CrashtestConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            kills: 8,
            epochs: 4,
            ops_per_epoch: 24,
            dir: std::env::temp_dir(),
        }
    }
}

/// Which durable fault (if any) the parent injects between the kill and
/// the reopen. Mirrors [`DurableFault`] minus the sampled parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DurableFaultKind {
    /// Clean kill: the CoW protocol alone must hold.
    None,
    /// Tear the newest root slot (interrupted commit).
    TornRootSlot,
    /// Flip one bit in the newest root slot (media rot).
    StaleSlotBitFlip,
    /// Tear the tail of one committed data page.
    TornPage,
    /// Chop pages off the end of the file.
    TruncateTail,
}

impl DurableFaultKind {
    /// Every kind, in rotation order.
    pub const ALL: [DurableFaultKind; 5] = [
        DurableFaultKind::None,
        DurableFaultKind::TornRootSlot,
        DurableFaultKind::StaleSlotBitFlip,
        DurableFaultKind::TornPage,
        DurableFaultKind::TruncateTail,
    ];

    /// Stable snake_case name (matches [`DurableFault::kind_name`]).
    pub fn name(self) -> &'static str {
        match self {
            DurableFaultKind::None => "none",
            DurableFaultKind::TornRootSlot => "torn_root_slot",
            DurableFaultKind::StaleSlotBitFlip => "stale_slot_bit_flip",
            DurableFaultKind::TornPage => "torn_page",
            DurableFaultKind::TruncateTail => "truncate_tail",
        }
    }

    /// Whether this fault targets the newest root slot and therefore
    /// forces a fallback to the previous checkpoint on open.
    fn forces_fallback(self) -> bool {
        matches!(
            self,
            DurableFaultKind::TornRootSlot | DurableFaultKind::StaleSlotBitFlip
        )
    }

    /// Materializes the fault with case-derived parameters.
    fn build(self, rng: &mut SplitMix64) -> Option<DurableFault> {
        match self {
            DurableFaultKind::None => None,
            DurableFaultKind::TornRootSlot => Some(DurableFault::TornRootSlot {
                words_new: (rng.next_u64() % 8) as usize + 1,
            }),
            DurableFaultKind::StaleSlotBitFlip => Some(DurableFault::StaleSlotBitFlip {
                byte: (rng.next_u64() % 64) as usize,
                bit: (rng.next_u64() % 8) as u8,
            }),
            DurableFaultKind::TornPage => Some(DurableFault::TornPage {
                nth: rng.next_u64() as usize,
                words_new: (rng.next_u64() % 256) as usize,
            }),
            DurableFaultKind::TruncateTail => Some(DurableFault::TruncateTail {
                pages: rng.next_u64() % 2 + 1,
            }),
        }
    }
}

/// One sampled kill case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct KillCase {
    /// Case index within the scheme (names the case's image file).
    pub index: usize,
    /// Kill after observing this many committed epochs (0 = right after
    /// the base checkpoint; `epochs` = let the child finish — clean
    /// shutdown is a crash point too).
    pub kill_epoch: usize,
    /// Fault injected before reopen.
    pub fault: DurableFaultKind,
}

/// Engine configuration for one scheme. eADR is off by definition: a
/// SIGKILL gives the process no chance to flush anything, which is
/// exactly the ADR contract the checkpoint models.
fn engine_config(scheme: SchemeKind) -> SecureMemConfig {
    SecureMemConfig::small_test(scheme).with_counter_repair(true)
}

// ----------------------------------------------------------------------
// The child
// ----------------------------------------------------------------------

/// The child side of the campaign: creates the durable image, persists
/// `epochs × ops_per_epoch` seeded ops with a checkpoint after each
/// epoch, and reports each committed generation on stdout (flushed, so
/// the parent's kill decision always trails a real commit):
///
/// ```text
/// base <generation>
/// epoch <generation>   (× epochs)
/// done
/// ```
pub fn run_child(
    scheme: SchemeKind,
    seed: u64,
    epochs: usize,
    ops_per_epoch: usize,
    path: &Path,
) -> Result<(), String> {
    let mut mem = SecureMemory::create_durable(engine_config(scheme), path)
        .map_err(|e| format!("create_durable: {e:?}"))?;
    let out = std::io::stdout();
    let mut out = out.lock();
    writeln!(out, "base {}", mem.image_generation())
        .and_then(|_| out.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    let mut now = 0;
    for epoch in 0..epochs {
        for i in epoch * ops_per_epoch..(epoch + 1) * ops_per_epoch {
            let (addr, fill) = op_at(seed, i);
            now = mem
                .persist_data(addr, [fill; 64], now)
                .map_err(|e| format!("persist {addr}: {e}"))?;
        }
        let report = mem
            .checkpoint(now)
            .map_err(|e| format!("checkpoint: {e:?}"))?;
        now = report.flushed_at;
        writeln!(out, "epoch {}", report.generation)
            .and_then(|_| out.flush())
            .map_err(|e| format!("stdout: {e}"))?;
    }
    writeln!(out, "done").map_err(|e| format!("stdout: {e}"))?;
    Ok(())
}

// ----------------------------------------------------------------------
// The parent
// ----------------------------------------------------------------------

/// The real-kill campaign: `cfg.kills` cases per scheme, each against
/// its own image file. `exe` is the `scue-crashtest` binary itself (the
/// child is the same executable re-entered with `--child`).
#[derive(Debug, Clone)]
pub struct Crashtest {
    /// Configuration in force.
    pub cfg: CrashtestConfig,
    /// The executable spawned as the child.
    pub exe: PathBuf,
}

/// What one case reduced to, before the oracle.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// Torture-compatible classification (open errors use
    /// [`CaseClass::DetectedAtRecovery`] but are oracle-checked by the
    /// storage rule, not the scheme rule).
    pub class: CaseClass,
    /// Whether the injected fault changed the image.
    pub fault_applied: bool,
    /// The image failed to open (typed degradation, never a panic).
    pub open_error: bool,
    /// Open fell back past a damaged newest slot.
    pub fell_back: bool,
    /// Human-readable detail (first anomaly seen).
    pub detail: String,
}

/// Per-scheme crashtest sums.
#[derive(Debug, Clone, Default)]
pub struct CrashSums {
    /// Cases whose injected fault actually changed the image.
    pub faults_applied: u64,
    /// Cases where the image refused to open (typed degradation).
    pub open_errors: u64,
    /// Cases where open fell back past a damaged newest slot.
    pub fallbacks: u64,
}

impl Report<Crashtest> {
    /// Total slot fallbacks observed across all schemes.
    pub fn total_fallbacks(&self) -> u64 {
        self.tallies.iter().map(|t| t.sums.fallbacks).sum()
    }
}

/// The crashtest oracle. Storage-layer open failures are scheme
/// independent — the CoW protocol either survived or it didn't — so
/// they are judged before the per-scheme torture oracle:
///
/// * open error with injected damage → acceptable typed degradation;
/// * open error after a *clean* kill → violation for every scheme (the
///   whole point of CoW checkpoints is that a kill alone never loses
///   the image);
/// * opened images fall through to [`torture::oracle`].
fn crash_oracle(
    cfg: &CrashtestConfig,
    scheme: SchemeKind,
    outcome: &CrashOutcome,
) -> Result<(), String> {
    if outcome.open_error {
        return if outcome.fault_applied {
            Ok(())
        } else {
            Err(format!(
                "{scheme}: image failed to open after a clean kill ({})",
                outcome.detail
            ))
        };
    }
    let tcfg = TortureConfig {
        seed: cfg.seed,
        ops: cfg.epochs * cfg.ops_per_epoch,
        eadr: false,
        strict_baseline: false,
        strict_windows: false,
    };
    let result = CaseResult {
        class: outcome.class,
        fault_applied: outcome.fault_applied,
        repaired_leaves: 0,
        history_dropped: 0,
        detail: outcome.detail.clone(),
    };
    torture::oracle(scheme, &tcfg, &result)
}

/// Spawns, observes, kills and reaps one child; returns the base
/// generation it printed (if any). The kill fires as soon as
/// `kill_epoch` committed epochs have been observed — the child is then
/// somewhere inside the next epoch's persists, checkpoint writes or
/// fsyncs, and SIGKILL gives it no chance to clean up.
fn kill_child_at_epoch(
    exe: &Path,
    scheme: SchemeKind,
    cfg: &CrashtestConfig,
    case: KillCase,
    image: &Path,
) -> Result<Option<u64>, String> {
    let mut child = Command::new(exe)
        .arg("--child")
        .arg(scheme.policy().token)
        .arg(cfg.seed.to_string())
        .arg(cfg.epochs.to_string())
        .arg(cfg.ops_per_epoch.to_string())
        .arg(image)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().ok_or("child stdout missing")?;
    let mut reader = BufReader::new(stdout);
    let mut base = None;
    let mut epochs_seen = 0usize;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break, // child exited (or died) on its own
            Ok(_) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("read child: {e}"));
            }
        }
        let mut words = line.split_whitespace();
        match (words.next(), words.next()) {
            (Some("base"), Some(g)) => base = g.parse().ok(),
            (Some("epoch"), Some(_)) => epochs_seen += 1,
            _ => {}
        }
        if base.is_some() && epochs_seen >= case.kill_epoch {
            break;
        }
    }
    // SIGKILL: no atexit, no destructors, no final fsync.
    let _ = child.kill();
    let _ = child.wait();
    Ok(base)
}

/// Runs one full case: spawn → kill → damage → reopen → recover →
/// audit → resume.
fn run_case(exe: &Path, scheme: SchemeKind, cfg: &CrashtestConfig, case: KillCase) -> CrashOutcome {
    let image = cfg.dir.join(format!(
        "scue-crash-{}-{}.img",
        scheme.policy().token,
        case.index
    ));
    let _ = std::fs::remove_file(&image);
    let outcome = run_case_at(exe, scheme, cfg, case, &image);
    let _ = std::fs::remove_file(&image);
    outcome
}

fn run_case_at(
    exe: &Path,
    scheme: SchemeKind,
    cfg: &CrashtestConfig,
    case: KillCase,
    image: &Path,
) -> CrashOutcome {
    let fail = |detail: String| CrashOutcome {
        class: CaseClass::ResumeFailure,
        fault_applied: false,
        open_error: false,
        fell_back: false,
        detail,
    };

    let base = match kill_child_at_epoch(exe, scheme, cfg, case, image) {
        Ok(Some(base)) => base,
        Ok(None) => return fail("child died before committing its base checkpoint".into()),
        Err(e) => return fail(e),
    };

    // Damage the dead child's image the way real media would.
    let mut rng = SplitMix64::new(
        cfg.seed
            ^ (case.index as u64 + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB)
            ^ (scheme as u64) << 32,
    );
    let fault_applied = match case.fault.build(&mut rng) {
        None => false,
        Some(fault) => match apply_durable(image, fault) {
            Ok(record) => record.applied,
            Err(e) => return fail(format!("fault injection failed: {e:?}")),
        },
    };

    // Reopen. Typed errors are acceptable iff we injected the damage.
    let mut mem = match SecureMemory::open_durable(engine_config(scheme), image) {
        Ok(mem) => mem,
        Err(e) => {
            return CrashOutcome {
                class: CaseClass::DetectedAtRecovery,
                fault_applied,
                open_error: true,
                fell_back: false,
                detail: format!("open: {e:?}"),
            };
        }
    };
    let fell_back = mem.image_fell_back();

    // The image's committed generation tells us exactly which prefix of
    // the op stream it must contain, however the kill raced.
    let epochs_done = mem.image_generation().wrapping_sub(base) as usize;
    if epochs_done > cfg.epochs {
        return fail(format!(
            "image generation ran ahead: base {base}, now {}",
            mem.image_generation()
        ));
    }
    let shadow: BTreeMap<u64, u8> = (0..epochs_done * cfg.ops_per_epoch)
        .map(|i| {
            let (addr, fill) = op_at(cfg.seed, i);
            (addr.raw(), fill)
        })
        .collect();

    let result = torture::audit(&mut mem, scheme, &shadow, fault_applied);
    CrashOutcome {
        class: result.class,
        fault_applied,
        open_error: false,
        fell_back,
        detail: result.detail,
    }
}

impl Campaign for Crashtest {
    type Case = KillCase;
    type Class = CaseClass;
    type Result = CrashOutcome;
    type Sums = CrashSums;

    const KIND: &'static str = "scue-crashtest";
    const SCHEMA_VERSION: u64 = 1;
    const CLASSES: &'static [CaseClass] = &CaseClass::ALL;

    fn class_name(class: CaseClass) -> &'static str {
        class.name()
    }

    /// Fallback-forcing faults pin the kill at (or past) the first epoch
    /// so the previous slot always holds a real checkpoint to fall back
    /// to — which is what makes the verify gate's `total_fallbacks ≥ 1`
    /// assertion deterministic.
    fn sample(&self, scheme: SchemeKind) -> Vec<KillCase> {
        let cfg = &self.cfg;
        let mut rng =
            SplitMix64::new(cfg.seed ^ (scheme as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        (0..cfg.kills)
            .map(|index| {
                let fault = DurableFaultKind::ALL[index % DurableFaultKind::ALL.len()];
                let mut kill_epoch = (rng.next_u64() % (cfg.epochs as u64 + 1)) as usize;
                if fault.forces_fallback() {
                    kill_epoch = kill_epoch.clamp(1, cfg.epochs);
                }
                KillCase {
                    index,
                    kill_epoch,
                    fault,
                }
            })
            .collect()
    }

    fn run(&self, scheme: SchemeKind, case: KillCase) -> CrashOutcome {
        run_case(&self.exe, scheme, &self.cfg, case)
    }

    fn class(outcome: &CrashOutcome) -> CaseClass {
        outcome.class
    }

    fn detail(outcome: &CrashOutcome) -> &str {
        &outcome.detail
    }

    fn oracle(
        &self,
        scheme: SchemeKind,
        _: &KillCase,
        outcome: &CrashOutcome,
    ) -> Result<(), String> {
        crash_oracle(&self.cfg, scheme, outcome)
    }

    fn add(sums: &mut CrashSums, _: &KillCase, outcome: &CrashOutcome) {
        sums.faults_applied += u64::from(outcome.fault_applied);
        sums.open_errors += u64::from(outcome.open_error);
        sums.fallbacks += u64::from(outcome.fell_back);
    }

    fn params_json(&self, doc: Json) -> Json {
        doc.with("seed", Json::U64(self.cfg.seed))
            .with("kills", Json::U64(self.cfg.kills as u64))
            .with("epochs", Json::U64(self.cfg.epochs as u64))
            .with("ops_per_epoch", Json::U64(self.cfg.ops_per_epoch as u64))
    }

    fn sums_json(sums: &CrashSums, outcomes: Json, entry: Json) -> Json {
        entry
            .with("faults_applied", Json::U64(sums.faults_applied))
            .with("open_errors", Json::U64(sums.open_errors))
            .with("fallbacks", Json::U64(sums.fallbacks))
            .with("outcomes", outcomes)
    }

    fn tally_line(tally: &Tally<Self>) -> String {
        let sums = &tally.sums;
        format!(
            "faults_applied={} open_errors={} fallbacks={} violations={}",
            sums.faults_applied, sums.open_errors, sums.fallbacks, tally.violations
        )
    }

    fn case_json(case: &KillCase, entry: Json) -> Json {
        entry
            .with("case", Json::U64(case.index as u64))
            .with("kill_epoch", Json::U64(case.kill_epoch as u64))
            .with("fault", Json::Str(case.fault.name().to_string()))
    }

    fn totals_json(report: &Report<Self>, doc: Json) -> Json {
        doc.with("total_fallbacks", Json::U64(report.total_fallbacks()))
    }

    fn summary(report: &Report<Self>) -> String {
        format!(
            "{} schemes × {} kills, {} slot fallbacks",
            report.tallies.len(),
            report.campaign.cfg.kills,
            report.total_fallbacks()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Violation;

    fn crashtest(kills: usize) -> Crashtest {
        Crashtest {
            cfg: CrashtestConfig {
                kills,
                ..CrashtestConfig::default()
            },
            exe: PathBuf::new(),
        }
    }

    #[test]
    fn fault_rotation_covers_every_kind() {
        let cases = crashtest(DurableFaultKind::ALL.len()).sample(SchemeKind::Scue);
        let kinds: Vec<_> = cases.iter().map(|c| c.fault).collect();
        assert_eq!(kinds, DurableFaultKind::ALL.to_vec());
        let indices: Vec<_> = cases.iter().map(|c| c.index).collect();
        assert_eq!(
            indices,
            (0..DurableFaultKind::ALL.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fallback_forcing_faults_never_kill_before_the_first_epoch() {
        let campaign = crashtest(40);
        for scheme in SchemeKind::ALL {
            for case in campaign.sample(scheme) {
                if case.fault.forces_fallback() {
                    assert!(case.kill_epoch >= 1, "{scheme}: {case:?}");
                }
                assert!(case.kill_epoch <= campaign.cfg.epochs);
            }
        }
    }

    #[test]
    fn storage_oracle_rules() {
        let cfg = CrashtestConfig::default();
        let outcome = |open_error, fault_applied, class| CrashOutcome {
            class,
            fault_applied,
            open_error,
            fell_back: false,
            detail: String::new(),
        };
        let oracle = |o: CrashOutcome| crash_oracle(&cfg, SchemeKind::Scue, &o);
        // Injected damage may make the image unopenable — typed, not a bug.
        assert!(oracle(outcome(true, true, CaseClass::DetectedAtRecovery)).is_ok());
        // A clean kill must never lose the image.
        assert!(oracle(outcome(true, false, CaseClass::DetectedAtRecovery)).is_err());
        // Opened images fall through to the scheme oracle.
        assert!(oracle(outcome(false, false, CaseClass::RecoveredIntact)).is_ok());
        assert!(oracle(outcome(false, false, CaseClass::SilentCorruption)).is_err());
    }

    #[test]
    fn report_json_shape() {
        let case = KillCase {
            index: 3,
            kill_epoch: 2,
            fault: DurableFaultKind::TornPage,
        };
        let report = Report {
            campaign: crashtest(4),
            tallies: vec![Tally {
                scheme: SchemeKind::Scue,
                cases: 4,
                outcomes: BTreeMap::from([(CaseClass::RecoveredIntact, 4)]),
                sums: CrashSums {
                    fallbacks: 1,
                    ..CrashSums::default()
                },
                violations: 1,
            }],
            violations: vec![Violation {
                scheme: SchemeKind::Scue,
                case,
                message: "m".into(),
                shrink_steps: 0,
                evals: 0,
            }],
        };
        let doc = report.to_json();
        let keys = |obj: &Json| match obj {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("not an object: {obj:?}"),
        };
        assert_eq!(
            keys(&doc),
            [
                "schema_version",
                "kind",
                "seed",
                "kills",
                "epochs",
                "ops_per_epoch",
                "schemes",
                "total_violations",
                "total_fallbacks",
                "violations"
            ]
        );
        let scheme = &doc.get("schemes").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            keys(scheme),
            [
                "scheme",
                "cases",
                "faults_applied",
                "open_errors",
                "fallbacks",
                "outcomes",
                "oracle_violations"
            ]
        );
        // Kill cases have no replay: no shrink count, no command.
        let violation = &doc.get("violations").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            keys(violation),
            ["scheme", "case", "kill_epoch", "fault", "message"]
        );
        let rendered = doc.render_doc();
        assert!(
            rendered.contains("\"kind\":\"scue-crashtest\""),
            "{rendered}"
        );
        assert!(rendered.contains("\"schema_version\":1"), "{rendered}");
        assert!(rendered.contains("\"total_fallbacks\":1"), "{rendered}");
        assert_eq!(report.total_violations(), 1);
    }
}
