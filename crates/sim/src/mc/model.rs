//! The abstract persist-pipeline model: states, actions, crashes and
//! per-scheme recovery verdicts.
//!
//! One abstract **op** is a leaf-counter persist to one of a handful of
//! counter blocks. The model keeps exactly the state the root-crash-
//! consistency argument turns on, and nothing else:
//!
//! * per-block committed write counts (`issued`) — the leaf dummy
//!   counters, durable at write acceptance because ADR admits the WPQ
//!   to the persistence domain;
//! * the metadata WPQ as a FIFO of `(block, value)` rewrites still
//!   draining — the set a failed-ADR crash can tear at 8-byte
//!   granularity;
//! * the un-settled root increment (`pending`) — Eager's deferred
//!   `Recovery_root` update, alive between hash completion and the
//!   next settle point;
//! * the trust base implied by the scheme's [`RootDiscipline`] (read
//!   from its policy row, not stored).
//!
//! Transition granularity encodes each discipline's atomicity claim. A
//! running-root or `Recovery_root` update happens *inside*
//! [`Action::Issue`] (the paper's §IV-A/§II-C synchronous update); a
//! deferred one lands only at [`Action::SettleRoot`]; a stale root never
//! moves. An `Issue` settles any
//! outstanding pending increment first, because the concrete engine's
//! persist path settles completed hash updates on entry and every op's
//! completion cycle covers its own hash latency — two un-settled
//! increments are concretely unreachable.

use scue::{RootDiscipline, SchemeKind};

/// Most counter blocks a model instance may track (the concrete
/// `small_test` op span covers three leaves).
pub const MAX_BLOCKS: usize = 3;

/// 8-byte words per persisted line — the torn-write granularity
/// (mirrors [`scue_nvm::WORDS_PER_LINE`]).
pub const MODEL_WORDS: u8 = 8;

/// One in-flight metadata WPQ entry: block `block` being rewritten to
/// counter value `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WpqEntry {
    /// Counter block index.
    pub block: u8,
    /// The counter value this rewrite carries.
    pub value: u8,
}

/// One abstract machine state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelState {
    /// Committed (accepted) writes per block — the leaf dummy counters.
    pub issued: [u8; MAX_BLOCKS],
    /// Metadata WPQ, oldest entry first.
    pub wpq: Vec<WpqEntry>,
    /// Un-settled root increments (Deferred discipline only; 0 or 1 by
    /// the auto-settle rule).
    pub pending: u8,
}

/// One transition of the abstract machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Persist one op to `block`: settle any pending root increment,
    /// bump the leaf counter, enqueue the WPQ rewrite, and apply the
    /// scheme's synchronous trust update (running root, `Recovery_root`
    /// or per-leaf register) or queue the deferred one.
    Issue {
        /// Target counter block.
        block: u8,
    },
    /// The oldest WPQ entry finishes draining to media.
    DrainWpq,
    /// The deferred root increment completes (Eager's hash finishes
    /// and `Recovery_root` absorbs it).
    SettleRoot,
}

impl Action {
    /// Stable token used in witness traces and goldens.
    pub fn token(self) -> String {
        match self {
            Action::Issue { block } => format!("issue:{block}"),
            Action::DrainWpq => "drain".to_string(),
            Action::SettleRoot => "settle".to_string(),
        }
    }
}

/// When power fails, what the WPQ does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// ADR holds: every WPQ entry drains whole. The *clean* crash —
    /// the only mode a root-crash-consistency witness may use.
    Adr,
    /// ADR fails mid-drain: entries `[0, drained)` complete, entry
    /// `drained` persists only its first `words_new` 8-byte words
    /// (0 ⇒ dropped entirely), everything behind it is lost.
    Torn {
        /// Entries that drained whole before the tear.
        drained: u8,
        /// 8-byte words of the torn entry that reached media (0..=7).
        words_new: u8,
    },
}

impl CrashMode {
    /// Stable token used in witness traces and goldens.
    pub fn token(self) -> String {
        match self {
            CrashMode::Adr => "adr".to_string(),
            CrashMode::Torn { drained, words_new } => format!("torn:{drained}:{words_new}"),
        }
    }
}

/// How one post-crash recovery attempt classifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Recovery passes and the recovered state covers every committed op.
    Clean,
    /// A torn/rolled-back leaf was caught and rolled forward (Osiris
    /// counter repair), after which the trust base matches.
    Repaired,
    /// Recovery reports the damage (leaf MAC, nvMC register, or root
    /// mismatch) on a crash that *did* tear state — detection, not a
    /// violation.
    Detected,
    /// Recovery's trust base disagrees with the committed ops after a
    /// **clean** crash: the root-crash-consistency violation the
    /// checker hunts (§III-B).
    Inconsistent,
    /// The scheme verifies nothing (Baseline).
    Unverified,
}

impl Verdict {
    /// Every verdict, in JSON tally order.
    pub const ALL: [Verdict; 5] = [
        Verdict::Clean,
        Verdict::Repaired,
        Verdict::Detected,
        Verdict::Inconsistent,
        Verdict::Unverified,
    ];

    /// Stable snake_case name used as the JSON tally key.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::Repaired => "repaired",
            Verdict::Detected => "detected",
            Verdict::Inconsistent => "inconsistent",
            Verdict::Unverified => "unverified",
        }
    }
}

impl ModelState {
    /// The power-on state: no ops, empty WPQ, nothing pending.
    pub fn initial() -> Self {
        ModelState {
            issued: [0; MAX_BLOCKS],
            wpq: Vec::new(),
            pending: 0,
        }
    }

    /// Total committed ops across all blocks.
    pub fn total_issued(&self) -> u8 {
        self.issued.iter().sum()
    }

    /// The actions enabled in this state for a model over `blocks`
    /// counter blocks and at most `max_ops` total ops, in a fixed
    /// enumeration order (issues by block, then drain, then settle) so
    /// the search is deterministic.
    pub fn enabled(&self, scheme: SchemeKind, blocks: usize, max_ops: usize) -> Vec<Action> {
        let mut out = Vec::new();
        if usize::from(self.total_issued()) < max_ops {
            for block in 0..blocks.min(MAX_BLOCKS) as u8 {
                out.push(Action::Issue { block });
            }
        }
        if !self.wpq.is_empty() {
            out.push(Action::DrainWpq);
        }
        if scheme.policy().root == RootDiscipline::Deferred && self.pending > 0 {
            out.push(Action::SettleRoot);
        }
        out
    }

    /// Applies one enabled action, returning the successor state.
    pub fn apply(&self, scheme: SchemeKind, action: Action) -> ModelState {
        let mut next = self.clone();
        match action {
            Action::Issue { block } => {
                // The concrete persist path settles completed root
                // updates on entry; consecutive ops serialise on the
                // hash, so at most the *last* op's update is pending.
                next.pending = 0;
                let b = block as usize;
                next.issued[b] += 1;
                next.wpq.push(WpqEntry {
                    block,
                    value: next.issued[b],
                });
                if scheme.policy().root == RootDiscipline::Deferred {
                    next.pending = 1;
                }
            }
            Action::DrainWpq => {
                next.wpq.remove(0);
            }
            Action::SettleRoot => {
                next.pending = 0;
            }
        }
        next
    }

    /// Every crash mode enumerable from this state: the clean ADR
    /// crash, plus — when the WPQ is non-empty — every (fully-drained
    /// prefix, torn-word count) split of the queue.
    pub fn crash_modes(&self) -> Vec<CrashMode> {
        let mut out = vec![CrashMode::Adr];
        for drained in 0..self.wpq.len() as u8 {
            for words_new in 0..MODEL_WORDS {
                out.push(CrashMode::Torn { drained, words_new });
            }
        }
        out
    }
}

/// The trust base's counter total after a crash (pending increments
/// die with power), or `None` when the discipline keeps no summed root.
fn trusted_sum(scheme: SchemeKind, state: &ModelState) -> Option<u8> {
    match scheme.policy().root {
        RootDiscipline::Unverified | RootDiscipline::PerLeaf => None,
        RootDiscipline::Stale => Some(0),
        RootDiscipline::Deferred => Some(state.total_issued() - state.pending),
        RootDiscipline::RunningRoot | RootDiscipline::RecoveryRoot => Some(state.total_issued()),
    }
}

/// Classifies recovery from `state` after a crash in `mode`.
///
/// On an ADR crash the leaves recover exactly the committed counters,
/// so the only question is whether the trust base covers them — a
/// mismatch there is the [`Verdict::Inconsistent`] witness. On a torn
/// crash some leaf is torn or rolled back: counter-summing schemes
/// roll it forward from the journal (Osiris), then still compare roots;
/// BMF's per-leaf register catches the mismatch directly. Either way a
/// torn crash yields detection or repair, never silence — and never a
/// witness, matching the concrete oracle's `fault_applied` rule.
pub fn crash_verdict(scheme: SchemeKind, state: &ModelState, mode: CrashMode) -> Verdict {
    let disc = scheme.policy().root;
    if disc == RootDiscipline::Unverified {
        return Verdict::Unverified;
    }
    let total = state.total_issued();
    let root_matches = match trusted_sum(scheme, state) {
        None => true, // PerLeaf registers always cover their leaf
        Some(t) => t == total,
    };
    match mode {
        CrashMode::Adr => {
            if root_matches {
                Verdict::Clean
            } else {
                Verdict::Inconsistent
            }
        }
        CrashMode::Torn { .. } => match disc {
            RootDiscipline::PerLeaf => Verdict::Detected,
            _ => {
                if root_matches {
                    Verdict::Repaired
                } else {
                    Verdict::Detected
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_commits_enqueues_and_autosettles() {
        let s0 = ModelState::initial();
        let s1 = s0.apply(SchemeKind::Eager, Action::Issue { block: 1 });
        assert_eq!(s1.issued, [0, 1, 0]);
        assert_eq!(
            s1.wpq,
            vec![WpqEntry { block: 1, value: 1 }],
            "the rewrite is in flight"
        );
        assert_eq!(s1.pending, 1, "eager defers the root increment");
        // The next issue settles the previous pending before queueing
        // its own: pending never exceeds 1.
        let s2 = s1.apply(SchemeKind::Eager, Action::Issue { block: 1 });
        assert_eq!(s2.pending, 1);
        assert_eq!(s2.issued, [0, 2, 0]);
        // Synchronous root disciplines never have pending.
        let a1 = s0.apply(SchemeKind::Scue, Action::Issue { block: 0 });
        assert_eq!(a1.pending, 0);
    }

    #[test]
    fn enabled_respects_budgets_and_disciplines() {
        let s0 = ModelState::initial();
        assert_eq!(
            s0.enabled(SchemeKind::Scue, 2, 3),
            vec![Action::Issue { block: 0 }, Action::Issue { block: 1 }]
        );
        // Op budget exhausted: only drains remain.
        let mut s = s0.clone();
        for _ in 0..3 {
            s = s.apply(SchemeKind::Scue, Action::Issue { block: 0 });
        }
        assert_eq!(s.enabled(SchemeKind::Scue, 2, 3), vec![Action::DrainWpq]);
        // SettleRoot exists only for the deferred discipline.
        let e = s0.apply(SchemeKind::Eager, Action::Issue { block: 0 });
        assert!(e
            .enabled(SchemeKind::Eager, 2, 3)
            .contains(&Action::SettleRoot));
        let l = s0.apply(SchemeKind::Lazy, Action::Issue { block: 0 });
        assert!(!l
            .enabled(SchemeKind::Lazy, 2, 3)
            .contains(&Action::SettleRoot));
    }

    #[test]
    fn clean_crash_verdicts_separate_the_schemes() {
        let s = ModelState::initial().apply(SchemeKind::Scue, Action::Issue { block: 0 });
        assert_eq!(
            crash_verdict(SchemeKind::Scue, &s, CrashMode::Adr),
            Verdict::Clean
        );
        assert_eq!(
            crash_verdict(SchemeKind::Plp, &s, CrashMode::Adr),
            Verdict::Clean
        );
        assert_eq!(
            crash_verdict(SchemeKind::BmfIdeal, &s, CrashMode::Adr),
            Verdict::Clean
        );
        assert_eq!(
            crash_verdict(SchemeKind::Lazy, &s, CrashMode::Adr),
            Verdict::Inconsistent,
            "lazy's durable root never saw the op"
        );
        let e = ModelState::initial().apply(SchemeKind::Eager, Action::Issue { block: 0 });
        assert_eq!(
            crash_verdict(SchemeKind::Eager, &e, CrashMode::Adr),
            Verdict::Inconsistent,
            "the deferred increment dies with power"
        );
        let settled = e.apply(SchemeKind::Eager, Action::SettleRoot);
        assert_eq!(
            crash_verdict(SchemeKind::Eager, &settled, CrashMode::Adr),
            Verdict::Clean
        );
        assert_eq!(
            crash_verdict(SchemeKind::Baseline, &s, CrashMode::Adr),
            Verdict::Unverified
        );
    }

    #[test]
    fn torn_crashes_detect_or_repair_but_never_witness() {
        let s = ModelState::initial().apply(SchemeKind::Scue, Action::Issue { block: 0 });
        for mode in s.crash_modes() {
            if mode == CrashMode::Adr {
                continue;
            }
            assert_eq!(
                crash_verdict(SchemeKind::Scue, &s, mode),
                Verdict::Repaired,
                "{mode:?}"
            );
            assert_eq!(
                crash_verdict(SchemeKind::BmfIdeal, &s, mode),
                Verdict::Detected,
                "{mode:?}"
            );
            assert_eq!(
                crash_verdict(SchemeKind::Lazy, &s, mode),
                Verdict::Detected,
                "{mode:?}: stale root is caught, tear notwithstanding"
            );
        }
        // One entry in flight: adr + 8 torn splits.
        assert_eq!(s.crash_modes().len(), 1 + 8);
    }
}
