//! Counter-summing recovery (§IV-B): rebuild the SIT bottom-up from the
//! persisted leaves and check the result against the on-chip trust base.
//!
//! After a crash the intermediate tree nodes in NVM are stale or missing;
//! only the leaf counter blocks (write-through, hence consistent) and the
//! on-chip root registers are trustworthy inputs. Reconstruction proceeds
//! exactly as Fig. 8:
//!
//! 1. every Level-1 counter is rebuilt as its leaf's **dummy counter**
//!    (the leaf's summed write count);
//! 2. each leaf's stored HMAC is recomputed against the reconstructed
//!    parent counter — a mismatch means the leaf was tampered with
//!    (roll-forward, or roll-back with a forged MAC: Table I row 1);
//! 3. levels 2..top are rebuilt by summing child counters, and fresh
//!    node HMACs are installed;
//! 4. the reconstructed root is compared with the stored on-chip root —
//!    a mismatch means either a replay attack (old leaf tuples sum low:
//!    Table I row 2) or root crash inconsistency (Lazy/Eager: the paper's
//!    §III-B failure).
//!
//! Untouched subtrees sum to zero and cost nothing: the scan covers only
//! lines present in the sparse NVM image, mirroring how STAR bitmaps or
//! an Anubis shadow table bound the stale set (see [`crate::fastrec`]).

use crate::config::{RootDiscipline, SchemeKind};
use crate::engine::SecureMemory;
use scue_crypto::hmac::bmt_child_hmac;
use scue_itree::geometry::NodeId;
use scue_itree::{RootRegister, SitNode};
use scue_nvm::LineAddr;
use scue_util::obs::span;
use std::collections::BTreeMap;

/// Latency of one metadata fetch from NVM during recovery, nanoseconds
/// (the paper's §V-D model: fetches dominate recovery time).
pub const RECOVERY_FETCH_NS: u64 = 100;

/// How a recovery attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Reconstruction succeeded and matched the trust base: the tree is
    /// re-installed and the machine may resume.
    Clean,
    /// The scheme has no integrity tree (Baseline): nothing was verified.
    Unverified,
    /// A leaf's stored HMAC does not match its reconstructed parent
    /// counter: roll-forward or forged roll-back tampering (Table I).
    LeafMacMismatch {
        /// Index of the first offending leaf.
        leaf: u64,
    },
    /// The reconstructed root differs from the stored trust base: replay
    /// tampering, or root crash inconsistency (the §III-B failure mode
    /// that makes Lazy/Eager recovery unsound).
    RootMismatch,
}

impl RecoveryOutcome {
    /// Whether the machine may resume operation.
    pub fn is_success(self) -> bool {
        matches!(self, RecoveryOutcome::Clean | RecoveryOutcome::Unverified)
    }

    /// Whether the outcome signals detected tampering or inconsistency.
    pub fn is_failure(self) -> bool {
        !self.is_success()
    }
}

/// Per-phase breakdown of one recovery attempt's metadata fetches.
///
/// The three phases mirror Fig. 8: **scan** (enumerate and read touched
/// leaves from the NVM image), **counter-summing** (verify leaf HMACs
/// against reconstructed parents and sum levels upward — on-chip work,
/// charged any extra fetches it performs), and **re-hash** (install
/// rebuilt intermediate nodes with fresh MACs). Fetch counts partition
/// [`RecoveryReport::metadata_fetches`] exactly, so the per-phase times
/// sum to [`RecoveryReport::modelled_ns`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryPhases {
    /// Fetches spent scanning/reading touched leaves.
    pub scan_fetches: u64,
    /// Extra fetches charged to leaf verification + counter summing.
    pub summing_fetches: u64,
    /// Fetches spent rebuilding and re-MACing intermediate nodes.
    pub rehash_fetches: u64,
}

impl RecoveryPhases {
    /// Modelled scan-phase time, ns.
    pub fn scan_ns(&self) -> u64 {
        self.scan_fetches * RECOVERY_FETCH_NS
    }

    /// Modelled counter-summing time, ns.
    pub fn summing_ns(&self) -> u64 {
        self.summing_fetches * RECOVERY_FETCH_NS
    }

    /// Modelled re-hash/install time, ns.
    pub fn rehash_ns(&self) -> u64 {
        self.rehash_fetches * RECOVERY_FETCH_NS
    }

    /// Total fetches across all phases.
    pub fn total_fetches(&self) -> u64 {
        self.scan_fetches + self.summing_fetches + self.rehash_fetches
    }
}

/// The result of one recovery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// How it ended.
    pub outcome: RecoveryOutcome,
    /// Leaf counter blocks examined.
    pub leaves_checked: u64,
    /// Metadata fetches performed (leaves read + nodes rebuilt).
    pub metadata_fetches: u64,
    /// Modelled wall-clock recovery time (fetches × 100 ns, §V-D).
    pub modelled_ns: u64,
    /// Where the fetches (and hence the time) went, phase by phase.
    pub phases: RecoveryPhases,
    /// Leaf counter blocks repaired by Osiris-style torn-counter replay
    /// before verification passed (only non-zero when
    /// [`counter_repair`](crate::config::SecureMemConfig::counter_repair)
    /// is enabled).
    pub repaired_leaves: u64,
}

impl RecoveryReport {
    fn new(outcome: RecoveryOutcome, leaves_checked: u64, phases: RecoveryPhases) -> Self {
        let metadata_fetches = phases.total_fetches();
        Self {
            outcome,
            leaves_checked,
            metadata_fetches,
            modelled_ns: metadata_fetches * RECOVERY_FETCH_NS,
            phases,
            repaired_leaves: 0,
        }
    }

    /// Stamps the number of Osiris-repaired leaves onto the report.
    pub(crate) fn with_repaired_leaves(mut self, repaired: u64) -> Self {
        self.repaired_leaves = repaired;
        self
    }
}

/// A read-only evaluation of the recovery invariant: would counter-
/// summing reconstruction of the *current* NVM image match the scheme's
/// trust base?
///
/// Unlike [`SecureMemory::recover`], the probe mutates nothing — no
/// tree install, no Osiris repair, no root synchronisation — and never
/// early-returns, so it reports *all* leaf verification failures, not
/// just the first. It is the deterministic ground truth the crash model
/// checker's replay bridge compares abstract verdicts against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistencyProbe {
    /// The scheme probed.
    pub scheme: SchemeKind,
    /// Whether the scheme verifies anything at all (false for Baseline,
    /// whose probe trivially holds).
    pub verified: bool,
    /// Leaf counter blocks examined.
    pub leaves_seen: u64,
    /// Leaves whose stored MAC does not verify against the image
    /// (counter-summing schemes) or whose nvMC register mismatches
    /// (BMF) — torn or rolled-back leaf state.
    pub leaf_mac_failures: u64,
    /// Total of the reconstructed root counters (0 for BMF/Baseline,
    /// which have no summed root).
    pub rebuilt_sum: u64,
    /// Total of the trusted root counters (`Recovery_root` for SCUE,
    /// the running root otherwise; 0 for BMF/Baseline).
    pub trusted_sum: u64,
    /// Whether the reconstructed root equals the trust base slot by
    /// slot (trivially true for BMF/Baseline).
    pub root_consistent: bool,
}

impl ConsistencyProbe {
    /// Whether the recovery invariant holds on the probed image: every
    /// verifying scheme must have no leaf failures and a consistent
    /// root. Baseline verifies nothing, so its probe always holds.
    pub fn holds(&self) -> bool {
        !self.verified || (self.leaf_mac_failures == 0 && self.root_consistent)
    }
}

/// Runs the read-only invariant probe. Called via
/// [`SecureMemory::probe_consistency`].
pub(crate) fn probe(mem: &SecureMemory) -> ConsistencyProbe {
    let scheme = mem.scheme();
    let root = scheme.policy().root;
    let (ctx, mc, sideband, running_root, recovery_root, nvmc) = mem.parts_for_probe();
    let geom = ctx.geometry().clone();
    let mut out = ConsistencyProbe {
        scheme,
        verified: scheme.policy().is_secure(),
        leaves_seen: 0,
        leaf_mac_failures: 0,
        rebuilt_sum: 0,
        trusted_sum: 0,
        root_consistent: true,
    };
    if root == RootDiscipline::Unverified {
        return out;
    }

    if root == RootDiscipline::PerLeaf {
        // Flat per-leaf check against the nvMC registers, mirroring
        // `recover_bmf` without the early return.
        let key = *ctx.key();
        let mut indices: Vec<u64> = nvmc.keys().copied().collect();
        for (addr, _) in mc.store().iter() {
            if let Some(node) = geom.node_at_addr(addr) {
                if node.level == 0 {
                    indices.push(node.index);
                }
            }
        }
        indices.sort_unstable();
        indices.dedup();
        for index in indices {
            out.leaves_seen += 1;
            let addr = geom.node_addr(NodeId::new(0, index));
            let line = mc.store().read_line(addr);
            let expected = nvmc.get(&index).copied().unwrap_or(0);
            let actual = if expected == 0 && line == [0u8; 64] {
                0
            } else {
                scue_crypto::hmac::bmt_child_hmac(&key, addr.raw(), &line)
            };
            if actual != expected {
                out.leaf_mac_failures += 1;
            }
        }
        return out;
    }

    // Counter-summing schemes: the Fig. 8 reconstruction, read-only.
    let mut touched: Vec<LineAddr> = mc.store().iter().map(|(a, _)| a).collect();
    touched.sort_unstable_by_key(|a| a.raw());
    let mut leaves: BTreeMap<u64, scue_crypto::cme::CounterBlock> = BTreeMap::new();
    for addr in touched {
        if let Some(node) = geom.node_at_addr(addr) {
            if node.level == 0 {
                leaves.insert(
                    node.index,
                    scue_crypto::cme::CounterBlock::from_line(&mc.store().read_line(addr)),
                );
            }
        }
    }
    out.leaves_seen = leaves.len() as u64;
    for (&index, block) in &leaves {
        let leaf = NodeId::new(0, index);
        let dummy = ctx.leaf_dummy(block);
        let mac = sideband.get(geom.node_addr(leaf));
        if !ctx.verify_leaf(leaf, block, mac, dummy) {
            out.leaf_mac_failures += 1;
        }
    }
    let mut current: BTreeMap<u64, u64> = leaves
        .iter()
        .map(|(&i, b)| (i, ctx.leaf_dummy(b)))
        .collect();
    for _level in 1..geom.stored_levels() {
        let mut next: BTreeMap<u64, u64> = BTreeMap::new();
        for (&child_idx, &dummy) in &current {
            *next.entry(child_idx / 8).or_insert(0) += dummy;
        }
        current = next;
    }
    let mut rebuilt_root = RootRegister::new();
    for (&idx, &dummy) in &current {
        rebuilt_root.add((idx % 8) as usize, dummy);
    }
    let trusted = trusted_root(root, running_root, recovery_root);
    out.rebuilt_sum = rebuilt_root.counters().iter().sum();
    out.trusted_sum = trusted.counters().iter().sum();
    out.root_consistent = rebuilt_root == *trusted;
    out
}

/// Runs recovery on a crashed machine. Called via
/// [`SecureMemory::recover`].
pub(crate) fn run(mem: &mut SecureMemory) -> RecoveryReport {
    match mem.scheme().policy().root {
        RootDiscipline::Unverified => {
            RecoveryReport::new(RecoveryOutcome::Unverified, 0, RecoveryPhases::default())
        }
        RootDiscipline::PerLeaf => recover_bmf(mem),
        // Every SIT-shaped discipline reconstructs by counter summing;
        // only the trusted root register differs.
        _ => recover_counter_summing(mem),
    }
}

/// The register a counter-summing recovery checks the rebuilt root
/// against: `Recovery_root` under the shortcut discipline, the running
/// root otherwise.
fn trusted_root<'a>(
    root: RootDiscipline,
    running: &'a RootRegister,
    recovery: &'a RootRegister,
) -> &'a RootRegister {
    if root == RootDiscipline::RecoveryRoot {
        recovery
    } else {
        running
    }
}

/// Per-leaf nvMC: every leaf's persistent root (its MAC in the nvMC)
/// survived the crash on-chip; verification is a flat scan.
fn recover_bmf(mem: &mut SecureMemory) -> RecoveryReport {
    // BMF is one flat pass over the leaves: all scan, no summing.
    let _span = span::enter("recovery.scan");
    let (ctx, mc, _sideband, _running, _recovery, nvmc) = mem.parts_for_recovery();
    let geom = ctx.geometry().clone();
    let key = *ctx.key();
    let mut leaves_checked = 0u64;
    // Check every leaf that either exists in NVM or is claimed by the
    // nvMC (a leaf rolled back to all-zero must still be caught).
    let mut indices: Vec<u64> = nvmc.keys().copied().collect();
    for (addr, _) in mc.store().iter() {
        if let Some(node) = geom.node_at_addr(addr) {
            if node.level == 0 {
                indices.push(node.index);
            }
        }
    }
    indices.sort_unstable();
    indices.dedup();
    for index in indices {
        leaves_checked += 1;
        let addr = geom.node_addr(NodeId::new(0, index));
        let line = mc.store().read_line(addr);
        let expected = nvmc.get(&index).copied().unwrap_or(0);
        let actual = if expected == 0 && line == [0u8; 64] {
            0
        } else {
            bmt_child_hmac(&key, addr.raw(), &line)
        };
        if actual != expected {
            return RecoveryReport::new(
                RecoveryOutcome::LeafMacMismatch { leaf: index },
                leaves_checked,
                RecoveryPhases {
                    scan_fetches: leaves_checked,
                    ..Default::default()
                },
            );
        }
    }
    RecoveryReport::new(
        RecoveryOutcome::Clean,
        leaves_checked,
        RecoveryPhases {
            scan_fetches: leaves_checked,
            ..Default::default()
        },
    )
}

/// The SIT counter-summing reconstruction of Fig. 8.
fn recover_counter_summing(mem: &mut SecureMemory) -> RecoveryReport {
    let root = mem.scheme().policy().root;
    let (ctx, mc, sideband, running_root, recovery_root, _nvmc) = mem.parts_for_recovery();
    let geom = ctx.geometry().clone();

    // Step 0: enumerate the touched leaves from the NVM image.
    let span_scan = span::enter("recovery.scan");
    let mut leaves: BTreeMap<u64, scue_crypto::cme::CounterBlock> = BTreeMap::new();
    let mut touched: Vec<LineAddr> = mc.store().iter().map(|(a, _)| a).collect();
    // The sparse store iterates in hash order; sort so downstream work
    // (BTreeMap build order, hence its allocation pattern) is identical
    // from run to run — the span profiler's per-phase allocation counts
    // are golden-tested.
    touched.sort_unstable_by_key(|a| a.raw());
    for addr in touched {
        if let Some(node) = geom.node_at_addr(addr) {
            if node.level == 0 {
                leaves.insert(
                    node.index,
                    scue_crypto::cme::CounterBlock::from_line(&mc.store().read_line(addr)),
                );
            }
        }
    }
    let leaves_checked = leaves.len() as u64;
    let mut phases = RecoveryPhases {
        scan_fetches: leaves_checked,
        ..Default::default()
    };
    drop(span_scan);

    // Steps 1–2: reconstruct Level-1 counters as leaf dummies and verify
    // every leaf HMAC against them. On-chip work over already-scanned
    // leaves: no additional fetches.
    let span_sum = span::enter("recovery.sum");
    for (&index, block) in &leaves {
        let leaf = NodeId::new(0, index);
        let dummy = ctx.leaf_dummy(block);
        let mac = sideband.get(geom.node_addr(leaf));
        if !ctx.verify_leaf(leaf, block, mac, dummy) {
            return RecoveryReport::new(
                RecoveryOutcome::LeafMacMismatch { leaf: index },
                leaves_checked,
                phases,
            );
        }
    }

    // Step 3: sum upward level by level (sparse: only touched subtrees).
    let mut rebuilt_nodes: Vec<(NodeId, SitNode)> = Vec::new();
    let mut current: BTreeMap<u64, u64> = leaves
        .iter()
        .map(|(&i, b)| (i, ctx.leaf_dummy(b)))
        .collect();
    for level in 1..geom.stored_levels() {
        let mut nodes: BTreeMap<u64, SitNode> = BTreeMap::new();
        for (&child_idx, &dummy) in &current {
            let node = nodes.entry(child_idx / 8).or_default();
            node.set_counter((child_idx % 8) as usize, dummy);
        }
        let mut next: BTreeMap<u64, u64> = BTreeMap::new();
        for (&idx, node) in &nodes {
            next.insert(idx, node.counter_sum());
            rebuilt_nodes.push((NodeId::new(level, idx), *node));
        }
        current = next;
    }

    // Step 4: reconstructed root vs. the stored trust base.
    let mut rebuilt_root = RootRegister::new();
    for (&idx, &dummy) in &current {
        rebuilt_root.add((idx % 8) as usize, dummy);
    }
    if rebuilt_root != *trusted_root(root, running_root, recovery_root) {
        return RecoveryReport::new(RecoveryOutcome::RootMismatch, leaves_checked, phases);
    }
    drop(span_sum);

    // Success: install the reconstructed nodes (with fresh MACs keyed by
    // their own dummies, the uniform convention) and synchronise roots.
    let _span_rehash = span::enter("recovery.rehash");
    for (node_id, mut node) in rebuilt_nodes {
        phases.rehash_fetches += 1;
        if node.counter_sum() == 0 {
            continue;
        }
        node.hmac = ctx.node_mac(node_id, &node, node.counter_sum());
        mc.store_mut()
            .write_line(geom.node_addr(node_id), node.to_line());
    }
    *running_root = rebuilt_root;
    *recovery_root = rebuilt_root;
    RecoveryReport::new(RecoveryOutcome::Clean, leaves_checked, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecureMemConfig;
    use scue_nvm::LineAddr;

    fn run_writes(mem: &mut SecureMemory, n: u64) -> u64 {
        let mut now = 0;
        for i in 0..n {
            now = mem
                .persist_data(LineAddr::new((i * 67) % 4096), [i as u8; 64], now)
                .unwrap();
        }
        now
    }

    #[test]
    fn probe_holds_for_rcc_schemes_and_flags_window_schemes() {
        for scheme in [SchemeKind::Scue, SchemeKind::Plp, SchemeKind::BmfIdeal] {
            let mut m = SecureMemory::new(SecureMemConfig::small_test(scheme));
            let now = run_writes(&mut m, 20);
            m.crash(now);
            let p = m.probe_consistency();
            assert!(p.holds(), "{scheme:?} probe should hold: {p:?}");
            assert!(p.verified);
            assert!(p.leaves_seen > 0);
        }
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Lazy));
        let now = run_writes(&mut m, 20);
        m.crash(now);
        let p = m.probe_consistency();
        assert!(!p.holds(), "lazy root is stale after a crash");
        assert!(!p.root_consistent);
        assert_eq!(p.leaf_mac_failures, 0, "leaves themselves are intact");
        assert!(p.rebuilt_sum > p.trusted_sum);
    }

    #[test]
    fn probe_flags_eager_window_and_clears_after_settle() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Eager));
        let done = m.persist_data(LineAddr::new(0), [1u8; 64], 0).unwrap();
        m.crash(0); // pending propagation lost
        assert!(!m.probe_consistency().holds());

        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Eager));
        m.persist_data(LineAddr::new(0), [1u8; 64], 0).unwrap();
        m.crash(done + 100_000); // settled
        assert!(m.probe_consistency().holds());
    }

    #[test]
    fn probe_is_read_only_and_baseline_trivially_holds() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
        let now = run_writes(&mut m, 15);
        m.crash(now);
        let first = m.probe_consistency();
        let second = m.probe_consistency();
        assert_eq!(first, second, "probe must not mutate the image");
        // Real recovery still works after probing.
        assert_eq!(m.recover().outcome, RecoveryOutcome::Clean);

        let mut b = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Baseline));
        let now = run_writes(&mut b, 5);
        b.crash(now);
        let p = b.probe_consistency();
        assert!(!p.verified);
        assert!(p.holds());
    }

    #[test]
    fn scue_recovers_after_immediate_crash() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
        let now = run_writes(&mut m, 50);
        m.crash(now); // no quiesce, no propagation ever finished
        let report = m.recover();
        assert_eq!(report.outcome, RecoveryOutcome::Clean);
        assert!(report.leaves_checked > 0);
        assert!(report.modelled_ns > 0);
    }

    #[test]
    fn scue_recovery_is_usable_after_recover() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
        let now = run_writes(&mut m, 30);
        m.crash(now);
        assert!(m.recover().outcome.is_success());
        // Machine resumes: reads verify, writes work.
        let (data, done) = m.read_data(LineAddr::new(67 % 4096), 0).unwrap();
        assert_eq!(data, [1u8; 64]);
        m.persist_data(LineAddr::new(9), [9u8; 64], done).unwrap();
    }

    #[test]
    fn lazy_recovery_fails_after_mid_run_crash() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Lazy));
        let now = run_writes(&mut m, 50);
        m.crash(now);
        let report = m.recover();
        assert_eq!(
            report.outcome,
            RecoveryOutcome::RootMismatch,
            "lazy root is inconsistent with persisted leaves (§III-B)"
        );
    }

    #[test]
    fn eager_recovery_fails_inside_crash_window() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Eager));
        let done = m.persist_data(LineAddr::new(0), [1u8; 64], 0).unwrap();
        let _ = done;
        // Crash at cycle 0: the propagation (pending until ~hash done) is
        // still in flight.
        m.crash(0);
        let report = m.recover();
        assert_eq!(report.outcome, RecoveryOutcome::RootMismatch);
    }

    #[test]
    fn eager_recovery_succeeds_outside_crash_window() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Eager));
        let done = m.persist_data(LineAddr::new(0), [1u8; 64], 0).unwrap();
        m.crash(done + 100_000); // propagation long since settled
        assert_eq!(m.recover().outcome, RecoveryOutcome::Clean);
    }

    #[test]
    fn plp_recovers_even_inside_window() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Plp));
        m.persist_data(LineAddr::new(0), [1u8; 64], 0).unwrap();
        m.crash(0); // PLP persisted the branch; root updates are not pending
        assert_eq!(m.recover().outcome, RecoveryOutcome::Clean);
    }

    #[test]
    fn bmf_recovers_and_verifies() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::BmfIdeal));
        let now = run_writes(&mut m, 50);
        m.crash(now);
        let report = m.recover();
        assert_eq!(report.outcome, RecoveryOutcome::Clean);
        assert!(report.leaves_checked > 0);
    }

    #[test]
    fn baseline_recovery_is_unverified() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Baseline));
        let now = run_writes(&mut m, 10);
        m.crash(now);
        assert_eq!(m.recover().outcome, RecoveryOutcome::Unverified);
    }

    #[test]
    fn data_survives_crash_and_recovery() {
        for scheme in [SchemeKind::Scue, SchemeKind::Plp, SchemeKind::BmfIdeal] {
            let mut m = SecureMemory::new(SecureMemConfig::small_test(scheme));
            let mut now = 0;
            for i in 0..32u64 {
                now = m
                    .persist_data(LineAddr::new(i * 64 % 4096), [i as u8 + 1; 64], now)
                    .unwrap();
            }
            m.crash(now);
            assert!(m.recover().outcome.is_success(), "{scheme}");
            let mut t = 0;
            for i in 0..32u64 {
                let (data, done) = m.read_data(LineAddr::new(i * 64 % 4096), t).unwrap();
                assert_eq!(data, [i as u8 + 1; 64], "{scheme} line {i}");
                t = done;
            }
        }
    }

    #[test]
    fn repeated_crash_recover_cycles() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
        let mut now = 0;
        for round in 0..5u64 {
            for i in 0..16u64 {
                now = m
                    .persist_data(LineAddr::new(i * 5), [round as u8 + 1; 64], now)
                    .unwrap();
            }
            m.crash(now);
            assert!(m.recover().outcome.is_success(), "round {round}");
        }
        let (data, _) = m.read_data(LineAddr::new(0), now).unwrap();
        assert_eq!(data, [5u8; 64]);
    }

    #[test]
    fn eadr_does_not_fix_lazy() {
        // §III-C: eADR flushes caches but computes nothing; the lazy root
        // is still inconsistent with the leaves.
        let mut m =
            SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Lazy).with_eadr(true));
        let now = run_writes(&mut m, 40);
        m.crash(now);
        assert_eq!(m.recover().outcome, RecoveryOutcome::RootMismatch);
    }

    #[test]
    fn phase_breakdown_partitions_totals() {
        let mut m = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
        let now = run_writes(&mut m, 50);
        m.crash(now);
        let report = m.recover();
        assert_eq!(report.outcome, RecoveryOutcome::Clean);
        let p = report.phases;
        assert_eq!(p.total_fetches(), report.metadata_fetches);
        assert_eq!(
            p.scan_ns() + p.summing_ns() + p.rehash_ns(),
            report.modelled_ns,
            "phase times must sum to the modelled total"
        );
        assert_eq!(p.scan_fetches, report.leaves_checked);
        assert!(p.rehash_fetches > 0, "nodes were rebuilt");
    }

    #[test]
    fn scue_recovers_with_eadr_too() {
        let mut m =
            SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue).with_eadr(true));
        let now = run_writes(&mut m, 40);
        m.crash(now);
        assert_eq!(m.recover().outcome, RecoveryOutcome::Clean);
    }
}
