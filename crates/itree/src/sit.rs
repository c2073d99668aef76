//! SGX-style Integrity Tree logic (Fig. 4).
//!
//! [`SitContext`] binds a [`TreeGeometry`] to a [`SecretKey`] and provides
//! every node-level operation the update schemes and recovery need:
//!
//! * MAC computation — `node_mac` for intermediate nodes (address + own
//!   counters + parent counter) and `leaf_mac` for leaf counter blocks
//!   (address + full block content + parent counter);
//! * dummy counters (Fig. 7) — `leaf_dummy` / `node_dummy`, the sum of a
//!   node's own counters, equal to its parent counter under eager updates;
//! * typed NVM access — read/write [`SitNode`]s and
//!   [`CounterBlock`]s at their geometric addresses;
//! * `rebuild_all` — a whole-tree construction used to initialise
//!   experiments and as the reference model in tests.

use crate::geometry::{NodeId, TreeGeometry};
use crate::node::{SitNode, COUNTER_MASK};
use crate::root::RootRegister;
use crate::sideband::MacSideband;
use scue_crypto::cme::CounterBlock;
use scue_crypto::hmac::sit_node_hmac;
use scue_crypto::SecretKey;
use scue_nvm::NvmStore;

/// Context for SIT operations: geometry + key.
///
/// # Example
///
/// ```
/// use scue_crypto::SecretKey;
/// use scue_itree::{SitContext, TreeGeometry};
///
/// let ctx = SitContext::new(TreeGeometry::tiny(8), SecretKey::from_seed(1));
/// assert_eq!(ctx.geometry().leaf_count(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct SitContext {
    geometry: TreeGeometry,
    key: SecretKey,
}

impl SitContext {
    /// Creates a context.
    pub fn new(geometry: TreeGeometry, key: SecretKey) -> Self {
        Self { geometry, key }
    }

    /// The tree geometry.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// The secret key (on-chip only).
    pub fn key(&self) -> &SecretKey {
        &self.key
    }

    /// The dummy counter of a leaf: its wrap-weighted write count, i.e.
    /// the value the parent's covering counter holds when fully
    /// propagated.
    ///
    /// *Reproduction note:* the paper increments parent counters by one
    /// per persist; we use the write-count delta instead, which is
    /// identical except across minor-counter overflows, where the delta
    /// formulation keeps the counter-summing invariant exact (see
    /// DESIGN.md).
    pub fn leaf_dummy(&self, block: &CounterBlock) -> u64 {
        block.write_count() & COUNTER_MASK
    }

    /// The dummy counter of an intermediate node (Fig. 7): the sum of its
    /// eight counters.
    pub fn node_dummy(&self, node: &SitNode) -> u64 {
        node.counter_sum()
    }

    /// MAC of an intermediate node: hash(address, own counters, parent
    /// counter).
    pub fn node_mac(&self, node_id: NodeId, node: &SitNode, parent_counter: u64) -> u64 {
        let addr = self.geometry.node_addr(node_id);
        sit_node_hmac(&self.key, addr.raw(), node.counters(), parent_counter)
    }

    /// MAC of a leaf counter block: hash(address, packed block content,
    /// parent counter). The block's 64 B line is bound wholesale so every
    /// minor counter is covered.
    pub fn leaf_mac(&self, leaf: NodeId, block: &CounterBlock, parent_counter: u64) -> u64 {
        debug_assert_eq!(leaf.level, 0, "leaf_mac takes level-0 nodes");
        let addr = self.geometry.node_addr(leaf);
        let line = block.to_line();
        let mut words = [0u64; 8];
        for (i, word) in words.iter_mut().enumerate() {
            *word = u64::from_le_bytes(line[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
        }
        sit_node_hmac(&self.key, addr.raw(), &words, parent_counter)
    }

    /// Reads an intermediate node from NVM (zero node if never written).
    ///
    /// # Panics
    ///
    /// Panics if `node_id` is the leaf level — use [`SitContext::read_leaf`].
    pub fn read_node(&self, store: &NvmStore, node_id: NodeId) -> SitNode {
        assert!(
            node_id.level > 0,
            "level 0 holds counter blocks, not SitNodes"
        );
        SitNode::from_line(&store.read_line(self.geometry.node_addr(node_id)))
    }

    /// Writes an intermediate node to NVM.
    ///
    /// # Panics
    ///
    /// Panics if `node_id` is the leaf level.
    pub fn write_node(&self, store: &mut NvmStore, node_id: NodeId, node: &SitNode) {
        assert!(
            node_id.level > 0,
            "level 0 holds counter blocks, not SitNodes"
        );
        store.write_line(self.geometry.node_addr(node_id), node.to_line());
    }

    /// Reads a leaf counter block from NVM.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not level 0.
    pub fn read_leaf(&self, store: &NvmStore, leaf: NodeId) -> CounterBlock {
        assert_eq!(leaf.level, 0, "read_leaf takes level-0 nodes");
        CounterBlock::from_line(&store.read_line(self.geometry.node_addr(leaf)))
    }

    /// Writes a leaf counter block and its sideband MAC to NVM — one
    /// memory write (the MAC rides the ECC bits).
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not level 0.
    pub fn write_leaf(
        &self,
        store: &mut NvmStore,
        sideband: &mut MacSideband,
        leaf: NodeId,
        block: &CounterBlock,
        mac: u64,
    ) {
        assert_eq!(leaf.level, 0, "write_leaf takes level-0 nodes");
        let addr = self.geometry.node_addr(leaf);
        store.write_line(addr, block.to_line());
        sideband.set(addr, mac);
    }

    /// Reads a leaf's sideband MAC.
    pub fn read_leaf_mac(&self, sideband: &MacSideband, leaf: NodeId) -> u64 {
        sideband.get(self.geometry.node_addr(leaf))
    }

    /// Verifies an intermediate node against its parent counter:
    /// recomputes the MAC and compares with the stored one.
    ///
    /// A zero node with a zero MAC is the never-written state and is
    /// valid iff the parent counter is also zero (nothing was ever
    /// persisted below it).
    pub fn verify_node(&self, node_id: NodeId, node: &SitNode, parent_counter: u64) -> bool {
        if node.hmac == 0 && node.counter_sum() == 0 {
            return parent_counter == 0;
        }
        self.node_mac(node_id, node, parent_counter) == node.hmac
    }

    /// Verifies a leaf counter block against its parent counter and
    /// sideband MAC, with the same never-written convention.
    pub fn verify_leaf(
        &self,
        leaf: NodeId,
        block: &CounterBlock,
        stored_mac: u64,
        parent_counter: u64,
    ) -> bool {
        if stored_mac == 0 && block.write_count() == 0 {
            return parent_counter == 0;
        }
        self.leaf_mac(leaf, block, parent_counter) == stored_mac
    }

    /// Rebuilds the *entire* tree from the leaf blocks currently in
    /// `store`, writing fully-propagated intermediate nodes (counters =
    /// child sums, MACs keyed by parent sums), refreshing every leaf's
    /// sideband MAC, and returning the implied root.
    ///
    /// This is the reference eager construction: tests compare scheme
    /// states against it, experiments use it to start from a consistent
    /// protected image.
    pub fn rebuild_all(&self, store: &mut NvmStore, sideband: &mut MacSideband) -> RootRegister {
        let geom = &self.geometry;
        // Pass 1: counters per level, bottom-up.
        let mut level_counters: Vec<Vec<u64>> = Vec::with_capacity(geom.stored_levels() as usize);
        let leaf_dummies: Vec<u64> = (0..geom.leaf_count())
            .map(|i| self.leaf_dummy(&self.read_leaf(store, NodeId::new(0, i))))
            .collect();
        let mut prev = leaf_dummies;
        for level in 1..geom.stored_levels() {
            let count = geom.level_count(level) as usize;
            let mut counters = vec![0u64; count * 8];
            for (child_idx, &dummy) in prev.iter().enumerate() {
                counters[child_idx] = dummy;
            }
            // Collapse into per-node arrays and compute this level's dummies.
            let mut dummies = vec![0u64; count];
            for node_idx in 0..count {
                let slice = &counters[node_idx * 8..node_idx * 8 + 8];
                dummies[node_idx] =
                    slice.iter().fold(0u64, |acc, &c| acc.wrapping_add(c)) & COUNTER_MASK;
            }
            level_counters.push(counters);
            prev = dummies;
        }
        // Root: sums of the top stored level's dummies, per slot.
        let mut root = RootRegister::new();
        for (i, &dummy) in prev.iter().enumerate() {
            root.add(i % 8, dummy);
        }
        // Pass 2: materialise nodes with MACs (parent counters now known).
        for level in 1..geom.stored_levels() {
            let counters = &level_counters[(level - 1) as usize];
            for node_idx in 0..geom.level_count(level) {
                let node_id = NodeId::new(level, node_idx);
                let mut node = SitNode::new();
                for slot in 0..8 {
                    node.set_counter(slot, counters[node_idx as usize * 8 + slot]);
                }
                if node.counter_sum() == 0 {
                    // Never-written convention: zero node, zero MAC; skip
                    // the write so untouched subtrees stay sparse.
                    continue;
                }
                // Fully propagated, so the parent counter equals this
                // node's own dummy counter.
                node.hmac = self.node_mac(node_id, &node, self.node_dummy(&node));
                self.write_node(store, node_id, &node);
            }
        }
        // Pass 3: leaf MACs (parent counter = leaf dummy when propagated).
        for leaf_idx in 0..geom.leaf_count() {
            let leaf = NodeId::new(0, leaf_idx);
            let block = self.read_leaf(store, leaf);
            let mac = if block.write_count() == 0 {
                0 // never-written convention
            } else {
                self.leaf_mac(leaf, &block, self.leaf_dummy(&block))
            };
            sideband.set(geom.node_addr(leaf), mac);
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Parent;
    use scue_nvm::LineAddr;

    fn ctx() -> SitContext {
        SitContext::new(TreeGeometry::tiny(64), SecretKey::from_seed(42))
    }

    fn bump_leaf(
        ctx: &SitContext,
        store: &mut NvmStore,
        leaf_idx: u64,
        minor: usize,
        times: usize,
    ) {
        let leaf = NodeId::new(0, leaf_idx);
        let mut block = ctx.read_leaf(store, leaf);
        for _ in 0..times {
            block.increment(minor).unwrap();
        }
        store.write_line(ctx.geometry().node_addr(leaf), block.to_line());
    }

    #[test]
    fn node_roundtrip_through_store() {
        let c = ctx();
        let mut store = NvmStore::new();
        let mut node = SitNode::new();
        node.set_counter(2, 7);
        node.hmac = 99;
        c.write_node(&mut store, NodeId::new(1, 3), &node);
        assert_eq!(c.read_node(&store, NodeId::new(1, 3)), node);
    }

    #[test]
    fn unwritten_node_is_zero() {
        let c = ctx();
        let store = NvmStore::new();
        assert_eq!(c.read_node(&store, NodeId::new(1, 0)), SitNode::new());
    }

    #[test]
    fn leaf_roundtrip_with_mac() {
        let c = ctx();
        let mut store = NvmStore::new();
        let mut sb = MacSideband::new();
        let mut block = CounterBlock::new();
        block.increment(5).unwrap();
        let leaf = NodeId::new(0, 9);
        let mac = c.leaf_mac(leaf, &block, c.leaf_dummy(&block));
        c.write_leaf(&mut store, &mut sb, leaf, &block, mac);
        assert_eq!(c.read_leaf(&store, leaf), block);
        assert_eq!(c.read_leaf_mac(&sb, leaf), mac);
        assert!(c.verify_leaf(leaf, &block, mac, c.leaf_dummy(&block)));
    }

    #[test]
    fn verify_rejects_wrong_parent_counter() {
        let c = ctx();
        let mut block = CounterBlock::new();
        block.increment(0).unwrap();
        let leaf = NodeId::new(0, 0);
        let mac = c.leaf_mac(leaf, &block, 1);
        assert!(c.verify_leaf(leaf, &block, mac, 1));
        assert!(!c.verify_leaf(leaf, &block, mac, 2));
    }

    #[test]
    fn never_written_state_verifies_iff_parent_zero() {
        let c = ctx();
        let block = CounterBlock::new();
        let leaf = NodeId::new(0, 1);
        assert!(c.verify_leaf(leaf, &block, 0, 0));
        assert!(!c.verify_leaf(leaf, &block, 0, 5));
        let node = SitNode::new();
        assert!(c.verify_node(NodeId::new(1, 0), &node, 0));
        assert!(!c.verify_node(NodeId::new(1, 0), &node, 1));
    }

    #[test]
    fn rebuild_all_produces_consistent_tree() {
        let c = ctx();
        let mut store = NvmStore::new();
        let mut sb = MacSideband::new();
        bump_leaf(&c, &mut store, 0, 0, 3);
        bump_leaf(&c, &mut store, 9, 4, 2);
        bump_leaf(&c, &mut store, 63, 63, 1);
        let root = c.rebuild_all(&mut store, &mut sb);

        // Root slot sums: leaves 0..8 -> slot 0 (3+2=5? leaf 9 is in L1
        // node 1 -> slot 1), leaf 63 -> slot 7.
        assert_eq!(root.counter(0), 3);
        assert_eq!(root.counter(1), 2);
        assert_eq!(root.counter(7), 1);
        assert_eq!(root.counters().iter().sum::<u64>(), 6);

        // Every written leaf verifies against its reconstructed parent.
        for leaf_idx in [0u64, 9, 63] {
            let leaf = NodeId::new(0, leaf_idx);
            let block = c.read_leaf(&store, leaf);
            let parent = match c.geometry().parent(leaf) {
                Parent::Node(p) => p,
                Parent::Root(_) => unreachable!("3-level tree"),
            };
            let pnode = c.read_node(&store, parent);
            let pcounter = pnode.counter(leaf.parent_slot());
            assert_eq!(pcounter, c.leaf_dummy(&block));
            let mac = c.read_leaf_mac(&sb, leaf);
            assert!(c.verify_leaf(leaf, &block, mac, pcounter));
        }

        // Every L1 node verifies against the root counter.
        for node_idx in 0..8 {
            let node_id = NodeId::new(1, node_idx);
            let node = c.read_node(&store, node_id);
            assert!(c.verify_node(node_id, &node, root.counter(node_idx as usize)));
        }
    }

    #[test]
    fn rebuild_is_idempotent() {
        let c = ctx();
        let mut store = NvmStore::new();
        let mut sb = MacSideband::new();
        bump_leaf(&c, &mut store, 5, 5, 5);
        let root1 = c.rebuild_all(&mut store, &mut sb);
        let snap = store.clone();
        let root2 = c.rebuild_all(&mut store, &mut sb);
        assert_eq!(root1, root2);
        // Store content unchanged by the second rebuild.
        let lines = |s: &NvmStore| {
            let mut lines: Vec<_> = s.iter().collect();
            lines.sort();
            lines
        };
        assert_eq!(lines(&store), lines(&snap));
        store = snap;
        let root3 = c.rebuild_all(&mut store, &mut sb);
        assert_eq!(root1, root3);
    }

    #[test]
    fn tampered_leaf_fails_verification_after_rebuild() {
        let c = ctx();
        let mut store = NvmStore::new();
        let mut sb = MacSideband::new();
        bump_leaf(&c, &mut store, 3, 1, 4);
        c.rebuild_all(&mut store, &mut sb);
        // Attacker rolls leaf 3's counter forward without the key.
        let leaf = NodeId::new(0, 3);
        let mut block = c.read_leaf(&store, leaf);
        block.increment(1).unwrap();
        store.tamper_line(c.geometry().node_addr(leaf), block.to_line());
        let mac = c.read_leaf_mac(&sb, leaf);
        assert!(!c.verify_leaf(leaf, &block, mac, c.leaf_dummy(&block)));
    }

    #[test]
    fn empty_tree_rebuild_gives_zero_root() {
        let c = ctx();
        let mut store = NvmStore::new();
        let mut sb = MacSideband::new();
        let root = c.rebuild_all(&mut store, &mut sb);
        assert_eq!(root, RootRegister::new());
        assert_eq!(store.touched_lines(), 0, "zero nodes stay sparse");
    }

    #[test]
    fn leaf_mac_depends_on_minor_slot_values() {
        let c = ctx();
        let leaf = NodeId::new(0, 0);
        let mut a = CounterBlock::new();
        a.increment(0).unwrap();
        let mut b = CounterBlock::new();
        b.increment(1).unwrap();
        // Same write_count, different minors: MACs must differ.
        assert_ne!(c.leaf_mac(leaf, &a, 1), c.leaf_mac(leaf, &b, 1));
    }

    #[test]
    fn geometry_accessible() {
        let c = ctx();
        assert!(c.geometry().is_data_line(LineAddr::new(0)));
    }
}
