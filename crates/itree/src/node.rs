//! The packed 64 B SIT node format (Fig. 4).
//!
//! An SIT node is eight 56-bit counters plus one 64-bit HMAC: exactly
//! `8 × 7 + 8 = 64` bytes. The 56-bit range (~10^16) exceeds NVM endurance
//! (10^7–10^12 writes), so intermediate counters never overflow in a
//! device lifetime — which is why SCUE's counter sums are safe.

use scue_nvm::LINE_BYTES;
use scue_util::obs::span;

/// One 64 B line of raw content.
pub type Line = [u8; LINE_BYTES];

/// Counters per node (and children per node).
pub const COUNTERS_PER_NODE: usize = 8;

/// Mask for a 56-bit counter.
pub const COUNTER_MASK: u64 = (1 << 56) - 1;

/// An SGX-style integrity-tree node: 8 × 56-bit counters + 64-bit HMAC.
///
/// # Example
///
/// ```
/// use scue_itree::SitNode;
///
/// let mut node = SitNode::new();
/// node.set_counter(3, 41);
/// node.bump_counter(3);
/// assert_eq!(node.counter(3), 42);
/// assert_eq!(node.counter_sum(), 42); // the dummy counter (Fig. 7)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SitNode {
    counters: [u64; COUNTERS_PER_NODE],
    /// The node's HMAC (hash of address, own counters, parent counter).
    pub hmac: u64,
}

impl SitNode {
    /// A zero node — the implicit content of never-written tree lines.
    pub fn new() -> Self {
        Self {
            counters: [0; COUNTERS_PER_NODE],
            hmac: 0,
        }
    }

    /// Reads counter `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn counter(&self, slot: usize) -> u64 {
        self.counters[slot]
    }

    /// All eight counters.
    pub fn counters(&self) -> &[u64; COUNTERS_PER_NODE] {
        &self.counters
    }

    /// Sets counter `slot`, truncating to 56 bits.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn set_counter(&mut self, slot: usize, value: u64) {
        self.counters[slot] = value & COUNTER_MASK;
    }

    /// Increments counter `slot` by one (mod 2^56).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn bump_counter(&mut self, slot: usize) {
        self.counters[slot] = (self.counters[slot] + 1) & COUNTER_MASK;
    }

    /// Adds `delta` to counter `slot` (mod 2^56).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn add_counter(&mut self, slot: usize, delta: u64) {
        self.counters[slot] = (self.counters[slot].wrapping_add(delta)) & COUNTER_MASK;
    }

    /// The *dummy counter* (Fig. 7): the sum of all eight counters,
    /// mod 2^56. Under eager updates this equals the node's counter in
    /// its parent, which is exactly what SCUE exploits to skip the parent
    /// read.
    pub fn counter_sum(&self) -> u64 {
        self.counters
            .iter()
            .fold(0u64, |acc, &c| acc.wrapping_add(c))
            & COUNTER_MASK
    }

    /// Packs to a 64 B line: counters as 7-byte little-endian fields,
    /// then the 8-byte HMAC.
    pub fn to_line(&self) -> Line {
        let _span = span::enter("codec.encode");
        let mut line = [0u8; LINE_BYTES];
        for (i, &c) in self.counters.iter().enumerate() {
            let bytes = c.to_le_bytes();
            line[i * 7..(i + 1) * 7].copy_from_slice(&bytes[..7]);
        }
        line[56..].copy_from_slice(&self.hmac.to_le_bytes());
        line
    }

    /// Unpacks a node from a 64 B line.
    pub fn from_line(line: &Line) -> Self {
        let _span = span::enter("codec.decode");
        let mut counters = [0u64; COUNTERS_PER_NODE];
        for (i, counter) in counters.iter_mut().enumerate() {
            let mut bytes = [0u8; 8];
            bytes[..7].copy_from_slice(&line[i * 7..(i + 1) * 7]);
            *counter = u64::from_le_bytes(bytes);
        }
        let hmac = u64::from_le_bytes(line[56..].try_into().expect("8 bytes"));
        Self { counters, hmac }
    }
}

impl Default for SitNode {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sit_roundtrip_exact() {
        let mut node = SitNode::new();
        for i in 0..8 {
            node.set_counter(i, (0xAB00_0000_0000_00 + i as u64 * 3) & COUNTER_MASK);
        }
        node.hmac = 0xDEAD_BEEF_0BAD_F00D;
        assert_eq!(SitNode::from_line(&node.to_line()), node);
    }

    #[test]
    fn sit_counter_truncates_to_56_bits() {
        let mut node = SitNode::new();
        node.set_counter(0, u64::MAX);
        assert_eq!(node.counter(0), COUNTER_MASK);
        let back = SitNode::from_line(&node.to_line());
        assert_eq!(back.counter(0), COUNTER_MASK);
    }

    #[test]
    fn sit_bump_wraps_at_56_bits() {
        let mut node = SitNode::new();
        node.set_counter(1, COUNTER_MASK);
        node.bump_counter(1);
        assert_eq!(node.counter(1), 0);
    }

    #[test]
    fn counter_sum_is_dummy_counter() {
        let mut node = SitNode::new();
        node.set_counter(0, 10);
        node.set_counter(5, 32);
        assert_eq!(node.counter_sum(), 42);
    }

    #[test]
    fn counter_sum_wraps_mod_2_56() {
        let mut node = SitNode::new();
        node.set_counter(0, COUNTER_MASK);
        node.set_counter(1, 2);
        assert_eq!(node.counter_sum(), 1);
    }

    #[test]
    fn add_counter_accumulates() {
        let mut node = SitNode::new();
        node.add_counter(2, 40);
        node.add_counter(2, 2);
        assert_eq!(node.counter(2), 42);
    }

    #[test]
    fn zero_node_packs_to_zero_line() {
        assert_eq!(SitNode::new().to_line(), [0u8; LINE_BYTES]);
    }

    #[test]
    fn sit_hmac_lives_in_last_eight_bytes() {
        let mut node = SitNode::new();
        node.hmac = 0x0102_0304_0506_0708;
        let line = node.to_line();
        assert_eq!(&line[56..], &0x0102_0304_0506_0708u64.to_le_bytes());
    }
}
