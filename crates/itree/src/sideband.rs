//! The ECC-co-located MAC store ("sideband").
//!
//! User-data lines and leaf counter blocks each carry a 64-bit HMAC. A
//! 64 B line has no room for it, so — following Synergy (HPCA'18), which
//! the paper cites for exactly this — the MAC rides in the ECC chip of the
//! DIMM: it is transferred *with* its line at no extra memory traffic, is
//! persistent, and is just as tamperable as the line itself.
//!
//! The sideband is modelled as a map from line address to MAC, with the
//! same sparse-zero and tamper semantics as
//! [`scue_nvm::NvmStore`]. Intermediate SIT nodes do *not* use the
//! sideband: their HMAC fits inside the 64 B node (Fig. 4).

use scue_nvm::LineAddr;
use std::collections::HashMap;

/// Persistent per-line MAC storage in the DIMM's ECC bits.
///
/// # Example
///
/// ```
/// use scue_itree::MacSideband;
/// use scue_nvm::LineAddr;
///
/// let mut macs = MacSideband::new();
/// assert_eq!(macs.get(LineAddr::new(0)), 0, "never-written lines have zero MACs");
/// macs.set(LineAddr::new(0), 0xABCD);
/// assert_eq!(macs.get(LineAddr::new(0)), 0xABCD);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MacSideband {
    macs: HashMap<LineAddr, u64>,
}

impl MacSideband {
    /// An empty sideband (all MACs zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the MAC stored for `addr` (zero if never written).
    pub fn get(&self, addr: LineAddr) -> u64 {
        self.macs.get(&addr).copied().unwrap_or(0)
    }

    /// Stores the MAC for `addr` — travels with the line's write, so it
    /// costs no extra memory access.
    pub fn set(&mut self, addr: LineAddr, mac: u64) {
        if mac == 0 {
            self.macs.remove(&addr);
        } else {
            self.macs.insert(addr, mac);
        }
    }

    /// Number of non-zero MACs stored.
    pub fn len(&self) -> usize {
        self.macs.len()
    }

    /// Whether no MACs are stored.
    pub fn is_empty(&self) -> bool {
        self.macs.is_empty()
    }

    /// Iterates over all stored (non-zero) MACs, order unspecified —
    /// callers that serialize must sort.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, u64)> + '_ {
        self.macs.iter().map(|(&a, &m)| (a, m))
    }

    /// Adversarial overwrite (the ECC bits are on the stolen DIMM too).
    /// Returns the previous MAC for replay recording.
    pub fn tamper(&mut self, addr: LineAddr, mac: u64) -> u64 {
        let old = self.get(addr);
        self.set(addr, mac);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mac_is_zero() {
        let sb = MacSideband::new();
        assert_eq!(sb.get(LineAddr::new(99)), 0);
        assert!(sb.is_empty());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut sb = MacSideband::new();
        sb.set(LineAddr::new(1), 42);
        assert_eq!(sb.get(LineAddr::new(1)), 42);
        assert_eq!(sb.len(), 1);
    }

    #[test]
    fn zero_set_stays_sparse() {
        let mut sb = MacSideband::new();
        sb.set(LineAddr::new(1), 42);
        sb.set(LineAddr::new(1), 0);
        assert!(sb.is_empty());
    }

    #[test]
    fn tamper_returns_old() {
        let mut sb = MacSideband::new();
        sb.set(LineAddr::new(3), 3);
        assert_eq!(sb.tamper(LineAddr::new(3), 9), 3);
        assert_eq!(sb.get(LineAddr::new(3)), 9);
    }
}
