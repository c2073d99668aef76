//! Space and hardware overheads (§V-F).
//!
//! Every secure-NVM scheme needs the security-metadata cache; what
//! distinguishes them is the *extra* on-chip state required for root
//! crash consistency — SCUE's two 64 B registers against BMF-ideal's
//! 256 MB nvMC for a 16 GB NVM. Each scheme's figure lives in its
//! [`SchemePolicy`](crate::config::SchemePolicy) row.

use crate::config::{RootDiscipline, SchemeKind};
use scue_itree::TreeGeometry;

/// On-chip state a scheme needs beyond the shared metadata cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnChipOverhead {
    /// Non-volatile register/table bytes on chip.
    pub nonvolatile_bytes: u64,
    /// Human-readable breakdown.
    pub breakdown: &'static str,
}

/// Computes a scheme's on-chip overhead for a given tree geometry.
///
/// # Example
///
/// ```
/// use scue::{overheads, SchemeKind};
/// use scue_itree::TreeGeometry;
///
/// let geom = TreeGeometry::paper_16gb();
/// let scue = overheads::on_chip(SchemeKind::Scue, &geom);
/// assert_eq!(scue.nonvolatile_bytes, 128);
/// let bmf = overheads::on_chip(SchemeKind::BmfIdeal, &geom);
/// assert_eq!(bmf.nonvolatile_bytes, 256 * 1024 * 1024);
/// ```
pub fn on_chip(scheme: SchemeKind, geometry: &TreeGeometry) -> OnChipOverhead {
    let policy = scheme.policy();
    let (bytes, breakdown) = policy.on_chip;
    let registers = match policy.root {
        RootDiscipline::PerLeaf => geometry.leaf_count(),
        _ => 1,
    };
    OnChipOverhead {
        nonvolatile_bytes: bytes * registers,
        breakdown,
    }
}

/// NVM storage consumed by the integrity tree itself (all stored levels),
/// in bytes — identical across SIT schemes.
pub fn tree_storage_bytes(geometry: &TreeGeometry) -> u64 {
    (0..geometry.stored_levels())
        .map(|level| geometry.level_count(level) * 64)
        .sum()
}

/// Tree storage as a fraction of protected data capacity.
pub fn tree_storage_fraction(geometry: &TreeGeometry) -> f64 {
    tree_storage_bytes(geometry) as f64 / (geometry.data_lines() * 64) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let geom = TreeGeometry::paper_16gb();
        assert_eq!(on_chip(SchemeKind::Scue, &geom).nonvolatile_bytes, 128);
        assert_eq!(
            on_chip(SchemeKind::BmfIdeal, &geom).nonvolatile_bytes,
            256 * 1024 * 1024,
            "256 MB nvMC for 16 GB NVM (§V-F)"
        );
        assert_eq!(on_chip(SchemeKind::Plp, &geom).nonvolatile_bytes, 686);
        assert_eq!(on_chip(SchemeKind::Baseline, &geom).nonvolatile_bytes, 0);
    }

    #[test]
    fn scue_is_orders_of_magnitude_smaller_than_bmf() {
        let geom = TreeGeometry::paper_16gb();
        let scue = on_chip(SchemeKind::Scue, &geom).nonvolatile_bytes;
        let bmf = on_chip(SchemeKind::BmfIdeal, &geom).nonvolatile_bytes;
        assert!(bmf / scue > 1_000_000);
    }

    #[test]
    fn tree_storage_is_about_1_60th_of_data() {
        // One leaf per 64 data lines plus ~1/7 of the leaf level above:
        // ≈ 1.8 % of data capacity.
        let geom = TreeGeometry::paper_16gb();
        let frac = tree_storage_fraction(&geom);
        assert!(frac > 0.015 && frac < 0.02, "got {frac}");
    }

    #[test]
    fn tree_storage_counts_all_levels() {
        let geom = TreeGeometry::tiny(64);
        // 64 leaves + 8 L1 nodes = 72 lines.
        assert_eq!(tree_storage_bytes(&geom), 72 * 64);
    }
}
