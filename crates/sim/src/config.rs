//! Full-system configuration (Table II).

use scue::{SchemeKind, SecureMemConfig};
use scue_cache::HierarchyConfig;
use scue_itree::TreeGeometry;

/// Configuration of the whole evaluated system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Secure-memory engine configuration (scheme, geometry, hash
    /// latency, metadata cache, WPQs).
    pub mem: SecureMemConfig,
    /// Data-cache hierarchy geometry and latencies.
    pub hierarchy: HierarchyConfig,
    /// Core count (Table II: 8; figure runs use 1 for deterministic
    /// attribution of write latencies).
    pub cores: usize,
}

impl SystemConfig {
    /// A small, fast system for unit tests: a 64 MB data region (large
    /// enough for every workload generator's footprint), small caches.
    pub fn fast(scheme: SchemeKind) -> Self {
        let mut mem = SecureMemConfig::small_test(scheme).with_mdcache_bytes(256 * 64);
        mem.geometry = TreeGeometry::tiny(16 * 1024);
        Self {
            mem,
            hierarchy: HierarchyConfig::tiny(),
            cores: 1,
        }
    }

    /// The paper's Table II system for the given scheme, on one core:
    /// the 16 GB geometry, the 256 KB metadata cache and the real
    /// hierarchy. The figure harnesses, `scue-simulate` and perfbench
    /// run on it; how long a run takes is set by its trace length.
    pub fn figure(scheme: SchemeKind) -> Self {
        Self {
            mem: SecureMemConfig::paper(scheme),
            hierarchy: HierarchyConfig::paper(),
            cores: 1,
        }
    }

    /// Overrides the hash latency (Figs. 11–12).
    pub fn with_hash_latency(mut self, cycles: u64) -> Self {
        self.mem.hash_latency = cycles;
        self
    }

    /// Overrides the core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_table_ii() {
        let cfg = SystemConfig::figure(SchemeKind::Scue);
        assert_eq!(cfg.mem.hash_latency, 40);
        assert_eq!(cfg.hierarchy.l3_bytes, 4 * 1024 * 1024);
        assert_eq!(cfg.mem.geometry.total_levels(), 9);
    }

    #[test]
    fn builders() {
        let cfg = SystemConfig::fast(SchemeKind::Lazy)
            .with_hash_latency(80)
            .with_cores(4);
        assert_eq!(cfg.mem.hash_latency, 80);
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.mem.scheme, SchemeKind::Lazy);
    }
}
