//! Configuration of the secure-memory engine, and the one policy row
//! that describes each update scheme.

use scue_crypto::engine::DEFAULT_HASH_LATENCY;
use scue_itree::TreeGeometry;

/// The integrity-tree update scheme in force: the paper's six evaluated
/// schemes (§V-A) plus the related-literature zoo. What each one does is
/// its [`SchemePolicy`] row, read through [`SchemeKind::policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Insecure baseline: counter-mode encryption only.
    Baseline,
    /// Lazy SIT updates.
    Lazy,
    /// Eager SIT updates.
    Eager,
    /// Persist-Level Parallelism (MICRO'20) retrofitted to SIT.
    Plp,
    /// Bonsai Merkle Forest, ideal case (MICRO'21).
    BmfIdeal,
    /// The paper's contribution: shortcut `Recovery_root` updates.
    Scue,
    /// Phoenix (DSN'19).
    Phoenix,
    /// Triad-NVM (ISCA'19), persistence level 1.
    TriadL1,
    /// Triad-NVM (ISCA'19), persistence level 2.
    TriadL2,
    /// Zuo et al. (MICRO'19)-style counter/data co-persistence.
    Zuo,
    /// Freij et al. (MICRO'21)-style coalesced tree updates.
    Freij,
}

impl SchemeKind {
    /// All evaluated schemes: the paper's six in figure order, then the
    /// related-literature zoo in citation order.
    pub const ALL: [SchemeKind; 11] = [
        SchemeKind::Baseline,
        SchemeKind::Plp,
        SchemeKind::Lazy,
        SchemeKind::Eager,
        SchemeKind::BmfIdeal,
        SchemeKind::Scue,
        SchemeKind::Phoenix,
        SchemeKind::TriadL1,
        SchemeKind::TriadL2,
        SchemeKind::Zuo,
        SchemeKind::Freij,
    ];

    /// The four secure schemes shown in Figs. 9–10 (plus Baseline as the
    /// normalisation target).
    pub const FIGURE_SCHEMES: [SchemeKind; 4] = [
        SchemeKind::Plp,
        SchemeKind::Lazy,
        SchemeKind::BmfIdeal,
        SchemeKind::Scue,
    ];

    /// The scheme's policy row.
    pub fn policy(self) -> &'static SchemePolicy {
        &POLICIES[self as usize]
    }

    /// Parses a scheme from its token or display name in any ASCII case
    /// (`scue`, `bmf`, `BMF-ideal`, `TRIAD1`, ...).
    pub fn parse(s: &str) -> Option<SchemeKind> {
        Self::ALL.into_iter().find(|k| {
            let p = k.policy();
            s.eq_ignore_ascii_case(p.token) || s.eq_ignore_ascii_case(p.name)
        })
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.policy().name)
    }
}

/// Which ancestors of a persisted leaf a write-path step covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// The leaf's L1 parent.
    Parent,
    /// Every stored ancestor up to the root.
    Branch,
}

/// When a persist fetches its ancestors and writes the new leaf dummy
/// counter into them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// First: the ack hash batch waits for the chain.
    BeforeHash,
    /// Behind the ack hash batch; the updated ancestors then get their
    /// MACs in one batch of their scope.
    AfterHash,
    /// Off the critical path, once the persist is acknowledged.
    AfterAck,
}

/// The hash batch a persist's acknowledgement waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AckHash {
    /// Leaf MAC and data MAC in parallel.
    Pair,
    /// Every stored branch node's MAC plus the data MAC in parallel.
    Branch,
}

/// The trust base recovery checks persisted leaves against, and when a
/// persist moves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootDiscipline {
    /// No integrity tree: nothing is verified.
    Unverified,
    /// The running root moves only when a top-level node is flushed, so
    /// it lags the persisted leaves.
    Stale,
    /// The running root absorbs each persist's delta once that
    /// persist's tree hashes finish; a crash before then loses it (the
    /// §III-B window).
    Deferred,
    /// The running root absorbs each delta synchronously at the ack.
    RunningRoot,
    /// `Recovery_root` absorbs each delta at the ack (§IV-A shortcut);
    /// the running root follows top-level flushes, as under `Stale`.
    RecoveryRoot,
    /// One non-volatile on-chip register per leaf holds the leaf's MAC;
    /// there is no summed root.
    PerLeaf,
}

impl RootDiscipline {
    /// Whether recovery rebuilds the tree by counter summing (Fig. 8) and
    /// compares a summed root.
    pub fn sums_counters(self) -> bool {
        !matches!(self, RootDiscipline::Unverified | RootDiscipline::PerLeaf)
    }
}

/// One scheme, described once: identity, on-chip cost, and the choices
/// the engine's single persist path reads. Schemes differ only in *when*
/// a leaf persist does ancestor, hash, persist and root work (§III–IV);
/// every per-scheme expectation elsewhere derives from these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemePolicy {
    /// Display name matching the paper.
    pub name: &'static str,
    /// Command-line and replay-spec token.
    pub token: &'static str,
    /// Code in durable image meta blobs; never reuse or renumber one.
    pub(crate) code: u8,
    /// Non-volatile on-chip bytes beyond the shared metadata cache, and
    /// what they hold (§V-F); per leaf under [`RootDiscipline::PerLeaf`].
    pub(crate) on_chip: (u64, &'static str),
    /// Whether a write verifies a fetched counter block through its
    /// trust chain (reads always do).
    pub(crate) verify_leaf_on_write: bool,
    /// Which ancestors a persist updates, and when.
    pub(crate) ancestors: Option<(Scope, Stage)>,
    /// The hash batch the ack waits on.
    pub(crate) ack_hash: AckHash,
    /// Ancestor MACs recomputed one after another behind the ack batch,
    /// each depending on the one below.
    pub(crate) serial_rehash: Option<Scope>,
    /// Updated ancestors persisted write-through inside the ack.
    pub(crate) extra_persist: Option<Scope>,
    /// Whether the ack waits for displaced dirty metadata to flush.
    pub(crate) drain_victims_on_ack: bool,
    /// The trust base and when a persist moves it.
    pub root: RootDiscipline,
}

impl SchemePolicy {
    /// Whether the scheme maintains an integrity tree at all.
    pub fn is_secure(&self) -> bool {
        self.root != RootDiscipline::Unverified
    }

    /// Whether the trust base covers every persisted leaf at every
    /// instant, i.e. the scheme has no crash window.
    pub fn root_crash_consistent(&self) -> bool {
        matches!(
            self.root,
            RootDiscipline::RunningRoot | RootDiscipline::RecoveryRoot | RootDiscipline::PerLeaf
        )
    }
}

const NO_RCC_ROOT: (u64, &str) = (64, "one 64 B root register (no crash consistency)");

/// The policy rows, indexed by [`SchemeKind`] discriminant.
const POLICIES: [SchemePolicy; 11] = [
    // No tree: the counter block stays dirty in the metadata cache and
    // reaches NVM on eviction (the paper's normalisation target).
    SchemePolicy {
        name: "Baseline",
        token: "baseline",
        code: 0,
        on_chip: (0, "none (no integrity tree)"),
        verify_leaf_on_write: false,
        ancestors: None,
        ack_hash: AckHash::Pair,
        serial_rehash: None,
        extra_persist: None,
        drain_victims_on_ack: false,
        root: RootDiscipline::Unverified,
    },
    // The parent chain on the critical path, then the parent's own MAC
    // serialised behind the leaf MAC. SCUE's "lazy computing" (§IV-A1)
    // removes exactly that serial step.
    SchemePolicy {
        name: "Lazy",
        token: "lazy",
        code: 1,
        on_chip: NO_RCC_ROOT,
        verify_leaf_on_write: true,
        ancestors: Some((Scope::Parent, Stage::BeforeHash)),
        ack_hash: AckHash::Pair,
        serial_rehash: Some(Scope::Parent),
        extra_persist: None,
        drain_victims_on_ack: true,
        root: RootDiscipline::Stale,
    },
    // The whole branch on the critical path; the root lands when the
    // branch hashes finish, the §III-B crash window.
    SchemePolicy {
        name: "Eager",
        token: "eager",
        code: 2,
        on_chip: NO_RCC_ROOT,
        verify_leaf_on_write: true,
        ancestors: Some((Scope::Branch, Stage::BeforeHash)),
        ack_hash: AckHash::Branch,
        serial_rehash: None,
        extra_persist: None,
        drain_victims_on_ack: true,
        root: RootDiscipline::Deferred,
    },
    // Eager plus shadow persists of every branch node inside the ack
    // (the ~7x metadata traffic of §V-E); the root is recoverable from
    // the persisted branch, so it updates synchronously.
    SchemePolicy {
        name: "PLP",
        token: "plp",
        code: 3,
        on_chip: (64 + 616 + 6, "root register + PTT (616 B) + ETT (48 b)"),
        verify_leaf_on_write: true,
        ancestors: Some((Scope::Branch, Stage::BeforeHash)),
        ack_hash: AckHash::Branch,
        serial_rehash: None,
        extra_persist: Some(Scope::Branch),
        drain_victims_on_ack: true,
        root: RootDiscipline::RunningRoot,
    },
    // Every counter block's MAC is its persistent root in an unlimited
    // non-volatile metadata cache (64 B per block: 256 MB for 16 GB,
    // §V-F); no levels above L1 exist. The ack waits on the MAC plus
    // the NV-register write.
    SchemePolicy {
        name: "BMF-ideal",
        token: "bmf",
        code: 4,
        on_chip: (64, "nvMC holding a persistent root per counter block"),
        verify_leaf_on_write: true,
        ancestors: None,
        ack_hash: AckHash::Pair,
        serial_rehash: None,
        extra_persist: None,
        drain_victims_on_ack: false,
        root: RootDiscipline::PerLeaf,
    },
    // Shortcut update: the write path reads no ancestors (§IV-A2), one
    // leaf+data MAC batch is its whole cost, and Recovery_root moves at
    // the ack. The dummy-counter parent update runs after the ack.
    SchemePolicy {
        name: "SCUE",
        token: "scue",
        code: 5,
        on_chip: (128, "Running_root + Recovery_root (two 64 B NV registers)"),
        verify_leaf_on_write: false,
        ancestors: Some((Scope::Parent, Stage::AfterAck)),
        ack_hash: AckHash::Pair,
        serial_rehash: None,
        extra_persist: None,
        drain_victims_on_ack: false,
        root: RootDiscipline::RecoveryRoot,
    },
    // A persistently-secure tree of counters: the branch MACs recomputed
    // serially bottom-up and every updated node persisted before the ack
    // (the steepest write cost in the zoo).
    SchemePolicy {
        name: "Phoenix",
        token: "phoenix",
        code: 6,
        on_chip: (64 + 64, "root register + branch persist tracker (64 B)"),
        verify_leaf_on_write: true,
        ancestors: Some((Scope::Branch, Stage::BeforeHash)),
        ack_hash: AckHash::Pair,
        serial_rehash: Some(Scope::Branch),
        extra_persist: Some(Scope::Branch),
        drain_victims_on_ack: true,
        root: RootDiscipline::RunningRoot,
    },
    // Persistence level 1: only the counter block persists with the
    // data; upper levels are rebuilt at recovery, so the branch update
    // never gates the ack and the root stays stale.
    SchemePolicy {
        name: "Triad-L1",
        token: "triad1",
        code: 7,
        on_chip: NO_RCC_ROOT,
        verify_leaf_on_write: true,
        ancestors: Some((Scope::Parent, Stage::AfterAck)),
        ack_hash: AckHash::Pair,
        serial_rehash: None,
        extra_persist: None,
        drain_victims_on_ack: false,
        root: RootDiscipline::Stale,
    },
    // Persistence level 2: the L1 parent is updated, re-MACed and
    // persisted write-through inside the ack; levels above stay
    // volatile.
    SchemePolicy {
        name: "Triad-L2",
        token: "triad2",
        code: 8,
        on_chip: NO_RCC_ROOT,
        verify_leaf_on_write: true,
        ancestors: Some((Scope::Parent, Stage::AfterHash)),
        ack_hash: AckHash::Pair,
        serial_rehash: None,
        extra_persist: Some(Scope::Parent),
        drain_victims_on_ack: false,
        root: RootDiscipline::Stale,
    },
    // Counter and data persist together, so the ack waits only on the
    // leaf+data MACs; the branch updates behind it and the root lands
    // when the branch hashes settle (an Eager-shaped window).
    SchemePolicy {
        name: "Zuo",
        token: "zuo",
        code: 9,
        on_chip: NO_RCC_ROOT,
        verify_leaf_on_write: true,
        ancestors: Some((Scope::Branch, Stage::AfterHash)),
        ack_hash: AckHash::Pair,
        serial_rehash: None,
        extra_persist: None,
        drain_victims_on_ack: true,
        root: RootDiscipline::Deferred,
    },
    // Branch updates coalesce in the pipeline (one leaf+data MAC batch,
    // no shadow persists) and the root delta folds in synchronously at
    // the ack: no window, without PLP's traffic. The 256 B models the
    // coalescing buffer tags.
    SchemePolicy {
        name: "Freij",
        token: "freij",
        code: 10,
        on_chip: (64 + 256, "root register + coalescing buffer tags (256 B)"),
        verify_leaf_on_write: true,
        ancestors: Some((Scope::Branch, Stage::BeforeHash)),
        ack_hash: AckHash::Pair,
        serial_rehash: None,
        extra_persist: None,
        drain_victims_on_ack: true,
        root: RootDiscipline::RunningRoot,
    },
];

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct SecureMemConfig {
    /// The update scheme.
    pub scheme: SchemeKind,
    /// Tree geometry (defines data capacity and tree height).
    pub geometry: TreeGeometry,
    /// Seed for the on-chip secret key.
    pub key_seed: u64,
    /// HMAC latency in cycles (Table II: {20, 40, 80, 160}, default 40).
    pub hash_latency: u64,
    /// Metadata cache capacity in bytes (Table II: 256 KB).
    pub mdcache_bytes: usize,
    /// Metadata cache associativity (Table II: 8).
    pub mdcache_ways: usize,
    /// Whether eADR is present: on crash, cache contents flush to NVM
    /// (without any computation, §III-C). Without it only the WPQ drains.
    pub eadr: bool,
    /// Whether recovery may attempt Osiris-style torn-counter repair
    /// (§VII composition) when a leaf MAC mismatches: replay stale minors
    /// forward until the stored data-line MAC verifies, then retry.
    ///
    /// Off by default — unconditional repair would also "repair" genuine
    /// roll-back attacks, so only harnesses that know their faults are
    /// crash-induced (the torture campaign) turn it on.
    pub counter_repair: bool,
}

impl SecureMemConfig {
    /// The paper's Table II configuration for the given scheme.
    pub fn paper(scheme: SchemeKind) -> Self {
        Self {
            scheme,
            geometry: TreeGeometry::paper_16gb(),
            key_seed: 0x5C0E,
            hash_latency: DEFAULT_HASH_LATENCY,
            mdcache_bytes: 256 * 1024,
            mdcache_ways: 8,
            eadr: false,
            counter_repair: false,
        }
    }

    /// A small geometry (64 leaves, 4096 data lines) for tests and
    /// examples: full recovery scans stay fast.
    pub fn small_test(scheme: SchemeKind) -> Self {
        Self {
            geometry: TreeGeometry::tiny(64),
            mdcache_bytes: 16 * 64,
            mdcache_ways: 2,
            ..Self::paper(scheme)
        }
    }

    /// Overrides the hash latency (Figs. 11–12 sensitivity study).
    pub fn with_hash_latency(mut self, cycles: u64) -> Self {
        self.hash_latency = cycles;
        self
    }

    /// Enables eADR (§III-C discussion).
    pub fn with_eadr(mut self, eadr: bool) -> Self {
        self.eadr = eadr;
        self
    }

    /// Overrides the metadata cache size (Fig. 13 sweep).
    pub fn with_mdcache_bytes(mut self, bytes: usize) -> Self {
        self.mdcache_bytes = bytes;
        self
    }

    /// Enables Osiris-style torn-counter repair during recovery.
    pub fn with_counter_repair(mut self, on: bool) -> Self {
        self.counter_repair = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scue_nvm::wpq::{META_WPQ_ENTRIES, USER_WPQ_ENTRIES};

    #[test]
    fn paper_config_matches_table_ii() {
        let cfg = SecureMemConfig::paper(SchemeKind::Scue);
        assert_eq!(cfg.hash_latency, 40);
        assert_eq!(cfg.mdcache_bytes, 256 * 1024);
        assert_eq!(cfg.mdcache_ways, 8);
        assert_eq!((USER_WPQ_ENTRIES, META_WPQ_ENTRIES), (64, 10));
        assert_eq!(cfg.geometry.total_levels(), 9);
    }

    #[test]
    fn scheme_properties() {
        let rcc: Vec<_> = SchemeKind::ALL
            .into_iter()
            .filter(|s| s.policy().root_crash_consistent())
            .collect();
        use SchemeKind::*;
        assert_eq!(rcc, [Plp, BmfIdeal, Scue, Phoenix, Freij]);
        let insecure: Vec<_> = SchemeKind::ALL
            .into_iter()
            .filter(|s| !s.policy().is_secure())
            .collect();
        assert_eq!(insecure, [Baseline]);
    }

    #[test]
    fn rows_pin_names_tokens_and_durable_codes() {
        use SchemeKind::*;
        // Durable codes are on-disk format: these values must never move.
        let pinned = [
            (Baseline, "Baseline", "baseline", 0),
            (Lazy, "Lazy", "lazy", 1),
            (Eager, "Eager", "eager", 2),
            (Plp, "PLP", "plp", 3),
            (BmfIdeal, "BMF-ideal", "bmf", 4),
            (Scue, "SCUE", "scue", 5),
            (Phoenix, "Phoenix", "phoenix", 6),
            (TriadL1, "Triad-L1", "triad1", 7),
            (TriadL2, "Triad-L2", "triad2", 8),
            (Zuo, "Zuo", "zuo", 9),
            (Freij, "Freij", "freij", 10),
        ];
        assert_eq!(pinned.len(), SchemeKind::ALL.len());
        for (kind, name, token, code) in pinned {
            let p = kind.policy();
            assert_eq!((p.name, p.token, p.code), (name, token, code), "{kind:?}");
            assert_eq!(kind.to_string(), name);
            assert_eq!(SchemeKind::parse(token), Some(kind));
            assert_eq!(SchemeKind::parse(name), Some(kind));
            assert_eq!(SchemeKind::parse(&token.to_ascii_uppercase()), Some(kind));
        }
        assert_eq!(SchemeKind::parse("bmf-ideal"), Some(BmfIdeal));
        for bad in ["mercury", "", "scue ", "triad"] {
            assert_eq!(SchemeKind::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn builders_compose() {
        let cfg = SecureMemConfig::small_test(SchemeKind::Lazy)
            .with_hash_latency(160)
            .with_eadr(true)
            .with_mdcache_bytes(4096)
            .with_counter_repair(true);
        assert_eq!(cfg.hash_latency, 160);
        assert!(cfg.eadr);
        assert_eq!(cfg.mdcache_bytes, 4096);
        assert_eq!(cfg.scheme, SchemeKind::Lazy);
        assert!(cfg.counter_repair);
        assert!(
            !SecureMemConfig::paper(SchemeKind::Scue).counter_repair,
            "repair must be opt-in: it would mask roll-back attacks"
        );
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = SchemeKind::ALL.iter().map(|s| s.policy().name).collect();
        assert!(names.contains(&"BMF-ideal"));
        assert!(names.contains(&"SCUE"));
        assert_eq!(format!("{}", SchemeKind::Plp), "PLP");
    }
}
