//! Engine-level durable state: the checkpoint meta blob and its errors.
//!
//! The NVM image itself persists through
//! [`scue_nvm::checkpoint::FileBackend`]; what the *engine* adds at each
//! checkpoint is the trusted on-chip state that a real machine would seal
//! away in battery-backed registers or flush with its last ADR joule:
//! both root registers, the ECC-sideband MACs, and BMF's non-volatile
//! root cache. This module serializes that state into the opaque `meta`
//! blob a [`scue_nvm::NvmStore`] checkpoint carries, and
//! decodes/validates it on reopen.
//!
//! A checkpoint captures exactly the ADR crash-at-`now` semantics: the
//! persisted image plus the sealed roots survive; the volatile metadata
//! cache and victim buffer do not. An engine reopened from a file is
//! therefore *born crashed* — callers must run
//! [`crate::SecureMemory::recover`] before serving requests, which makes
//! the recovery oracle identical between simulated crashes and real
//! SIGKILLed processes.

use crate::config::{SchemeKind, SecureMemConfig};
use scue_nvm::layout::{put_u32, put_u64, Cursor};
use scue_nvm::{Cycle, IoError, OpenError};

/// Magic prefix of an engine meta blob.
pub const META_MAGIC: [u8; 8] = *b"SCUEMETA";

/// Meta blob format version.
pub const META_VERSION: u32 = 1;

/// Why a meta blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// The blob does not start with [`META_MAGIC`].
    BadMagic,
    /// The blob's version is not [`META_VERSION`].
    BadVersion(u32),
    /// The blob ended mid-field or a field failed a sanity check.
    Corrupt(&'static str),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::BadMagic => write!(f, "meta blob lacks the SCUEMETA magic"),
            MetaError::BadVersion(v) => {
                write!(f, "meta blob version {v} (expected {META_VERSION})")
            }
            MetaError::Corrupt(what) => write!(f, "meta blob corrupt: {what}"),
        }
    }
}

impl std::error::Error for MetaError {}

/// Why a durable engine failed to create, open, or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableOpenError {
    /// The image file itself failed to open (header damage, no valid
    /// slot, OS error).
    Image(OpenError),
    /// The image opened but its engine meta blob did not decode.
    Meta(MetaError),
    /// The meta blob decodes but disagrees with the caller's
    /// configuration — opening a SCUE image as Lazy, a different key
    /// seed, or a different tree geometry.
    ConfigMismatch {
        /// Which field disagreed.
        what: &'static str,
    },
}

impl std::fmt::Display for DurableOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableOpenError::Image(e) => write!(f, "{e}"),
            DurableOpenError::Meta(e) => write!(f, "{e}"),
            DurableOpenError::ConfigMismatch { what } => {
                write!(f, "image was created with a different {what}")
            }
        }
    }
}

impl std::error::Error for DurableOpenError {}

impl From<OpenError> for DurableOpenError {
    fn from(e: OpenError) -> Self {
        DurableOpenError::Image(e)
    }
}

impl From<MetaError> for DurableOpenError {
    fn from(e: MetaError) -> Self {
        DurableOpenError::Meta(e)
    }
}

/// Why a checkpoint request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The machine is crashed; recover first.
    Crashed,
    /// The storage backend failed to commit.
    Io(IoError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Crashed => {
                write!(f, "machine is crashed; recover() before checkpointing")
            }
            CheckpointError::Io(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<IoError> for CheckpointError {
    fn from(e: IoError) -> Self {
        CheckpointError::Io(e)
    }
}

/// Receipt for one committed checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The durable generation this checkpoint committed as.
    pub generation: u64,
    /// Cycle at which both WPQ flush barriers completed.
    pub flushed_at: Cycle,
}

/// The engine's trusted durable state, as carried in the checkpoint meta
/// blob. Pairs (`sideband`, `nvmc`) are sorted by key so the encoding —
/// and hence the image bytes — are deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableMeta {
    /// The update scheme the image was created with.
    pub scheme: SchemeKind,
    /// Seed of the sealed on-chip key.
    pub key_seed: u64,
    /// Geometry fingerprint: protected data lines.
    pub data_lines: u64,
    /// Geometry fingerprint: leaf counter blocks.
    pub leaf_count: u64,
    /// Geometry fingerprint: stored tree levels.
    pub stored_levels: u8,
    /// Geometry fingerprint: total tree levels including the root.
    pub total_levels: u8,
    /// The single on-chip root (SCUE's Running_root).
    pub running_root: [u64; 8],
    /// SCUE's instantaneously-updated Recovery_root.
    pub recovery_root: [u64; 8],
    /// ECC-sideband MACs, sorted by line address.
    pub sideband: Vec<(u64, u64)>,
    /// BMF-ideal's persistent leaf roots, sorted by leaf index.
    pub nvmc: Vec<(u64, u64)>,
}

impl DurableMeta {
    /// Captures the durable state of an engine configuration + registers.
    pub(crate) fn capture(
        cfg: &SecureMemConfig,
        running_root: &[u64; 8],
        recovery_root: &[u64; 8],
        sideband: impl Iterator<Item = (u64, u64)>,
        nvmc: impl Iterator<Item = (u64, u64)>,
    ) -> Self {
        let mut sideband: Vec<(u64, u64)> = sideband.collect();
        sideband.sort_unstable();
        let mut nvmc: Vec<(u64, u64)> = nvmc.collect();
        nvmc.sort_unstable();
        DurableMeta {
            scheme: cfg.scheme,
            key_seed: cfg.key_seed,
            data_lines: cfg.geometry.data_lines(),
            leaf_count: cfg.geometry.leaf_count(),
            stored_levels: cfg.geometry.stored_levels(),
            total_levels: cfg.geometry.total_levels(),
            running_root: *running_root,
            recovery_root: *recovery_root,
            sideband,
            nvmc,
        }
    }

    /// Serializes the blob (little-endian, length-prefixed lists).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(160 + 16 * (self.sideband.len() + self.nvmc.len()));
        out.extend_from_slice(&META_MAGIC);
        put_u32(&mut out, META_VERSION);
        out.push(self.scheme.policy().code);
        out.push(self.stored_levels);
        out.push(self.total_levels);
        out.push(0); // pad
        put_u64(&mut out, self.key_seed);
        put_u64(&mut out, self.data_lines);
        put_u64(&mut out, self.leaf_count);
        for c in self.running_root {
            put_u64(&mut out, c);
        }
        for c in self.recovery_root {
            put_u64(&mut out, c);
        }
        put_u64(&mut out, self.sideband.len() as u64);
        for &(addr, mac) in &self.sideband {
            put_u64(&mut out, addr);
            put_u64(&mut out, mac);
        }
        put_u64(&mut out, self.nvmc.len() as u64);
        for &(idx, mac) in &self.nvmc {
            put_u64(&mut out, idx);
            put_u64(&mut out, mac);
        }
        out
    }

    /// Decodes and sanity-checks a blob.
    pub fn decode(bytes: &[u8]) -> Result<DurableMeta, MetaError> {
        let mut c = Cursor::new(bytes);
        let magic = c.take(8).ok_or(MetaError::Corrupt("magic"))?;
        if magic != META_MAGIC {
            return Err(MetaError::BadMagic);
        }
        let version = c.u32().ok_or(MetaError::Corrupt("version"))?;
        if version != META_VERSION {
            return Err(MetaError::BadVersion(version));
        }
        let head = c.take(4).ok_or(MetaError::Corrupt("scheme/levels"))?;
        let scheme = SchemeKind::ALL
            .into_iter()
            .find(|s| s.policy().code == head[0])
            .ok_or(MetaError::Corrupt("scheme code"))?;
        let (stored_levels, total_levels) = (head[1], head[2]);
        let key_seed = c.u64().ok_or(MetaError::Corrupt("key seed"))?;
        let data_lines = c.u64().ok_or(MetaError::Corrupt("data lines"))?;
        let leaf_count = c.u64().ok_or(MetaError::Corrupt("leaf count"))?;
        let mut running_root = [0u64; 8];
        for slot in &mut running_root {
            *slot = c.u64().ok_or(MetaError::Corrupt("running root"))?;
        }
        let mut recovery_root = [0u64; 8];
        for slot in &mut recovery_root {
            *slot = c.u64().ok_or(MetaError::Corrupt("recovery root"))?;
        }
        let mut read_pairs = |what: &'static str| -> Result<Vec<(u64, u64)>, MetaError> {
            let count = c.u64().ok_or(MetaError::Corrupt(what))?;
            // Each pair takes 16 bytes; reject counts the blob cannot hold.
            if count > (bytes.len() as u64) / 16 {
                return Err(MetaError::Corrupt(what));
            }
            let mut pairs = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let k = c.u64().ok_or(MetaError::Corrupt(what))?;
                let v = c.u64().ok_or(MetaError::Corrupt(what))?;
                pairs.push((k, v));
            }
            Ok(pairs)
        };
        let sideband = read_pairs("sideband")?;
        let nvmc = read_pairs("nvmc")?;
        Ok(DurableMeta {
            scheme,
            key_seed,
            data_lines,
            leaf_count,
            stored_levels,
            total_levels,
            running_root,
            recovery_root,
            sideband,
            nvmc,
        })
    }

    /// Checks the blob against an opening configuration.
    pub fn validate(&self, cfg: &SecureMemConfig) -> Result<(), DurableOpenError> {
        if self.scheme != cfg.scheme {
            return Err(DurableOpenError::ConfigMismatch { what: "scheme" });
        }
        if self.key_seed != cfg.key_seed {
            return Err(DurableOpenError::ConfigMismatch { what: "key seed" });
        }
        if self.data_lines != cfg.geometry.data_lines()
            || self.leaf_count != cfg.geometry.leaf_count()
            || self.stored_levels != cfg.geometry.stored_levels()
            || self.total_levels != cfg.geometry.total_levels()
        {
            return Err(DurableOpenError::ConfigMismatch {
                what: "tree geometry",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DurableMeta {
        let cfg = SecureMemConfig::small_test(SchemeKind::Scue);
        DurableMeta::capture(
            &cfg,
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[9, 10, 11, 12, 13, 14, 15, 16],
            [(5u64, 55u64), (3, 33)].into_iter(),
            [(2u64, 22u64)].into_iter(),
        )
    }

    #[test]
    fn roundtrip() {
        let meta = sample();
        let decoded = DurableMeta::decode(&meta.encode()).unwrap();
        assert_eq!(decoded, meta);
        assert_eq!(decoded.sideband, vec![(3, 33), (5, 55)], "sorted");
    }

    #[test]
    fn validate_accepts_matching_config() {
        let cfg = SecureMemConfig::small_test(SchemeKind::Scue);
        assert_eq!(sample().validate(&cfg), Ok(()));
    }

    #[test]
    fn validate_rejects_scheme_and_key_mismatch() {
        let mut cfg = SecureMemConfig::small_test(SchemeKind::Lazy);
        assert_eq!(
            sample().validate(&cfg),
            Err(DurableOpenError::ConfigMismatch { what: "scheme" })
        );
        cfg.scheme = SchemeKind::Scue;
        cfg.key_seed ^= 1;
        assert_eq!(
            sample().validate(&cfg),
            Err(DurableOpenError::ConfigMismatch { what: "key seed" })
        );
    }

    #[test]
    fn decode_rejects_damage() {
        let bytes = sample().encode();
        assert_eq!(DurableMeta::decode(&[]), Err(MetaError::Corrupt("magic")));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(DurableMeta::decode(&bad_magic), Err(MetaError::BadMagic));
        let mut bad_version = bytes.clone();
        bad_version[8] = 0xEE;
        assert!(matches!(
            DurableMeta::decode(&bad_version),
            Err(MetaError::BadVersion(_))
        ));
        let mut bad_scheme = bytes.clone();
        bad_scheme[12] = 99;
        assert_eq!(
            DurableMeta::decode(&bad_scheme),
            Err(MetaError::Corrupt("scheme code"))
        );
        // Every truncation decodes to a typed error, never a panic.
        for cut in 1..bytes.len() {
            assert!(DurableMeta::decode(&bytes[..cut]).is_err());
        }
    }

    /// Damaged blobs — bit flips, truncation, zeroed and duplicated
    /// ranges (`scue_util::prop::mutate_bytes`) — decode to a typed
    /// result, never a panic (a panic counts as a failure, so it shrinks
    /// too), and whatever decodes re-encodes to itself.
    #[test]
    fn mutated_blobs_decode_typed_and_never_panic() {
        use scue_util::prop::{self, prelude::*};
        let pristine = sample().encode();
        let strategy = (prop::collection::vec(
            (0u8..4, 0..=pristine.len() as u64, 0u64..48),
            1..4,
        ),);
        prop::run(
            &ProptestConfig::with_cases(512),
            "mutated_blobs_decode_typed_and_never_panic",
            &strategy,
            |(mutations,)| {
                let mut bytes = pristine.clone();
                for &m in &mutations {
                    prop::mutate_bytes(&mut bytes, m);
                }
                let decoded = std::panic::catch_unwind(|| DurableMeta::decode(&bytes))
                    .map_err(|_| "decode panicked".to_string())?;
                if let Ok(meta) = decoded {
                    prop_assert_eq!(DurableMeta::decode(&meta.encode()), Ok(meta));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn scheme_codes_roundtrip() {
        for scheme in SchemeKind::ALL {
            let mut meta = sample();
            meta.scheme = scheme;
            let bytes = meta.encode();
            assert_eq!(bytes[12], scheme.policy().code);
            assert_eq!(DurableMeta::decode(&bytes).unwrap().scheme, scheme);
        }
    }
}
