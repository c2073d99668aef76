//! SCUE — shortcut root updates and counter-summing recovery for
//! SGX-style integrity trees in secure NVM.
//!
//! This crate is the reproduction of the paper's contribution (HPCA 2023,
//! Huang & Hua): a secure-memory engine that keeps a 16 GB PCM region
//! encrypted (counter-mode) and integrity-protected (SIT), with
//! interchangeable *update schemes* deciding how tree modifications
//! propagate to the on-chip root. Each scheme — the paper's Baseline,
//! Lazy, Eager, PLP, BMF-ideal and SCUE plus the related-literature zoo —
//! is one [`SchemePolicy`] row (see [`SchemeKind::policy`]): its name,
//! on-chip cost, the write-path work it puts on the critical path, and
//! its [`RootDiscipline`], from which root crash consistency follows.
//!
//! The two ideas from the paper:
//!
//! 1. **Shortcut update** (§IV-A): on every leaf persist, bump the
//!    corresponding counter of an on-chip `Recovery_root` directly —
//!    skipping every intermediate node — so the root is *always*
//!    consistent with the persisted leaves and the crash window vanishes.
//! 2. **Counter-summing recovery** (§IV-B): because an eagerly-updated
//!    parent counter equals the sum of its child counters, the whole SIT
//!    reconstructs bottom-up from leaves via *dummy counters* (Fig. 7),
//!    exactly like a BMT — [`recovery`] implements it and
//!    detects roll-forward / roll-back / replay attacks per Table I.
//!
//! # Quick start
//!
//! ```
//! use scue::{SchemeKind, SecureMemConfig, SecureMemory};
//! use scue_nvm::LineAddr;
//!
//! let mut mem = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
//! let data = [7u8; 64];
//! let done = mem.persist_data(LineAddr::new(0), data, 0).unwrap();
//!
//! // Power fails immediately — no propagation ever ran.
//! mem.crash(done);
//! let report = mem.recover();
//! assert!(report.outcome.is_success());
//! let (back, _) = mem.read_data(LineAddr::new(0), 0).unwrap();
//! assert_eq!(back, data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod config;
pub mod durable;
pub mod engine;
pub mod fastrec;
pub mod meta;
pub mod osiris;
pub mod overheads;
pub mod recovery;
pub mod stats;

pub use config::{RootDiscipline, SchemeKind, SchemePolicy, SecureMemConfig};
pub use durable::{CheckpointError, CheckpointReport, DurableMeta, DurableOpenError, MetaError};
pub use engine::{CrashError, IntegrityError, SecureMemory};
pub use recovery::{ConsistencyProbe, RecoveryOutcome, RecoveryPhases, RecoveryReport};
pub use stats::{EngineStats, LatencyStats};
