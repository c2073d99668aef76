//! Non-volatile memory substrate: the reproduction's stand-in for NVMain.
//!
//! The paper evaluates on Gem5 + NVMain modelling a 16 GB DDR-based PCM
//! DIMM (Table II). This crate provides the equivalent memory-side model:
//!
//! * [`addr`] — line-granular physical addressing shared by every layer.
//! * [`store`] — the *functional* NVM: a sparse, zero-filled image of 64 B
//!   lines, in memory or on file, with an explicit tampering interface for
//!   the attacker (NVM contents are untrusted in the threat model, §II-A).
//! * [`timing`] — the *timing* NVM: banked PCM with the paper's
//!   `tRCD/tCL/tCWD/tFAW/tWTR/tWR = 48/15/13/50/7.5/300 ns` parameters,
//!   row-buffer hits and a tFAW activation window.
//! * [`wpq`] — the write-pending queue: 64 tagged entries for user data and
//!   10 untagged entries for security metadata (Table II), inside the ADR
//!   persistence domain.
//! * [`controller`] — ties store + timing + WPQ into the memory-controller
//!   back end the simulator calls into, with per-kind access statistics.
//! * [`fault`] — injectable media faults and the 8-byte atomic-persist
//!   model: torn writes for crashes that interrupt an ADR flush, plus bit
//!   flips, stuck-at bytes, and dropped WPQ entries — extended to the
//!   durable path with torn root slots, torn pages, stale-slot bit rot,
//!   and truncated tails applied to a closed image file.
//! * [`layout`] / [`checkpoint`] / [`backend`] — the durable path: a
//!   page-granular image file whose pages a [`checkpoint::FileBackend`]
//!   keeps resident, committed copy-on-write behind dual CRC-guarded root
//!   slots so a SIGKILLed process reopens the image and recovers from
//!   genuinely persisted bytes; [`backend`] holds its typed errors.
//!
//! Timing and function are deliberately separated: writes become durable
//! (visible in the [`store::NvmStore`]) the moment they enter the WPQ —
//! because ADR guarantees the WPQ drains on power failure — while the
//! timing model still charges bank occupancy and queue stalls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod backend;
pub mod checkpoint;
pub mod controller;
pub mod fault;
pub mod layout;
pub mod store;
pub mod timing;
pub mod wpq;

pub use addr::{Cycle, LineAddr, LINE_BYTES};
pub use backend::{IoError, OpenError};
pub use controller::{AccessKind, MemStats, MemoryController};
pub use fault::{
    apply_durable, DurableFault, DurableFaultRecord, FaultPlan, FaultRecord, NvmFault, Tearing,
    TornPrefix, PERSIST_ATOM_BYTES, WORDS_PER_LINE,
};
pub use store::{HistoryStats, NvmStore, DEFAULT_HISTORY_CAP};
pub use timing::PcmCounters;
pub use wpq::WpqStats;
