//! The typed errors of the durable image.
//!
//! [`crate::checkpoint::FileBackend`] keeps its image resident, so line
//! reads and writes never touch the file: I/O happens only when an
//! image opens ([`OpenError`]) and when a checkpoint commits
//! ([`IoError`]). Every damage mode degrades to one of these — never a
//! panic.

use crate::layout::HeaderError;

/// A typed, cloneable I/O failure (the std error is not `Clone`, and the
/// store must stay `Clone` for crash experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// An operating-system I/O failure during `op`.
    Io {
        /// What the backend was doing (`"read page"`, `"fsync"`, …).
        op: &'static str,
        /// The std error kind.
        kind: std::io::ErrorKind,
        /// The rendered OS error.
        detail: String,
    },
    /// The backend is a detached clone: it carries the image contents but
    /// no file handle, so it can serve reads/writes in memory but cannot
    /// checkpoint. Crash experiments clone engines freely; only the
    /// original may persist.
    Detached,
}

impl IoError {
    /// Wraps a std I/O error with the failing operation's name.
    pub fn from_io(op: &'static str, e: &std::io::Error) -> Self {
        IoError::Io {
            op,
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io { op, detail, .. } => write!(f, "{op}: {detail}"),
            IoError::Detached => write!(f, "detached clone: no file handle to persist to"),
        }
    }
}

impl std::error::Error for IoError {}

/// Why a durable image failed to open. Every damage mode degrades to a
/// typed error — a corrupt file must never panic the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenError {
    /// The file could not be read at all.
    Io(IoError),
    /// Page 0 is not a valid image header.
    Header(HeaderError),
    /// Neither root slot holds a complete, CRC-valid checkpoint whose
    /// page table and meta blob are intact and inside the file. A torn
    /// *newest* slot is not this error — it falls back to the previous
    /// slot; this fires only when both generations are gone.
    NoValidSlot,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "open failed: {e}"),
            OpenError::Header(e) => write!(f, "open failed: {e}"),
            OpenError::NoValidSlot => {
                write!(
                    f,
                    "open failed: no valid checkpoint slot in either position"
                )
            }
        }
    }
}

impl std::error::Error for OpenError {}

impl From<IoError> for OpenError {
    fn from(e: IoError) -> Self {
        OpenError::Io(e)
    }
}
