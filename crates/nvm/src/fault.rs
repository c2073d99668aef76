//! Injectable media faults and the 8-byte atomic-persist model.
//!
//! Real NVM persists in 8-byte atomic units: a power failure in the
//! middle of a 64 B cacheline flush leaves a *torn* line whose prefix of
//! 8-byte words carries the new content while the suffix still holds the
//! old content. The ADR contract normally hides this (the WPQ drains on
//! power failure), so tearing here models an ADR *failure* — the torture
//! harness injects it deliberately to check that every scheme either
//! recovers or detects the damage, never silently serves it.
//!
//! Besides torn writes the module models classic media faults: bit
//! flips, stuck-at bytes, and dropped writes (a WPQ entry that never
//! reached media). Each injection is described by a typed [`NvmFault`]
//! and acknowledged by a [`FaultRecord`] stating whether it actually
//! changed the image, so campaigns can tell "fault landed" from "fault
//! was a no-op" deterministically.

use crate::addr::{LineAddr, LINE_BYTES};
use crate::store::{Line, NvmStore};

/// NVM persists atomically in units of this many bytes (one machine word).
pub const PERSIST_ATOM_BYTES: usize = 8;

/// Number of 8-byte atomic-persist words in one 64 B line.
pub const WORDS_PER_LINE: usize = LINE_BYTES / PERSIST_ATOM_BYTES;

/// One injectable media fault, addressed at line granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmFault {
    /// A crash mid-flush: the first `words_new` 8-byte words of the line
    /// hold the latest write, the rest still hold the previous content.
    TornWrite {
        /// The line torn by the interrupted flush.
        addr: LineAddr,
        /// How many leading 8-byte words made it to media (0..=8).
        words_new: usize,
    },
    /// A single-bit upset in one stored byte.
    BitFlip {
        /// The affected line.
        addr: LineAddr,
        /// Byte offset within the line (0..64).
        byte: usize,
        /// Bit index within the byte (0..8).
        bit: u8,
    },
    /// A byte whose cell is stuck at a fixed value.
    StuckAt {
        /// The affected line.
        addr: LineAddr,
        /// Byte offset within the line (0..64).
        byte: usize,
        /// The value the cell is stuck at.
        value: u8,
    },
    /// A write the WPQ accepted but that never reached media: the line
    /// reverts to its previous content.
    DroppedWrite {
        /// The line whose last write is dropped.
        addr: LineAddr,
    },
}

impl NvmFault {
    /// The line this fault targets.
    pub fn addr(&self) -> LineAddr {
        match *self {
            NvmFault::TornWrite { addr, .. }
            | NvmFault::BitFlip { addr, .. }
            | NvmFault::StuckAt { addr, .. }
            | NvmFault::DroppedWrite { addr } => addr,
        }
    }

    /// A short stable name for traces and JSON.
    pub fn kind_name(&self) -> &'static str {
        match self {
            NvmFault::TornWrite { .. } => "torn_write",
            NvmFault::BitFlip { .. } => "bit_flip",
            NvmFault::StuckAt { .. } => "stuck_at",
            NvmFault::DroppedWrite { .. } => "dropped_write",
        }
    }
}

/// Abstract description of how far the ADR flush got before power died,
/// phrased in queue positions rather than cycles: the first
/// `fully_drained` metadata-WPQ entries (FIFO order) committed whole,
/// the next entry committed only its first `words_new` 8-byte words,
/// and every entry behind it committed nothing.
///
/// This is the shape the crash model checker emits — its abstract
/// tearing nondeterminism enumerates exactly these prefixes — and
/// [`FaultPlan::tearing_prefix`] lowers it onto the concrete controller
/// so an abstract torn-write case replays against the real engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornPrefix {
    /// In-flight metadata entries (FIFO order) that committed whole.
    pub fully_drained: usize,
    /// Leading 8-byte words of the next entry that reached media (0..=8).
    pub words_new: usize,
}

/// How a crash tears the WPQ entries still draining to media.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Tearing {
    /// ADR works: every accepted write drains whole.
    #[default]
    None,
    /// ADR fails: every in-flight entry (user data and metadata) keeps
    /// the word prefix proportional to its drain progress.
    InFlight,
    /// The metadata WPQ stops at an exact abstract drain prefix (the
    /// model checker's lowering); user-data entries drain whole.
    Prefix(TornPrefix),
}

/// What to break when a crash is injected: how in-flight WPQ entries
/// tear, then explicit media faults applied after the crash settles.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// How the crash tears in-flight WPQ entries.
    pub tearing: Tearing,
    /// Explicit media faults applied to the post-crash image, in order.
    pub faults: Vec<NvmFault>,
}

impl FaultPlan {
    /// A fault-free crash — identical to the classic clean-crash model.
    pub fn none() -> Self {
        Self::default()
    }

    /// A crash that tears all in-flight WPQ entries.
    pub fn tearing() -> Self {
        Self {
            tearing: Tearing::InFlight,
            ..Self::default()
        }
    }

    /// A crash whose ADR flush stopped at the given abstract drain
    /// prefix of the metadata WPQ (the model checker's torn-write
    /// lowering).
    pub fn tearing_prefix(prefix: TornPrefix) -> Self {
        Self {
            tearing: Tearing::Prefix(prefix),
            ..Self::default()
        }
    }

    /// Adds one explicit media fault to the plan.
    pub fn with_fault(mut self, fault: NvmFault) -> Self {
        self.faults.push(fault);
        self
    }
}

/// Acknowledgement of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// The fault that was requested.
    pub fault: NvmFault,
    /// Whether the image actually changed (a stuck-at matching the stored
    /// byte, or a torn write whose halves agree, is a no-op).
    pub applied: bool,
}

/// Builds the torn image of a line: the first `words_new` 8-byte words
/// from `new`, the rest from `old`. `words_new` is clamped to the line.
pub fn torn_line(new: &Line, old: &Line, words_new: usize) -> Line {
    let split = words_new.min(WORDS_PER_LINE) * PERSIST_ATOM_BYTES;
    let mut out = *old;
    out[..split].copy_from_slice(&new[..split]);
    out
}

/// Applies one fault to the functional image, returning a record of
/// whether anything changed.
///
/// Torn and dropped writes need the store's history journal (see
/// [`NvmStore::track_history`]) to know the pre-write content; without
/// it, or when the line was never overwritten, they report
/// `applied: false`.
pub fn apply(store: &mut NvmStore, fault: NvmFault) -> FaultRecord {
    let applied = match fault {
        NvmFault::TornWrite { addr, words_new } => match store.previous_line(addr) {
            Some(old) => {
                let new = store.read_line(addr);
                let torn = torn_line(&new, &old, words_new);
                if torn == new {
                    false
                } else {
                    store.tamper_line(addr, torn);
                    true
                }
            }
            None => false,
        },
        NvmFault::BitFlip { addr, byte, bit } => {
            let mut line = store.read_line(addr);
            line[byte % LINE_BYTES] ^= 1 << (bit % 8);
            store.tamper_line(addr, line);
            true
        }
        NvmFault::StuckAt { addr, byte, value } => {
            let mut line = store.read_line(addr);
            let byte = byte % LINE_BYTES;
            if line[byte] == value {
                false
            } else {
                line[byte] = value;
                store.tamper_line(addr, line);
                true
            }
        }
        NvmFault::DroppedWrite { addr } => match store.previous_line(addr) {
            Some(old) if old != store.read_line(addr) => {
                store.tamper_line(addr, old);
                true
            }
            _ => false,
        },
    };
    FaultRecord { fault, applied }
}

/// Bytes of a root-slot page the durable injector considers "the slot":
/// generously covers the encoded body + CRC (the rest of the page is
/// zero padding).
const SLOT_DAMAGE_SPAN: usize = 128;

/// Damage applied to a *closed* durable image file — the storage-medium
/// extension of the [`NvmFault`] taxonomy. The crashtest harness applies
/// one of these between SIGKILL and reopen, modelling power-fail tearing
/// and media rot on the bytes that actually hit the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableFault {
    /// A commit interrupted mid-slot-write: only the first `words_new`
    /// 8-byte words of the newest root slot made it; the tail of the
    /// slot body is garbage. Open must fall back to the previous slot.
    TornRootSlot {
        /// Leading 8-byte words of the slot that persisted.
        words_new: usize,
    },
    /// A single-bit upset inside the newest root slot (stale-slot rot);
    /// the slot CRC catches it and open falls back.
    StaleSlotBitFlip {
        /// Byte offset within the slot body.
        byte: usize,
        /// Bit index within the byte (0..8).
        bit: u8,
    },
    /// A committed data page whose tail is garbage (torn page program):
    /// the first `words_new` 8-byte words survive.
    TornPage {
        /// Which committed data page (in logical order, wrapped).
        nth: usize,
        /// Leading 8-byte words of the page that persisted.
        words_new: usize,
    },
    /// Whole pages chopped off the end of the file (lost tail after an
    /// interrupted append); slot validation detects the missing extent.
    TruncateTail {
        /// Pages removed from the end.
        pages: u64,
    },
}

impl DurableFault {
    /// A short stable name for traces and JSON.
    pub fn kind_name(&self) -> &'static str {
        match self {
            DurableFault::TornRootSlot { .. } => "torn_root_slot",
            DurableFault::StaleSlotBitFlip { .. } => "stale_slot_bit_flip",
            DurableFault::TornPage { .. } => "torn_page",
            DurableFault::TruncateTail { .. } => "truncate_tail",
        }
    }
}

/// Acknowledgement of one durable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableFaultRecord {
    /// The fault that was requested.
    pub fault: DurableFault,
    /// Whether the file actually changed.
    pub applied: bool,
}

/// Locates the page holding the newest decodable root slot (falling back
/// to slot position 1 when neither decodes — a torn slot is still the
/// right target).
fn newest_slot_page(path: &std::path::Path) -> Result<u64, crate::backend::IoError> {
    let gens = crate::checkpoint::FileBackend::peek_generations(path)?;
    Ok(match gens {
        [Some(a), Some(b)] => {
            if crate::layout::newer_gen(a, b) {
                1
            } else {
                2
            }
        }
        [Some(_), None] => 1,
        [None, Some(_)] => 2,
        [None, None] => 1,
    })
}

/// Applies one durable fault to a closed image file, returning whether
/// the bytes changed. The file is damaged in place; callers reopen it
/// afterwards and observe the typed degradation ([`crate::backend::OpenError`]
/// or slot fallback).
pub fn apply_durable(
    path: &std::path::Path,
    fault: DurableFault,
) -> Result<DurableFaultRecord, crate::backend::IoError> {
    use crate::backend::IoError;
    use crate::checkpoint::{read_page_at, write_all_at};
    use crate::layout::PAGE_BYTES;

    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| IoError::from_io("open image for fault", &e))?;
    let len = file
        .metadata()
        .map_err(|e| IoError::from_io("stat image", &e))?
        .len();

    let patch_page = |page_no: u64, edit: &mut dyn FnMut(&mut [u8])| -> Result<bool, IoError> {
        let mut buf = [0u8; PAGE_BYTES];
        read_page_at(&file, page_no, &mut buf)?;
        let before = buf;
        edit(&mut buf);
        if buf == before {
            return Ok(false);
        }
        write_all_at(&file, page_no * PAGE_BYTES as u64, &buf)?;
        file.sync_data()
            .map_err(|e| IoError::from_io("fsync", &e))?;
        Ok(true)
    };

    let applied = match fault {
        DurableFault::TornRootSlot { words_new } => {
            let page = newest_slot_page(path)?;
            let split = (words_new * PERSIST_ATOM_BYTES).min(SLOT_DAMAGE_SPAN);
            patch_page(page, &mut |buf| {
                for b in &mut buf[split..SLOT_DAMAGE_SPAN] {
                    *b = 0xEE;
                }
            })?
        }
        DurableFault::StaleSlotBitFlip { byte, bit } => {
            let page = newest_slot_page(path)?;
            let byte = byte % SLOT_DAMAGE_SPAN;
            patch_page(page, &mut |buf| {
                buf[byte] ^= 1 << (bit % 8);
            })?
        }
        DurableFault::TornPage { nth, words_new } => {
            // Target a page the newest checkpoint actually references, so
            // the damage is visible to a fallback-free reopen.
            match crate::checkpoint::FileBackend::open(path) {
                Ok((backend, _, _)) => {
                    let pages = backend.data_pages();
                    drop(backend);
                    if pages.is_empty() {
                        false
                    } else {
                        let phys = pages[nth % pages.len()];
                        let split = (words_new * PERSIST_ATOM_BYTES).min(PAGE_BYTES);
                        patch_page(phys, &mut |buf| {
                            for b in &mut buf[split..] {
                                *b = 0xEE;
                            }
                        })?
                    }
                }
                // An unopenable image has nothing left to tear.
                Err(_) => false,
            }
        }
        DurableFault::TruncateTail { pages } => {
            // Keep at least the header page so the damage is "lost tail",
            // not "lost image".
            let new_len = len
                .saturating_sub(pages * PAGE_BYTES as u64)
                .max(PAGE_BYTES as u64);
            if new_len < len {
                file.set_len(new_len)
                    .map_err(|e| IoError::from_io("truncate", &e))?;
                file.sync_data()
                    .map_err(|e| IoError::from_io("fsync", &e))?;
                true
            } else {
                false
            }
        }
    };
    Ok(DurableFaultRecord { fault, applied })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_line_splits_at_word_granularity() {
        let new = [0xAA; LINE_BYTES];
        let old = [0x55; LINE_BYTES];
        let torn = torn_line(&new, &old, 3);
        assert_eq!(&torn[..24], &[0xAA; 24]);
        assert_eq!(&torn[24..], &[0x55; 40]);
        assert_eq!(torn_line(&new, &old, 0), old);
        assert_eq!(torn_line(&new, &old, 8), new);
        assert_eq!(torn_line(&new, &old, 99), new, "clamped past the line");
    }

    #[test]
    fn torn_write_needs_history() {
        let mut store = NvmStore::new();
        let a = LineAddr::new(1);
        store.write_line(a, [1; LINE_BYTES]);
        store.write_line(a, [2; LINE_BYTES]);
        let rec = apply(
            &mut store,
            NvmFault::TornWrite {
                addr: a,
                words_new: 4,
            },
        );
        assert!(!rec.applied, "no history journal, tear is a no-op");
        assert_eq!(store.read_line(a), [2; LINE_BYTES]);
    }

    #[test]
    fn torn_write_mixes_old_and_new() {
        let mut store = NvmStore::new();
        store.track_history(true);
        let a = LineAddr::new(1);
        store.write_line(a, [1; LINE_BYTES]);
        store.write_line(a, [2; LINE_BYTES]);
        let rec = apply(
            &mut store,
            NvmFault::TornWrite {
                addr: a,
                words_new: 2,
            },
        );
        assert!(rec.applied);
        let line = store.read_line(a);
        assert_eq!(&line[..16], &[2; 16]);
        assert_eq!(&line[16..], &[1; 48]);
    }

    #[test]
    fn full_tear_is_a_noop() {
        let mut store = NvmStore::new();
        store.track_history(true);
        let a = LineAddr::new(1);
        store.write_line(a, [1; LINE_BYTES]);
        store.write_line(a, [2; LINE_BYTES]);
        let rec = apply(
            &mut store,
            NvmFault::TornWrite {
                addr: a,
                words_new: 8,
            },
        );
        assert!(!rec.applied, "all words made it: nothing torn");
    }

    #[test]
    fn bit_flip_flips_exactly_one_bit() {
        let mut store = NvmStore::new();
        let a = LineAddr::new(2);
        store.write_line(a, [0; LINE_BYTES]);
        let rec = apply(
            &mut store,
            NvmFault::BitFlip {
                addr: a,
                byte: 5,
                bit: 3,
            },
        );
        assert!(rec.applied);
        let line = store.read_line(a);
        assert_eq!(line[5], 1 << 3);
        assert!(line.iter().enumerate().all(|(i, &b)| i == 5 || b == 0));
    }

    #[test]
    fn stuck_at_matching_value_is_noop() {
        let mut store = NvmStore::new();
        let a = LineAddr::new(3);
        store.write_line(a, [7; LINE_BYTES]);
        let noop = apply(
            &mut store,
            NvmFault::StuckAt {
                addr: a,
                byte: 0,
                value: 7,
            },
        );
        assert!(!noop.applied);
        let hit = apply(
            &mut store,
            NvmFault::StuckAt {
                addr: a,
                byte: 0,
                value: 0xFF,
            },
        );
        assert!(hit.applied);
        assert_eq!(store.read_line(a)[0], 0xFF);
    }

    #[test]
    fn dropped_write_reverts_to_previous() {
        let mut store = NvmStore::new();
        store.track_history(true);
        let a = LineAddr::new(4);
        store.write_line(a, [1; LINE_BYTES]);
        store.write_line(a, [2; LINE_BYTES]);
        let rec = apply(&mut store, NvmFault::DroppedWrite { addr: a });
        assert!(rec.applied);
        assert_eq!(store.read_line(a), [1; LINE_BYTES]);
    }

    #[test]
    fn fault_accessors() {
        let f = NvmFault::BitFlip {
            addr: LineAddr::new(9),
            byte: 0,
            bit: 0,
        };
        assert_eq!(f.addr(), LineAddr::new(9));
        assert_eq!(f.kind_name(), "bit_flip");
    }

    mod durable {
        use super::super::*;
        use std::path::PathBuf;

        fn image(name: &str) -> PathBuf {
            let dir = std::env::temp_dir().join(format!("scue-dfault-{}", std::process::id()));
            let _ = std::fs::create_dir_all(&dir);
            let path = dir.join(name);
            let mut s = NvmStore::create_file(&path).unwrap();
            s.write_line(LineAddr::new(1), [1; LINE_BYTES]);
            s.checkpoint(b"one").unwrap();
            s.write_line(LineAddr::new(1), [2; LINE_BYTES]);
            s.write_line(LineAddr::new(99), [9; LINE_BYTES]);
            s.checkpoint(b"two").unwrap();
            path
        }

        #[test]
        fn torn_root_slot_forces_fallback() {
            let path = image("torn-slot.img");
            let gen_before = NvmStore::open_file(&path).unwrap().generation();
            let rec = apply_durable(&path, DurableFault::TornRootSlot { words_new: 3 }).unwrap();
            assert!(rec.applied);
            let s = NvmStore::open_file(&path).unwrap();
            assert!(s.fell_back());
            assert_eq!(s.generation(), gen_before.wrapping_sub(1));
            assert_eq!(s.meta(), b"one");
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn stale_slot_bit_flip_forces_fallback() {
            let path = image("bitflip-slot.img");
            let rec =
                apply_durable(&path, DurableFault::StaleSlotBitFlip { byte: 40, bit: 2 }).unwrap();
            assert!(rec.applied);
            let s = NvmStore::open_file(&path).unwrap();
            assert!(s.fell_back(), "CRC mismatch skips the newest slot");
            assert_eq!(s.meta(), b"one");
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn torn_page_changes_committed_content() {
            let path = image("torn-page.img");
            let rec = apply_durable(
                &path,
                DurableFault::TornPage {
                    nth: 0,
                    words_new: 1,
                },
            )
            .unwrap();
            assert!(rec.applied);
            let s = NvmStore::open_file(&path).unwrap();
            assert!(!s.fell_back(), "slots are intact; only data is rotten");
            // Logical page 0 line 1 sits past the surviving first word.
            assert_eq!(s.read_line(LineAddr::new(1)), [0xEE; LINE_BYTES]);
            // The line count comes from the torn bytes, not the slot: the
            // garbage tail turned every line of the page non-zero.
            assert_eq!(s.touched_lines(), 64 + 1);
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn truncate_tail_triggers_typed_degradation() {
            let path = image("trunc.img");
            let rec = apply_durable(&path, DurableFault::TruncateTail { pages: 1 }).unwrap();
            assert!(rec.applied);
            // One page gone: the newest slot's extent check fails and open
            // falls back (or, with more damage, errors typed) — never panics.
            match NvmStore::open_file(&path) {
                Ok(s) => assert!(s.fell_back() || s.generation() > 0),
                Err(e) => {
                    let _ = e.to_string();
                }
            }
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn durable_kind_names_are_stable() {
            assert_eq!(
                DurableFault::TornRootSlot { words_new: 0 }.kind_name(),
                "torn_root_slot"
            );
            assert_eq!(
                DurableFault::StaleSlotBitFlip { byte: 0, bit: 0 }.kind_name(),
                "stale_slot_bit_flip"
            );
            assert_eq!(
                DurableFault::TornPage {
                    nth: 0,
                    words_new: 0
                }
                .kind_name(),
                "torn_page"
            );
            assert_eq!(
                DurableFault::TruncateTail { pages: 1 }.kind_name(),
                "truncate_tail"
            );
        }
    }
}
