//! The durable file backend: a resident page image committed with
//! copy-on-write pages and dual root slots.
//!
//! The image file is page granular (see [`crate::layout`]) and the whole
//! image stays resident. [`FileBackend::open`] validates both root slots,
//! loads every page of the chosen checkpoint and counts its non-zero
//! lines; from then on line reads and writes touch only memory, and a
//! write flags its page dirty. `commit`, called by
//! [`crate::store::NvmStore::checkpoint`], makes the flagged pages
//! durable with the classic shadow-paging protocol:
//!
//! 1. every flagged page is written, in logical order, to a **fresh**
//!    physical page — never over a page reachable from either committed
//!    checkpoint (CoW);
//! 2. the new page table and the caller's meta blob are written to fresh
//!    page runs, then everything is fsynced;
//! 3. the root slot for the new generation is written *to the slot the
//!    previous checkpoint does not occupy* and fsynced — this single
//!    page write is the atomic commit point.
//!
//! Pages displaced by checkpoint `g` are recycled only after checkpoint
//! `g+1` commits (delayed free), so the two newest checkpoints are
//! always intact on disk: a torn newest slot — a crash mid-commit, or a
//! deliberately injected [`crate::fault::DurableFault`] — falls back to
//! the previous generation instead of erroring.
//!
//! The image only has to survive at checkpoint granularity (DESIGN.md
//! §13), so every I/O failure surfaces as a typed error from `open` or
//! `commit`, never on the line path.

use crate::addr::{LineAddr, LINE_BYTES};
use crate::backend::{IoError, OpenError};
use crate::layout::{self, RootSlot, FIRST_PAYLOAD_PAGE, LINES_PER_PAGE, PAGE_BYTES};
use crate::store::{Line, ZERO_LINE};
use std::collections::{BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// One 4 KB page buffer (boxed: pages live in maps, not on the stack).
type PageBuf = Box<[u8; PAGE_BYTES]>;

fn zero_page() -> PageBuf {
    Box::new([0u8; PAGE_BYTES])
}

/// Retrying positional read of `buf.len()` bytes from page `phys` on:
/// EINTR restarts, short reads continue, and a read past EOF fills with
/// zeros (unwritten holes read as zero pages).
pub(crate) fn read_page_at(file: &File, phys: u64, buf: &mut [u8]) -> Result<(), IoError> {
    let mut off = phys * PAGE_BYTES as u64;
    let mut filled = 0usize;
    buf.fill(0);
    while filled < buf.len() {
        match file.read_at(&mut buf[filled..], off) {
            Ok(0) => break, // EOF: the rest stays zero
            Ok(n) => {
                filled += n;
                off += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(IoError::from_io("read page", &e)),
        }
    }
    Ok(())
}

/// Retrying positional write: EINTR restarts, short writes continue.
pub(crate) fn write_all_at(file: &File, mut off: u64, mut bytes: &[u8]) -> Result<(), IoError> {
    while !bytes.is_empty() {
        match file.write_at(bytes, off) {
            Ok(0) => {
                return Err(IoError::Io {
                    op: "write page",
                    kind: ErrorKind::WriteZero,
                    detail: "write returned zero bytes".to_string(),
                })
            }
            Ok(n) => {
                off += n as u64;
                bytes = &bytes[n..];
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(IoError::from_io("write page", &e)),
        }
    }
    Ok(())
}

/// The logical page holding `addr` and the line's byte offset in it.
fn locate(addr: LineAddr) -> (u64, usize) {
    (
        addr.raw() / LINES_PER_PAGE,
        (addr.raw() % LINES_PER_PAGE) as usize * LINE_BYTES,
    )
}

/// One resident page and whether it changed since the last commit.
#[derive(Debug, Clone)]
struct Page {
    bytes: PageBuf,
    dirty: bool,
}

/// A checkpoint slot that parsed *and* whose table and meta runs
/// validated against the actual file (in bounds, CRCs match).
struct ValidSlot {
    slot: RootSlot,
    table: HashMap<u64, u64>,
    meta: Vec<u8>,
}

/// The committed on-disk state behind a [`FileBackend`].
#[derive(Debug)]
struct Disk {
    file: File,
    /// Committed logical→physical page table.
    table: HashMap<u64, u64>,
    /// Physical pages free for reuse right now.
    free: BTreeSet<u64>,
    /// Pages displaced by the *last* commit: reusable only after the
    /// next commit (delayed free — keeps the previous checkpoint intact).
    freed_prev: Vec<u64>,
    /// Physical length high-water mark, in pages.
    file_pages: u64,
    /// Committed table run `(first_page, byte_len)`.
    table_run: (u64, u64),
    /// Committed meta run `(first_page, byte_len)`.
    meta_run: (u64, u64),
}

/// The durable page-granular file backend. See the module docs for the
/// commit protocol. [`crate::store::NvmStore`] is its only writer and
/// owns the generation each commit writes; outside this crate an image
/// can only be opened and inspected.
#[derive(Debug)]
pub struct FileBackend {
    /// Resident pages by logical index; a missing page reads as zero.
    pages: HashMap<u64, Page>,
    /// Non-zero lines in the resident image.
    nonzero: u64,
    /// Whether open chose the older slot because the newer one was damaged.
    fell_back: bool,
    /// `None` on a detached clone.
    disk: Option<Disk>,
}

impl Clone for FileBackend {
    /// A clone copies the resident pages and drops the file: it serves
    /// reads and writes but cannot commit ([`IoError::Detached`]). Crash
    /// experiments clone engines freely; only the original owns the file.
    fn clone(&self) -> Self {
        FileBackend {
            pages: self.pages.clone(),
            nonzero: self.nonzero,
            fell_back: self.fell_back,
            disk: None,
        }
    }
}

impl FileBackend {
    /// Creates a fresh image at `path` (truncating any existing file)
    /// holding only its header page; it opens once the caller commits
    /// the first checkpoint.
    pub(crate) fn create(path: &Path) -> Result<FileBackend, OpenError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| IoError::from_io("create image", &e))?;
        write_all_at(&file, 0, &layout::encode_header())?;
        Ok(FileBackend {
            pages: HashMap::new(),
            nonzero: 0,
            fell_back: false,
            disk: Some(Disk {
                file,
                table: HashMap::new(),
                free: BTreeSet::new(),
                freed_prev: Vec::new(),
                file_pages: FIRST_PAYLOAD_PAGE,
                table_run: (0, 0),
                meta_run: (0, 0),
            }),
        })
    }

    /// Opens an existing image, choosing the newest valid checkpoint
    /// slot and falling back to the previous one if the newest is torn
    /// or corrupt, then loads every page of that checkpoint. Returns the
    /// backend with the checkpoint's generation and meta blob. Typed
    /// errors for every damage mode — never a panic.
    pub fn open(path: &Path) -> Result<(FileBackend, u64, Vec<u8>), OpenError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| IoError::from_io("open image", &e))?;
        let len = file
            .metadata()
            .map_err(|e| IoError::from_io("stat image", &e))?
            .len();
        let file_pages = len / PAGE_BYTES as u64;
        let mut header = zero_page();
        read_page_at(&file, 0, &mut header[..])?;
        if len < PAGE_BYTES as u64 {
            return Err(OpenError::Header(layout::HeaderError::Truncated));
        }
        layout::decode_header(header.as_ref()).map_err(OpenError::Header)?;

        let mut candidates: [Option<ValidSlot>; 2] = [None, None];
        let mut slot_damaged = [false, false];
        for (i, page_no) in [1u64, 2u64].into_iter().enumerate() {
            if page_no >= file_pages {
                continue;
            }
            let mut page = zero_page();
            read_page_at(&file, page_no, &mut page[..])?;
            let nonempty = page.iter().any(|&b| b != 0);
            match Self::validate_slot(&file, file_pages, page.as_ref()) {
                Some(valid) => candidates[i] = Some(valid),
                None => slot_damaged[i] = nonempty,
            }
        }
        let [a, b] = candidates;
        let (chosen, other, other_damaged) = match (a, b) {
            (Some(a), Some(b)) => {
                if layout::newer_gen(a.slot.generation, b.slot.generation) {
                    (a, Some(b), false)
                } else {
                    (b, Some(a), false)
                }
            }
            (Some(a), None) => (a, None, slot_damaged[1]),
            (None, Some(b)) => (b, None, slot_damaged[0]),
            (None, None) => return Err(OpenError::NoValidSlot),
        };

        // Free-list reconstruction: pages referenced by the chosen slot
        // are live; pages referenced only by the other valid slot stay
        // quarantined until the next commit (delayed free); everything
        // else is immediately reusable.
        let chosen_refs = Self::referenced(&chosen);
        let other_refs = other.as_ref().map(Self::referenced).unwrap_or_default();
        let freed_prev = other_refs.difference(&chosen_refs).copied().collect();
        let free = (FIRST_PAYLOAD_PAGE..file_pages)
            .filter(|p| !chosen_refs.contains(p) && !other_refs.contains(p))
            .collect();

        // Load the chosen checkpoint and count its lines from the bytes
        // (the slot's cached count goes stale when a page tears).
        let mut pages = HashMap::with_capacity(chosen.table.len());
        let mut nonzero = 0;
        for (&logical, &phys) in &chosen.table {
            let mut bytes = zero_page();
            read_page_at(&file, phys, &mut bytes[..])?;
            nonzero += bytes
                .chunks_exact(LINE_BYTES)
                .filter(|line| line.iter().any(|&b| b != 0))
                .count() as u64;
            pages.insert(
                logical,
                Page {
                    bytes,
                    dirty: false,
                },
            );
        }

        let backend = FileBackend {
            pages,
            nonzero,
            fell_back: other_damaged,
            disk: Some(Disk {
                file,
                table: chosen.table,
                free,
                freed_prev,
                file_pages,
                table_run: (chosen.slot.table_page, chosen.slot.table_len),
                meta_run: (chosen.slot.meta_page, chosen.slot.meta_len),
            }),
        };
        Ok((backend, chosen.slot.generation, chosen.meta))
    }

    /// Parses both slot pages without validating their payloads — a
    /// cheap inspector for harnesses and tests (`[slot1, slot2]`
    /// generations, `None` where the slot is torn or absent).
    pub fn peek_generations(path: &Path) -> Result<[Option<u64>; 2], IoError> {
        let file = File::open(path).map_err(|e| IoError::from_io("open image", &e))?;
        let mut out = [None, None];
        for (i, page_no) in [1u64, 2u64].into_iter().enumerate() {
            let mut page = zero_page();
            read_page_at(&file, page_no, &mut page[..])?;
            out[i] = RootSlot::decode(page.as_ref()).map(|s| s.generation);
        }
        Ok(out)
    }

    /// Full validation of one slot page against the actual file: parse,
    /// bounds-check the table and meta runs (catches truncated tails),
    /// and verify both payload CRCs.
    fn validate_slot(file: &File, file_pages: u64, page: &[u8]) -> Option<ValidSlot> {
        let slot = RootSlot::decode(page)?;
        if slot.file_pages > file_pages {
            return None; // truncated tail: commit-time extent is gone
        }
        let table_pages = RootSlot::run_pages(slot.table_len);
        let meta_pages = RootSlot::run_pages(slot.meta_len);
        if slot.table_page.checked_add(table_pages)? > file_pages
            || slot.meta_page.checked_add(meta_pages)? > file_pages
        {
            return None;
        }
        let table_bytes = Self::read_run(file, slot.table_page, slot.table_len).ok()?;
        if layout::crc32(&table_bytes) != slot.table_crc {
            return None;
        }
        let table = layout::decode_table(&table_bytes)?;
        if table.iter().any(|(&logical, &phys)| {
            logical.checked_mul(LINES_PER_PAGE).is_none()
                || phys < FIRST_PAYLOAD_PAGE
                || phys >= file_pages
        }) {
            return None;
        }
        let meta = Self::read_run(file, slot.meta_page, slot.meta_len).ok()?;
        if layout::crc32(&meta) != slot.meta_crc {
            return None;
        }
        Some(ValidSlot { slot, table, meta })
    }

    fn read_run(file: &File, first_page: u64, len: u64) -> Result<Vec<u8>, IoError> {
        let mut bytes = vec![0u8; len as usize];
        read_page_at(file, first_page, &mut bytes)?;
        Ok(bytes)
    }

    fn referenced(valid: &ValidSlot) -> BTreeSet<u64> {
        let mut refs: BTreeSet<u64> = valid.table.values().copied().collect();
        for i in 0..RootSlot::run_pages(valid.slot.table_len) {
            refs.insert(valid.slot.table_page + i);
        }
        for i in 0..RootSlot::run_pages(valid.slot.meta_len) {
            refs.insert(valid.slot.meta_page + i);
        }
        refs
    }

    /// Whether open had to fall back past a damaged newer slot.
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// Physical pages holding committed line content, ordered by logical
    /// page index — the durable-fault injector's targets. Empty on a
    /// detached clone.
    pub fn data_pages(&self) -> Vec<u64> {
        let Some(disk) = &self.disk else {
            return Vec::new();
        };
        let mut pairs: Vec<(u64, u64)> = disk.table.iter().map(|(&l, &p)| (l, p)).collect();
        pairs.sort_unstable();
        pairs.into_iter().map(|(_, p)| p).collect()
    }

    /// Reads one line; lines of pages never written read as zero.
    pub(crate) fn read_line(&self, addr: LineAddr) -> Line {
        let (logical, off) = locate(addr);
        let mut line = ZERO_LINE;
        if let Some(page) = self.pages.get(&logical) {
            line.copy_from_slice(&page.bytes[off..off + LINE_BYTES]);
        }
        line
    }

    /// Writes one line and flags its page dirty; returns the line it
    /// replaced.
    pub(crate) fn write_line(&mut self, addr: LineAddr, line: Line) -> Line {
        let (logical, off) = locate(addr);
        let page = self.pages.entry(logical).or_insert_with(|| Page {
            bytes: zero_page(),
            dirty: false,
        });
        page.dirty = true;
        let slot = &mut page.bytes[off..off + LINE_BYTES];
        let mut old = ZERO_LINE;
        old.copy_from_slice(slot);
        slot.copy_from_slice(&line);
        match (old == ZERO_LINE, line == ZERO_LINE) {
            (true, false) => self.nonzero += 1,
            (false, true) => self.nonzero -= 1,
            _ => {}
        }
        old
    }

    /// Number of non-zero lines in the image.
    pub(crate) fn nonzero_lines(&self) -> u64 {
        self.nonzero
    }

    /// All non-zero lines, owned (order unspecified).
    pub(crate) fn lines(&self) -> Vec<(LineAddr, Line)> {
        let mut out = Vec::with_capacity(self.nonzero as usize);
        for (&logical, page) in &self.pages {
            for (i, chunk) in page.bytes.chunks_exact(LINE_BYTES).enumerate() {
                if chunk.iter().any(|&b| b != 0) {
                    let mut line = ZERO_LINE;
                    line.copy_from_slice(chunk);
                    out.push((LineAddr::new(logical * LINES_PER_PAGE + i as u64), line));
                }
            }
        }
        out
    }

    /// Commits every dirty page plus the caller's `meta` blob as
    /// checkpoint `generation` (see the module docs for the protocol).
    /// A failed commit leaves the pages flagged, so a retry writes them
    /// all again to fresh pages.
    pub(crate) fn commit(&mut self, generation: u64, meta: &[u8]) -> Result<(), IoError> {
        let FileBackend {
            pages,
            nonzero,
            disk,
            ..
        } = self;
        let disk = disk.as_mut().ok_or(IoError::Detached)?;
        let mut retired: Vec<u64> = Vec::new();

        // 1. CoW every dirty page to a fresh physical page (in logical
        //    order, so allocation order — and hence the image bytes —
        //    are deterministic).
        let mut dirty: Vec<u64> = pages
            .iter()
            .filter(|(_, page)| page.dirty)
            .map(|(&logical, _)| logical)
            .collect();
        dirty.sort_unstable();
        let mut writes: Vec<(u64, &PageBuf)> = Vec::with_capacity(dirty.len());
        for logical in &dirty {
            if let Some(old) = disk.table.remove(logical) {
                retired.push(old);
            }
            let page = &pages[logical].bytes;
            if page.iter().any(|&b| b != 0) {
                let phys = disk.alloc_page();
                disk.table.insert(*logical, phys);
                writes.push((phys, page));
            }
        }

        // 2. Serialize the new page table and meta blob into fresh runs.
        for i in 0..RootSlot::run_pages(disk.table_run.1) {
            retired.push(disk.table_run.0 + i);
        }
        for i in 0..RootSlot::run_pages(disk.meta_run.1) {
            retired.push(disk.meta_run.0 + i);
        }
        let table_bytes = layout::encode_table(&disk.table);
        let table_page = disk.alloc_run(RootSlot::run_pages(table_bytes.len() as u64));
        let meta_page = disk.alloc_run(RootSlot::run_pages(meta.len() as u64));

        for (phys, page) in writes {
            write_all_at(&disk.file, phys * PAGE_BYTES as u64, page.as_ref())?;
        }
        disk.write_run(table_page, &table_bytes)?;
        disk.write_run(meta_page, meta)?;
        disk.fsync()?;

        // 3. Atomic commit: one slot-page write to the position the
        //    previous checkpoint does not occupy.
        let slot = RootSlot {
            generation,
            table_page,
            table_len: table_bytes.len() as u64,
            table_crc: layout::crc32(&table_bytes),
            meta_page,
            meta_len: meta.len() as u64,
            meta_crc: layout::crc32(meta),
            file_pages: disk.file_pages,
            nonzero_lines: *nonzero,
        };
        write_all_at(
            &disk.file,
            layout::slot_page(generation) * PAGE_BYTES as u64,
            &slot.encode(),
        )?;
        disk.fsync()?;

        // 4. Committed: pages displaced by the *previous* commit are now
        //    unreachable from both slots and become reusable; this
        //    commit's displaced pages enter quarantine.
        disk.table_run = (table_page, table_bytes.len() as u64);
        disk.meta_run = (meta_page, meta.len() as u64);
        let quarantine = std::mem::replace(&mut disk.freed_prev, retired);
        disk.free.extend(quarantine);
        for logical in dirty {
            if let Some(page) = pages.get_mut(&logical) {
                page.dirty = false;
            }
        }
        Ok(())
    }
}

impl Disk {
    /// Allocates one fresh physical page (lowest free first, else EOF).
    fn alloc_page(&mut self) -> u64 {
        if let Some(p) = self.free.pop_first() {
            p
        } else {
            let p = self.file_pages;
            self.file_pages += 1;
            p
        }
    }

    /// Allocates `n` *contiguous* fresh pages for a serialized run.
    fn alloc_run(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let mut run_start = 0u64;
        let mut run_len = 0u64;
        let mut prev: Option<u64> = None;
        let mut found = None;
        for &p in &self.free {
            if prev == Some(p.wrapping_sub(1)) {
                run_len += 1;
            } else {
                run_start = p;
                run_len = 1;
            }
            prev = Some(p);
            if run_len == n {
                found = Some(run_start);
                break;
            }
        }
        match found {
            Some(start) => {
                for p in start..start + n {
                    self.free.remove(&p);
                }
                start
            }
            None => {
                let start = self.file_pages;
                self.file_pages += n;
                start
            }
        }
    }

    fn write_run(&self, first_page: u64, bytes: &[u8]) -> Result<(), IoError> {
        let pages = RootSlot::run_pages(bytes.len() as u64);
        let mut padded = vec![0u8; (pages as usize) * PAGE_BYTES];
        padded[..bytes.len()].copy_from_slice(bytes);
        write_all_at(&self.file, first_page * PAGE_BYTES as u64, &padded)
    }

    fn fsync(&self) -> Result<(), IoError> {
        self.file
            .sync_data()
            .map_err(|e| IoError::from_io("fsync", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::NvmStore;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scue-ckpt-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    fn line(fill: u8) -> Line {
        [fill; LINE_BYTES]
    }

    #[test]
    fn create_write_checkpoint_reopen_roundtrip() {
        let path = tmp("roundtrip.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        s.write_line(LineAddr::new(5), line(5));
        s.write_line(LineAddr::new(700), line(7));
        let gen = s.checkpoint(b"hello meta").unwrap();
        drop(s);
        let s = NvmStore::open_file(&path).unwrap();
        assert_eq!(s.generation(), gen);
        assert_eq!(s.meta(), b"hello meta");
        assert_eq!(s.read_line(LineAddr::new(5)), line(5));
        assert_eq!(s.read_line(LineAddr::new(700)), line(7));
        assert_eq!(s.read_line(LineAddr::new(6)), ZERO_LINE);
        assert_eq!(s.touched_lines(), 2);
        assert!(!s.fell_back());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uncheckpointed_writes_do_not_survive_reopen() {
        let path = tmp("volatile.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        s.write_line(LineAddr::new(1), line(1));
        s.checkpoint(&[]).unwrap();
        s.write_line(LineAddr::new(2), line(2));
        drop(s); // killed before the second checkpoint
        let s = NvmStore::open_file(&path).unwrap();
        assert_eq!(s.read_line(LineAddr::new(1)), line(1));
        assert_eq!(s.read_line(LineAddr::new(2)), ZERO_LINE, "epoch lost");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_newest_slot_falls_back_to_previous_checkpoint() {
        let path = tmp("torn-slot.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        s.write_line(LineAddr::new(1), line(1));
        let gen_old = s.checkpoint(b"old").unwrap();
        s.write_line(LineAddr::new(1), line(9));
        s.write_line(LineAddr::new(2), line(2));
        let gen_new = s.checkpoint(b"new").unwrap();
        drop(s);
        // Tear the newest slot: damage bytes inside its page.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let off = layout::slot_page(gen_new) * PAGE_BYTES as u64 + 16;
        write_all_at(&file, off, &[0xEE; 32]).unwrap();
        drop(file);
        let s = NvmStore::open_file(&path).unwrap();
        assert!(s.fell_back(), "damaged newer slot was skipped");
        assert_eq!(s.generation(), gen_old);
        assert_eq!(s.meta(), b"old");
        assert_eq!(s.read_line(LineAddr::new(1)), line(1), "previous content");
        assert_eq!(s.read_line(LineAddr::new(2)), ZERO_LINE);
        assert_eq!(s.touched_lines(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn both_slots_destroyed_is_a_typed_error() {
        let path = tmp("no-slot.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        s.write_line(LineAddr::new(1), line(1));
        s.checkpoint(&[]).unwrap();
        drop(s);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        write_all_at(&file, PAGE_BYTES as u64, &[0xAA; 2 * PAGE_BYTES]).unwrap();
        drop(file);
        assert_eq!(
            NvmStore::open_file(&path).unwrap_err(),
            OpenError::NoValidSlot
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_falls_back_or_errors_typed() {
        let path = tmp("truncated.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        s.write_line(LineAddr::new(100), line(1));
        s.checkpoint(&[]).unwrap();
        for fill in 2..6u8 {
            s.write_line(LineAddr::new(u64::from(fill) * 64), line(fill));
            s.checkpoint(&[]).unwrap();
        }
        drop(s);
        let len = std::fs::metadata(&path).unwrap().len();
        // Chop pages off the tail one at a time; every prefix must open
        // with a typed result (fallback or NoValidSlot), never panic.
        let mut opened_fallback = false;
        for cut in 1..=(len / PAGE_BYTES as u64) {
            let file = OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(len - cut * PAGE_BYTES as u64).unwrap();
            drop(file);
            match NvmStore::open_file(&path) {
                Ok(s) => opened_fallback |= s.generation() > 0,
                Err(OpenError::NoValidSlot) => {}
                Err(OpenError::Header(_)) => {}
                Err(e) => panic!("unexpected open error: {e}"),
            }
        }
        assert!(opened_fallback, "some truncations still had a valid slot");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_header_is_a_typed_error() {
        let path = tmp("bad-header.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        s.checkpoint(&[]).unwrap();
        drop(s);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        write_all_at(&file, 0, b"NOTANVM!").unwrap();
        drop(file);
        assert!(matches!(
            NvmStore::open_file(&path),
            Err(OpenError::Header(layout::HeaderError::BadMagic))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cow_never_overwrites_previous_checkpoint_pages() {
        let path = tmp("cow.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        // Many churn rounds over the same lines: each checkpoint must
        // leave the previous one fully intact on disk.
        for round in 1..=12u8 {
            s.write_line(LineAddr::new(3), line(round));
            s.write_line(LineAddr::new(200), line(round.wrapping_add(100)));
            let gen = s.checkpoint(&[round]).unwrap();
            // Destroying the newest slot must always yield the previous
            // checkpoint's exact content.
            if round >= 2 {
                let prev = NvmStore::open_file(&path).unwrap();
                assert_eq!(prev.generation(), gen);
                drop(prev);
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .unwrap();
                let mut slot_copy = zero_page();
                read_page_at(&file, layout::slot_page(gen), &mut slot_copy[..]).unwrap();
                write_all_at(
                    &file,
                    layout::slot_page(gen) * PAGE_BYTES as u64,
                    &[0xEE; PAGE_BYTES],
                )
                .unwrap();
                drop(file);
                let old = NvmStore::open_file(&path).unwrap();
                assert!(old.fell_back());
                assert_eq!(old.generation(), gen.wrapping_sub(1));
                assert_eq!(
                    old.read_line(LineAddr::new(3)),
                    line(round - 1),
                    "round {round}: previous checkpoint content intact"
                );
                drop(old);
                // Restore the slot and continue churning.
                let file = OpenOptions::new().write(true).open(&path).unwrap();
                write_all_at(
                    &file,
                    layout::slot_page(gen) * PAGE_BYTES as u64,
                    slot_copy.as_ref(),
                )
                .unwrap();
                drop(file);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn generation_wraps_around_u64() {
        let path = tmp("wrap.img");
        let mut b = FileBackend::create(&path).unwrap();
        b.write_line(LineAddr::new(1), line(2));
        b.commit(u64::MAX, &[]).unwrap(); // an ancient image
        drop(b);
        let mut s = NvmStore::open_file(&path).unwrap();
        assert_eq!(s.generation(), u64::MAX);
        s.write_line(LineAddr::new(1), line(3));
        assert_eq!(s.checkpoint(&[]), Ok(0), "generation wrapped");
        drop(s);
        let s = NvmStore::open_file(&path).unwrap();
        assert_eq!(s.generation(), 0, "wrapped generation is the newest");
        assert!(!s.fell_back());
        assert_eq!(s.read_line(LineAddr::new(1)), line(3));
        let _ = std::fs::remove_file(&path);
    }

    /// Appends a page table that maps `logical` to generation 2's page
    /// of lines 0..64 and commits it as generation 3 over generation 1's
    /// slot, with correct table and slot CRCs and generation 2's meta.
    fn forge_generation_3(path: &Path, logical: u64) {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let mut page = zero_page();
        read_page_at(&file, layout::slot_page(2), &mut page[..]).unwrap();
        let gen2 = RootSlot::decode(page.as_ref()).unwrap();
        let gen2_table = FileBackend::read_run(&file, gen2.table_page, gen2.table_len).unwrap();
        let phys = layout::decode_table(&gen2_table).unwrap()[&0];
        let file_pages = file.metadata().unwrap().len() / PAGE_BYTES as u64;
        let table = layout::encode_table(&HashMap::from([(logical, phys)]));
        let mut run = vec![0u8; PAGE_BYTES];
        run[..table.len()].copy_from_slice(&table);
        write_all_at(&file, file_pages * PAGE_BYTES as u64, &run).unwrap();
        let slot = RootSlot {
            generation: 3,
            table_page: file_pages,
            table_len: table.len() as u64,
            table_crc: layout::crc32(&table),
            file_pages: file_pages + 1,
            ..gen2
        };
        write_all_at(
            &file,
            layout::slot_page(3) * PAGE_BYTES as u64,
            &slot.encode(),
        )
        .unwrap();
    }

    #[test]
    fn page_table_beyond_the_line_address_space_is_rejected() {
        let path = tmp("huge-logical.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        s.write_line(LineAddr::new(1), line(1));
        assert_eq!(s.checkpoint(&[]), Ok(2));
        drop(s);
        // Control: the forged slot is valid while its page is addressable.
        let last = u64::MAX / LINES_PER_PAGE;
        forge_generation_3(&path, last);
        let s = NvmStore::open_file(&path).unwrap();
        assert_eq!(s.generation(), 3);
        let moved = LineAddr::new(last * LINES_PER_PAGE + 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(moved, line(1))]);
        drop(s);
        // One page further, its first line address overflows u64: the
        // slot is damaged and open falls back to generation 2.
        forge_generation_3(&path, last + 1);
        let s = NvmStore::open_file(&path).unwrap();
        assert!(s.fell_back());
        assert_eq!(s.generation(), 2);
        assert_eq!(s.read_line(LineAddr::new(1)), line(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn detached_clone_reads_but_cannot_checkpoint() {
        let path = tmp("clone.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        s.write_line(LineAddr::new(9), line(9));
        s.checkpoint(&[]).unwrap();
        s.write_line(LineAddr::new(10), line(10));
        let mut c = s.clone();
        assert_eq!(c.read_line(LineAddr::new(9)), line(9));
        assert_eq!(c.read_line(LineAddr::new(10)), line(10));
        c.write_line(LineAddr::new(11), line(11));
        assert_eq!(c.read_line(LineAddr::new(11)), line(11));
        assert_eq!(c.touched_lines(), 3);
        assert_eq!(c.checkpoint(&[]), Err(IoError::Detached));
        // The original is unaffected and still durable.
        assert_eq!(s.read_line(LineAddr::new(11)), ZERO_LINE);
        assert!(s.checkpoint(&[]).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn peek_generations_reports_both_slots() {
        let path = tmp("peek.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        let g1 = s.generation(); // create committed one generation
        s.write_line(LineAddr::new(1), line(1));
        let g2 = s.checkpoint(&[]).unwrap();
        drop(s);
        let gens = FileBackend::peek_generations(&path).unwrap();
        let mut seen: Vec<u64> = gens.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![g1, g2]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn free_pages_are_recycled_after_quarantine() {
        let path = tmp("recycle.img");
        let mut s = NvmStore::create_file(&path).unwrap();
        for round in 1..=40u8 {
            s.write_line(LineAddr::new(3), line(round));
            s.checkpoint(&[]).unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        // One churned data page per checkpoint: without recycling the
        // file would grow by ≥1 data page + table + meta per round.
        // With delayed free the data page footprint stays bounded near
        // (2 live + 1 quarantined); allow slack for run placement.
        assert!(
            len < 30 * PAGE_BYTES as u64,
            "file grew to {len} bytes: free-list recycling is broken"
        );
        let _ = std::fs::remove_file(&path);
    }
}
