//! On-disk layout of the durable NVM image.
//!
//! A durable image is a page-granular file (4 KB pages, 64 lines each):
//!
//! ```text
//! page 0      header      magic, layout version, geometry (CRC-guarded)
//! page 1..=2  root slots  dual generation+CRC checkpoint roots
//! page 3..    payload     data pages, page-table runs, meta-blob runs
//! ```
//!
//! The two root slots implement the atomic-commit protocol from the
//! wrongodb `add-checkpoint-cow` spec (SNIPPETS.md §1–2): checkpoint
//! generation `g` writes slot `1 + (g & 1)`, so the previous checkpoint's
//! slot is never touched while the new one commits. On open both slots
//! are parsed and CRC-checked and the newest *valid* one wins; a torn or
//! corrupt newest slot falls back to the previous checkpoint instead of
//! failing. Generations compare with wrapping arithmetic so the scheme
//! survives (contrived) u64 wraparound.
//!
//! Everything in this module is pure byte bashing — no I/O — so the
//! format is unit-testable without touching a filesystem.

use crate::addr::LINE_BYTES;

/// Bytes per on-disk page.
pub const PAGE_BYTES: usize = 4096;

/// 64 B lines per on-disk page.
pub const LINES_PER_PAGE: u64 = (PAGE_BYTES / LINE_BYTES) as u64;

/// File magic, page 0 byte 0.
pub const HEADER_MAGIC: [u8; 8] = *b"SCUENVM1";

/// Root-slot magic, slot byte 0.
pub const SLOT_MAGIC: [u8; 8] = *b"SCUEROOT";

/// Layout version stamped into the header.
pub const LAYOUT_VERSION: u32 = 1;

/// First page available for payload (after header + two root slots).
pub const FIRST_PAYLOAD_PAGE: u64 = 3;

/// The page holding the root slot for checkpoint generation `gen`.
pub const fn slot_page(gen: u64) -> u64 {
    1 + (gen & 1)
}

/// `true` when generation `a` is newer than `b` under wrapping
/// comparison (tolerates u64 generation wraparound).
pub const fn newer_gen(a: u64, b: u64) -> bool {
    (a.wrapping_sub(b) as i64) > 0
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — in-repo, zero dependencies.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Little-endian field cursors (no unwrap: every read is bounds-checked).
// ---------------------------------------------------------------------

/// Appends a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads `n` raw bytes, or `None` past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

// ---------------------------------------------------------------------
// Header page (page 0)
// ---------------------------------------------------------------------

/// Length of the CRC-guarded header prefix.
const HEADER_BODY_LEN: usize = 8 + 4 + 4 + 4;

/// Renders the header page: magic, version, page geometry, CRC.
pub fn encode_header() -> [u8; PAGE_BYTES] {
    let mut body = Vec::with_capacity(HEADER_BODY_LEN + 4);
    body.extend_from_slice(&HEADER_MAGIC);
    put_u32(&mut body, LAYOUT_VERSION);
    put_u32(&mut body, PAGE_BYTES as u32);
    put_u32(&mut body, LINES_PER_PAGE as u32);
    let crc = crc32(&body);
    put_u32(&mut body, crc);
    let mut page = [0u8; PAGE_BYTES];
    page[..body.len()].copy_from_slice(&body);
    page
}

/// Why a header failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// The magic bytes are wrong — not a durable NVM image.
    BadMagic,
    /// A future (or corrupt) layout version.
    BadVersion(u32),
    /// Geometry fields disagree with this build's constants.
    BadGeometry,
    /// The header CRC does not match its contents (torn header).
    BadCrc,
    /// The file is shorter than one header page.
    Truncated,
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::BadMagic => write!(f, "not a SCUE NVM image (bad magic)"),
            HeaderError::BadVersion(v) => write!(f, "unsupported layout version {v}"),
            HeaderError::BadGeometry => write!(f, "page geometry mismatch"),
            HeaderError::BadCrc => write!(f, "header CRC mismatch (torn header)"),
            HeaderError::Truncated => write!(f, "file shorter than one header page"),
        }
    }
}

/// Validates a header page.
pub fn decode_header(page: &[u8]) -> Result<(), HeaderError> {
    if page.len() < HEADER_BODY_LEN + 4 {
        return Err(HeaderError::Truncated);
    }
    let mut c = Cursor::new(page);
    let magic = c.take(8).ok_or(HeaderError::Truncated)?;
    if magic != HEADER_MAGIC {
        return Err(HeaderError::BadMagic);
    }
    let version = c.u32().ok_or(HeaderError::Truncated)?;
    let page_bytes = c.u32().ok_or(HeaderError::Truncated)?;
    let lines_per_page = c.u32().ok_or(HeaderError::Truncated)?;
    let stored_crc = c.u32().ok_or(HeaderError::Truncated)?;
    if crc32(&page[..HEADER_BODY_LEN]) != stored_crc {
        return Err(HeaderError::BadCrc);
    }
    if version != LAYOUT_VERSION {
        return Err(HeaderError::BadVersion(version));
    }
    if page_bytes != PAGE_BYTES as u32 || lines_per_page != LINES_PER_PAGE as u32 {
        return Err(HeaderError::BadGeometry);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Root slots (pages 1 and 2)
// ---------------------------------------------------------------------

/// One parsed checkpoint root slot.
///
/// A slot pins everything a checkpoint needs to be reopened: where the
/// page table and the engine meta blob live (contiguous page runs, each
/// with its own CRC) and how long the file was at commit time — so a
/// truncated tail invalidates the slot instead of silently reading
/// zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootSlot {
    /// Checkpoint generation (monotonic, wrapping).
    pub generation: u64,
    /// First page of the serialized page table.
    pub table_page: u64,
    /// Byte length of the serialized page table.
    pub table_len: u64,
    /// CRC-32 of the serialized page table.
    pub table_crc: u32,
    /// First page of the engine meta blob.
    pub meta_page: u64,
    /// Byte length of the engine meta blob.
    pub meta_len: u64,
    /// CRC-32 of the engine meta blob.
    pub meta_crc: u32,
    /// File length in pages at commit time (truncation detector).
    pub file_pages: u64,
    /// Non-zero lines in the committed image (cached statistic).
    pub nonzero_lines: u64,
}

/// Fixed byte length of the CRC-guarded slot body.
const SLOT_BODY_LEN: usize = 8 + 8 + 8 + 8 + 4 + 8 + 8 + 4 + 8 + 8;

impl RootSlot {
    /// Renders the slot as a full page (body + CRC, zero padded).
    pub fn encode(&self) -> [u8; PAGE_BYTES] {
        let mut body = Vec::with_capacity(SLOT_BODY_LEN + 4);
        body.extend_from_slice(&SLOT_MAGIC);
        put_u64(&mut body, self.generation);
        put_u64(&mut body, self.table_page);
        put_u64(&mut body, self.table_len);
        put_u32(&mut body, self.table_crc);
        put_u64(&mut body, self.meta_page);
        put_u64(&mut body, self.meta_len);
        put_u32(&mut body, self.meta_crc);
        put_u64(&mut body, self.file_pages);
        put_u64(&mut body, self.nonzero_lines);
        let crc = crc32(&body);
        put_u32(&mut body, crc);
        let mut page = [0u8; PAGE_BYTES];
        page[..body.len()].copy_from_slice(&body);
        page
    }

    /// Parses a slot page; `None` on any damage (bad magic, short page,
    /// CRC mismatch) — the caller treats an unparseable slot as absent
    /// and falls back to the other one.
    pub fn decode(page: &[u8]) -> Option<RootSlot> {
        if page.len() < SLOT_BODY_LEN + 4 {
            return None;
        }
        let mut c = Cursor::new(page);
        if c.take(8)? != SLOT_MAGIC {
            return None;
        }
        let slot = RootSlot {
            generation: c.u64()?,
            table_page: c.u64()?,
            table_len: c.u64()?,
            table_crc: c.u32()?,
            meta_page: c.u64()?,
            meta_len: c.u64()?,
            meta_crc: c.u32()?,
            file_pages: c.u64()?,
            nonzero_lines: c.u64()?,
        };
        let stored_crc = c.u32()?;
        if crc32(&page[..SLOT_BODY_LEN]) != stored_crc {
            return None;
        }
        Some(slot)
    }

    /// Pages spanned by a byte run of `len` starting at `page`.
    pub fn run_pages(len: u64) -> u64 {
        len.div_ceil(PAGE_BYTES as u64)
    }
}

// ---------------------------------------------------------------------
// Page-table serialization
// ---------------------------------------------------------------------

/// Serializes a logical→physical page table as a sorted pair list
/// (count, then `(logical, physical)` u64 pairs) — sorted so the bytes,
/// and hence the table CRC and the whole image, are deterministic.
pub fn encode_table(table: &std::collections::HashMap<u64, u64>) -> Vec<u8> {
    let mut pairs: Vec<(u64, u64)> = table.iter().map(|(&l, &p)| (l, p)).collect();
    pairs.sort_unstable();
    let mut out = Vec::with_capacity(8 + pairs.len() * 16);
    put_u64(&mut out, pairs.len() as u64);
    for (logical, phys) in pairs {
        put_u64(&mut out, logical);
        put_u64(&mut out, phys);
    }
    out
}

/// Parses a serialized page table; `None` on malformed bytes.
pub fn decode_table(bytes: &[u8]) -> Option<std::collections::HashMap<u64, u64>> {
    let mut c = Cursor::new(bytes);
    let count = c.u64()?;
    if count > (bytes.len() as u64 - 8) / 16 {
        return None;
    }
    let mut table = std::collections::HashMap::with_capacity(count as usize);
    for _ in 0..count {
        let logical = c.u64()?;
        let phys = c.u64()?;
        table.insert(logical, phys);
    }
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn crc32_known_vectors() {
        // Classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn header_roundtrip_and_damage() {
        let page = encode_header();
        assert_eq!(decode_header(&page), Ok(()));
        let mut torn = page;
        torn[3] ^= 0x40;
        assert_eq!(decode_header(&torn), Err(HeaderError::BadMagic));
        let mut flipped = page;
        flipped[9] ^= 1; // version byte: CRC catches it first
        assert_eq!(decode_header(&flipped), Err(HeaderError::BadCrc));
        assert_eq!(decode_header(&page[..8]), Err(HeaderError::Truncated));
    }

    #[test]
    fn slot_roundtrip() {
        let slot = RootSlot {
            generation: 7,
            table_page: 3,
            table_len: 40,
            table_crc: 0xDEAD,
            meta_page: 4,
            meta_len: 100,
            meta_crc: 0xBEEF,
            file_pages: 9,
            nonzero_lines: 12,
        };
        let page = slot.encode();
        assert_eq!(RootSlot::decode(&page), Some(slot));
    }

    #[test]
    fn damaged_slot_decodes_to_none() {
        let slot = RootSlot {
            generation: 1,
            table_page: 3,
            table_len: 8,
            table_crc: 0,
            meta_page: 0,
            meta_len: 0,
            meta_crc: 0,
            file_pages: 4,
            nonzero_lines: 0,
        };
        let page = slot.encode();
        for damage in [0usize, 8, 20, SLOT_BODY_LEN] {
            let mut bad = page;
            bad[damage] ^= 0xFF;
            assert_eq!(RootSlot::decode(&bad), None, "byte {damage}");
        }
        assert_eq!(RootSlot::decode(&[0u8; PAGE_BYTES]), None, "zero page");
        assert_eq!(RootSlot::decode(&page[..16]), None, "short page");
    }

    #[test]
    fn generation_comparison_wraps() {
        assert!(newer_gen(2, 1));
        assert!(!newer_gen(1, 2));
        assert!(!newer_gen(5, 5));
        // Across the wraparound, 0 is newer than u64::MAX.
        assert!(newer_gen(0, u64::MAX));
        assert!(!newer_gen(u64::MAX, 0));
    }

    #[test]
    fn slot_page_alternates() {
        assert_eq!(slot_page(0), 1);
        assert_eq!(slot_page(1), 2);
        assert_eq!(slot_page(2), 1);
        assert_eq!(slot_page(u64::MAX), 2);
    }

    #[test]
    fn table_roundtrip_is_sorted_and_deterministic() {
        let mut table = HashMap::new();
        for p in [9u64, 3, 77, 1] {
            table.insert(p, p + 100);
        }
        let a = encode_table(&table);
        let b = encode_table(&table.clone());
        assert_eq!(a, b, "serialization is order-independent");
        assert_eq!(decode_table(&a), Some(table));
    }

    #[test]
    fn malformed_table_rejected() {
        assert_eq!(decode_table(&[]), None);
        let mut lying = Vec::new();
        put_u64(&mut lying, u64::MAX); // claims 2^64 entries
        assert_eq!(decode_table(&lying), None);
        let mut short = Vec::new();
        put_u64(&mut short, 2);
        put_u64(&mut short, 1);
        assert_eq!(decode_table(&short), None, "truncated pair list");
    }
}
