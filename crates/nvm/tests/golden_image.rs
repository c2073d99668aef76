//! On-disk image layout golden test: builds a deterministic durable
//! image (create → write → checkpoint → churn → checkpoint) and pins
//! its byte layout against a committed golden dump. Any change to the
//! header encoding, root-slot fields, CoW allocation order, page-table
//! serialization, or zero-page elision shows up as a page-CRC diff.
//!
//! Regenerate after an intentional format change with:
//!
//! ```text
//! SCUE_UPDATE_GOLDEN=1 cargo test -p scue-nvm --test golden_image
//! ```
//!
//! The same reference image seeds a never-panic property: seeded byte
//! mutations of it must open to a typed result, and whatever opens must
//! survive a full rewrite and a checkpoint.

use scue_nvm::layout::{self, RootSlot, PAGE_BYTES};
use scue_nvm::store::{Line, ZERO_LINE};
use scue_nvm::{LineAddr, NvmStore, LINE_BYTES};
use scue_util::prop::{self, prelude::*};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `rendered` against the committed golden (or rewrites the
/// golden when `SCUE_UPDATE_GOLDEN` is set).
fn assert_matches_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var("SCUE_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "{name}: image layout diverged from the committed golden \
         (SCUE_UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scue-golden-image-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

/// A deterministic, address-keyed fill pattern (never the zero line).
fn pattern(addr: u64) -> Line {
    let mut line = [0u8; LINE_BYTES];
    for (i, b) in line.iter_mut().enumerate() {
        *b = ((addr as usize).wrapping_mul(31) + i * 7) as u8 % 253 + 1;
    }
    line
}

/// Builds the reference image: create (generation 1, empty meta), a
/// spread of line writes plus checkpoint A (generation 2), then a CoW
/// churn round — rewrite, fresh page, zero-erase — plus checkpoint B
/// (generation 3). Every step is deterministic, so the image bytes are
/// a pure function of the layout code.
fn build_reference_image(path: &PathBuf) -> NvmStore {
    let _ = std::fs::remove_file(path);
    let mut store = NvmStore::create_file(path).expect("create image");
    for addr in [0u64, 1, 63, 64, 130, 4000] {
        store.write_line(LineAddr::new(addr), pattern(addr));
    }
    store
        .checkpoint(b"scue-golden-meta-A")
        .expect("checkpoint A");
    // Churn: rewrite an existing line (CoW of a live page), touch a new
    // page, and erase a line back to zero (page stays, line zeroed).
    store.write_line(LineAddr::new(64), pattern(999));
    store.write_line(LineAddr::new(200), pattern(200));
    store.write_line(LineAddr::new(63), [0u8; LINE_BYTES]);
    store
        .checkpoint(b"scue-golden-meta-B: a longer blob so the meta run sizing is exercised")
        .expect("checkpoint B");
    store
}

/// Renders the image as a diffable text dump: geometry constants, a
/// per-page classification with CRC-32 over the raw page bytes (so any
/// byte change is visible), decoded root-slot fields, and a trimmed hex
/// dump of the header and both slot pages to pin their exact encoding.
fn render_layout(bytes: &[u8]) -> String {
    assert_eq!(bytes.len() % PAGE_BYTES, 0, "image is page-granular");
    let pages = bytes.len() / PAGE_BYTES;
    let mut out = String::new();
    out.push_str(&format!(
        "geometry layout_version={} page_bytes={} lines_per_page={} first_payload_page={}\n",
        layout::LAYOUT_VERSION,
        PAGE_BYTES,
        layout::LINES_PER_PAGE,
        layout::FIRST_PAYLOAD_PAGE,
    ));
    out.push_str(&format!("file_pages={pages}\n"));
    for p in 0..pages {
        let page = &bytes[p * PAGE_BYTES..(p + 1) * PAGE_BYTES];
        let crc = layout::crc32(page);
        match p as u64 {
            0 => {
                layout::decode_header(page).expect("valid header page");
                out.push_str(&format!("page {p} kind=header crc32={crc:08x}\n"));
            }
            // Every *valid* slot page shares one whole-page CRC: the
            // page is `body ‖ crc32(body)` plus zero padding, and a
            // message followed by its own CRC has a constant residue.
            // The decoded fields and the hex dump below pin the bytes.
            1 | 2 => match RootSlot::decode(page) {
                Some(s) => out.push_str(&format!(
                    "page {p} kind=slot generation={} table_page={} table_len={} \
                     table_crc={:08x} meta_page={} meta_len={} meta_crc={:08x} \
                     file_pages={} nonzero_lines={} crc32={crc:08x}\n",
                    s.generation,
                    s.table_page,
                    s.table_len,
                    s.table_crc,
                    s.meta_page,
                    s.meta_len,
                    s.meta_crc,
                    s.file_pages,
                    s.nonzero_lines,
                )),
                None => out.push_str(&format!("page {p} kind=slot-unparseable crc32={crc:08x}\n")),
            },
            _ => {
                let nonzero = page.iter().filter(|&&b| b != 0).count();
                let kind = if nonzero == 0 { "free" } else { "data" };
                out.push_str(&format!(
                    "page {p} kind={kind} crc32={crc:08x} nonzero_bytes={nonzero}\n"
                ));
            }
        }
    }
    // Exact bytes of the header and both root slots, trimmed after the
    // last non-zero byte (the remainder of each page is zero padding).
    for p in 0..3usize {
        let page = &bytes[p * PAGE_BYTES..(p + 1) * PAGE_BYTES];
        let end = page
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1)
            .div_ceil(16)
            * 16;
        out.push_str(&format!("hex page {p} (first {end} bytes)\n"));
        for (row, chunk) in page[..end].chunks(16).enumerate() {
            let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
            out.push_str(&format!("  {:04x}  {}\n", row * 16, hex.join(" ")));
        }
    }
    out
}

#[test]
fn image_layout_matches_golden() {
    let path = tmp("layout.img");
    let store = build_reference_image(&path);
    assert_eq!(store.generation(), 3);
    drop(store);
    let bytes = std::fs::read(&path).expect("read image");
    assert_matches_golden("nvm_image_layout.txt", &render_layout(&bytes));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn image_bytes_are_deterministic() {
    let a = tmp("det-a.img");
    let b = tmp("det-b.img");
    drop(build_reference_image(&a));
    drop(build_reference_image(&b));
    assert_eq!(
        std::fs::read(&a).expect("read a"),
        std::fs::read(&b).expect("read b"),
        "two identically-driven builds must produce byte-identical images"
    );
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn reference_image_reopens_with_the_committed_state() {
    let path = tmp("reopen.img");
    drop(build_reference_image(&path));
    let store = NvmStore::open_file(&path).expect("reopen");
    assert_eq!(store.generation(), 3);
    assert!(!store.fell_back());
    assert_eq!(
        store.meta(),
        b"scue-golden-meta-B: a longer blob so the meta run sizing is exercised"
    );
    // Checkpoint B state: the rewrite and the fresh line landed, the
    // zero-erased line reads back as zero and is absent from the map.
    assert_eq!(store.read_line(LineAddr::new(64)), pattern(999));
    assert_eq!(store.read_line(LineAddr::new(200)), pattern(200));
    assert_eq!(store.read_line(LineAddr::new(63)), [0u8; LINE_BYTES]);
    assert!(!store.iter().any(|(a, _)| a == LineAddr::new(63)));
    let _ = std::fs::remove_file(&path);
}

/// One seeded mutation `(kind, a, b)` of the image. Kinds 0–3 are the
/// byte-level ones of [`prop::mutate_bytes`]; kind 4 copies one root
/// slot page over the other and kind 5 duplicates page `a` over page
/// `b`, each reduced to the pages the image currently holds.
type Mutation = (u8, u64, u64);

fn mutate(bytes: &mut Vec<u8>, (kind, a, b): Mutation) {
    let pages = (bytes.len() / PAGE_BYTES) as u64;
    match kind {
        4 => copy_page(bytes, 1 + a % 2, 2 - a % 2),
        5 if pages > 0 => copy_page(bytes, a % pages, b % pages),
        _ => prop::mutate_bytes(bytes, (kind, a, b)),
    }
}

fn copy_page(bytes: &mut [u8], from: u64, to: u64) {
    let (from, to) = (from as usize * PAGE_BYTES, to as usize * PAGE_BYTES);
    if from.max(to) + PAGE_BYTES <= bytes.len() {
        bytes.copy_within(from..from + PAGE_BYTES, to);
    }
}

/// Opens a (possibly damaged) image; if it opens, zeroes every line
/// `iter` returned, checkpoints and reopens. A line count taken from a
/// stale slot instead of the loaded bytes fails the zeroing (and
/// underflows in debug builds).
fn open_rewrite_checkpoint(path: &Path) -> Result<(), String> {
    let mut store = match NvmStore::open_file(path) {
        Ok(store) => store,
        Err(e) => {
            let _ = e.to_string(); // a typed error that renders
            return Ok(());
        }
    };
    let lines: Vec<(LineAddr, Line)> = store.iter().collect();
    prop_assert_eq!(lines.len(), store.touched_lines());
    for (addr, _) in lines {
        store.write_line(addr, ZERO_LINE);
    }
    prop_assert_eq!(
        store.touched_lines(),
        0,
        "zeroing every line empties the image"
    );
    let generation = store
        .checkpoint(b"rewritten")
        .map_err(|e| format!("checkpoint: {e}"))?;
    drop(store);
    let store = NvmStore::open_file(path).map_err(|e| format!("reopen: {e}"))?;
    prop_assert_eq!(store.generation(), generation);
    prop_assert_eq!(store.touched_lines(), 0);
    Ok(())
}

/// Damaged images never panic the store: open returns a typed
/// `OpenError` or an image that survives `iter`, a full rewrite and a
/// checkpoint. A panic counts as a failure, so it shrinks to a minimal
/// mutation list too.
#[test]
fn mutated_images_open_typed_and_never_panic() {
    let reference = tmp("mutation-reference.img");
    drop(build_reference_image(&reference));
    let pristine = std::fs::read(&reference).expect("read image");
    let path = tmp("mutated.img");
    let len = pristine.len() as u64;
    let strategy = (prop::collection::vec(
        (0u8..6, 0..=len, 0..2 * PAGE_BYTES as u64),
        1..4,
    ),);
    prop::run(
        &ProptestConfig::with_cases(96),
        "mutated_images_open_typed_and_never_panic",
        &strategy,
        |(mutations,)| {
            let mut bytes = pristine.clone();
            for &m in &mutations {
                mutate(&mut bytes, m);
            }
            std::fs::write(&path, &bytes).map_err(|e| format!("write image: {e}"))?;
            std::panic::catch_unwind(|| open_rewrite_checkpoint(&path))
                .unwrap_or_else(|_| Err("panicked".to_string()))
        },
    );
    let _ = std::fs::remove_file(&reference);
    let _ = std::fs::remove_file(&path);
}
