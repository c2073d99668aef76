//! Deterministic parallel fan-out on `std::thread::scope`.
//!
//! The figure grids, torture campaigns and bench bins are all
//! embarrassingly parallel sweeps over independent cells, but the
//! workspace pins golden trace fingerprints and byte-identical JSON
//! exports — so parallelism is only admissible if it reproduces the
//! serial output exactly. [`run_indexed`] guarantees that by
//! construction:
//!
//! * every cell's randomness comes from an **index-derived
//!   [`SplitMix64`] seed stream** ([`cell_seed_stream`]), never from a
//!   shared generator, so a cell computes the same value no matter
//!   which worker runs it or in what order;
//! * results are collected **into index order** regardless of
//!   completion order, so the output `Vec` is independent of
//!   scheduling;
//! * a panicking cell is caught on its worker and re-raised on the
//!   calling thread as the panic of the **lowest-indexed** failing
//!   cell, labelled with the cell's index and `Debug` rendering — the
//!   same cell a serial loop would have failed on first.
//!
//! The job-count rule the CLI bins apply (through `scue_sim::cli`)
//! lives here too: `--jobs N` beats the `SCUE_JOBS` environment
//! variable beats [`available_jobs`] (see [`resolve_jobs_from`]), and
//! an invalid `SCUE_JOBS` value is a named-variable error so the bins
//! can keep their exit-2 usage contract.

use crate::rng::SplitMix64;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Salt folded into every cell seed so the par streams are disjoint
/// from the property-test and workload seed spaces.
pub const CELL_SEED_SALT: u64 = 0x5C5E_FA12_5EED_0001;

/// The environment variable consulted when no explicit job count is
/// given (CI override).
pub const JOBS_ENV: &str = "SCUE_JOBS";

/// The deterministic per-cell seed stream: a [`SplitMix64`] derived
/// purely from the cell index, identical for every job count.
pub fn cell_seed_stream(index: usize) -> SplitMix64 {
    SplitMix64::new(CELL_SEED_SALT ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a job count: a positive integer (0 is not a job count).
fn parse_jobs(s: &str) -> Option<usize> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Resolves the effective job count from an explicit `--jobs` value
/// (already validated by the CLI parser) and the raw `SCUE_JOBS`
/// environment value, falling back to [`available_jobs`].
///
/// Precedence: explicit flag > environment > available parallelism. An
/// invalid environment value is an error naming `SCUE_JOBS`, even when
/// the flag would win — a garbled CI override should never be silently
/// ignored.
pub fn resolve_jobs_from(flag: Option<usize>, env: Option<&str>) -> Result<usize, String> {
    let env_jobs = match env {
        None => None,
        Some(raw) => {
            Some(parse_jobs(raw).ok_or_else(|| format!("invalid value for {JOBS_ENV}: `{raw}`"))?)
        }
    };
    Ok(flag.or(env_jobs).unwrap_or_else(available_jobs))
}

/// Runs `f` over every item of `items` on up to `jobs` scoped worker
/// threads and returns the results in item order.
///
/// `f` receives `(index, item, seed_stream)` where the seed stream is
/// [`cell_seed_stream(index)`](cell_seed_stream); a cell that wants
/// randomness must draw it from there (or derive it from the item) so
/// the result is a pure function of the cell. `jobs` is clamped to
/// `[1, items.len()]`; `jobs == 1` degenerates to a serial loop with
/// identical results and panic behaviour.
///
/// # Panics
///
/// If any cell panics, re-panics on the calling thread with the
/// lowest-indexed failing cell's label and message once all workers
/// have drained.
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync + Debug,
    R: Send,
    F: Fn(usize, &T, SplitMix64) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = jobs.clamp(1, items.len());
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<R, String>>>> = Mutex::new(Vec::new());
    slots
        .lock()
        .expect("fresh lock")
        .resize_with(items.len(), || None);

    let run = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= items.len() {
            break;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            f(index, &items[index], cell_seed_stream(index))
        }))
        .map_err(|payload| panic_message(payload.as_ref()));
        slots.lock().expect("no poisoned slot lock")[index] = Some(outcome);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(&run);
        }
        run();
    });

    let collected = slots.into_inner().expect("no poisoned slot lock");
    // Scan in index order so a panic is reported for the same cell a
    // serial loop would have hit first.
    let mut out = Vec::with_capacity(items.len());
    for (index, slot) in collected.into_iter().enumerate() {
        match slot.expect("every cell ran to completion") {
            Ok(value) => out.push(value),
            Err(message) => panic!(
                "parallel cell {index} ({:?}) panicked: {message}",
                items[index]
            ),
        }
    }
    out
}

/// Expands every item of a worklist in parallel and concatenates the
/// per-item output lists **in item order**.
///
/// This is the deterministic frontier-expansion step of a breadth-first
/// search: each frontier entry produces its successors independently,
/// and the next frontier is the concatenation `f(0) ++ f(1) ++ …`
/// regardless of which worker expanded which entry. Because the order
/// of the flattened output is a pure function of the input order, a
/// consumer that dedups sequentially (first occurrence wins) sees the
/// exact same survivor set at any job count.
pub fn expand_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync + Debug,
    R: Send,
    F: Fn(usize, &T, SplitMix64) -> Vec<R> + Sync,
{
    let nested = run_indexed(jobs, items, f);
    let mut out = Vec::with_capacity(nested.iter().map(Vec::len).sum());
    for batch in nested {
        out.extend(batch);
    }
    out
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_for_every_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = run_indexed(1, &items, |i, &x, _| (i as u64) * 1000 + x * 3);
        for jobs in [2, 4, 7, 64] {
            let parallel = run_indexed(jobs, &items, |i, &x, _| (i as u64) * 1000 + x * 3);
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn seed_streams_are_index_pure() {
        // The stream a cell sees is a function of its index alone, so a
        // randomised cell is reproducible at any job count.
        let items = [(); 9];
        let draw = |_i: usize, _item: &(), mut sm: SplitMix64| (sm.next_u64(), sm.next_u64());
        let a = run_indexed(1, &items, draw);
        let b = run_indexed(5, &items, draw);
        assert_eq!(a, b);
        let mut direct = cell_seed_stream(3);
        assert_eq!(a[3].0, direct.next_u64());
        // Distinct indices get distinct streams.
        assert_ne!(a[3], a[4]);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let out: Vec<u64> = run_indexed(8, &[] as &[u64], |_, &x, _| x);
        assert!(out.is_empty());
    }

    #[test]
    fn panic_propagates_with_the_lowest_cell_label() {
        let items: Vec<u32> = (0..16).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(4, &items, |_, &x, _| {
                if x == 5 || x == 11 {
                    panic!("boom on {x}");
                }
                x
            })
        }))
        .expect_err("a panicking cell must fail the fan-out");
        let message = panic_message(caught.as_ref());
        assert!(message.contains("cell 5"), "{message}");
        assert!(message.contains("boom on 5"), "{message}");
        assert!(!message.contains("cell 11"), "first panic only: {message}");
    }

    #[test]
    fn expansion_concatenates_in_item_order_at_any_job_count() {
        let items: Vec<u32> = (0..13).collect();
        let expand = |_i: usize, &x: &u32, _sm: SplitMix64| -> Vec<u32> {
            (0..x % 4).map(|k| x * 10 + k).collect()
        };
        let serial = expand_indexed(1, &items, expand);
        // Matches a plain sequential flat_map...
        let expected: Vec<u32> = items
            .iter()
            .flat_map(|&x| expand(0, &x, cell_seed_stream(0)))
            .collect();
        assert_eq!(serial, expected);
        // ...and is invariant under parallelism.
        for jobs in [2, 5, 32] {
            assert_eq!(expand_indexed(jobs, &items, expand), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn jobs_resolution_precedence_and_errors() {
        assert_eq!(resolve_jobs_from(Some(3), Some("8")), Ok(3));
        assert_eq!(resolve_jobs_from(None, Some("8")), Ok(8));
        assert_eq!(resolve_jobs_from(None, Some(" 2 ")), Ok(2));
        let fallback = resolve_jobs_from(None, None).unwrap();
        assert!(fallback >= 1);
        for bad in ["0", "abc", "", "-2", "1.5"] {
            let err = resolve_jobs_from(None, Some(bad)).unwrap_err();
            assert!(err.contains("SCUE_JOBS"), "{err}");
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            // A garbled env is an error even when the flag would win.
            assert_eq!(resolve_jobs_from(Some(4), Some(bad)).unwrap_err(), err);
        }
    }
}
