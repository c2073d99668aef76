//! Counting global allocator: per-thread heap accounting with one
//! relaxed atomic load of overhead when off.
//!
//! Installing a `#[global_allocator]` in this crate means every binary
//! in the workspace allocates through [`CountingAlloc`], which forwards
//! to [`std::alloc::System`] and — only when [`set_enabled`] turned
//! counting on — bumps two thread-local counters the span profiler
//! ([`super::span`]) samples at span boundaries to attribute
//! allocations to named spans.
//!
//! Accounting caveats (also documented in `DESIGN.md` §12):
//!
//! * **Attribution counts allocation events, not net live memory** —
//!   per-thread counters only ever increase, so a span's `allocs` is
//!   "allocations made while the span was open on this thread".
//! * **Frees are not counted.** Attributing a free to the span that
//!   allocated the block would need a per-block side table, which would
//!   itself allocate on the hot path.
//! * **Profiler bookkeeping is excluded**: the span machinery wraps its
//!   own map/vec operations in [`pause_thread_attribution`] so the act
//!   of measuring never shows up in the measurement.
//!
//! This module is the one `#[allow(unsafe_code)]` island in the
//! workspace: `GlobalAlloc` is an unsafe trait by definition, and every
//! unsafe block here only forwards the already-checked layout to the
//! system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide counting switch; off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Attribution pause depth (re-entrant; see [`PauseGuard`]).
    static PAUSED: Cell<u32> = const { Cell::new(0) };
}

/// The workspace allocator: [`System`] plus optional counting.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Turns heap counting on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether heap counting is on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn note_alloc(size: usize) {
    if !is_enabled() {
        return;
    }
    note_alloc_slow(size);
}

#[cold]
fn note_alloc_slow(size: usize) {
    // TLS may already be torn down during thread exit; skip silently.
    let _ = PAUSED.try_with(|paused| {
        if paused.get() == 0 {
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            note_alloc(new_size);
        }
        new_ptr
    }
}

/// The calling thread's cumulative `(allocations, bytes)` — the pair
/// the span profiler differences at span boundaries.
pub fn thread_counts() -> (u64, u64) {
    let allocs = THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0);
    let bytes = THREAD_BYTES.try_with(Cell::get).unwrap_or(0);
    (allocs, bytes)
}

/// Zeroes the calling thread's attribution counters (fan-out cells do
/// this on entry so reused worker threads start from zero).
pub fn reset_thread_counts() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(0));
    let _ = THREAD_BYTES.try_with(|c| c.set(0));
}

/// Suspends per-thread attribution while held. Re-entrant: nested
/// guards stack.
#[must_use = "attribution resumes when the guard drops"]
pub struct PauseGuard {
    _private: (),
}

/// Pauses the calling thread's attribution counters; used by the span
/// profiler around its own bookkeeping.
pub fn pause_thread_attribution() -> PauseGuard {
    let _ = PAUSED.try_with(|p| p.set(p.get() + 1));
    PauseGuard { _private: () }
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        let _ = PAUSED.try_with(|p| p.set(p.get().saturating_sub(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that toggle the process-wide switch. A failed
    /// test poisons the mutex; later tests still take it.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::{Mutex, OnceLock};
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        let gate = GATE.get_or_init(|| Mutex::new(()));
        gate.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn with_counting<R>(f: impl FnOnce() -> R) -> R {
        let _gate = gate();
        reset_thread_counts();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset_thread_counts();
        r
    }

    #[test]
    fn disabled_counts_nothing_on_thread() {
        let _gate = gate();
        set_enabled(false);
        reset_thread_counts();
        let v = vec![0u8; 4096];
        drop(v);
        assert_eq!(thread_counts(), (0, 0));
    }

    #[test]
    fn thread_attribution_sees_allocations() {
        with_counting(|| {
            let (allocs0, bytes0) = thread_counts();
            let v = vec![0u8; 4096];
            let (allocs1, bytes1) = thread_counts();
            drop(v);
            assert!(allocs1 > allocs0);
            assert!(bytes1 - bytes0 >= 4096, "{bytes1} - {bytes0}");
            // Frees never decrement thread attribution.
            let (allocs2, bytes2) = thread_counts();
            assert_eq!((allocs2, bytes2), (allocs1, bytes1));
        });
    }

    #[test]
    fn pause_guard_excludes_and_nests() {
        with_counting(|| {
            let before = thread_counts();
            {
                let outer = pause_thread_attribution();
                let inner = pause_thread_attribution();
                let v = vec![0u8; 1024];
                drop(v);
                drop(inner);
                let v = vec![0u8; 1024];
                drop(v);
                drop(outer);
            }
            assert_eq!(thread_counts(), before, "paused allocations excluded");
            let v = vec![0u8; 1024];
            let after = thread_counts();
            drop(v);
            assert!(after.0 > before.0, "attribution resumes after the guard");
        });
    }
}
