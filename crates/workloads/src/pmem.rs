//! The persistent-memory region the data-structure workloads run on.
//!
//! [`PmRegion`] is a byte-addressable region backed by ordinary memory
//! that *records* the line-granular trace of everything done to it —
//! loads, stores, `clwb`s and fences — exactly the instrumentation a
//! PIN/gem5 trace of a PMDK-style program would yield. The data
//! structures in [`crate::generators`] are real implementations (their
//! unit tests check functional behaviour); the recorded traces are what
//! the simulator replays.

use crate::trace::{MemOp, Trace};
use scue_nvm::{LineAddr, LINE_BYTES};

/// A trace-recording persistent-memory region.
///
/// # Example
///
/// ```
/// use scue_workloads::pmem::PmRegion;
///
/// let mut pm = PmRegion::new("demo", 4096);
/// pm.write_u64(16, 0xABCD);
/// pm.persist(16, 8);
/// assert_eq!(pm.read_u64(16), 0xABCD);
/// let trace = pm.into_trace();
/// assert!(trace.len() >= 3); // store + clwb + fence
/// ```
#[derive(Debug, Clone)]
pub struct PmRegion {
    bytes: Vec<u8>,
    trace: Trace,
    /// Number of data lines in the region.
    lines: u64,
}

impl PmRegion {
    /// Allocates a zeroed region of `size_bytes` (rounded up to lines).
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(name: impl Into<String>, size_bytes: usize) -> Self {
        assert!(size_bytes > 0, "region must be non-empty");
        let lines = size_bytes.div_ceil(LINE_BYTES) as u64;
        Self {
            bytes: vec![0; lines as usize * LINE_BYTES],
            trace: Trace::new(name),
            lines,
        }
    }

    /// Region capacity in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Region capacity in lines.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    fn line_of(&self, offset: usize) -> LineAddr {
        LineAddr::new((offset / LINE_BYTES) as u64)
    }

    /// Reads a u64 at byte `offset`, recording the load.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the region end.
    pub fn read_u64(&mut self, offset: usize) -> u64 {
        let value = u64::from_le_bytes(
            self.bytes[offset..offset + 8]
                .try_into()
                .expect("8-byte slice"),
        );
        self.trace.ops.push(MemOp::Load(self.line_of(offset)));
        value
    }

    /// Writes a u64 at byte `offset`, recording the store.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the region end.
    pub fn write_u64(&mut self, offset: usize, value: u64) {
        self.bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        self.trace.ops.push(MemOp::Store(self.line_of(offset)));
    }

    /// `clwb`s every line in `[offset, offset + len)` and fences —
    /// the `persist()` primitive of persistent-memory libraries.
    pub fn persist(&mut self, offset: usize, len: usize) {
        let first = offset / LINE_BYTES;
        let last = (offset + len.max(1) - 1) / LINE_BYTES;
        for line in first..=last {
            self.trace
                .ops
                .push(MemOp::Persist(LineAddr::new(line as u64)));
        }
        self.trace.ops.push(MemOp::Fence);
    }

    /// Records `n` instructions of computation between memory accesses.
    pub fn compute(&mut self, n: u32) {
        self.trace.ops.push(MemOp::Compute(n));
    }

    /// Finishes recording and returns the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut pm = PmRegion::new("t", 1024);
        pm.write_u64(128, 42);
        assert_eq!(pm.read_u64(128), 42);
        assert_eq!(pm.read_u64(136), 0);
    }

    #[test]
    fn trace_records_line_granular_ops() {
        let mut pm = PmRegion::new("t", 1024);
        pm.write_u64(0, 1);
        pm.write_u64(8, 2); // same line
        pm.read_u64(64); // next line
        let t = pm.into_trace();
        assert_eq!(
            t.ops,
            vec![
                MemOp::Store(LineAddr::new(0)),
                MemOp::Store(LineAddr::new(0)),
                MemOp::Load(LineAddr::new(1)),
            ]
        );
    }

    #[test]
    fn persist_covers_spanned_lines() {
        let mut pm = PmRegion::new("t", 1024);
        pm.persist(60, 10); // spans lines 0 and 1
        let t = pm.into_trace();
        assert_eq!(
            t.ops,
            vec![
                MemOp::Persist(LineAddr::new(0)),
                MemOp::Persist(LineAddr::new(1)),
                MemOp::Fence,
            ]
        );
    }

    #[test]
    fn size_rounds_to_lines() {
        let pm = PmRegion::new("t", 100);
        assert_eq!(pm.size(), 128);
        assert_eq!(pm.lines(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mut pm = PmRegion::new("t", 64);
        let _ = pm.read_u64(60); // crosses the end
    }
}
