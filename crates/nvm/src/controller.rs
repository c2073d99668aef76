//! The memory-controller back end: store + timing + WPQs + ADR.
//!
//! This is the component every update scheme talks to. It routes reads to
//! the PCM device, writes through the appropriate write-pending queue
//! (user data vs. security metadata, Table II), keeps the functional NVM
//! image in sync, and implements the ADR/eADR crash contract: anything
//! accepted into a WPQ is durable, anything only in volatile caches is
//! durable only under eADR.

use crate::addr::{Cycle, LineAddr};
use crate::backend::IoError;
use crate::fault::{self, FaultRecord, NvmFault, Tearing, WORDS_PER_LINE};
use crate::store::{Line, NvmStore};
use crate::timing::{PcmDevice, PcmTiming};
use crate::wpq::{Enqueued, WpqStats, WritePendingQueue, META_WPQ_ENTRIES, USER_WPQ_ENTRIES};
use scue_util::obs::span;

/// What a memory access carries — the paper separates user-data traffic
/// from security-metadata traffic throughout the evaluation (§V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Encrypted user data lines.
    UserData,
    /// Counter blocks and integrity-tree nodes.
    Metadata,
}

/// Per-kind access statistics (drives the §V-E memory-access experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// User-data line reads served from NVM.
    pub user_reads: u64,
    /// User-data line writes accepted.
    pub user_writes: u64,
    /// Metadata line reads served from NVM.
    pub meta_reads: u64,
    /// Metadata line writes accepted.
    pub meta_writes: u64,
}

impl MemStats {
    /// Total reads of any kind.
    pub fn total_reads(&self) -> u64 {
        self.user_reads + self.meta_reads
    }

    /// Total writes of any kind.
    pub fn total_writes(&self) -> u64 {
        self.user_writes + self.meta_writes
    }

    /// Total accesses of any kind.
    pub fn total(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// Metadata-only accesses (reads + writes).
    pub fn metadata_total(&self) -> u64 {
        self.meta_reads + self.meta_writes
    }
}

/// Fixed controller pipeline overhead added to every device access, cycles.
const CONTROLLER_OVERHEAD: u64 = 14;

/// The NVM memory controller back end.
///
/// # Example
///
/// ```
/// use scue_nvm::{AccessKind, LineAddr, MemoryController, NvmStore};
///
/// let mut mc = MemoryController::paper(NvmStore::new());
/// let line = [9u8; 64];
/// let accepted = mc.write(LineAddr::new(4), line, 0, AccessKind::UserData);
/// let (data, done) = mc.read(LineAddr::new(4), accepted.accepted, AccessKind::UserData);
/// assert_eq!(data, line);
/// assert!(done > accepted.accepted);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    store: NvmStore,
    device: PcmDevice,
    user_wpq: WritePendingQueue,
    meta_wpq: WritePendingQueue,
    stats: MemStats,
}

impl MemoryController {
    /// Builds a controller from explicit parts.
    pub fn new(
        store: NvmStore,
        device: PcmDevice,
        user_wpq_entries: usize,
        meta_wpq_entries: usize,
    ) -> Self {
        Self {
            store,
            device,
            user_wpq: WritePendingQueue::new(user_wpq_entries),
            meta_wpq: WritePendingQueue::new(meta_wpq_entries),
            stats: MemStats::default(),
        }
    }

    /// The paper's configuration over `store`: 16 GB PCM, 64-entry user
    /// WPQ, 10-entry metadata WPQ.
    pub fn paper(store: NvmStore) -> Self {
        let device = PcmDevice::paper();
        Self::new(store, device, USER_WPQ_ENTRIES, META_WPQ_ENTRIES)
    }

    /// A small fast controller for unit tests.
    pub fn for_tests() -> Self {
        Self::new(
            NvmStore::new(),
            PcmDevice::new(PcmTiming::uniform(10), 4, 64),
            4,
            2,
        )
    }

    /// Reads a line; returns its content and the completion cycle.
    pub fn read(&mut self, addr: LineAddr, now: Cycle, kind: AccessKind) -> (Line, Cycle) {
        match kind {
            AccessKind::UserData => self.stats.user_reads += 1,
            AccessKind::Metadata => self.stats.meta_reads += 1,
        }
        let sched = self.device.schedule_read(addr, now + CONTROLLER_OVERHEAD);
        (self.store.read_line(addr), sched.done)
    }

    /// Accepts a write; the line is durable once accepted (ADR covers the
    /// WPQ), and the media write drains in the background.
    pub fn write(&mut self, addr: LineAddr, line: Line, now: Cycle, kind: AccessKind) -> Enqueued {
        let _span = span::enter("wpq.persist");
        let wpq = match kind {
            AccessKind::UserData => {
                self.stats.user_writes += 1;
                &mut self.user_wpq
            }
            AccessKind::Metadata => {
                self.stats.meta_writes += 1;
                &mut self.meta_wpq
            }
        };
        let enq = wpq.enqueue(addr, now + CONTROLLER_OVERHEAD, &mut self.device);
        // Functionally durable at acceptance: ADR drains the WPQ on crash.
        self.store.write_line(addr, line);
        enq
    }

    /// Accepts a write that is *coalesced* with another in-flight
    /// transaction to the same DIMM — Supermem-style counter write-through,
    /// where the counter line rides with its data line. The write is
    /// durable immediately and counts toward §V-E access statistics, but
    /// adds no separate device transaction.
    pub fn write_coalesced(&mut self, addr: LineAddr, line: Line, kind: AccessKind) {
        let _span = span::enter("wpq.persist");
        match kind {
            AccessKind::UserData => self.stats.user_writes += 1,
            AccessKind::Metadata => self.stats.meta_writes += 1,
        }
        self.store.write_line(addr, line);
    }

    /// Peeks at NVM content without timing or statistics (used by recovery,
    /// which the paper times separately via its own fetch model).
    pub fn peek(&self, addr: LineAddr) -> Line {
        self.store.read_line(addr)
    }

    /// Cycle by which both WPQs have fully drained.
    pub fn drained_at(&self) -> Cycle {
        self.user_wpq.drained_at().max(self.meta_wpq.drained_at())
    }

    /// A checkpoint epoch boundary: flush-barriers both WPQs (charging the
    /// drain time), then commits the functional image plus the caller's
    /// `meta` blob as a durable checkpoint generation. Returns the
    /// committed generation and the cycle the flush completed.
    pub fn checkpoint(&mut self, now: Cycle, meta: &[u8]) -> Result<(u64, Cycle), IoError> {
        let _span = span::enter("wpq.persist");
        let flushed = self.user_wpq.barrier(now).max(self.meta_wpq.barrier(now));
        let generation = self.store.checkpoint(meta)?;
        Ok((generation, flushed))
    }

    /// Models a power failure under ADR: queued writes are already durable
    /// in the functional store; volatile device/queue state clears.
    pub fn crash(&mut self) {
        self.user_wpq.clear();
        self.meta_wpq.clear();
        self.device.reset_occupancy();
    }

    /// Models a power failure whose ADR flush tears WPQ entries still
    /// draining at `at`, as `tearing` describes: each torn entry keeps
    /// only a prefix of 8-byte words of its write.
    ///
    /// * [`Tearing::InFlight`] tears every in-flight entry in proportion
    ///   to how far its media write had progressed.
    /// * [`Tearing::Prefix`] stops the **metadata** WPQ at an exact
    ///   abstract drain prefix: the first `fully_drained` in-flight
    ///   entries (FIFO order) commit whole, the next commits only its
    ///   first `words_new` words, and every entry behind it commits
    ///   nothing. User-data entries drain whole (the model checker's
    ///   abstraction).
    /// * [`Tearing::None`] tears nothing.
    ///
    /// Requires the store's history journal (see
    /// [`NvmStore::track_history`]); entries without recorded history
    /// are left untouched and reported as unapplied. Returns one
    /// [`FaultRecord`] per entry that did not commit whole, then performs
    /// the normal [`MemoryController::crash`] teardown.
    pub fn crash_with_tearing(&mut self, at: Cycle, tearing: Tearing) -> Vec<FaultRecord> {
        let torn: Vec<(LineAddr, usize)> = match tearing {
            Tearing::None => Vec::new(),
            Tearing::InFlight => self
                .user_wpq
                .in_flight_at(at)
                .into_iter()
                .chain(self.meta_wpq.in_flight_at(at))
                .map(|entry| {
                    let span = entry.drained.saturating_sub(entry.accepted).max(1);
                    let progress = at.saturating_sub(entry.accepted).min(span);
                    let words = (progress as u128 * WORDS_PER_LINE as u128) / span as u128;
                    (entry.addr, words as usize)
                })
                .collect(),
            Tearing::Prefix(prefix) => self
                .meta_wpq
                .in_flight_at(at)
                .iter()
                .enumerate()
                .map(|(pos, entry)| {
                    let words = match pos.cmp(&prefix.fully_drained) {
                        std::cmp::Ordering::Less => WORDS_PER_LINE,
                        std::cmp::Ordering::Equal => prefix.words_new.min(WORDS_PER_LINE),
                        std::cmp::Ordering::Greater => 0,
                    };
                    (entry.addr, words)
                })
                .collect(),
        };
        let records = torn
            .into_iter()
            .filter(|&(_, words_new)| words_new < WORDS_PER_LINE)
            .map(|(addr, words_new)| {
                fault::apply(&mut self.store, NvmFault::TornWrite { addr, words_new })
            })
            .collect();
        self.crash();
        records
    }

    /// Applies one explicit media fault to the post-crash image.
    pub fn inject_fault(&mut self, fault: NvmFault) -> FaultRecord {
        fault::apply(&mut self.store, fault)
    }

    /// Access statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Immutable view of the functional NVM image.
    pub fn store(&self) -> &NvmStore {
        &self.store
    }

    /// Mutable view of the functional NVM image (attack injection,
    /// recovery rewrites).
    pub fn store_mut(&mut self) -> &mut NvmStore {
        &mut self.store
    }

    /// The timing device (for idle horizons and counters).
    pub fn device(&self) -> &PcmDevice {
        &self.device
    }

    /// WPQ statistics: `(user queue, metadata queue)`.
    pub fn wpq_stats(&self) -> (WpqStats, WpqStats) {
        (self.user_wpq.stats(), self.meta_wpq.stats())
    }

    /// In-flight entries of each WPQ at `now`: `(user, metadata)` — the
    /// occupancy gauge sampled into epoch time-series.
    pub fn wpq_occupancy(&self, now: Cycle) -> (usize, usize) {
        (self.user_wpq.occupancy(now), self.meta_wpq.occupancy(now))
    }
}

impl Default for MemoryController {
    fn default() -> Self {
        Self::paper(NvmStore::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TornPrefix;

    #[test]
    fn write_then_read_roundtrips() {
        let mut mc = MemoryController::for_tests();
        let line = [0xAB; 64];
        mc.write(LineAddr::new(7), line, 0, AccessKind::UserData);
        let (data, done) = mc.read(LineAddr::new(7), 100, AccessKind::UserData);
        assert_eq!(data, line);
        assert!(done >= 100);
    }

    #[test]
    fn stats_split_by_kind() {
        let mut mc = MemoryController::for_tests();
        mc.write(LineAddr::new(0), [1; 64], 0, AccessKind::UserData);
        mc.write(LineAddr::new(1), [2; 64], 0, AccessKind::Metadata);
        mc.read(LineAddr::new(0), 0, AccessKind::UserData);
        mc.read(LineAddr::new(1), 0, AccessKind::Metadata);
        mc.read(LineAddr::new(1), 0, AccessKind::Metadata);
        let s = mc.stats();
        assert_eq!(s.user_reads, 1);
        assert_eq!(s.user_writes, 1);
        assert_eq!(s.meta_reads, 2);
        assert_eq!(s.meta_writes, 1);
        assert_eq!(s.total(), 5);
        assert_eq!(s.metadata_total(), 3);
    }

    #[test]
    fn writes_survive_crash() {
        let mut mc = MemoryController::for_tests();
        mc.write(LineAddr::new(3), [3; 64], 0, AccessKind::UserData);
        mc.crash();
        assert_eq!(mc.peek(LineAddr::new(3)), [3; 64], "ADR drains the WPQ");
    }

    #[test]
    fn peek_does_not_count() {
        let mut mc = MemoryController::for_tests();
        mc.write(LineAddr::new(3), [3; 64], 0, AccessKind::UserData);
        let _ = mc.peek(LineAddr::new(3));
        assert_eq!(mc.stats().total_reads(), 0);
    }

    #[test]
    fn controller_overhead_applied() {
        let mut mc = MemoryController::for_tests();
        let (_, done) = mc.read(LineAddr::new(0), 0, AccessKind::UserData);
        // uniform(10) miss = tRCD + tCL = 20 cycles after overhead.
        assert_eq!(done, 14 + 20);
    }

    #[test]
    fn crash_with_tearing_tears_in_flight_writes() {
        let mut mc = MemoryController::for_tests();
        mc.store_mut().track_history(true);
        let a = LineAddr::new(3);
        mc.write(a, [1; 64], 0, AccessKind::UserData);
        // Let the first write drain fully, then crash mid-way through a
        // second write to the same line.
        let horizon = mc.drained_at();
        let enq = mc.write(a, [2; 64], horizon, AccessKind::UserData);
        let mid = enq.accepted + (enq.drained - enq.accepted) / 2;
        let records = mc.crash_with_tearing(mid, Tearing::InFlight);
        assert_eq!(records.len(), 1);
        assert!(records[0].applied);
        let line = mc.peek(a);
        assert_ne!(line, [1; 64], "some new words landed");
        assert_ne!(line, [2; 64], "but not all of them");
        assert_eq!(mc.wpq_occupancy(mid), (0, 0), "queues cleared");
    }

    #[test]
    fn crash_with_tearing_spares_drained_writes() {
        let mut mc = MemoryController::for_tests();
        mc.store_mut().track_history(true);
        mc.write(LineAddr::new(3), [1; 64], 0, AccessKind::UserData);
        let records = mc.crash_with_tearing(mc.drained_at(), Tearing::InFlight);
        assert!(records.is_empty(), "nothing in flight at the horizon");
        assert_eq!(mc.peek(LineAddr::new(3)), [1; 64]);
    }

    #[test]
    fn crash_before_acceptance_reverts_the_write() {
        let mut mc = MemoryController::for_tests();
        mc.store_mut().track_history(true);
        let a = LineAddr::new(5);
        mc.write(a, [1; 64], 0, AccessKind::UserData);
        let horizon = mc.drained_at();
        let enq = mc.write(a, [2; 64], horizon, AccessKind::UserData);
        // Crash "before" the entry was accepted: zero words persisted.
        let records = mc.crash_with_tearing(enq.accepted.saturating_sub(1), Tearing::InFlight);
        assert_eq!(records.len(), 1);
        assert!(records[0].applied);
        assert_eq!(mc.peek(a), [1; 64], "write fully reverted");
    }

    /// Two metadata lines with drained old content plus one in-flight
    /// rewrite each — the shape the model checker's lowering produces.
    fn two_inflight_meta_rewrites() -> (MemoryController, Cycle) {
        let mut mc = MemoryController::for_tests();
        mc.store_mut().track_history(true);
        mc.write(LineAddr::new(10), [0xFF; 64], 0, AccessKind::Metadata);
        mc.write(LineAddr::new(11), [0xFF; 64], 0, AccessKind::Metadata);
        let horizon = mc.drained_at();
        mc.write(LineAddr::new(10), [1; 64], horizon, AccessKind::Metadata);
        mc.write(LineAddr::new(11), [2; 64], horizon, AccessKind::Metadata);
        (mc, horizon)
    }

    #[test]
    fn torn_prefix_splits_the_metadata_queue_by_position() {
        let (mut mc, horizon) = two_inflight_meta_rewrites();
        let records = mc.crash_with_tearing(
            horizon,
            Tearing::Prefix(TornPrefix {
                fully_drained: 1,
                words_new: 2,
            }),
        );
        assert_eq!(mc.peek(LineAddr::new(10)), [1; 64], "position 0 whole");
        let second = mc.peek(LineAddr::new(11));
        assert_eq!(&second[..16], &[2; 16], "two new words landed");
        assert_eq!(&second[16..], &[0xFF; 48], "suffix stayed old");
        assert_eq!(records.len(), 1, "only the torn entry is recorded");
        assert!(records[0].applied);
        assert_eq!(mc.wpq_occupancy(horizon), (0, 0), "queues cleared");
    }

    #[test]
    fn torn_prefix_drops_entries_behind_the_tear() {
        let (mut mc, horizon) = two_inflight_meta_rewrites();
        let records = mc.crash_with_tearing(
            horizon,
            Tearing::Prefix(TornPrefix {
                fully_drained: 0,
                words_new: 0,
            }),
        );
        assert_eq!(mc.peek(LineAddr::new(10)), [0xFF; 64], "write reverted");
        assert_eq!(mc.peek(LineAddr::new(11)), [0xFF; 64], "write reverted");
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.applied));
    }

    #[test]
    fn torn_prefix_spares_user_data_entries() {
        let mut mc = MemoryController::for_tests();
        mc.store_mut().track_history(true);
        mc.write(LineAddr::new(30), [7; 64], 0, AccessKind::UserData);
        let records = mc.crash_with_tearing(
            0,
            Tearing::Prefix(TornPrefix {
                fully_drained: 0,
                words_new: 0,
            }),
        );
        assert!(records.is_empty(), "user queue is outside the prefix");
        assert_eq!(mc.peek(LineAddr::new(30)), [7; 64], "ADR drained it whole");
    }

    #[test]
    fn inject_fault_reaches_the_store() {
        let mut mc = MemoryController::for_tests();
        mc.write(LineAddr::new(0), [0; 64], 0, AccessKind::UserData);
        let rec = mc.inject_fault(NvmFault::BitFlip {
            addr: LineAddr::new(0),
            byte: 1,
            bit: 0,
        });
        assert!(rec.applied);
        assert_eq!(mc.peek(LineAddr::new(0))[1], 1);
    }

    #[test]
    fn checkpoint_barriers_both_queues() {
        let mut mc = MemoryController::for_tests();
        mc.write(LineAddr::new(0), [1; 64], 0, AccessKind::UserData);
        mc.write(LineAddr::new(64), [2; 64], 0, AccessKind::Metadata);
        let horizon = mc.drained_at();
        let (generation, flushed) = mc.checkpoint(0, b"epoch").unwrap();
        assert_eq!(generation, 1);
        assert_eq!(flushed, horizon, "barrier waits for the slowest drain");
        let (user, meta) = mc.wpq_stats();
        assert_eq!(user.barriers, 1);
        assert_eq!(meta.barriers, 1);
        assert_eq!(mc.store().generation(), 1);
        assert_eq!(mc.store().meta(), b"epoch");
    }

    #[test]
    fn metadata_queue_is_separate() {
        let mut mc = MemoryController::for_tests();
        // Saturate the 2-entry metadata queue; user queue stays free.
        for i in 0..8 {
            mc.write(LineAddr::new(i * 4), [1; 64], 0, AccessKind::Metadata);
        }
        let (user, meta) = mc.wpq_stats();
        assert_eq!(user.full_stalls, 0);
        assert!(meta.full_stalls > 0);
    }
}
