//! The write-pending queue (WPQ) inside the ADR persistence domain.
//!
//! Table II configures two queues: 64 tagged entries for user data and 10
//! untagged entries for security metadata. Writes become *durable* the
//! moment they are accepted into the WPQ — Intel ADR guarantees the queue
//! drains to media on power failure — so a write's "persist latency" is
//! its queue-acceptance time, while the media write itself drains in the
//! background and only matters when the queue backs up.

use crate::addr::{Cycle, LineAddr};
use crate::timing::PcmDevice;
use std::collections::VecDeque;

/// User-data WPQ entries (Table II: 64).
pub const USER_WPQ_ENTRIES: usize = 64;

/// Metadata WPQ entries (Table II: 10).
pub const META_WPQ_ENTRIES: usize = 10;

/// Outcome of enqueueing one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Enqueued {
    /// Cycle the entry was accepted into the queue (the durability point,
    /// and the stall seen by the writer if the queue was full).
    pub accepted: Cycle,
    /// Cycle the underlying media write finishes draining.
    pub drained: Cycle,
}

/// Lifetime statistics for one write-pending queue.
///
/// Replaces the old anonymous `(enqueued, full_stalls, max_occupancy)`
/// tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WpqStats {
    /// Total writes enqueued (including coalesced ones).
    pub enqueued: u64,
    /// Enqueues that stalled on a full queue.
    pub full_stalls: u64,
    /// Peak simultaneous occupancy.
    pub max_occupancy: usize,
    /// Writes that merged into an already-pending entry.
    pub coalesced: u64,
    /// Explicit flush barriers (checkpoint epoch boundaries) observed.
    pub barriers: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    addr: LineAddr,
    accepted: Cycle,
    drained: Cycle,
}

/// One WPQ entry still draining to media at a given cycle — the unit the
/// fault injector tears when a crash interrupts the ADR flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// The line being written.
    pub addr: LineAddr,
    /// Cycle the entry was accepted into the queue.
    pub accepted: Cycle,
    /// Cycle the media write would have finished draining.
    pub drained: Cycle,
}

/// A fixed-capacity write-pending queue backed by a [`PcmDevice`].
///
/// # Example
///
/// ```
/// use scue_nvm::timing::PcmDevice;
/// use scue_nvm::wpq::WritePendingQueue;
/// use scue_nvm::LineAddr;
///
/// let mut dev = PcmDevice::paper();
/// let mut wpq = WritePendingQueue::new(4);
/// let e = wpq.enqueue(LineAddr::new(0), 0, &mut dev);
/// assert_eq!(e.accepted, 0, "empty queue accepts immediately");
/// assert!(e.drained > 0, "media write drains later");
/// ```
#[derive(Debug, Clone)]
pub struct WritePendingQueue {
    capacity: usize,
    entries: VecDeque<Entry>,
    full_stalls: u64,
    enqueued: u64,
    coalesced: u64,
    max_occupancy: usize,
    barriers: u64,
}

impl WritePendingQueue {
    /// Creates a queue holding at most `capacity` in-flight writes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ capacity must be non-zero");
        Self {
            capacity,
            entries: VecDeque::new(),
            full_stalls: 0,
            enqueued: 0,
            coalesced: 0,
            max_occupancy: 0,
            barriers: 0,
        }
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries still draining at `now`.
    pub fn occupancy(&self, now: Cycle) -> usize {
        self.entries.iter().filter(|e| e.drained > now).count()
    }

    /// Lifetime queue statistics.
    pub fn stats(&self) -> WpqStats {
        WpqStats {
            enqueued: self.enqueued,
            full_stalls: self.full_stalls,
            max_occupancy: self.max_occupancy,
            coalesced: self.coalesced,
            barriers: self.barriers,
        }
    }

    /// Writes that merged into an already-pending entry.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    fn retire(&mut self, now: Cycle) {
        // Writes to different banks drain out of order, so a slot frees
        // whenever *any* entry has drained, not just the oldest.
        self.entries.retain(|e| e.drained > now);
    }

    /// Enqueues a write to `addr` arriving at `now`, scheduling the media
    /// write on `device`. If the queue is full the writer stalls until the
    /// earliest-draining entry frees a slot.
    pub fn enqueue(&mut self, addr: LineAddr, now: Cycle, device: &mut PcmDevice) -> Enqueued {
        self.retire(now);
        // Same-address coalescing: a write to a line already pending
        // merges into the queued entry — no new slot, no extra media
        // write (standard write-combining WPQ behaviour).
        if let Some(entry) = self.entries.iter().find(|e| e.addr == addr) {
            self.enqueued += 1;
            self.coalesced += 1;
            return Enqueued {
                accepted: now,
                drained: entry.drained,
            };
        }
        let accepted = if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            let idx = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.drained)
                .map(|(idx, _)| idx);
            match idx.and_then(|idx| self.entries.remove(idx)) {
                Some(evicted) => evicted.drained.max(now),
                // Unreachable while capacity > 0 (enforced in `new`), but
                // degrade to "no stall" rather than panic.
                None => now,
            }
        } else {
            now
        };
        let sched = device.schedule_write(addr, accepted);
        let drained = sched.done;
        self.entries.push_back(Entry {
            addr,
            accepted,
            drained,
        });
        self.enqueued += 1;
        self.max_occupancy = self.max_occupancy.max(self.entries.len());
        Enqueued { accepted, drained }
    }

    /// Entries still draining at `now`, with their accept/drain cycles —
    /// the candidates for torn writes when a crash at `now` interrupts the
    /// ADR flush.
    pub fn in_flight_at(&self, now: Cycle) -> Vec<InFlight> {
        self.entries
            .iter()
            .filter(|e| e.drained > now)
            .map(|e| InFlight {
                addr: e.addr,
                accepted: e.accepted,
                drained: e.drained,
            })
            .collect()
    }

    /// Cycle by which every queued entry has drained (ADR flush horizon).
    pub fn drained_at(&self) -> Cycle {
        self.entries.iter().map(|e| e.drained).max().unwrap_or(0)
    }

    /// An explicit flush barrier — the checkpoint epoch boundary. Waits
    /// for every queued entry to drain (functionally they are already
    /// durable at acceptance; this charges the timing), retires them,
    /// and counts the barrier. Returns the cycle the flush completes.
    pub fn barrier(&mut self, now: Cycle) -> Cycle {
        let horizon = self.drained_at().max(now);
        self.retire(horizon);
        self.barriers += 1;
        horizon
    }

    /// Empties the queue (after a crash the ADR flush has already made the
    /// contents durable in the functional store).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::PcmTiming;

    fn fast_device() -> PcmDevice {
        // One bank so writes serialize and the queue actually fills.
        PcmDevice::new(PcmTiming::uniform(100), 1, 64)
    }

    #[test]
    fn empty_queue_accepts_immediately() {
        let mut dev = fast_device();
        let mut wpq = WritePendingQueue::new(2);
        let e = wpq.enqueue(LineAddr::new(0), 50, &mut dev);
        assert_eq!(e.accepted, 50);
    }

    #[test]
    fn full_queue_stalls_writer() {
        let mut dev = fast_device();
        let mut wpq = WritePendingQueue::new(2);
        // Three back-to-back writes into a 2-deep queue on one bank.
        let a = wpq.enqueue(LineAddr::new(0), 0, &mut dev);
        let b = wpq.enqueue(LineAddr::new(64), 0, &mut dev);
        let c = wpq.enqueue(LineAddr::new(128), 0, &mut dev);
        assert_eq!(a.accepted, 0);
        assert_eq!(b.accepted, 0);
        assert_eq!(
            c.accepted, a.drained,
            "third write waits for the oldest drain"
        );
        let s = wpq.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.full_stalls, 1);
        assert_eq!(s.max_occupancy, 2);
    }

    #[test]
    fn retire_frees_slots() {
        let mut dev = fast_device();
        let mut wpq = WritePendingQueue::new(1);
        let a = wpq.enqueue(LineAddr::new(0), 0, &mut dev);
        // Arrive long after the first write drained: no stall.
        let b = wpq.enqueue(LineAddr::new(64), a.drained + 10_000, &mut dev);
        assert_eq!(b.accepted, a.drained + 10_000);
        assert_eq!(wpq.stats().full_stalls, 0);
    }

    #[test]
    fn occupancy_counts_in_flight() {
        let mut dev = fast_device();
        let mut wpq = WritePendingQueue::new(8);
        wpq.enqueue(LineAddr::new(0), 0, &mut dev);
        wpq.enqueue(LineAddr::new(64), 0, &mut dev);
        assert_eq!(wpq.occupancy(0), 2);
        assert_eq!(wpq.occupancy(wpq.drained_at()), 0);
    }

    #[test]
    fn clear_empties_queue() {
        let mut dev = fast_device();
        let mut wpq = WritePendingQueue::new(2);
        wpq.enqueue(LineAddr::new(0), 0, &mut dev);
        wpq.clear();
        assert_eq!(wpq.occupancy(0), 0);
        assert_eq!(wpq.drained_at(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = WritePendingQueue::new(0);
    }

    #[test]
    fn barrier_retires_everything_and_counts() {
        let mut dev = fast_device();
        let mut wpq = WritePendingQueue::new(4);
        let a = wpq.enqueue(LineAddr::new(0), 0, &mut dev);
        let b = wpq.enqueue(LineAddr::new(64), 0, &mut dev);
        let horizon = wpq.barrier(0);
        assert_eq!(horizon, a.drained.max(b.drained));
        assert_eq!(wpq.occupancy(horizon), 0);
        assert_eq!(wpq.stats().barriers, 1);
        // A barrier on an empty queue completes at `now`.
        assert_eq!(wpq.barrier(horizon + 5), horizon + 5);
        assert_eq!(wpq.stats().barriers, 2);
    }

    #[test]
    fn in_flight_reports_accept_and_drain_cycles() {
        let mut dev = fast_device();
        let mut wpq = WritePendingQueue::new(4);
        let a = wpq.enqueue(LineAddr::new(0), 10, &mut dev);
        let inflight = wpq.in_flight_at(10);
        assert_eq!(inflight.len(), 1);
        assert_eq!(inflight[0].addr, LineAddr::new(0));
        assert_eq!(inflight[0].accepted, 10);
        assert_eq!(inflight[0].drained, a.drained);
        assert!(
            wpq.in_flight_at(a.drained).is_empty(),
            "drained entries gone"
        );
    }
}
