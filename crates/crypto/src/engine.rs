//! Timing model of the on-chip hash unit.
//!
//! The papers model HMAC generation as a fixed-latency pipelined unit:
//! 40 cycles by default, swept over {20, 40, 80, 160} in the sensitivity
//! study (Table II, Figs. 11–12). Two branch-update disciplines matter:
//!
//! * **Parallel (SIT)** — once counters along a branch are incremented, all
//!   HMACs can be computed concurrently, so a whole branch costs one
//!   pipeline latency (§II-D4).
//! * **Serial (BMT)** — each level's HMAC input depends on the child's
//!   finished HMAC, so a branch costs `levels × latency`.
//!
//! The engine also exposes a simple occupancy model: issues within the same
//! cycle window share the pipeline with an initiation interval of one
//! request per cycle per port.

/// Cycle count type used across the whole simulator.
pub type Cycle = u64;

/// Hash latencies evaluated in the paper's sensitivity study.
pub const PAPER_HASH_LATENCIES: [u64; 4] = [20, 40, 80, 160];

/// Default hash latency (Table II).
pub const DEFAULT_HASH_LATENCY: u64 = 40;

/// Issue ports of the secure-memory engine's hash unit: SIT computes a
/// branch's HMACs in parallel.
pub const HASH_PORTS: u64 = 16;

/// A pipelined fixed-latency hash unit.
///
/// # Example
///
/// ```
/// use scue_crypto::engine::HashEngine;
///
/// // A 9-wide unit: a whole SIT branch of 9 HMACs costs one latency.
/// let mut engine = HashEngine::with_ports(40, 9);
/// assert_eq!(engine.parallel_done(1000, 9), 1040);
/// // The same branch in a BMT is a serial chain.
/// let mut engine = HashEngine::new(40);
/// assert_eq!(engine.serial_done(1000, 9), 1000 + 9 * 40);
/// ```
#[derive(Debug, Clone)]
pub struct HashEngine {
    latency: u64,
    ports: u64,
    next_free: Cycle,
    issued: u64,
}

impl HashEngine {
    /// Creates an engine with the given per-hash latency and a single
    /// issue port.
    ///
    /// # Panics
    ///
    /// Panics if `latency_cycles` is zero.
    pub fn new(latency_cycles: u64) -> Self {
        Self::with_ports(latency_cycles, 1)
    }

    /// Creates an engine with `ports` parallel issue ports (an SIT-style
    /// unit that can start several HMACs per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `latency_cycles` or `ports` is zero.
    pub fn with_ports(latency_cycles: u64, ports: u64) -> Self {
        assert!(latency_cycles > 0, "hash latency must be non-zero");
        assert!(ports > 0, "hash engine needs at least one port");
        Self {
            latency: latency_cycles,
            ports,
            next_free: 0,
            issued: 0,
        }
    }

    /// Per-hash latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Total hashes issued so far (for stats / energy proxies).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Completion cycle of `count` hashes issued at `now` that may all run
    /// concurrently (SIT branch update). The pipeline can start `ports`
    /// hashes per cycle, so a burst larger than the port width staggers.
    pub fn parallel_done(&mut self, now: Cycle, count: u64) -> Cycle {
        if count == 0 {
            return now;
        }
        self.issued += count;
        let start = now.max(self.next_free);
        let stagger = (count - 1) / self.ports;
        let done = start + stagger + self.latency;
        // The pipeline can accept new work the cycle after the last issue.
        self.next_free = start + stagger + 1;
        done
    }

    /// Completion cycle of `count` hashes issued at `now` that form a
    /// dependency chain (BMT branch update): each starts when the previous
    /// finishes.
    pub fn serial_done(&mut self, now: Cycle, count: u64) -> Cycle {
        if count == 0 {
            return now;
        }
        self.issued += count;
        let start = now.max(self.next_free);
        let done = start + count * self.latency;
        self.next_free = done;
        done
    }

    /// Completion cycle of `count` concurrent hashes issued at `now`,
    /// *without* occupying the pipeline — for callers that invoke the
    /// engine at out-of-order timestamps (background flushes vs. the
    /// critical path), where threading one `next_free` through both would
    /// fabricate contention a pipelined unit does not have.
    pub fn parallel_latency(&mut self, now: Cycle, count: u64) -> Cycle {
        if count == 0 {
            return now;
        }
        self.issued += count;
        now + (count - 1) / self.ports + self.latency
    }

    /// Resets pipeline occupancy (e.g., across simulated crashes) without
    /// clearing lifetime statistics.
    pub fn reset_occupancy(&mut self) {
        self.next_free = 0;
    }
}

impl Default for HashEngine {
    fn default() -> Self {
        Self::new(DEFAULT_HASH_LATENCY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hashes_cost_nothing() {
        let mut e = HashEngine::new(40);
        assert_eq!(e.parallel_done(100, 0), 100);
        assert_eq!(e.serial_done(100, 0), 100);
        assert_eq!(e.issued(), 0);
    }

    #[test]
    fn single_hash_costs_one_latency() {
        let mut e = HashEngine::new(40);
        assert_eq!(e.parallel_done(0, 1), 40);
        let mut e = HashEngine::new(40);
        assert_eq!(e.serial_done(0, 1), 40);
    }

    #[test]
    fn parallel_branch_is_one_latency_per_port_width() {
        let mut e = HashEngine::with_ports(40, 9);
        assert_eq!(
            e.parallel_done(0, 9),
            40,
            "nine ports, nine hashes: one latency"
        );
        let mut e = HashEngine::with_ports(40, 1);
        assert_eq!(e.parallel_done(0, 9), 40 + 8, "single port staggers issue");
    }

    #[test]
    fn serial_branch_multiplies_latency() {
        let mut e = HashEngine::new(20);
        assert_eq!(e.serial_done(10, 5), 10 + 100);
    }

    #[test]
    fn back_to_back_requests_respect_occupancy() {
        let mut e = HashEngine::new(40);
        let first = e.serial_done(0, 2); // busy until 80
        assert_eq!(first, 80);
        let second = e.serial_done(10, 1); // must wait for the pipe
        assert_eq!(second, 120);
    }

    #[test]
    fn issue_counter_accumulates() {
        let mut e = HashEngine::new(40);
        e.parallel_done(0, 3);
        e.serial_done(0, 2);
        assert_eq!(e.issued(), 5);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_latency_rejected() {
        let _ = HashEngine::new(0);
    }

    #[test]
    fn reset_occupancy_clears_pipe() {
        let mut e = HashEngine::new(40);
        e.serial_done(0, 10);
        e.reset_occupancy();
        assert_eq!(e.parallel_done(0, 1), 40);
    }
}
