//! Per-layer measurement for the traced run: switching the span profiler
//! and allocation counter on around a pass, reading span shares back,
//! and timing the primitives in isolation.
//!
//! Span times are inflated by the profiler itself, so a span's time is
//! only ever reported as its share of the traced wall time, scaled to
//! the wall time of the same pass run untraced. Absolute times otherwise
//! come from calls the benchmark times from outside.

use crate::report::Report;
use scue::{EngineStats, LatencyStats};
use scue_cache::{DataHierarchy, HierarchyConfig, MdCacheStats};
use scue_crypto::cme::{one_time_pad, CounterBlock};
use scue_crypto::hmac::data_line_hmac;
use scue_crypto::SecretKey;
use scue_nvm::{PcmCounters, WpqStats};
use scue_util::obs::alloc;
use scue_util::obs::span::{self, SpanProfile};
use scue_workloads::{MemOp, Trace};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The span the benchmark wraps around each request.
pub const REQUEST_SPAN: &str = "bench.request";

/// Every per-layer metric and its unit, in `BENCHMARK.json` order. A
/// traced run reports all of them; one a workload cannot observe is
/// reported as 0 and named, with the reason, in a `# absent` line.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("tracing_overhead", "ratio"),
    ("workloads.gen_ms", "ms"),
    ("workloads.trace_ops", "count"),
    ("workloads.persist_ops", "count"),
    ("sim.runner.outside_engine_ms", "ms"),
    ("sim.runner.system_new_ms", "ms"),
    ("sim.runner.drain_ms", "ms"),
    ("sim.runner.allocs_per_req", "count"),
    ("cache.hierarchy.replay_ms", "ms"),
    ("cache.hierarchy.l1_hits", "count"),
    ("cache.hierarchy.l2_hits", "count"),
    ("cache.hierarchy.l3_hits", "count"),
    ("cache.hierarchy.mem_accesses", "count"),
    ("core.engine.persist_calls", "count"),
    ("core.engine.read_calls", "count"),
    ("core.engine.request_self_ms", "ms"),
    ("core.engine.allocs_per_call", "count"),
    ("core.engine.sim_write_lat_p50_cycles", "cycles"),
    ("core.engine.sim_write_lat_p99_cycles", "cycles"),
    ("core.engine.sim_read_lat_mean_cycles", "cycles"),
    ("itree.walk_calls", "count"),
    ("itree.walk_self_ms", "ms"),
    ("itree.codec_calls", "count"),
    ("itree.codec_ms", "ms"),
    ("crypto.hmac_calls", "count"),
    ("crypto.hmac_ms", "ms"),
    ("crypto.pad_ns", "ns"),
    ("crypto.line_mac_ns", "ns"),
    ("crypto.counter_encode_ns", "ns"),
    ("crypto.counter_decode_ns", "ns"),
    ("cache.metadata.hits", "count"),
    ("cache.metadata.misses", "count"),
    ("cache.metadata.fills", "count"),
    ("cache.metadata.hit_rate", "ratio"),
    ("cache.metadata.lookup_ms", "ms"),
    ("nvm.controller.wpq.user_full_stalls", "count"),
    ("nvm.controller.wpq.meta_full_stalls", "count"),
    ("nvm.controller.wpq.meta_max_occupancy", "count"),
    ("nvm.controller.wpq.coalesced", "count"),
    ("nvm.controller.pcm.reads", "count"),
    ("nvm.controller.pcm.writes", "count"),
    ("nvm.controller.pcm.row_hits", "count"),
    ("nvm.controller.wpq_persist_ms", "ms"),
    ("core.recovery.calls", "count"),
    ("core.recovery.ms", "ms"),
    ("core.recovery.leaves_checked", "count"),
    ("core.recovery.metadata_fetches", "count"),
    ("core.recovery.sim_ns", "ns"),
    ("core.recovery.repaired_leaves", "count"),
    ("sim.torture.case_us_p50", "us"),
    ("sim.torture.oracle_us_p50", "us"),
    ("sim.torture.recovered_intact", "count"),
    ("sim.torture.repaired_counter", "count"),
    ("sim.torture.expected_window_fail", "count"),
    ("sim.torture.detected_at_recovery", "count"),
    ("sim.torture.detected_on_read", "count"),
    ("sim.torture.unverified_survived", "count"),
    ("sim.torture.silent_corruption", "count"),
    ("sim.torture.resume_failure", "count"),
    ("sim.attack.case_us_p50", "us"),
    ("sim.attack.oracle_us_p50", "us"),
    ("sim.attack.detected_online", "count"),
    ("sim.attack.detected_at_recovery", "count"),
    ("sim.attack.detected_on_audit", "count"),
    ("sim.attack.window_inconclusive", "count"),
    ("sim.attack.silent_corruption", "count"),
    ("sim.attack.undetected_erased", "count"),
    ("sim.attack.undetected_noop", "count"),
    ("sim.attack.undetected", "count"),
    ("sim.attack.engine_failure", "count"),
    ("nvm.checkpoint.us_p50", "us"),
    ("nvm.checkpoint.us_p99", "us"),
    ("nvm.checkpoint.image_mb", "MB"),
    ("nvm.checkpoint.open_ms", "ms"),
    ("nvm.checkpoint.durable_persist_us_p50", "us"),
];

/// Why `metric` has no value on `workload`.
fn absent_reason(workload: &str, metric: &str) -> &'static str {
    let on = |prefix: &str| metric.starts_with(prefix);
    if on("sim.torture") || on("sim.attack") {
        "campaign only"
    } else if on("nvm.checkpoint") {
        "durable-epochs only"
    } else if on("workloads.") || on("sim.runner.") || on("cache.hierarchy") {
        "no trace replay on this workload"
    } else if workload == "crash-campaign" {
        "the case engines live inside run_case/run_attack_case; only their spans are observable"
    } else if on("core.recovery") {
        "no crash on this workload"
    } else {
        "the layer does no such work on this workload"
    }
}

/// Adds every [`PER_LAYER`] metric `report` lacks as 0 and prints one
/// `# absent` line per metric with the reason.
pub fn fill_absent(report: &mut Report, workload: &str) {
    for (name, unit) in PER_LAYER {
        if !report.metrics.iter().any(|m| m.name == name) {
            println!("# absent {name}: {}", absent_reason(workload, name));
            report.push(name, 0.0, unit);
        }
    }
}

/// Engine statistics summed over the engines of a pass.
#[derive(Debug, Default)]
pub struct EngineTotals {
    writes: LatencyStats,
    reads: LatencyStats,
    hashes: u64,
    mdcache: MdCacheStats,
    user_wpq: WpqStats,
    meta_wpq: WpqStats,
    pcm: PcmCounters,
}

impl EngineTotals {
    /// Folds in one engine's statistics.
    pub fn add(&mut self, stats: &EngineStats, wpq: (WpqStats, WpqStats), pcm: PcmCounters) {
        self.writes.merge(&stats.write_latency);
        self.reads.merge(&stats.read_latency);
        self.hashes += stats.hashes;
        self.mdcache.hits += stats.mdcache.hits;
        self.mdcache.misses += stats.mdcache.misses;
        self.mdcache.fills += stats.mdcache.fills;
        for (sum, one) in [(&mut self.user_wpq, wpq.0), (&mut self.meta_wpq, wpq.1)] {
            sum.full_stalls += one.full_stalls;
            sum.coalesced += one.coalesced;
            sum.max_occupancy = sum.max_occupancy.max(one.max_occupancy);
        }
        self.pcm.reads += pcm.reads;
        self.pcm.writes += pcm.writes;
        self.pcm.row_hits += pcm.row_hits;
    }

    /// Pushes the engine, crypto, metadata-cache and controller counts.
    pub fn push(&self, report: &mut Report) {
        let md = self.mdcache;
        for (name, value, unit) in [
            (
                "core.engine.persist_calls",
                self.writes.count() as f64,
                "count",
            ),
            ("core.engine.read_calls", self.reads.count() as f64, "count"),
            (
                "core.engine.sim_write_lat_p50_cycles",
                self.writes.p50() as f64,
                "cycles",
            ),
            (
                "core.engine.sim_write_lat_p99_cycles",
                self.writes.p99() as f64,
                "cycles",
            ),
            (
                "core.engine.sim_read_lat_mean_cycles",
                self.reads.mean(),
                "cycles",
            ),
            ("crypto.hmac_calls", self.hashes as f64, "count"),
            ("cache.metadata.hits", md.hits as f64, "count"),
            ("cache.metadata.misses", md.misses as f64, "count"),
            ("cache.metadata.fills", md.fills as f64, "count"),
            (
                "cache.metadata.hit_rate",
                md.hits as f64 / (md.hits + md.misses).max(1) as f64,
                "ratio",
            ),
            (
                "nvm.controller.wpq.user_full_stalls",
                self.user_wpq.full_stalls as f64,
                "count",
            ),
            (
                "nvm.controller.wpq.meta_full_stalls",
                self.meta_wpq.full_stalls as f64,
                "count",
            ),
            (
                "nvm.controller.wpq.meta_max_occupancy",
                self.meta_wpq.max_occupancy as f64,
                "count",
            ),
            (
                "nvm.controller.wpq.coalesced",
                (self.user_wpq.coalesced + self.meta_wpq.coalesced) as f64,
                "count",
            ),
            ("nvm.controller.pcm.reads", self.pcm.reads as f64, "count"),
            ("nvm.controller.pcm.writes", self.pcm.writes as f64, "count"),
            (
                "nvm.controller.pcm.row_hits",
                self.pcm.row_hits as f64,
                "count",
            ),
        ] {
            report.push(name, value, unit);
        }
    }
}

/// A pass run under the span profiler and allocation counter.
pub struct Traced<T> {
    pub value: T,
    pub wall: Duration,
    pub profile: SpanProfile,
    /// Heap allocations the pass made on this thread.
    pub allocs: u64,
}

/// Runs `f` with monotonic spans and allocation counting on.
pub fn traced<T>(f: impl FnOnce() -> T) -> Traced<T> {
    span::reset_thread();
    alloc::reset_thread_counts();
    span::set_clock(span::Clock::Monotonic);
    span::set_enabled(true);
    alloc::set_enabled(true);
    let start = Instant::now();
    let value = f();
    let wall = start.elapsed();
    alloc::set_enabled(false);
    span::set_enabled(false);
    let (allocs, _) = alloc::thread_counts();
    let profile = span::take_thread_profile();
    Traced {
        value,
        wall,
        profile,
        allocs,
    }
}

impl<T> Traced<T> {
    /// Calls of every span named `name`, whatever its parent.
    pub fn calls(&self, name: &str) -> u64 {
        self.profile
            .iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, s)| s.calls)
            .sum()
    }

    /// Allocations attributed to spans named `name` (children excluded).
    pub fn allocs_in(&self, name: &str) -> u64 {
        self.profile
            .iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, s)| s.allocs)
            .sum()
    }

    /// Self time of spans named `name` as a share of the traced wall
    /// time, scaled to `untraced` — an estimate in untraced ms.
    pub fn self_ms(&self, name: &str, untraced: Duration) -> f64 {
        let self_ns: u64 = self
            .profile
            .iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, s)| s.self_ns)
            .sum();
        let share = self_ns as f64 / self.wall.as_nanos().max(1) as f64;
        share * untraced.as_secs_f64() * 1e3
    }

    /// Time under `engine.recover` and its phase spans, in untraced ms.
    pub fn recovery_ms(&self, untraced: Duration) -> f64 {
        [
            "engine.recover",
            "recovery.scan",
            "recovery.sum",
            "recovery.rehash",
        ]
        .iter()
        .map(|name| self.self_ms(name, untraced))
        .sum()
    }

    /// Pushes `tracing_overhead` and the span-derived rows every
    /// workload shares.
    pub fn push_common(&self, report: &mut Report, untraced: Duration) {
        report.push(
            "tracing_overhead",
            self.wall.as_secs_f64() / untraced.as_secs_f64(),
            "ratio",
        );
        let codec = self.calls("codec.encode") + self.calls("codec.decode");
        report.push("itree.walk_calls", self.calls("itree.walk") as f64, "count");
        report.push(
            "itree.walk_self_ms",
            self.self_ms("itree.walk", untraced),
            "ms",
        );
        report.push("itree.codec_calls", codec as f64, "count");
        report.push(
            "itree.codec_ms",
            self.self_ms("codec.encode", untraced) + self.self_ms("codec.decode", untraced),
            "ms",
        );
        report.push(
            "crypto.hmac_ms",
            self.self_ms("hmac.compute", untraced),
            "ms",
        );
        report.push(
            "cache.metadata.lookup_ms",
            self.self_ms("mdcache.lookup", untraced),
            "ms",
        );
        report.push(
            "nvm.controller.wpq_persist_ms",
            self.self_ms("wpq.persist", untraced),
            "ms",
        );
        report.push(
            "core.engine.request_self_ms",
            self.self_ms("engine.request", untraced),
            "ms",
        );
        let engine_calls = self.calls("engine.request").max(1);
        report.push(
            "core.engine.allocs_per_call",
            self.allocs_in("engine.request") as f64 / engine_calls as f64,
            "count",
        );
        report.push(
            "core.recovery.calls",
            self.calls("engine.recover") as f64,
            "count",
        );
    }
}

/// Median ns per call of `f` over several timed batches.
fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    const BATCHES: usize = 11;
    const CALLS: u64 = 20_000;
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..CALLS {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// Times the crypto primitives in isolation (spans off).
pub fn push_primitives(report: &mut Report) {
    let key = SecretKey::from_seed(0xBE4C);
    let line = [0x5Au8; 64];
    let mut block = CounterBlock::new();
    for i in 0..64 {
        block.set_minor(i, (i * 3) as u8).expect("index < 64");
    }
    let encoded = block.to_line();
    report.push(
        "crypto.pad_ns",
        ns_per_call(|i| {
            black_box(one_time_pad(&key, black_box(i), 7, (i % 128) as u8));
        }),
        "ns",
    );
    report.push(
        "crypto.line_mac_ns",
        ns_per_call(|i| {
            black_box(data_line_hmac(&key, black_box(i), black_box(&line), i));
        }),
        "ns",
    );
    report.push(
        "crypto.counter_encode_ns",
        ns_per_call(|_| {
            black_box(black_box(&block).to_line());
        }),
        "ns",
    );
    report.push(
        "crypto.counter_decode_ns",
        ns_per_call(|_| {
            black_box(CounterBlock::from_line(black_box(&encoded)));
        }),
        "ns",
    );
}

/// Replays each chunked trace through a cold bare data hierarchy (no
/// secure memory), as one replay cell sees it: the hierarchy's share of
/// a cell, timed from outside.
pub fn hierarchy_replay<'a>(traces: impl Iterator<Item = &'a [Trace]>) -> Duration {
    let start = Instant::now();
    for chunks in traces {
        let mut hierarchy = DataHierarchy::new(HierarchyConfig::paper(), 1);
        for op in chunks.iter().flat_map(|c| &c.ops) {
            match *op {
                MemOp::Load(addr) => {
                    black_box(hierarchy.access(0, addr, false));
                }
                MemOp::Store(addr) => {
                    black_box(hierarchy.access(0, addr, true));
                }
                MemOp::Persist(addr) => {
                    black_box(hierarchy.flush_line(0, addr));
                }
                MemOp::Fence | MemOp::Compute(_) => {}
            }
        }
        black_box(hierarchy.flush_all_dirty());
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;
    use scue_util::obs::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), ours);
    }

    #[test]
    fn end_to_end_list_matches_benchmark_json() {
        let names: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, END_TO_END);
    }

    #[test]
    fn fill_absent_completes_the_set() {
        let mut report = Report::default();
        report.push("tracing_overhead", 2.0, "ratio");
        fill_absent(&mut report, "pmem-replay");
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        assert_eq!(report.metrics[0].value, 2.0);
    }
}
