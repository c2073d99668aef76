//! `pmem-replay` and `spec-replay`: chunked trace replay under every
//! scheme on the figure-scale system.
//!
//! Each `(trace, scheme)` cell gets a fresh `System`. The trace is split
//! into fixed-size chunks; a request replays one chunk with
//! `run_until(&chunk, u64::MAX)`. After the last chunk the cell calls
//! `drain()`, timed on its own. A pass runs every cell once; the loop
//! runs whole passes until the budget is spent, so every run holds the
//! same mix of requests. Pass 1 is the reference: every later pass must
//! reproduce its simulated results exactly, and the `sim_` metrics come
//! from it.

use crate::layers::{self, REQUEST_SPAN};
use crate::report::{self, Report, RequestLog};
use crate::Args;
use scue::{LatencyStats, SchemeKind};
use scue_sim::{RunResult, System, SystemConfig};
use scue_util::obs::span;
use scue_workloads::{Trace, Workload};
use std::time::{Duration, Instant};

/// Trace operations per request.
pub const CHUNK_OPS: usize = 8192;

/// The span around each cell's final `drain()`.
const DRAIN_SPAN: &str = "bench.drain";

/// Which trace family a replay workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The five persistent data-structure traces (clwb + fence).
    Pmem,
    /// The eight SPEC-like traces (read-mostly, metadata misses).
    Spec,
}

impl Mix {
    fn workloads(self) -> &'static [Workload] {
        match self {
            Mix::Pmem => &Workload::PERSISTENT,
            Mix::Spec => &Workload::SPEC,
        }
    }

    /// Generator scale: sized so one pass over all 11 schemes takes a
    /// few seconds.
    fn scale(self) -> usize {
        match self {
            Mix::Pmem => 20_000,
            Mix::Spec => 80_000,
        }
    }
}

/// One workload trace, already cut into request-sized chunks.
pub struct ChunkedTrace {
    pub ops: u64,
    pub persists: u64,
    pub chunks: Vec<Trace>,
}

/// Splits a trace into chunks of at most `size` ops.
pub fn chunk(trace: &Trace, size: usize) -> Vec<Trace> {
    trace
        .ops
        .chunks(size)
        .map(|ops| Trace {
            name: trace.name.clone(),
            ops: ops.to_vec(),
        })
        .collect()
}

/// Generates and chunks every trace of the mix from `seed`.
pub fn setup(mix: Mix, seed: u64) -> Vec<ChunkedTrace> {
    mix.workloads()
        .iter()
        .enumerate()
        .map(|(i, &workload)| {
            let trace = workload.generate(mix.scale(), trace_seed(seed, i));
            let stats = trace.stats();
            ChunkedTrace {
                ops: trace.ops.len() as u64,
                persists: stats.persists,
                chunks: chunk(&trace, CHUNK_OPS),
            }
        })
        .collect()
}

fn trace_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index as u64 + 1)
}

/// The simulated outcome of one cell that every pass must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellKey {
    cycles: u64,
    persists: u64,
    write_latency: LatencyStats,
    mem: scue_nvm::MemStats,
    hierarchy: scue_cache::hierarchy::HierarchyStats,
}

impl CellKey {
    fn of(r: &RunResult) -> Self {
        Self {
            cycles: r.cycles,
            persists: r.engine.persists,
            write_latency: r.engine.write_latency,
            mem: r.engine.mem,
            hierarchy: r.hierarchy,
        }
    }
}

/// Host time spent in `System::new` and `drain()` during a pass, timed
/// from outside.
#[derive(Debug, Default)]
struct PassTimes {
    system_new: Duration,
    drain: Duration,
}

/// Replays one cell; `None` if a request failed (the rest of the cell is
/// then not attempted) or the final drain failed (counted as a failure
/// of the cell's last request). The drain is not part of any request:
/// it flushes the whole 4 MB L3, which would dominate the p99.
fn run_cell(
    scheme: SchemeKind,
    trace: &ChunkedTrace,
    log: &mut RequestLog,
    times: &mut PassTimes,
) -> Option<RunResult> {
    let start = Instant::now();
    let mut system = System::new(SystemConfig::figure(scheme));
    times.system_new += start.elapsed();
    for chunk in &trace.chunks {
        let ok = log.time(|| {
            let _span = span::enter(REQUEST_SPAN);
            matches!(system.run_until(chunk, u64::MAX), Ok(n) if n == chunk.ops.len())
        });
        if !ok {
            return None;
        }
    }
    let start = Instant::now();
    let drained = {
        let _span = span::enter(DRAIN_SPAN);
        system.drain()
    };
    times.drain += start.elapsed();
    if drained.is_err() {
        log.failed += 1;
        return None;
    }
    Some(system.snapshot(trace.ops))
}

/// Runs every cell once. Returns the cells' results in cell order.
fn run_pass(
    traces: &[ChunkedTrace],
    log: &mut RequestLog,
    times: &mut PassTimes,
) -> Vec<Option<RunResult>> {
    traces
        .iter()
        .flat_map(|t| SchemeKind::ALL.iter().map(move |&s| (t, s)))
        .map(|(trace, scheme)| run_cell(scheme, trace, log, times))
        .collect()
}

/// The simulated outcome of each cell of a pass (`None` for a failed
/// cell).
fn keys(pass: &[Option<RunResult>]) -> Vec<Option<CellKey>> {
    pass.iter().map(|r| r.as_ref().map(CellKey::of)).collect()
}

/// Counts cells of `pass` whose outcome differs from `reference`
/// (failed cells were already counted by their request).
fn audit(pass: &[Option<RunResult>], reference: &[Option<CellKey>]) -> u64 {
    pass.iter()
        .zip(reference)
        .filter(|(r, want)| matches!((r, want), (Some(r), Some(want)) if CellKey::of(r) != *want))
        .count() as u64
}

fn push_sim_metrics(report: &mut Report, pass: &[Option<RunResult>]) {
    let mut writes = LatencyStats::new();
    let mut cycles = 0u64;
    for r in pass.iter().flatten() {
        writes.merge(&r.engine.write_latency);
        cycles += r.cycles;
    }
    report.push("sim_write_lat_cycles", writes.mean(), "cycles");
    report.push("sim_exec_cycles", cycles as f64, "cycles");
}

/// Runs a replay workload: the end-to-end loop or, with `--trace 1`,
/// the per-layer run.
pub fn run(mix: Mix, args: &Args) -> Report {
    let (traces, first_setup) = report::timed_setup(|| setup(mix, args.seed));
    let requests_per_pass: usize =
        traces.iter().map(|t| t.chunks.len()).sum::<usize>() * SchemeKind::ALL.len();
    report::header(
        &args.workload,
        args.seed,
        &format!(
            "one {CHUNK_OPS}-op trace chunk ({requests_per_pass} per pass of {} cells)",
            traces.len() * SchemeKind::ALL.len()
        ),
        "none",
    );
    if args.trace {
        return run_traced(&traces, first_setup);
    }

    let mut log = RequestLog::default();
    let mut times = PassTimes::default();
    let start = Instant::now();
    let first = run_pass(&traces, &mut log, &mut times);
    let reference = keys(&first);
    let mut passes = 1;
    while start.elapsed() < args.budget {
        let pass = run_pass(&traces, &mut log, &mut times);
        log.failed += audit(&pass, &reference);
        passes += 1;
    }
    let wall = start.elapsed();
    report::footer(log.attempted(), passes, wall);
    let peak_rss = report::peak_rss_mb();
    drop(traces);
    let setup_time = report::setup_median(first_setup, || setup(mix, args.seed));

    let mut report = Report::default();
    report.push("setup_s", setup_time.as_secs_f64(), "s");
    log.push_metrics(&mut report, wall);
    report.push("peak_rss_mb", peak_rss, "MB");
    push_sim_metrics(&mut report, &first);
    report
}

/// The traced run: one untraced pass with outside timers, then the same
/// pass under the span profiler.
fn run_traced(traces: &[ChunkedTrace], setup_time: Duration) -> Report {
    let mut report = Report::default();

    let mut log = RequestLog::default();
    let mut times = PassTimes::default();
    let start = Instant::now();
    let reference = run_pass(traces, &mut log, &mut times);
    let untraced = start.elapsed();
    let requests = log.attempted();

    let mut traced_log = RequestLog::default();
    let traced = layers::traced(|| run_pass(traces, &mut traced_log, &mut PassTimes::default()));
    report.attempted = requests + traced_log.attempted();
    report.failed = log.failed + traced_log.failed + audit(&traced.value, &keys(&reference));

    let schemes = SchemeKind::ALL.len() as u64;
    report.push("workloads.gen_ms", setup_time.as_secs_f64() * 1e3, "ms");
    report.push(
        "workloads.trace_ops",
        traces.iter().map(|t| t.ops).sum::<u64>() as f64 * schemes as f64,
        "count",
    );
    report.push(
        "workloads.persist_ops",
        traces.iter().map(|t| t.persists).sum::<u64>() as f64 * schemes as f64,
        "count",
    );
    report.push(
        "sim.runner.outside_engine_ms",
        traced.self_ms(REQUEST_SPAN, untraced),
        "ms",
    );
    report.push(
        "sim.runner.system_new_ms",
        times.system_new.as_secs_f64() * 1e3,
        "ms",
    );
    report.push("sim.runner.drain_ms", times.drain.as_secs_f64() * 1e3, "ms");
    report.push(
        "sim.runner.allocs_per_req",
        traced.allocs as f64 / traced_log.attempted().max(1) as f64,
        "count",
    );
    let hierarchy = layers::hierarchy_replay(traces.iter().map(|t| t.chunks.as_slice()));
    report.push(
        "cache.hierarchy.replay_ms",
        hierarchy.as_secs_f64() * 1e3 * schemes as f64,
        "ms",
    );

    let mut totals = layers::EngineTotals::default();
    let mut levels = [0u64; 4];
    for r in reference.iter().flatten() {
        totals.add(&r.engine, r.wpq, r.pcm);
        let h = r.hierarchy;
        for (sum, n) in levels
            .iter_mut()
            .zip([h.l1_hits, h.l2_hits, h.l3_hits, h.mem_accesses])
        {
            *sum += n;
        }
    }
    for (name, n) in ["l1_hits", "l2_hits", "l3_hits", "mem_accesses"]
        .iter()
        .zip(levels)
    {
        report.push(format!("cache.hierarchy.{name}"), n as f64, "count");
    }
    totals.push(&mut report);
    traced.push_common(&mut report, untraced);
    layers::push_primitives(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chunked replay must end in exactly the state one `run_trace`
    /// reaches: cycles, persists, write-latency histogram and memory
    /// traffic.
    #[test]
    fn chunked_replay_matches_run_trace() {
        for (workload, scheme) in [
            (Workload::Btree, SchemeKind::Scue),
            (Workload::Queue, SchemeKind::Plp),
            (Workload::Mcf, SchemeKind::Phoenix),
            (Workload::Lbm, SchemeKind::Baseline),
        ] {
            let trace = workload.generate(3_000, 11);
            let whole = System::new(SystemConfig::figure(scheme))
                .run_trace(&trace)
                .unwrap();
            let mut system = System::new(SystemConfig::figure(scheme));
            for piece in chunk(&trace, 257) {
                assert_eq!(system.run_until(&piece, u64::MAX), Ok(piece.ops.len()));
            }
            system.drain().unwrap();
            let chunked = system.snapshot(trace.ops.len() as u64);
            assert_eq!(
                CellKey::of(&chunked),
                CellKey::of(&whole),
                "{workload} {scheme}"
            );
            assert_eq!(chunked.engine.read_latency, whole.engine.read_latency);
        }
    }

    #[test]
    fn chunks_cover_the_trace_in_order() {
        let trace = Workload::Array.generate(500, 3);
        let chunks = chunk(&trace, 100);
        let joined: Vec<_> = chunks.iter().flat_map(|c| c.ops.iter().copied()).collect();
        assert_eq!(joined, trace.ops);
        assert!(chunks.iter().all(|c| c.ops.len() <= 100));
    }

    #[test]
    fn setup_is_a_function_of_the_seed() {
        let a = setup(Mix::Pmem, 5);
        let b = setup(Mix::Pmem, 5);
        let c = setup(Mix::Pmem, 6);
        let ops = |v: &[ChunkedTrace]| v.iter().map(|t| t.chunks.clone()).collect::<Vec<_>>();
        assert!(ops(&a) == ops(&b));
        assert!(ops(&a) != ops(&c));
    }
}
