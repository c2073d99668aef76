//! `bench_trajectory` — emits the committed perf-trajectory document
//! (`BENCH_<pr>.json` at the repo root).
//!
//! Each PR that touches the hot path re-runs this bin and commits the
//! resulting snapshot; `scripts/verify.sh` then compares the newest
//! snapshot against its predecessor with `scue-check-metrics
//! --compare-trajectory` and fails the build on a regression beyond the
//! documented tolerances (DESIGN.md §12). The document records, per
//! scheme, the engine-loop throughput and the allocation cost per
//! operation, plus medians for the key primitives the request path
//! spends its time in.
//!
//! ```text
//! bench_trajectory [--out PATH]
//! ```
//!
//! Scale knobs: `SCUE_BENCH_OPS` (engine ops per sample, default 8000)
//! and `SCUE_BENCH_SAMPLES` (median-of-N, default 5); a value that is
//! not a positive integer exits 2, naming the variable. Measurements run
//! strictly serially — a timing snapshot fanned out over workers would
//! measure scheduler contention, not the engine.

use scue::{SchemeKind, SecureMemConfig, SecureMemory};
use scue_crypto::cme::{one_time_pad, CounterBlock};
use scue_crypto::hmac::data_line_hmac;
use scue_crypto::SecretKey;
use scue_nvm::LineAddr;
use scue_sim::cli::{self, Flags};
use scue_util::obs::{alloc, Json};
use std::hint::black_box;
use std::time::Instant;

/// Schema version stamped into every trajectory document.
const TRAJECTORY_SCHEMA_VERSION: u64 = 1;
/// The `kind` tag `scue-check-metrics` dispatches on.
const TRAJECTORY_DOC_KIND: &str = "scue-bench-trajectory";
/// The PR this snapshot belongs to; names the default output file.
const PR: u64 = 7;

const BIN: &str = "bench_trajectory";
const SYNOPSIS: &str = "[--out PATH]";

/// Environment variable `name` as a positive count, or `default` when
/// unset; any other value exits 2 with the usage line.
fn env_count(name: &str, default: u64) -> u64 {
    let raw = std::env::var(name).ok();
    cli::env_value(name, raw.as_deref(), default, |&n| n > 0)
        .unwrap_or_else(|msg| cli::usage_exit(BIN, SYNOPSIS, &msg))
}

/// Runs the engine loop once on a fresh engine: one persist per op,
/// with a read-back every fourth op. Returns wall nanoseconds.
fn engine_loop(scheme: SchemeKind, ops: u64) -> f64 {
    let mut mem = SecureMemory::new(SecureMemConfig::small_test(scheme));
    let mut now = 0;
    let start = Instant::now();
    for i in 0..ops {
        let addr = LineAddr::new((i * 97) % 4096);
        now = mem
            .persist_data(addr, [i as u8; 64], now)
            .expect("clean trajectory run");
        if i % 4 == 3 {
            let (line, t) = mem.read_data(addr, now).expect("clean trajectory read");
            black_box(line);
            now = t;
        }
    }
    start.elapsed().as_nanos() as f64
}

/// Allocation cost of the same loop, counted by the global allocator:
/// (allocation events per op, bytes allocated per op).
fn engine_allocs(scheme: SchemeKind, ops: u64) -> (f64, f64) {
    alloc::set_enabled(true);
    alloc::reset_thread_counts();
    black_box(engine_loop(scheme, ops));
    let (allocs, bytes) = alloc::thread_counts();
    alloc::set_enabled(false);
    (allocs as f64 / ops as f64, bytes as f64 / ops as f64)
}

/// Median of a sample vector (averages the middle pair when even).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Times `f` over `iters` calls, `samples` times, and returns the
/// median per-call nanoseconds.
fn primitive_median(samples: u64, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut per_call)
}

fn main() {
    let out = cli::parse_or_exit(BIN, SYNOPSIS, |tokens, _| {
        let mut out = format!("BENCH_{PR}.json");
        let mut flags = Flags::new(tokens);
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--out" => out = flags.value(&flag)?,
                other => return Err(cli::unknown(other)),
            }
        }
        Ok(out)
    });

    let ops = env_count("SCUE_BENCH_OPS", 8_000);
    let samples = env_count("SCUE_BENCH_SAMPLES", 5);
    let started = Instant::now();

    println!("perf trajectory snapshot (PR {PR})");
    println!("---------------------------------");
    println!("engine loop: {ops} ops/sample, median of {samples} samples");
    println!();

    // Engine-loop throughput and allocation cost, per scheme, serially.
    println!(
        "{:<11} {:>12} {:>12} {:>14}",
        "scheme", "ops/s", "allocs/op", "bytes/op"
    );
    let mut engine_rows = Vec::new();
    for scheme in SchemeKind::ALL {
        let mut rates: Vec<f64> = (0..samples)
            .map(|_| ops as f64 / engine_loop(scheme, ops) * 1e9)
            .collect();
        let ops_per_sec = median(&mut rates);
        let (allocs_per_op, bytes_per_op) = engine_allocs(scheme, ops);
        println!(
            "{:<11} {:>12.0} {:>12.2} {:>14.1}",
            scheme.policy().name,
            ops_per_sec,
            allocs_per_op,
            bytes_per_op
        );
        engine_rows.push(
            Json::obj()
                .with("scheme", Json::Str(scheme.policy().name.to_string()))
                .with("ops_per_sec", Json::F64(ops_per_sec))
                .with("allocs_per_op", Json::F64(allocs_per_op))
                .with("alloc_bytes_per_op", Json::F64(bytes_per_op)),
        );
    }

    // Key primitive medians: the spans the profiler attributes the
    // engine's self time to.
    let key = SecretKey::from_seed(1);
    let line = [0xA5u8; 64];
    let iters = 200_000;
    let block = CounterBlock::new();
    let encoded = block.to_line();
    let prims = [
        (
            "hmac.compute",
            primitive_median(samples, iters, |i| {
                black_box(data_line_hmac(&key, i, &line, i));
            }),
        ),
        (
            "codec.encode",
            primitive_median(samples, iters, |_| {
                black_box(block.to_line());
            }),
        ),
        (
            "codec.decode",
            primitive_median(samples, iters, |_| {
                black_box(CounterBlock::from_line(&encoded));
            }),
        ),
        (
            "cme.pad",
            primitive_median(samples, iters, |i| {
                black_box(one_time_pad(&key, i, i, (i % 64) as u8));
            }),
        ),
    ];
    println!();
    println!("{:<16} {:>12}", "primitive", "median ns");
    for (name, ns) in &prims {
        println!("{name:<16} {ns:>12.2}");
    }

    let doc = Json::obj()
        .with("schema_version", Json::U64(TRAJECTORY_SCHEMA_VERSION))
        .with("kind", Json::Str(TRAJECTORY_DOC_KIND.to_string()))
        .with("pr", Json::U64(PR))
        .with("engine_ops", Json::U64(ops))
        .with("samples", Json::U64(samples))
        .with("engine", Json::Arr(engine_rows))
        .with(
            "primitives",
            Json::Arr(
                prims
                    .iter()
                    .map(|(name, ns)| {
                        Json::obj()
                            .with("name", Json::Str(name.to_string()))
                            .with("median_ns", Json::F64(*ns))
                    })
                    .collect(),
            ),
        )
        .with(
            "provenance",
            cli::provenance(1, started.elapsed().as_millis() as u64),
        );
    if let Err(e) = std::fs::write(&out, doc.render_doc()) {
        eprintln!("bench_trajectory: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!();
    println!("wrote {out}");
}
