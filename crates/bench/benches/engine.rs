//! Benchmarks of the secure-memory engine itself: persists and reads
//! per scheme, plus full counter-summing recovery throughput. Runs on
//! the in-repo `scue_util::bench` harness; JSON lands in
//! `results/bench_engine.json`.

use scue::{SchemeKind, SecureMemConfig, SecureMemory};
use scue_nvm::LineAddr;
use scue_util::bench::{black_box, BatchSize, BenchRunner};

fn bench_persist(c: &mut BenchRunner) {
    let mut group = c.benchmark_group("persist_data");
    for scheme in SchemeKind::ALL {
        group.bench_with_input(scheme.policy().name, &scheme, |b, &scheme| {
            let mut mem = SecureMemory::new(SecureMemConfig::small_test(scheme));
            let mut now = 0u64;
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % 4096;
                now = mem
                    .persist_data(LineAddr::new(black_box(i)), [i as u8; 64], now)
                    .expect("clean run");
            })
        });
    }
    group.finish();
}

fn bench_read(c: &mut BenchRunner) {
    let mut group = c.benchmark_group("read_data");
    for scheme in [SchemeKind::Baseline, SchemeKind::Lazy, SchemeKind::Scue] {
        group.bench_with_input(scheme.policy().name, &scheme, |b, &scheme| {
            let mut mem = SecureMemory::new(SecureMemConfig::small_test(scheme));
            let mut now = 0u64;
            for i in 0..4096u64 {
                now = mem
                    .persist_data(LineAddr::new(i), [i as u8; 64], now)
                    .expect("clean run");
            }
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % 4096;
                let (_, done) = mem
                    .read_data(LineAddr::new(black_box(i)), now)
                    .expect("clean run");
                now = done;
            })
        });
    }
    group.finish();
}

fn bench_recovery(c: &mut BenchRunner) {
    let mut group = c.benchmark_group("counter_summing_recovery");
    group.sample_size(20);
    for leaves_touched in [64u64, 512, 2048] {
        group.bench_with_input(leaves_touched, &leaves_touched, |b, &n| {
            // Populate once; recover from a snapshot each iteration.
            let mut mem = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
            let mut now = 0u64;
            // small_test geometry has 64 leaves; touch lines so that
            // roughly `n` writes spread over all of them.
            for i in 0..n {
                now = mem
                    .persist_data(LineAddr::new((i * 64) % 4096), [i as u8; 64], now)
                    .expect("clean run");
            }
            mem.crash(now);
            b.iter_batched(
                || mem.clone(),
                |mut m| {
                    let report = m.recover();
                    assert!(report.outcome.is_success());
                    black_box(report.metadata_fetches)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn main() {
    let mut runner = BenchRunner::new("engine");
    bench_persist(&mut runner);
    bench_read(&mut runner);
    bench_recovery(&mut runner);
    runner.finish();
}
