//! Observability overhead guard: proves the everything-off cost of the
//! instrumentation is under 3% of the persist path.
//!
//! Three instrumentation layers ride the hot path, all compiled in and
//! all off by default: event-trace record sites, span-profiler enter
//! sites, and the counting global allocator's probes. Disabled, each
//! site costs one relaxed atomic load and a branch. The guard measures
//! the disabled per-site costs directly, multiplies each by the
//! *measured* number of times a persist hits that site (counted on an
//! instrumented run — the same sites fire either way), sums the three
//! taxes and compares against the measured wall-clock cost of one
//! persist. Exits non-zero if the projected overhead reaches 3%, so CI
//! can hold the "cheap by default" contract.
//!
//! The allocator probe's disabled branch cannot be timed in isolation
//! (the counting allocator is always installed), so its per-event cost
//! is taken from the measured disabled span-enter cost — the identical
//! shape: one relaxed load, not-taken branch — applied to both the
//! alloc and the free probe of every allocation event.

use scue::{SchemeKind, SecureMemConfig, SecureMemory};
use scue_nvm::LineAddr;
use scue_util::obs::{alloc, span, EventKind, EventTrace};
use std::hint::black_box;
use std::time::Instant;

/// The contract from the design docs: observability off must cost <3%.
const MAX_OVERHEAD_PCT: f64 = 3.0;

/// Runs `persists` persist operations on a fresh SCUE engine,
/// returning the engine and wall-clock nanoseconds spent.
fn run_persists(persists: u64, tracing: bool) -> (SecureMemory, f64) {
    let mut mem = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
    if tracing {
        mem.enable_tracing(1 << 20);
    }
    let mut now = 0;
    let start = Instant::now();
    for i in 0..persists {
        now = mem
            .persist_data(LineAddr::new((i * 97) % 4096), [i as u8; 64], now)
            .expect("clean persist run");
    }
    (mem, start.elapsed().as_nanos() as f64)
}

fn main() {
    // 1. Cost of one event-trace site when tracing is off: a call into
    //    the disabled ring buffer.
    let mut trace = EventTrace::disabled();
    let calls: u64 = 50_000_000;
    let start = Instant::now();
    for i in 0..calls {
        trace.record(
            i,
            black_box(EventKind::PersistComplete {
                addr: i % 4096,
                latency: i,
            }),
        );
    }
    let disabled_record_ns = start.elapsed().as_nanos() as f64 / calls as f64;
    assert_eq!(trace.recorded(), 0, "disabled trace must record nothing");

    // 2. Cost of one span-enter site when the profiler is off: one
    //    relaxed load and an inert guard.
    assert!(!span::is_enabled(), "span profiling must default to off");
    let start = Instant::now();
    for _ in 0..calls {
        // The exact shape of a production site: enter with a live
        // guard dropped at scope end, nothing black-boxed in between.
        let _guard = span::enter(black_box("engine.request"));
    }
    let disabled_enter_ns = start.elapsed().as_nanos() as f64 / calls as f64;
    assert!(
        span::take_thread_profile().is_empty(),
        "disabled spans must record nothing"
    );

    // 3. Per-persist site counts, measured on a fully instrumented run.
    let persists: u64 = 50_000;
    let (traced, _) = run_persists(persists, true);
    let events_per_persist = traced.trace().recorded() as f64 / persists as f64;

    span::set_enabled(true);
    span::reset_thread();
    alloc::set_enabled(true);
    alloc::reset_thread_counts();
    let _ = run_persists(persists, false);
    alloc::set_enabled(false);
    span::set_enabled(false);
    let (allocs, _) = alloc::thread_counts();
    let profile = span::take_thread_profile();
    let span_calls: u64 = profile.iter().map(|(_, _, s)| s.calls).sum();
    let spans_per_persist = span_calls as f64 / persists as f64;
    let allocs_per_persist = allocs as f64 / persists as f64;

    // 4. Wall-clock cost of one persist with everything off (default).
    let (_, total_ns) = run_persists(persists, false);
    let persist_ns = total_ns / persists as f64;

    let trace_tax = disabled_record_ns * events_per_persist;
    let span_tax = disabled_enter_ns * spans_per_persist;
    // Alloc + free probe per allocation event, branch cost proxied by
    // the measured disabled span enter (same shape).
    let alloc_tax = disabled_enter_ns * 2.0 * allocs_per_persist;
    let projected_ns = trace_tax + span_tax + alloc_tax;
    let overhead_pct = projected_ns / persist_ns * 100.0;

    println!("observability overhead guard (tracing, spans, alloc counting all off)");
    println!("---------------------------------------------------------------------");
    println!("disabled record call:    {disabled_record_ns:.3} ns");
    println!("disabled span enter:     {disabled_enter_ns:.3} ns");
    println!("events per persist:      {events_per_persist:.1}");
    println!("spans per persist:       {spans_per_persist:.1}");
    println!("allocs per persist:      {allocs_per_persist:.1}");
    println!("persist cost:            {persist_ns:.1} ns");
    println!(
        "projected off tax:       {projected_ns:.2} ns ({overhead_pct:.3}%) \
         = trace {trace_tax:.2} + spans {span_tax:.2} + alloc {alloc_tax:.2}"
    );
    println!("budget:                  {MAX_OVERHEAD_PCT:.1}%");

    if overhead_pct >= MAX_OVERHEAD_PCT {
        eprintln!(
            "FAIL: observability-off overhead {overhead_pct:.3}% breaches the {MAX_OVERHEAD_PCT}% budget"
        );
        std::process::exit(1);
    }
    println!("OK: under budget");
}
