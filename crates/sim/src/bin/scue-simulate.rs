//! `scue-simulate` — run any workload under any scheme from the command
//! line, with optional crash/recovery, multi-core fan-out and
//! machine-readable metrics export.
//!
//! ```text
//! scue-simulate [--scheme SCHEME] [--workload NAME] [--ops N]
//!               [--seed N] [--hash-latency CYC] [--cores N]
//!               [--crash-at CYCLE] [--eadr] [--jobs N]
//!               [--metrics-json PATH] [--trace-events PATH]
//!               [--sample-interval CYCLES]
//! ```
//!
//! `--jobs` (default: available parallelism, `SCUE_JOBS` overridable)
//! fans per-core trace generation out over worker threads; each core's
//! trace is a pure function of `seed + core`, so the run is
//! byte-identical at any job count.

use scue::{CrashError, SchemeKind, SecureMemConfig};
use scue_sim::cli::{self, Flags};
use scue_sim::{ReportConfig, RunReport, System, SystemConfig};
use scue_util::par;
use scue_workloads::{Trace, Workload};

const BIN: &str = "scue-simulate";

/// Default epoch length when sampling is on but no interval was given.
const DEFAULT_SAMPLE_INTERVAL: u64 = 10_000;

/// Event ring-buffer capacity when `--trace-events` is set.
const TRACE_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct Args {
    scheme: SchemeKind,
    workload: Workload,
    ops: usize,
    seed: u64,
    hash_latency: u64,
    cores: usize,
    crash_at: Option<u64>,
    eadr: bool,
    jobs: Option<usize>,
    metrics_json: Option<String>,
    trace_events: Option<String>,
    sample_interval: Option<u64>,
}

fn usage() -> String {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "[--scheme {}]
                     [--workload {}]
                     [--ops N] [--seed N] [--hash-latency 20|40|80|160]
                     [--cores N] [--crash-at CYCLE] [--eadr] [--jobs N]
                     [--metrics-json PATH] [--trace-events PATH]
                     [--sample-interval CYCLES]",
        cli::scheme_tokens(),
        workloads.join("|")
    )
}

fn parse_workload(s: &str) -> Option<Workload> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == s.to_ascii_lowercase())
}

/// Parses the command line, naming the offending flag and value on any
/// error (separately testable from the process-exiting wrapper). The
/// job count stays unresolved until [`cli::jobs`] sees `SCUE_JOBS`.
fn parse_args_from(tokens: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scheme: SchemeKind::Scue,
        workload: Workload::Btree,
        ops: 20_000,
        seed: 1,
        hash_latency: 40,
        cores: 1,
        crash_at: None,
        eadr: false,
        jobs: None,
        metrics_json: None,
        trace_events: None,
        sample_interval: None,
    };
    let mut flags = Flags::new(tokens);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--scheme" => args.scheme = flags.scheme(&flag)?,
            "--workload" => {
                let v = flags.value(&flag)?;
                args.workload = parse_workload(&v).ok_or_else(|| cli::invalid(&flag, &v))?;
            }
            "--ops" => args.ops = flags.parse(&flag)?,
            "--seed" => args.seed = flags.parse(&flag)?,
            "--hash-latency" => args.hash_latency = flags.positive(&flag)?,
            "--cores" => args.cores = flags.positive(&flag)?,
            "--crash-at" => args.crash_at = Some(flags.parse(&flag)?),
            "--eadr" => args.eadr = true,
            "--jobs" => args.jobs = Some(flags.positive(&flag)?),
            "--metrics-json" => args.metrics_json = Some(flags.value(&flag)?),
            "--trace-events" => args.trace_events = Some(flags.value(&flag)?),
            "--sample-interval" => args.sample_interval = Some(flags.positive(&flag)?),
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(args)
}

/// Reports a mid-run engine failure — detected tampering, cache
/// exhaustion — naming the scheme, address and cycle, then exits 1.
fn die_on_error(scheme: SchemeKind, cycle: u64, err: CrashError) -> ! {
    eprintln!("{BIN}: {scheme} stopped at cycle {cycle}: {err}");
    if let Some(integrity) = err.as_integrity() {
        eprintln!("{BIN}: verification failed for {}", integrity.addr);
    }
    std::process::exit(1);
}

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Emits the metrics JSON and/or event-trace JSON files, as requested.
fn export(args: &Args, system: &System, report: &RunReport) {
    if let Some(path) = &args.metrics_json {
        write_file(path, &report.render());
        println!("metrics json:      {path}");
    }
    if let Some(path) = &args.trace_events {
        write_file(path, &system.engine().trace().to_json().render_doc());
        let dropped = system.engine().trace().dropped();
        println!(
            "event trace:       {path} ({} recorded, {dropped} dropped_events)",
            system.engine().trace().recorded(),
        );
        if dropped > 0 {
            eprintln!(
                "{BIN}: warning: event ring overflowed; {dropped} oldest \
                 events were dropped (re-run with a shorter window or raise the \
                 trace capacity)"
            );
        }
    }
}

fn main() {
    let (args, jobs) = cli::parse_or_exit(BIN, &usage(), |tokens, env_jobs| {
        let args = parse_args_from(tokens)?;
        let jobs = cli::jobs(args.jobs, env_jobs)?;
        Ok((args, jobs))
    });
    let mem = SecureMemConfig::paper(args.scheme)
        .with_hash_latency(args.hash_latency)
        .with_eadr(args.eadr);
    let cfg = SystemConfig {
        mem,
        ..SystemConfig::figure(args.scheme)
    }
    .with_cores(args.cores);
    let mut system = System::new(cfg);
    if let Some(interval) = args
        .sample_interval
        .or(args.metrics_json.as_ref().map(|_| DEFAULT_SAMPLE_INTERVAL))
    {
        system.set_sample_interval(interval);
    }
    if args.trace_events.is_some() {
        system.enable_tracing(TRACE_CAPACITY);
    }
    let report_config = ReportConfig {
        scheme: args.scheme,
        workload: args.workload,
        ops: args.ops as u64,
        seed: args.seed,
        cores: args.cores as u64,
        hash_latency: args.hash_latency,
        eadr: args.eadr,
        jobs: jobs as u64,
    };

    println!(
        "scheme {} | workload {} | {} ops x {} core(s) | hash {} cyc | eadr {}",
        args.scheme, args.workload, args.ops, args.cores, args.hash_latency, args.eadr
    );

    if let Some(stop) = args.crash_at {
        let trace = args.workload.generate(args.ops, args.seed);
        let consumed = match system.run_until(&trace, stop) {
            Ok(consumed) => consumed,
            Err(e) => die_on_error(args.scheme, system.now(), e),
        };
        println!("crash at cycle {} after {consumed} ops", system.now());
        system.crash();
        let recovery = system.engine_mut().recover();
        println!(
            "recovery: {:?} ({} leaves, {} fetches, {:.3} ms modelled)",
            recovery.outcome,
            recovery.leaves_checked,
            recovery.metadata_fetches,
            recovery.modelled_ns as f64 / 1e6
        );
        let phases = recovery.phases;
        println!(
            "  phases: scan {} / counter-summing {} / re-hash {} fetches",
            phases.scan_fetches, phases.summing_fetches, phases.rehash_fetches
        );
        let report = RunReport {
            config: report_config,
            result: system.snapshot(consumed as u64),
            recovery: Some(recovery),
        };
        export(&args, &system, &report);
        std::process::exit(if recovery.outcome.is_success() { 0 } else { 1 });
    }

    let cores: Vec<usize> = (0..args.cores).collect();
    let traces: Vec<Trace> = par::run_indexed(jobs, &cores, |_, &i, _| {
        args.workload.generate(args.ops, args.seed + i as u64)
    });
    let result = match system.run_traces(&traces) {
        Ok(result) => result,
        Err(e) => die_on_error(args.scheme, system.now(), e),
    };
    println!("cycles:            {}", result.cycles);
    println!("ops replayed:      {}", result.ops);
    println!("persists:          {}", result.engine.persists);
    let wl = &result.engine.write_latency;
    println!(
        "write lat:         mean {:.1} / p50 {} / p95 {} / p99 {} / max {} cyc",
        wl.mean(),
        wl.p50(),
        wl.p95(),
        wl.p99(),
        wl.max()
    );
    let rl = &result.engine.read_latency;
    println!(
        "read lat:          mean {:.1} / p50 {} / p95 {} / p99 {} cyc",
        rl.mean(),
        rl.p50(),
        rl.p95(),
        rl.p99()
    );
    println!(
        "memory accesses:   {} user ({} r / {} w), {} metadata ({} r / {} w)",
        result.engine.mem.user_reads + result.engine.mem.user_writes,
        result.engine.mem.user_reads,
        result.engine.mem.user_writes,
        result.engine.mem.metadata_total(),
        result.engine.mem.meta_reads,
        result.engine.mem.meta_writes
    );
    println!("hmacs computed:    {}", result.engine.hashes);
    println!(
        "mdcache:           {} hits / {} misses / {} fills ({:.1}% hit rate)",
        result.engine.mdcache.hits,
        result.engine.mdcache.misses,
        result.engine.mdcache.fills,
        result.engine.mdcache.hit_rate() * 100.0
    );
    println!("counter overflows: {}", result.engine.overflows);
    let report = RunReport {
        config: report_config,
        result,
        recovery: None,
    };
    export(&args, &system, &report);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        parse_args_from(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_parse_clean() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.scheme, SchemeKind::Scue);
        assert_eq!(args.ops, 20_000);
        assert_eq!(args.crash_at, None);
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(&[
            "--scheme",
            "plp",
            "--workload",
            "queue",
            "--ops",
            "500",
            "--seed",
            "9",
            "--hash-latency",
            "80",
            "--cores",
            "2",
            "--crash-at",
            "12345",
            "--eadr",
            "--sample-interval",
            "1000",
            "--jobs",
            "3",
        ])
        .unwrap();
        assert_eq!(args.scheme, SchemeKind::Plp);
        assert_eq!(args.workload, Workload::Queue);
        assert_eq!(args.ops, 500);
        assert_eq!(args.seed, 9);
        assert_eq!(args.hash_latency, 80);
        assert_eq!(args.cores, 2);
        assert_eq!(args.crash_at, Some(12345));
        assert!(args.eadr);
        assert_eq!(args.sample_interval, Some(1000));
        assert_eq!(args.jobs, Some(3));
    }

    #[test]
    fn jobs_defaults_to_unset_so_env_and_parallelism_apply() {
        assert_eq!(parse(&[]).unwrap().jobs, None);
    }

    #[test]
    fn bad_values_name_the_flag_and_value() {
        for (tokens, flag, value) in [
            (vec!["--ops", "abc"], "--ops", "abc"),
            (vec!["--seed", "-3"], "--seed", "-3"),
            (vec!["--crash-at", "1e9"], "--crash-at", "1e9"),
            (vec!["--cores", ""], "--cores", ""),
            (vec!["--cores", "0"], "--cores", "0"),
            (vec!["--hash-latency", "0"], "--hash-latency", "0"),
            (vec!["--scheme", "mercury"], "--scheme", "mercury"),
            (vec!["--workload", "nope"], "--workload", "nope"),
            (vec!["--sample-interval", "0"], "--sample-interval", "0"),
            (vec!["--jobs", "0"], "--jobs", "0"),
            (vec!["--jobs", "four"], "--jobs", "four"),
        ] {
            let err = parse(&tokens).unwrap_err();
            assert!(err.contains(flag), "{err:?} must name {flag}");
            assert!(
                err.contains(&format!("`{value}`")),
                "{err:?} must show `{value}`"
            );
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        assert!(parse(&["--ops"]).unwrap_err().contains("--ops"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
    }
}
