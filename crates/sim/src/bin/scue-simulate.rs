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
use scue_sim::{ReportConfig, RunReport, System, SystemConfig};
use scue_util::par;
use scue_workloads::{Trace, Workload};

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

fn usage() -> ! {
    eprintln!("usage: scue-simulate [--scheme baseline|lazy|eager|plp|bmf|scue");
    eprintln!("                       |phoenix|triad1|triad2|zuo|freij]");
    eprintln!("                     [--workload array|btree|hash|queue|rbtree|lbm|mcf|");
    eprintln!("                      libquantum|omnetpp|milc|soplex|gcc|bwaves]");
    eprintln!("                     [--ops N] [--seed N] [--hash-latency 20|40|80|160]");
    eprintln!("                     [--cores N] [--crash-at CYCLE] [--eadr] [--jobs N]");
    eprintln!("                     [--metrics-json PATH] [--trace-events PATH]");
    eprintln!("                     [--sample-interval CYCLES]");
    std::process::exit(2);
}

fn parse_workload(s: &str) -> Option<Workload> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == s.to_ascii_lowercase())
}

/// Parses the command line, naming the offending flag and value on any
/// error (separately testable from the process-exiting wrapper).
fn parse_args_from(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
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
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        fn parsed<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("invalid value for {flag}: `{v}`"))
        }
        match flag.as_str() {
            "--scheme" => {
                let v = value("--scheme")?;
                args.scheme = SchemeKind::parse(&v)
                    .ok_or_else(|| format!("invalid value for --scheme: `{v}`"))?;
            }
            "--workload" => {
                let v = value("--workload")?;
                args.workload = parse_workload(&v)
                    .ok_or_else(|| format!("invalid value for --workload: `{v}`"))?;
            }
            "--ops" => args.ops = parsed("--ops", &value("--ops")?)?,
            "--seed" => args.seed = parsed("--seed", &value("--seed")?)?,
            "--hash-latency" => {
                args.hash_latency = parsed("--hash-latency", &value("--hash-latency")?)?
            }
            "--cores" => args.cores = parsed("--cores", &value("--cores")?)?,
            "--crash-at" => args.crash_at = Some(parsed("--crash-at", &value("--crash-at")?)?),
            "--eadr" => args.eadr = true,
            "--jobs" => {
                let v = value("--jobs")?;
                let jobs: usize = parsed("--jobs", &v)?;
                if jobs == 0 {
                    return Err(format!("invalid value for --jobs: `{v}`"));
                }
                args.jobs = Some(jobs);
            }
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")?),
            "--trace-events" => args.trace_events = Some(value("--trace-events")?),
            "--sample-interval" => {
                let v = value("--sample-interval")?;
                let interval: u64 = parsed("--sample-interval", &v)?;
                if interval == 0 {
                    return Err(format!("invalid value for --sample-interval: `{v}`"));
                }
                args.sample_interval = Some(interval);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn parse_args() -> Args {
    parse_args_from(std::env::args().skip(1)).unwrap_or_else(|msg| {
        if !msg.is_empty() {
            eprintln!("scue-simulate: {msg}");
        }
        usage();
    })
}

/// Reports a mid-run engine failure — detected tampering, cache
/// exhaustion — naming the scheme, address and cycle, then exits 1.
fn die_on_error(scheme: SchemeKind, cycle: u64, err: CrashError) -> ! {
    eprintln!("scue-simulate: {scheme} stopped at cycle {cycle}: {err}");
    if let Some(integrity) = err.as_integrity() {
        eprintln!("scue-simulate: verification failed for {}", integrity.addr);
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
                "scue-simulate: warning: event ring overflowed; {dropped} oldest \
                 events were dropped (re-run with a shorter window or raise the \
                 trace capacity)"
            );
        }
    }
}

fn main() {
    let args = parse_args();
    let jobs = par::resolve_jobs(args.jobs).unwrap_or_else(|msg| {
        eprintln!("scue-simulate: {msg}");
        usage();
    });
    let mem = SecureMemConfig::paper(args.scheme)
        .with_hash_latency(args.hash_latency)
        .with_eadr(args.eadr);
    let cfg = SystemConfig {
        mem,
        ..SystemConfig::paper(args.scheme)
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
