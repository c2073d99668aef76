//! `scue-profile` — self-profile the secure-memory engine: run a seeded
//! workload per scheme under the span profiler and report where the
//! time and the allocations go.
//!
//! ```text
//! scue-profile [--scheme SCHEME]... [--ops N] [--seed N] [--jobs N]
//!              [--clock virtual|monotonic] [--top N]
//!              [--json PATH] [--chrome-trace PATH]
//! ```
//!
//! Prints a top-N self-time table aggregated across the profiled
//! schemes and a per-scheme coverage summary. `--json` writes the
//! versioned `kind:"scue-profile"` document; `--chrome-trace` writes a
//! Chrome trace-event file loadable in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`.
//!
//! The default clock is `monotonic` (real nanoseconds — the numbers to
//! read before optimizing). `--clock virtual` swaps in a deterministic
//! per-thread tick clock: durations then count span boundaries instead
//! of wall time, but the document is byte-identical at any `--jobs`
//! count (only the trailing `provenance` object varies), which is what
//! the determinism gate in `scripts/verify.sh` and the golden test in
//! `tests/par_determinism.rs` rely on.

use scue::SchemeKind;
use scue_sim::cli::{self, Flags};
use scue_sim::profile::{self, ProfileConfig};
use scue_util::obs::span::Clock;

const BIN: &str = "scue-profile";

#[derive(Debug)]
struct Args {
    schemes: Vec<SchemeKind>,
    ops: u64,
    seed: u64,
    jobs: Option<usize>,
    clock: Clock,
    top: usize,
    json: Option<String>,
    chrome_trace: Option<String>,
}

fn usage() -> String {
    format!(
        "[--scheme {}]...
                    [--ops N] [--seed N] [--jobs N]
                    [--clock virtual|monotonic] [--top N]
                    [--json PATH] [--chrome-trace PATH]",
        cli::scheme_tokens()
    )
}

/// Parses the command line, naming the offending flag and value on any
/// error (separately testable from the process-exiting wrapper). The
/// job count stays unresolved until [`cli::jobs`] sees `SCUE_JOBS`.
fn parse_args_from(tokens: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        schemes: Vec::new(),
        ops: 300,
        seed: 7,
        jobs: None,
        clock: Clock::Monotonic,
        top: 12,
        json: None,
        chrome_trace: None,
    };
    let mut flags = Flags::new(tokens);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--scheme" => args.schemes.push(flags.scheme(&flag)?),
            "--ops" => args.ops = flags.positive(&flag)?,
            "--seed" => args.seed = flags.parse(&flag)?,
            "--jobs" => args.jobs = Some(flags.positive(&flag)?),
            "--clock" => {
                args.clock = match flags.value(&flag)?.as_str() {
                    "virtual" => Clock::Virtual,
                    "monotonic" => Clock::Monotonic,
                    v => return Err(cli::invalid(&flag, v)),
                };
            }
            "--top" => args.top = flags.positive(&flag)?,
            "--json" => args.json = Some(flags.value(&flag)?),
            "--chrome-trace" => args.chrome_trace = Some(flags.value(&flag)?),
            other => return Err(cli::unknown(other)),
        }
    }
    if args.schemes.is_empty() {
        args.schemes = SchemeKind::ALL.to_vec();
    }
    Ok(args)
}

fn write_file(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("{BIN}: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let (args, jobs) = cli::parse_or_exit(BIN, &usage(), |tokens, env_jobs| {
        let args = parse_args_from(tokens)?;
        let jobs = cli::jobs(args.jobs, env_jobs)?;
        Ok((args, jobs))
    });
    let cfg = ProfileConfig {
        schemes: args.schemes.clone(),
        ops: args.ops,
        seed: args.seed,
        clock: args.clock,
    };
    let started = std::time::Instant::now();
    let results = profile::run(&cfg, jobs);
    let wall_ms = started.elapsed().as_millis() as u64;

    let unit = match args.clock {
        Clock::Monotonic => "ns",
        Clock::Virtual => "ticks",
    };
    println!(
        "scue-profile: {} scheme(s), {} ops each, {} clock",
        results.len(),
        cfg.ops,
        cfg.clock.name()
    );
    println!();
    println!("scheme      coverage   recovered   allocs      alloc KiB");
    for r in &results {
        println!(
            "{:<11} {:>7.1}%   {:<9}   {:<9}   {:.1}",
            r.scheme.policy().name,
            r.coverage_pct(),
            if r.recovered { "yes" } else { "no" },
            r.thread_allocs,
            r.thread_bytes as f64 / 1024.0
        );
    }
    println!();
    println!("top {} spans by aggregate self time ({unit}):", args.top);
    println!(
        "{:<16} {:>10} {:>14} {:>14} {:>10} {:>12}",
        "span", "calls", "total", "self", "allocs", "alloc bytes"
    );
    for (name, stats) in profile::aggregate(&results)
        .self_time_ranking()
        .into_iter()
        .take(args.top)
    {
        println!(
            "{:<16} {:>10} {:>14} {:>14} {:>10} {:>12}",
            name, stats.calls, stats.total_ns, stats.self_ns, stats.allocs, stats.alloc_bytes
        );
    }

    let provenance = cli::provenance(jobs, wall_ms);
    if let Some(path) = &args.json {
        let doc = profile::to_doc(&cfg, &results).with("provenance", provenance.clone());
        write_file(path, &doc.render_doc());
        println!();
        println!("profile json:  {path}");
    }
    if let Some(path) = &args.chrome_trace {
        let doc = profile::to_chrome_trace(&cfg, &results).with("provenance", provenance);
        write_file(path, &doc.render_doc());
        println!("chrome trace:  {path} (open in ui.perfetto.dev)");
    }
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
        assert_eq!(args.schemes, SchemeKind::ALL.to_vec());
        assert_eq!((args.ops, args.seed, args.top), (300, 7, 12));
        assert_eq!(args.clock, Clock::Monotonic);
        assert_eq!(args.jobs, None);
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(&[
            "--scheme",
            "scue",
            "--scheme",
            "Phoenix",
            "--ops",
            "50",
            "--seed",
            "9",
            "--jobs",
            "3",
            "--clock",
            "virtual",
            "--top",
            "4",
            "--json",
            "p.json",
            "--chrome-trace",
            "c.json",
        ])
        .unwrap();
        assert_eq!(args.schemes, vec![SchemeKind::Scue, SchemeKind::Phoenix]);
        assert_eq!((args.ops, args.seed, args.top), (50, 9, 4));
        assert_eq!(args.jobs, Some(3));
        assert_eq!(args.clock, Clock::Virtual);
        assert_eq!(args.json.as_deref(), Some("p.json"));
        assert_eq!(args.chrome_trace.as_deref(), Some("c.json"));
    }

    #[test]
    fn bad_values_name_the_flag_and_value() {
        for (tokens, flag, value) in [
            (vec!["--scheme", "mercury"], "--scheme", "mercury"),
            (vec!["--ops", "0"], "--ops", "0"),
            (vec!["--seed", "x"], "--seed", "x"),
            (vec!["--clock", "sundial"], "--clock", "sundial"),
            (vec!["--top", "0"], "--top", "0"),
            (vec!["--jobs", "0"], "--jobs", "0"),
        ] {
            let err = parse(&tokens).unwrap_err();
            assert!(err.contains(flag), "{err:?} must name {flag}");
            assert!(
                err.contains(&format!("`{value}`")),
                "{err:?} must show `{value}`"
            );
        }
    }
}
