//! Crash-point torture campaign runner.
//!
//! Samples crash cycles (uniform + persistence-boundary-biased) across
//! all six schemes, injects media faults at the crash point, and holds
//! each scheme to the differential recovery oracle. Oracle violations
//! are shrunk to a minimal `(ops, crash_at, fault)` triple and printed
//! with a replay command.
//!
//! ```text
//! scue-torture [--seed N] [--points N] [--ops N] [--eadr]
//!              [--scheme NAME] [--json PATH] [--strict-baseline]
//!              [--strict-windows] [--jobs N]
//!              [--replay scheme:ops:crash_at:fault]
//! ```
//!
//! `--jobs` (default: available parallelism, overridable via the
//! `SCUE_JOBS` environment variable) fans the campaign's crash cases
//! out over worker threads. The campaign report — and the `--json`
//! payload — is byte-identical at any job count; only the trailing
//! `provenance` object (job count, wall-clock) varies.
//!
//! Exits 0 on a clean campaign, 1 on oracle violations (or a violating
//! replay), 2 on usage errors.

use scue::SchemeKind;
use scue_sim::torture::{self, CaseSpec, TortureConfig};
use scue_util::obs::Json;
use scue_util::par;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    cfg: TortureConfig,
    points: usize,
    schemes: Vec<SchemeKind>,
    json_path: Option<String>,
    replay: Option<String>,
    jobs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: scue-torture [--seed N] [--points N] [--ops N] [--eadr] \
         [--scheme baseline|lazy|eager|plp|bmf|scue|phoenix|triad1|triad2|zuo|freij] [--json PATH] \
         [--strict-baseline] [--strict-windows] [--jobs N] \
         [--replay scheme:ops:crash_at:fault]"
    );
    std::process::exit(2);
}

/// Parses the command line against an explicit `SCUE_JOBS` value,
/// naming the offending flag (or environment variable) and value on
/// any error — separately testable from the process-exiting wrapper.
fn parse_args_from(
    mut it: impl Iterator<Item = String>,
    env_jobs: Option<&str>,
) -> Result<Args, String> {
    let mut cfg = TortureConfig::default();
    let mut points = 200usize;
    let mut schemes = SchemeKind::ALL.to_vec();
    let mut json_path = None;
    let mut replay = None;
    let mut jobs_flag: Option<usize> = None;
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        fn parsed<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("invalid value for {flag}: `{v}`"))
        }
        match flag.as_str() {
            "--seed" => cfg.seed = parsed("--seed", &value("--seed")?)?,
            "--points" => points = parsed("--points", &value("--points")?)?,
            "--ops" => cfg.ops = parsed("--ops", &value("--ops")?)?,
            "--eadr" => cfg.eadr = true,
            "--strict-baseline" => cfg.strict_baseline = true,
            "--strict-windows" => cfg.strict_windows = true,
            "--scheme" => {
                let v = value("--scheme")?;
                let scheme = SchemeKind::parse(&v)
                    .ok_or_else(|| format!("invalid value for --scheme: `{v}`"))?;
                schemes = vec![scheme];
            }
            "--jobs" => {
                let v = value("--jobs")?;
                let jobs: usize = parsed("--jobs", &v)?;
                if jobs == 0 {
                    return Err(format!("invalid value for --jobs: `{v}`"));
                }
                jobs_flag = Some(jobs);
            }
            "--json" => json_path = Some(value("--json")?),
            "--replay" => replay = Some(value("--replay")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let jobs = par::resolve_jobs_from(jobs_flag, env_jobs)?;
    Ok(Args {
        cfg,
        points,
        schemes,
        json_path,
        replay,
        jobs,
    })
}

fn parse_args() -> Args {
    let env = std::env::var(par::JOBS_ENV).ok();
    parse_args_from(std::env::args().skip(1), env.as_deref()).unwrap_or_else(|msg| {
        if !msg.is_empty() {
            eprintln!("scue-torture: {msg}");
        }
        usage();
    })
}

/// Re-runs one minimised case and reports the oracle's verdict.
/// Malformed specs are diagnosed field by field on stderr.
fn replay(spec: &str, cfg: &TortureConfig) -> ExitCode {
    let (scheme, case) = match CaseSpec::diagnose_replay(spec) {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("scue-torture: {why}");
            usage();
        }
    };
    let result = torture::run_case(scheme, cfg, case);
    println!(
        "replay {scheme} ops={} crash_at={} fault={}: {} (fault_applied={}, repaired_leaves={})",
        case.ops,
        case.crash_at,
        case.fault.name(),
        result.class.name(),
        result.fault_applied,
        result.repaired_leaves,
    );
    if !result.detail.is_empty() {
        println!("  detail: {}", result.detail);
    }
    match torture::oracle(scheme, cfg, &result) {
        Ok(()) => {
            println!("  oracle: ok");
            ExitCode::SUCCESS
        }
        Err(message) => {
            println!("  oracle: VIOLATION — {message}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(spec) = &args.replay {
        return replay(spec, &args.cfg);
    }

    let started = std::time::Instant::now();
    let report = torture::campaign_with_jobs(&args.cfg, args.points, &args.schemes, args.jobs);
    let wall_ms = started.elapsed().as_millis() as u64;
    for tally in &report.tallies {
        let outcomes: Vec<String> = tally
            .outcomes
            .iter()
            .map(|(class, n)| format!("{}={n}", class.name()))
            .collect();
        println!(
            "{:<10} cases={} faults_applied={} repaired_leaves={} violations={} [{}]",
            tally.scheme.to_string(),
            tally.cases,
            tally.faults_applied,
            tally.repaired_leaves,
            tally.violations,
            outcomes.join(" "),
        );
    }
    for tally in &report.tallies {
        if tally.history_dropped > 0 {
            eprintln!(
                "warning: {}: store history journal dropped {} pre-images \
                 (raise the cap if fault fidelity matters)",
                tally.scheme, tally.history_dropped
            );
        }
    }
    for v in &report.violations {
        eprintln!(
            "VIOLATION {}: {} (shrunk {} steps / {} evals)",
            v.scheme, v.message, v.shrink_steps, v.evals
        );
        eprintln!("  replay: {}", v.replay_command(&args.cfg));
    }
    println!("campaign wall-clock: {wall_ms} ms at --jobs {}", args.jobs);

    if let Some(path) = &args.json_path {
        // The campaign payload is byte-identical at any job count; the
        // run's provenance rides in a trailing object so tooling can
        // strip it before diffing (see scripts/verify.sh).
        let mut doc = report.to_json();
        doc.set(
            "provenance",
            Json::obj()
                .with("jobs", Json::U64(args.jobs as u64))
                .with("wall_ms", Json::U64(wall_ms)),
        );
        if let Err(e) = std::fs::write(path, doc.render_doc()) {
            eprintln!("scue-torture: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if report.total_violations() > 0 {
        eprintln!("{} oracle violation(s)", report.total_violations());
        ExitCode::FAILURE
    } else {
        println!(
            "oracle clean: {} schemes × {} points",
            report.tallies.len(),
            args.points
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str], env_jobs: Option<&str>) -> Result<Args, String> {
        parse_args_from(tokens.iter().map(|s| s.to_string()), env_jobs)
    }

    #[test]
    fn defaults_parse_clean() {
        let args = parse(&[], None).unwrap();
        assert_eq!(args.points, 200);
        assert_eq!(args.schemes, SchemeKind::ALL.to_vec());
        assert!(args.jobs >= 1);
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(
            &[
                "--seed",
                "9",
                "--points",
                "50",
                "--ops",
                "80",
                "--eadr",
                "--strict-baseline",
                "--strict-windows",
                "--scheme",
                "scue",
                "--jobs",
                "4",
                "--json",
                "out.json",
            ],
            None,
        )
        .unwrap();
        assert_eq!(args.cfg.seed, 9);
        assert_eq!(args.points, 50);
        assert_eq!(args.cfg.ops, 80);
        assert!(args.cfg.eadr);
        assert!(args.cfg.strict_baseline);
        assert!(args.cfg.strict_windows);
        assert_eq!(args.schemes, vec![SchemeKind::Scue]);
        assert_eq!(args.jobs, 4);
        assert_eq!(args.json_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn bad_jobs_values_name_the_flag_and_value() {
        for bad in ["0", "four", "", "-1", "2.5"] {
            let err = parse(&["--jobs", bad], None).unwrap_err();
            assert!(err.contains("--jobs"), "{err:?}");
            assert!(err.contains(&format!("`{bad}`")), "{err:?}");
        }
    }

    #[test]
    fn env_jobs_applies_and_flag_wins() {
        assert_eq!(parse(&[], Some("6")).unwrap().jobs, 6);
        assert_eq!(parse(&["--jobs", "2"], Some("6")).unwrap().jobs, 2);
    }

    #[test]
    fn bad_env_jobs_is_an_error_even_when_the_flag_wins() {
        for bad in ["0", "lots", ""] {
            let err = parse(&[], Some(bad)).unwrap_err();
            assert!(err.contains("SCUE_JOBS"), "{err:?}");
            assert!(err.contains(&format!("`{bad}`")), "{err:?}");
            // A conflicting garbled override still errors with the flag set.
            let err2 = parse(&["--jobs", "3"], Some(bad)).unwrap_err();
            assert_eq!(err, err2);
        }
    }

    #[test]
    fn bad_values_name_the_flag_and_value() {
        for (tokens, flag, value) in [
            (vec!["--seed", "x"], "--seed", "x"),
            (vec!["--points", "-1"], "--points", "-1"),
            (vec!["--ops", "1.5"], "--ops", "1.5"),
            (vec!["--scheme", "mercury"], "--scheme", "mercury"),
        ] {
            let err = parse(&tokens, None).unwrap_err();
            assert!(err.contains(flag), "{err:?} must name {flag}");
            assert!(
                err.contains(&format!("`{value}`")),
                "{err:?} must show `{value}`"
            );
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        assert!(parse(&["--points"], None).unwrap_err().contains("--points"));
        assert!(parse(&["--frobnicate"], None)
            .unwrap_err()
            .contains("--frobnicate"));
    }
}
