//! Crash-point torture campaign runner.
//!
//! Samples crash cycles (uniform + persistence-boundary-biased) across
//! every scheme in the zoo, injects media faults at the crash point, and
//! holds each scheme to the differential recovery oracle its policy row
//! implies. Oracle violations
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
use scue_sim::campaign;
use scue_sim::cli::{self, Flags};
use scue_sim::torture::{CaseSpec, Torture, TortureConfig};
use std::process::ExitCode;

const BIN: &str = "scue-torture";

#[derive(Debug)]
struct Args {
    cfg: TortureConfig,
    points: usize,
    schemes: Vec<SchemeKind>,
    json_path: Option<String>,
    replay: Option<String>,
    jobs: usize,
}

fn usage() -> String {
    format!(
        "[--seed N] [--points N] [--ops N] [--eadr] [--scheme {}] [--json PATH] \
         [--strict-baseline] [--strict-windows] [--jobs N] \
         [--replay scheme:ops:crash_at:fault]",
        cli::scheme_tokens()
    )
}

/// Parses the command line against an explicit `SCUE_JOBS` value —
/// separately testable from the process-exiting wrapper.
fn parse_args_from(
    tokens: impl Iterator<Item = String>,
    env_jobs: Option<&str>,
) -> Result<Args, String> {
    let mut cfg = TortureConfig::default();
    let mut points = 200;
    let mut schemes = SchemeKind::ALL.to_vec();
    let (mut json_path, mut replay, mut jobs) = (None, None, None);
    let mut flags = Flags::new(tokens);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--seed" => cfg.seed = flags.parse(&flag)?,
            "--points" => points = flags.parse(&flag)?,
            "--ops" => cfg.ops = flags.parse(&flag)?,
            "--eadr" => cfg.eadr = true,
            "--strict-baseline" => cfg.strict_baseline = true,
            "--strict-windows" => cfg.strict_windows = true,
            "--scheme" => schemes = vec![flags.scheme(&flag)?],
            "--jobs" => jobs = Some(flags.positive(&flag)?),
            "--json" => json_path = Some(flags.value(&flag)?),
            "--replay" => replay = Some(flags.value(&flag)?),
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(Args {
        cfg,
        points,
        schemes,
        json_path,
        replay,
        jobs: cli::jobs(jobs, env_jobs)?,
    })
}

fn main() -> ExitCode {
    let args = cli::parse_or_exit(BIN, &usage(), parse_args_from);
    let torture = Torture {
        cfg: args.cfg,
        points: args.points,
    };
    if let Some(spec) = &args.replay {
        let (scheme, case) = CaseSpec::diagnose_replay(spec)
            .unwrap_or_else(|why| cli::usage_exit(BIN, &usage(), &why));
        return campaign::replay(&torture, scheme, case);
    }
    campaign::main(
        BIN,
        &torture,
        &args.schemes,
        args.jobs,
        args.json_path.as_deref(),
    )
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
