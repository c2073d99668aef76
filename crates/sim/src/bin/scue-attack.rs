//! Seeded attack-campaign runner.
//!
//! Injects replay / rollback / splice / dummy-counter tampering into a
//! running [`scue::SecureMemory`] at sampled op indices across the full
//! scheme zoo, drives each machine to its first integrity error, and
//! reports per-scheme detection-latency histograms plus the audited
//! fate of every case. The attack [`scue_sim::attack::oracle`] holds
//! secure schemes to "no effective tamper survives undetected" and
//! Baseline to "no detection ever" — silent corruption on Baseline is
//! the *expected*, asserted outcome.
//!
//! ```text
//! scue-attack [--seed N] [--points N] [--ops N] [--drive N]
//!             [--scheme NAME] [--json PATH] [--jobs N]
//!             [--replay scheme:attack:ops:inject_at]
//! ```
//!
//! `--ops` is at least 2, so every sampled injection point lands inside
//! the op stream.
//!
//! `--jobs` (default: available parallelism, overridable via the
//! `SCUE_JOBS` environment variable) fans the campaign's attack cases
//! out over worker threads. The campaign report — and the `--json`
//! payload — is byte-identical at any job count; only the trailing
//! `provenance` object (job count, wall-clock) varies.
//!
//! Exits 0 on a clean campaign, 1 on oracle violations (or a violating
//! replay), 2 on usage errors.

use scue::SchemeKind;
use scue_sim::attack::{Attack, AttackConfig, AttackSpec};
use scue_sim::campaign;
use scue_sim::cli::{self, Flags};
use std::process::ExitCode;

const BIN: &str = "scue-attack";

#[derive(Debug)]
struct Args {
    cfg: AttackConfig,
    points: usize,
    schemes: Vec<SchemeKind>,
    json_path: Option<String>,
    replay: Option<String>,
    jobs: usize,
}

fn usage() -> String {
    format!(
        "[--seed N] [--points N] [--ops N] [--drive N] [--scheme {}] [--json PATH] \
         [--jobs N] [--replay scheme:attack:ops:inject_at]",
        cli::scheme_tokens()
    )
}

/// Parses the command line against an explicit `SCUE_JOBS` value —
/// separately testable from the process-exiting wrapper.
fn parse_args_from(
    tokens: impl Iterator<Item = String>,
    env_jobs: Option<&str>,
) -> Result<Args, String> {
    let mut cfg = AttackConfig::default();
    let mut points = 20;
    let mut schemes = SchemeKind::ALL.to_vec();
    let (mut json_path, mut replay, mut jobs) = (None, None, None);
    let mut flags = Flags::new(tokens);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--seed" => cfg.seed = flags.parse(&flag)?,
            "--points" => points = flags.parse(&flag)?,
            "--ops" => cfg.ops = flags.parse_if(&flag, |&ops| ops >= 2)?,
            "--drive" => cfg.drive_ops = flags.parse(&flag)?,
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
    let attack = Attack {
        cfg: args.cfg,
        points: args.points,
    };
    if let Some(spec) = &args.replay {
        let (scheme, case) = AttackSpec::diagnose_replay(spec)
            .unwrap_or_else(|why| cli::usage_exit(BIN, &usage(), &why));
        return campaign::replay(&attack, scheme, case);
    }
    campaign::main(
        BIN,
        &attack,
        &args.schemes,
        args.jobs,
        args.json_path.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scue_sim::attack::AttackKind;

    fn parse(tokens: &[&str], env_jobs: Option<&str>) -> Result<Args, String> {
        parse_args_from(tokens.iter().map(|s| s.to_string()), env_jobs)
    }

    #[test]
    fn defaults_parse_clean() {
        let args = parse(&[], None).unwrap();
        assert_eq!(args.points, 20);
        assert_eq!(args.schemes, SchemeKind::ALL.to_vec());
        assert!(args.jobs >= 1);
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(
            &[
                "--seed", "9", "--points", "8", "--ops", "64", "--drive", "80", "--scheme",
                "phoenix", "--jobs", "4", "--json", "out.json",
            ],
            None,
        )
        .unwrap();
        assert_eq!(args.cfg.seed, 9);
        assert_eq!(args.points, 8);
        assert_eq!(args.cfg.ops, 64);
        assert_eq!(args.cfg.drive_ops, 80);
        assert_eq!(args.schemes, vec![SchemeKind::Phoenix]);
        assert_eq!(args.jobs, 4);
        assert_eq!(args.json_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn replay_specs_parse_through_the_flag() {
        let args = parse(&["--replay", "scue:splice:48:17"], None).unwrap();
        let (scheme, spec) = AttackSpec::diagnose_replay(args.replay.as_deref().unwrap()).unwrap();
        assert_eq!(scheme, SchemeKind::Scue);
        assert_eq!(spec.attack, AttackKind::Splice);
        assert_eq!(spec.ops, 48);
        assert_eq!(spec.inject_at, 17);
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
            (vec!["--ops", "0"], "--ops", "0"),
            (vec!["--ops", "1"], "--ops", "1"),
            (vec!["--drive", "soon"], "--drive", "soon"),
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
