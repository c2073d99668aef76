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
//! `--jobs` (default: available parallelism, overridable via the
//! `SCUE_JOBS` environment variable) fans the campaign's attack cases
//! out over worker threads. The campaign report — and the `--json`
//! payload — is byte-identical at any job count; only the trailing
//! `provenance` object (job count, wall-clock) varies.
//!
//! Exits 0 on a clean campaign, 1 on oracle violations (or a violating
//! replay), 2 on usage errors.

use scue::SchemeKind;
use scue_sim::attack::{self, AttackConfig, AttackSpec};
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
            "--ops" => cfg.ops = flags.parse(&flag)?,
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

/// Re-runs one attack case and reports the oracle's verdict. Malformed
/// specs are diagnosed field by field on stderr.
fn replay(spec: &str, cfg: &AttackConfig) -> ExitCode {
    let (scheme, case) = match AttackSpec::diagnose_replay(spec) {
        Ok(parsed) => parsed,
        Err(why) => cli::usage_exit(BIN, &usage(), &why),
    };
    let result = attack::run_attack_case(scheme, cfg, case);
    println!(
        "replay {scheme} attack={} ops={} inject_at={}: {} (mutated={}{})",
        case.attack.name(),
        case.ops,
        case.inject_at,
        result.class.name(),
        result.mutated,
        match result.latency {
            Some(l) => format!(", latency={l}"),
            None => String::new(),
        },
    );
    if !result.detail.is_empty() {
        println!("  detail: {}", result.detail);
    }
    match attack::oracle(scheme, case, &result) {
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
    let args = cli::parse_or_exit(BIN, &usage(), parse_args_from);
    if let Some(spec) = &args.replay {
        return replay(spec, &args.cfg);
    }

    let started = std::time::Instant::now();
    let report = attack::campaign_with_jobs(&args.cfg, args.points, &args.schemes, args.jobs);
    let wall_ms = started.elapsed().as_millis() as u64;
    for tally in &report.tallies {
        let outcomes: Vec<String> = tally
            .outcomes
            .iter()
            .map(|(class, n)| format!("{}={n}", class.name()))
            .collect();
        let latency = if tally.latency.is_empty() {
            "latency=none".to_string()
        } else {
            format!(
                "latency(n={} mean={:.1} max={})",
                tally.latency.count(),
                tally.latency.mean(),
                tally.latency.max(),
            )
        };
        println!(
            "{:<10} cases={} mutated={} violations={} {} [{}]",
            tally.scheme.to_string(),
            tally.cases,
            tally.mutated,
            tally.violations,
            latency,
            outcomes.join(" "),
        );
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
        doc.set("provenance", cli::provenance(args.jobs, wall_ms));
        if let Err(e) = std::fs::write(path, doc.render_doc()) {
            eprintln!("{BIN}: cannot write {path}: {e}");
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
