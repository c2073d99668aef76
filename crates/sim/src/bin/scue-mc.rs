//! Exhaustive small-scope crash model checker.
//!
//! Enumerates every action interleaving of the abstract persist
//! pipeline (leaf persists, WPQ drains, deferred root settles) at small
//! scope, crashes each reachable state in every mode (clean ADR plus
//! every torn-prefix split of the WPQ), and evaluates each scheme's
//! recovery invariant in the post-crash state. Counterexample witnesses
//! are lowered onto the concrete engine and re-proved via the
//! strict-windows torture oracle and the read-only recovery probe.
//!
//! ```text
//! scue-mc [--blocks 2|3] [--ops N] [--seed N] [--scheme NAME]
//!         [--max-states N] [--max-depth N] [--no-replay]
//!         [--jobs N] [--json PATH]
//! ```
//!
//! Exits 0 when the model-check matches the paper's claim (the
//! root-crash-consistent schemes clean; witnesses — expected for the
//! crash-window schemes — all reproduce concretely), 1 on a witness
//! against a root-crash-consistent scheme or a failed reproduction, 2 on
//! usage errors. A truncated (non-exhaustive) search is flagged on
//! stderr and in the JSON document.

use scue::SchemeKind;
use scue_sim::cli::{self, Flags};
use scue_sim::mc::{self, McConfig, SearchConfig};
use scue_sim::torture::TortureConfig;
use std::process::ExitCode;

const BIN: &str = "scue-mc";

#[derive(Debug)]
struct Args {
    cfg: McConfig,
    schemes: Vec<SchemeKind>,
    json_path: Option<String>,
}

fn usage() -> String {
    format!(
        "[--blocks 2|3] [--ops N(1..=4)] [--seed N] [--scheme {}] [--max-states N] \
         [--max-depth N] [--no-replay] [--jobs N] [--json PATH]",
        cli::scheme_tokens()
    )
}

/// Parses the command line against an explicit `SCUE_JOBS` value —
/// separately testable from the process-exiting wrapper.
fn parse_args_from(
    tokens: impl Iterator<Item = String>,
    env_jobs: Option<&str>,
) -> Result<Args, String> {
    let mut search = SearchConfig::default();
    let mut torture = TortureConfig::default();
    let mut replay = true;
    let mut schemes = SchemeKind::ALL.to_vec();
    let (mut json_path, mut jobs) = (None, None);
    let mut flags = Flags::new(tokens);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--blocks" => {
                search.blocks = flags.parse_if(&flag, |b| (2..=mc::MAX_BLOCKS).contains(b))?
            }
            "--ops" => search.ops = flags.parse_if(&flag, |ops| (1..=4).contains(ops))?,
            "--seed" => torture.seed = flags.parse(&flag)?,
            "--max-states" => search.max_states = flags.positive(&flag)?,
            "--max-depth" => search.max_depth = flags.parse(&flag)?,
            "--no-replay" => replay = false,
            "--scheme" => schemes = vec![flags.scheme(&flag)?],
            "--jobs" => jobs = Some(flags.positive(&flag)?),
            "--json" => json_path = Some(flags.value(&flag)?),
            other => return Err(cli::unknown(other)),
        }
    }
    search.jobs = cli::jobs(jobs, env_jobs)?;
    Ok(Args {
        cfg: McConfig {
            search,
            torture,
            replay,
        },
        schemes,
        json_path,
    })
}

fn main() -> ExitCode {
    let args = cli::parse_or_exit(BIN, &usage(), parse_args_from);
    let started = std::time::Instant::now();
    let report = mc::run(&args.cfg, &args.schemes);
    let wall_ms = started.elapsed().as_millis() as u64;

    for s in &report.schemes {
        let verdicts: Vec<String> = mc::Verdict::ALL
            .iter()
            .filter_map(|v| {
                let n = s.search.verdicts.get(v).copied().unwrap_or(0);
                (n > 0).then(|| format!("{}={n}", v.name()))
            })
            .collect();
        println!(
            "{:<10} states={} crash_cases={} witnesses={} exhaustive={} [{}]",
            s.search.scheme.to_string(),
            s.search.states,
            s.search.crash_cases,
            s.search.witnesses_total,
            s.search.exhaustive,
            verdicts.join(" "),
        );
        for (w, repro) in s.search.witness_list.iter().zip(&s.reproductions) {
            let actions: Vec<String> = w.actions.iter().map(|a| a.token()).collect();
            match repro {
                Some(r) => println!(
                    "  witness [{}] crash={} → replay {} ({})",
                    actions.join(" "),
                    w.crash.token(),
                    r.spec,
                    if r.reproduced() {
                        "reproduced"
                    } else {
                        "NOT reproduced"
                    },
                ),
                None => println!(
                    "  witness [{}] crash={} (replay skipped)",
                    actions.join(" "),
                    w.crash.token(),
                ),
            }
        }
    }
    println!(
        "model check wall-clock: {wall_ms} ms at --jobs {}",
        args.cfg.search.jobs
    );

    if !report.exhaustive() {
        for s in &report.schemes {
            if !s.search.exhaustive {
                eprintln!(
                    "warning: {}: search truncated (states dropped: {}, frontier cut at depth \
                     budget: {}) — 0 witnesses means UNKNOWN, not proven",
                    s.search.scheme, s.search.truncated_states, s.search.truncated_depth
                );
            }
        }
    }

    if let Some(path) = &args.json_path {
        // The report payload is byte-identical at any job count; the
        // run's provenance rides in a trailing object so tooling can
        // strip it before diffing (see scripts/verify.sh).
        let mut doc = report.to_json();
        doc.set("provenance", cli::provenance(args.cfg.search.jobs, wall_ms));
        if let Err(e) = std::fs::write(path, doc.render_doc()) {
            eprintln!("{BIN}: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    let rcc = report.rcc_witnesses();
    let failed = report.failed_reproductions();
    if rcc > 0 {
        eprintln!("{rcc} witness(es) against root-crash-consistent scheme(s)");
        ExitCode::FAILURE
    } else if failed > 0 {
        eprintln!("{failed} witness(es) failed to reproduce on the concrete engine");
        ExitCode::FAILURE
    } else {
        println!(
            "model check ok: {} schemes, {} witnesses, exhaustive={}",
            report.schemes.len(),
            report.total_witnesses(),
            report.exhaustive(),
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
        assert_eq!(args.cfg.search.blocks, 2);
        assert_eq!(args.cfg.search.ops, 3);
        assert!(args.cfg.replay);
        assert_eq!(args.schemes, SchemeKind::ALL.to_vec());
        assert!(args.cfg.search.jobs >= 1);
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(
            &[
                "--blocks",
                "3",
                "--ops",
                "4",
                "--seed",
                "9",
                "--scheme",
                "eager",
                "--max-states",
                "500",
                "--max-depth",
                "10",
                "--no-replay",
                "--jobs",
                "4",
                "--json",
                "out.json",
            ],
            None,
        )
        .unwrap();
        assert_eq!(args.cfg.search.blocks, 3);
        assert_eq!(args.cfg.search.ops, 4);
        assert_eq!(args.cfg.torture.seed, 9);
        assert_eq!(args.schemes, vec![SchemeKind::Eager]);
        assert_eq!(args.cfg.search.max_states, 500);
        assert_eq!(args.cfg.search.max_depth, 10);
        assert!(!args.cfg.replay);
        assert_eq!(args.cfg.search.jobs, 4);
        assert_eq!(args.json_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn bad_values_name_the_flag_and_value() {
        for (tokens, flag, value) in [
            (vec!["--blocks", "1"], "--blocks", "1"),
            (vec!["--blocks", "4"], "--blocks", "4"),
            (vec!["--blocks", "two"], "--blocks", "two"),
            (vec!["--ops", "0"], "--ops", "0"),
            (vec!["--ops", "5"], "--ops", "5"),
            (vec!["--seed", "x"], "--seed", "x"),
            (vec!["--max-states", "0"], "--max-states", "0"),
            (vec!["--max-depth", "-1"], "--max-depth", "-1"),
            (vec!["--scheme", "mercury"], "--scheme", "mercury"),
            (vec!["--jobs", "0"], "--jobs", "0"),
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
        for flag in ["--blocks", "--ops", "--seed", "--max-states", "--json"] {
            let err = parse(&[flag], None).unwrap_err();
            assert!(err.contains(flag), "{err:?}");
            assert!(err.contains("requires a value"), "{err:?}");
        }
        let err = parse(&["--frobnicate"], None).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err:?}");
        assert!(err.contains("unknown flag"), "{err:?}");
    }

    #[test]
    fn env_jobs_applies_and_flag_wins() {
        assert_eq!(parse(&[], Some("6")).unwrap().cfg.search.jobs, 6);
        assert_eq!(
            parse(&["--jobs", "2"], Some("6")).unwrap().cfg.search.jobs,
            2
        );
    }
}
