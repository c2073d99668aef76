//! Real-process kill-9 crash campaign runner.
//!
//! The parent samples kill epochs per scheme, spawns *this same binary*
//! with `--child` to persist a seeded op stream into a file-backed NVM
//! image with CoW checkpoints, SIGKILLs it mid-flight, optionally
//! damages the image (torn root slot, bit rot, torn page, truncated
//! tail), reopens it, and holds recover → shadow-audit → resume to the
//! differential oracle.
//!
//! ```text
//! scue-crashtest [--seed N] [--kills N] [--epochs N] [--ops-per-epoch N]
//!                [--scheme NAME] [--dir PATH] [--json PATH] [--jobs N]
//! scue-crashtest --child SCHEME SEED EPOCHS OPS_PER_EPOCH IMAGE   (internal)
//! ```
//!
//! Exits 0 on a clean campaign, 1 on oracle violations, 2 on usage
//! errors. The child exits 0 after its last checkpoint (it rarely gets
//! the chance).

use scue::SchemeKind;
use scue_sim::cli::{self, Flags};
use scue_sim::crashtest::{self, CrashtestConfig};
use std::process::ExitCode;

const BIN: &str = "scue-crashtest";

#[derive(Debug)]
struct Args {
    cfg: CrashtestConfig,
    schemes: Vec<SchemeKind>,
    json_path: Option<String>,
    jobs: usize,
}

fn usage() -> String {
    format!(
        "[--seed N] [--kills N] [--epochs N] [--ops-per-epoch N] [--scheme {}] \
         [--dir PATH] [--json PATH] [--jobs N]",
        cli::scheme_tokens()
    )
}

fn parse_args_from(
    tokens: impl Iterator<Item = String>,
    env_jobs: Option<&str>,
) -> Result<Args, String> {
    let mut cfg = CrashtestConfig::default();
    let mut schemes = SchemeKind::ALL.to_vec();
    let (mut json_path, mut jobs) = (None, None);
    let mut flags = Flags::new(tokens);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--seed" => cfg.seed = flags.parse(&flag)?,
            "--kills" => cfg.kills = flags.parse(&flag)?,
            "--epochs" => cfg.epochs = flags.positive(&flag)?,
            "--ops-per-epoch" => cfg.ops_per_epoch = flags.positive(&flag)?,
            "--scheme" => schemes = vec![flags.scheme(&flag)?],
            "--dir" => cfg.dir = flags.value(&flag)?.into(),
            "--jobs" => jobs = Some(flags.positive(&flag)?),
            "--json" => json_path = Some(flags.value(&flag)?),
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(Args {
        cfg,
        schemes,
        json_path,
        jobs: cli::jobs(jobs, env_jobs)?,
    })
}

/// Parses `--child SCHEME SEED EPOCHS OPS_PER_EPOCH IMAGE` operands,
/// naming the offending positional argument and value on any error.
fn parse_child_args(args: &[String]) -> Result<(SchemeKind, u64, usize, usize, &String), String> {
    let arg = |i: usize, name: &str| {
        args.get(i)
            .ok_or_else(|| format!("--child missing {name} (argument {})", i + 1))
    };
    fn num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("invalid --child {name}: `{v}`"))
    }
    let scheme_token = arg(0, "SCHEME")?;
    let scheme = SchemeKind::parse(scheme_token)
        .ok_or_else(|| format!("invalid --child SCHEME: `{scheme_token}`"))?;
    let seed = num("SEED", arg(1, "SEED")?)?;
    let epochs = num("EPOCHS", arg(2, "EPOCHS")?)?;
    let ops = num("OPS_PER_EPOCH", arg(3, "OPS_PER_EPOCH")?)?;
    Ok((scheme, seed, epochs, ops, arg(4, "IMAGE")?))
}

/// `--child SCHEME SEED EPOCHS OPS_PER_EPOCH IMAGE` — the process the
/// parent kills. Any setup failure is a nonzero exit the parent treats
/// as a case failure.
fn run_child(args: &[String]) -> ExitCode {
    let (scheme, seed, epochs, ops_per_epoch, image) = match parse_child_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{BIN}: {msg}");
            return ExitCode::from(2);
        }
    };
    match crashtest::run_child(scheme, seed, epochs, ops_per_epoch, image.as_ref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{BIN} child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        return run_child(&argv[1..]);
    }
    let args = cli::parse_or_exit(BIN, &usage(), parse_args_from);
    // A missing image directory would kill every child at image
    // creation and read as (bogus) oracle violations — fail it up
    // front as the operator error it is.
    if let Err(e) = std::fs::create_dir_all(&args.cfg.dir) {
        eprintln!("{BIN}: cannot create --dir {}: {e}", args.cfg.dir.display());
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("{BIN}: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };

    let started = std::time::Instant::now();
    let report = crashtest::campaign_with_jobs(&exe, &args.cfg, &args.schemes, args.jobs);
    let wall_ms = started.elapsed().as_millis() as u64;
    for tally in &report.tallies {
        let outcomes: Vec<String> = tally
            .outcomes
            .iter()
            .map(|(class, n)| format!("{}={n}", class.name()))
            .collect();
        println!(
            "{:<10} cases={} faults_applied={} open_errors={} fallbacks={} violations={} [{}]",
            tally.scheme.to_string(),
            tally.cases,
            tally.faults_applied,
            tally.open_errors,
            tally.fallbacks,
            tally.violations,
            outcomes.join(" "),
        );
    }
    for v in &report.violations {
        eprintln!(
            "VIOLATION {} case {} (kill_epoch={}, fault={}): {}",
            v.scheme,
            v.index,
            v.kill_epoch,
            v.fault.name(),
            v.message
        );
    }
    println!("campaign wall-clock: {wall_ms} ms at --jobs {}", args.jobs);

    if let Some(path) = &args.json_path {
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
            "oracle clean: {} schemes × {} kills, {} slot fallbacks",
            report.tallies.len(),
            args.cfg.kills,
            report.total_fallbacks()
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
        assert_eq!(args.schemes, SchemeKind::ALL.to_vec());
        assert!(args.cfg.kills > 0 && args.cfg.epochs > 0);
        assert!(args.jobs >= 1);
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(
            &[
                "--seed",
                "9",
                "--kills",
                "3",
                "--epochs",
                "2",
                "--ops-per-epoch",
                "10",
                "--scheme",
                "scue",
                "--dir",
                "/tmp/x",
                "--jobs",
                "4",
                "--json",
                "out.json",
            ],
            None,
        )
        .unwrap();
        assert_eq!(args.cfg.seed, 9);
        assert_eq!(args.cfg.kills, 3);
        assert_eq!(args.cfg.epochs, 2);
        assert_eq!(args.cfg.ops_per_epoch, 10);
        assert_eq!(args.schemes, vec![SchemeKind::Scue]);
        assert_eq!(args.cfg.dir, std::path::PathBuf::from("/tmp/x"));
        assert_eq!(args.jobs, 4);
        assert_eq!(args.json_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn zero_epochs_and_ops_echo_the_offending_token() {
        // `00` parses to zero; the error must echo the token as typed,
        // not a canonicalised `0`.
        for (tokens, flag, value) in [
            (vec!["--epochs", "0"], "--epochs", "0"),
            (vec!["--epochs", "00"], "--epochs", "00"),
            (vec!["--ops-per-epoch", "0"], "--ops-per-epoch", "0"),
            (vec!["--ops-per-epoch", "000"], "--ops-per-epoch", "000"),
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
    fn bad_values_name_the_flag_and_value() {
        for (tokens, flag, value) in [
            (vec!["--seed", "x"], "--seed", "x"),
            (vec!["--kills", "-1"], "--kills", "-1"),
            (vec!["--epochs", "many"], "--epochs", "many"),
            (vec!["--ops-per-epoch", "-3"], "--ops-per-epoch", "-3"),
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
        for flag in [
            "--seed",
            "--kills",
            "--epochs",
            "--ops-per-epoch",
            "--dir",
            "--json",
        ] {
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
        assert_eq!(parse(&[], Some("6")).unwrap().jobs, 6);
        assert_eq!(parse(&["--jobs", "2"], Some("6")).unwrap().jobs, 2);
    }

    #[test]
    fn child_args_errors_name_the_offending_argument() {
        let strs =
            |tokens: &[&str]| -> Vec<String> { tokens.iter().map(|s| s.to_string()).collect() };
        let ok = strs(&["scue", "7", "4", "24", "/tmp/img"]);
        assert!(parse_child_args(&ok).is_ok());
        for (tokens, needle) in [
            (strs(&[]), "SCHEME"),
            (strs(&["mercury", "7", "4", "24", "img"]), "`mercury`"),
            (strs(&["scue", "x", "4", "24", "img"]), "SEED"),
            (strs(&["scue", "7", "-1", "24", "img"]), "EPOCHS"),
            (strs(&["scue", "7", "4", "many", "img"]), "`many`"),
            (strs(&["scue", "7", "4", "24"]), "IMAGE"),
        ] {
            let err = parse_child_args(&tokens).unwrap_err();
            assert!(err.contains(needle), "{err:?} must contain {needle}");
            assert!(err.contains("--child"), "{err:?}");
        }
    }
}
