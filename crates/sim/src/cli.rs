//! Command-line plumbing shared by the simulator, campaign and figure
//! bins: one flag reader whose errors name the flag and echo the
//! offending token (and [`env_value`], the same reader for environment
//! knobs such as `SCUE_SCALE`), one usage-and-exit-2 path, the
//! `--scheme` token list (read off the schemes' policy rows) and the
//! run-provenance object every JSON export ends with.
//!
//! Job counts resolve in one place ([`jobs`]): `--jobs N` beats the
//! `SCUE_JOBS` environment variable beats the available parallelism,
//! and a garbled `SCUE_JOBS` is an error naming the variable even when
//! the flag wins.

use scue::SchemeKind;
use scue_util::obs::Json;
use scue_util::par;
use std::str::FromStr;

/// A bin's flags, read off its command-line tokens one flag at a time:
/// iterate for the next flag, then read its value with one of the
/// typed readers.
pub struct Flags<I> {
    tokens: I,
}

impl<I: Iterator<Item = String>> Flags<I> {
    /// Reads flags off `tokens` (the arguments after the program name).
    pub fn new(tokens: I) -> Self {
        Flags { tokens }
    }

    /// The token following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.tokens
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// `flag`'s value, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.parse_if(flag, |_| true)
    }

    /// `flag`'s value, parsed as a `T` that `valid` accepts.
    pub fn parse_if<T: FromStr>(
        &mut self,
        flag: &str,
        valid: impl FnOnce(&T) -> bool,
    ) -> Result<T, String> {
        let token = self.value(flag)?;
        parse_token(flag, &token, valid)
    }

    /// `flag`'s value, parsed as a nonzero count; the error echoes the
    /// token as typed (`00`, not `0`).
    pub fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, String> {
        self.parse_if(flag, |n| *n != T::default())
    }

    /// `flag`'s value as a scheme token or display name, in any ASCII
    /// case (see [`SchemeKind::parse`]).
    pub fn scheme(&mut self, flag: &str) -> Result<SchemeKind, String> {
        let token = self.value(flag)?;
        SchemeKind::parse(&token).ok_or_else(|| invalid(flag, &token))
    }
}

impl<I: Iterator<Item = String>> Iterator for Flags<I> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.tokens.next()
    }
}

/// The error for a flag or variable value that does not parse or is
/// out of range.
pub fn invalid(flag: &str, token: &str) -> String {
    format!("invalid value for {flag}: `{token}`")
}

/// `token`, the value of flag or variable `name`, parsed as a `T` that
/// `valid` accepts.
fn parse_token<T: FromStr>(
    name: &str,
    token: &str,
    valid: impl FnOnce(&T) -> bool,
) -> Result<T, String> {
    token
        .parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| invalid(name, token))
}

/// Environment variable `name`'s raw value (`None` when unset) parsed
/// as a `T` that `valid` accepts, or `default` when unset. A set value
/// that does not parse is an error naming the variable, as a garbled
/// `SCUE_JOBS` is.
pub fn env_value<T: FromStr>(
    name: &str,
    raw: Option<&str>,
    default: T,
    valid: impl FnOnce(&T) -> bool,
) -> Result<T, String> {
    raw.map_or(Ok(default), |token| parse_token(name, token, valid))
}

/// The error for a flag no arm of a bin's parser accepts. `--help` and
/// `-h` map to the empty message, which [`usage_exit`] answers with the
/// bare usage line.
pub fn unknown(flag: &str) -> String {
    match flag {
        "--help" | "-h" => String::new(),
        other => format!("unknown flag `{other}`"),
    }
}

/// The effective job count from an explicit `--jobs` value and the raw
/// `SCUE_JOBS` value (see the module docs for the precedence).
pub fn jobs(flag: Option<usize>, env: Option<&str>) -> Result<usize, String> {
    par::resolve_jobs_from(flag, env)
}

/// Parses a command line whose only flag is `--jobs N` (the figure
/// bins') into the effective job count.
pub fn jobs_only(tokens: impl Iterator<Item = String>, env: Option<&str>) -> Result<usize, String> {
    let mut flags = Flags::new(tokens);
    let mut flag_jobs = None;
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--jobs" => flag_jobs = Some(flags.positive(&flag)?),
            other => return Err(unknown(other)),
        }
    }
    jobs(flag_jobs, env)
}

/// Every scheme's `--scheme` token, `|`-separated in
/// [`SchemeKind::ALL`] order, for usage lines.
pub fn scheme_tokens() -> String {
    SchemeKind::ALL.map(|s| s.policy().token).join("|")
}

/// Prints `bin: msg` (nothing for the empty `--help` message) and the
/// usage line `usage: bin synopsis` on stderr, then exits 2.
pub fn usage_exit(bin: &str, synopsis: &str, msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("{bin}: {msg}");
    }
    eprintln!("usage: {bin} {synopsis}");
    std::process::exit(2);
}

/// Runs a bin's parser over the live command line and `SCUE_JOBS`,
/// exiting through [`usage_exit`] on any error.
pub fn parse_or_exit<T>(
    bin: &str,
    synopsis: &str,
    parse: impl FnOnce(std::iter::Skip<std::env::Args>, Option<&str>) -> Result<T, String>,
) -> T {
    let env = std::env::var(par::JOBS_ENV).ok();
    parse(std::env::args().skip(1), env.as_deref())
        .unwrap_or_else(|msg| usage_exit(bin, synopsis, &msg))
}

/// The run-provenance object that closes the campaign, profile and
/// figure JSON exports: the fan-out width and the wall-clock. Neither
/// is a result, so tooling strips the object before diffing documents
/// across runs and job counts.
pub fn provenance(jobs: usize, wall_ms: u64) -> Json {
    Json::obj()
        .with("jobs", Json::U64(jobs as u64))
        .with("wall_ms", Json::U64(wall_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags<'a>(tokens: &'a [&str]) -> Flags<impl Iterator<Item = String> + 'a> {
        Flags::new(tokens.iter().map(|s| s.to_string()))
    }

    fn bench(tokens: &[&str], env: Option<&str>) -> Result<usize, String> {
        jobs_only(tokens.iter().map(|s| s.to_string()), env)
    }

    #[test]
    fn bad_jobs_values_name_the_flag_and_value() {
        for bad in ["0", "00", "four", "", "-1", "2.5"] {
            assert_eq!(
                bench(&["--jobs", bad], None),
                Err(format!("invalid value for --jobs: `{bad}`"))
            );
        }
    }

    #[test]
    fn env_jobs_applies_and_flag_wins() {
        assert_eq!(bench(&[], Some("6")), Ok(6));
        assert_eq!(bench(&["--jobs", "2"], Some("6")), Ok(2));
        assert!(bench(&[], None).unwrap() >= 1);
    }

    #[test]
    fn bad_env_jobs_is_an_error_even_when_the_flag_wins() {
        for bad in ["0", "lots", ""] {
            let err = bench(&[], Some(bad)).unwrap_err();
            assert_eq!(err, format!("invalid value for SCUE_JOBS: `{bad}`"));
            // A conflicting garbled override still errors with the flag set.
            assert_eq!(bench(&["--jobs", "3"], Some(bad)), Err(err));
        }
    }

    #[test]
    fn env_values_apply_and_bad_ones_name_the_variable() {
        let positive = |raw| env_value("SCUE_SCALE", raw, 60_000usize, |&n| n > 0);
        assert_eq!(positive(None), Ok(60_000));
        assert_eq!(positive(Some("400")), Ok(400));
        for bad in ["0", "00", "abc", "", "-1", "1.5", " 4"] {
            assert_eq!(
                positive(Some(bad)),
                Err(format!("invalid value for SCUE_SCALE: `{bad}`"))
            );
        }
        let any = |raw| env_value("SCUE_SEED", raw, 1u64, |_| true);
        assert_eq!(any(None), Ok(1));
        assert_eq!(any(Some("0")), Ok(0));
        for bad in ["abc", "", "-1", "1.5"] {
            assert_eq!(any(Some(bad)), Err(invalid("SCUE_SEED", bad)));
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        let missing = "--points requires a value";
        assert_eq!(flags(&[]).value("--points").unwrap_err(), missing);
        assert_eq!(flags(&[]).parse::<u64>("--points").unwrap_err(), missing);
        assert_eq!(flags(&[]).positive::<u64>("--points").unwrap_err(), missing);
        assert_eq!(flags(&[]).scheme("--points").unwrap_err(), missing);
        assert_eq!(unknown("--frobnicate"), "unknown flag `--frobnicate`");
        assert_eq!(unknown("--help"), "");
        assert_eq!(unknown("-h"), "");
    }

    #[test]
    fn bench_args_resolve_jobs_with_named_errors() {
        assert_eq!(bench(&["--jobs", "4"], None), Ok(4));
        assert_eq!(bench(&["--jobs", "4"], Some("9")), Ok(4));
        assert_eq!(bench(&[], Some("9")), Ok(9));
        assert_eq!(
            bench(&["--jobs"], None),
            Err("--jobs requires a value".into())
        );
        assert_eq!(
            bench(&["--what"], None),
            Err("unknown flag `--what`".into())
        );
        assert_eq!(bench(&["--help"], None), Err(String::new()));
    }

    #[test]
    fn readers_echo_the_token_as_typed() {
        let mut f = flags(&[
            "--ops", "00", "--ops", "1.5", "--blocks", "9", "--scheme", "x",
        ]);
        assert_eq!(f.next().as_deref(), Some("--ops"));
        assert_eq!(f.positive::<u64>("--ops"), Err(invalid("--ops", "00")));
        f.next();
        assert_eq!(f.parse::<u64>("--ops"), Err(invalid("--ops", "1.5")));
        f.next();
        let small = |n: &usize| *n < 4;
        assert_eq!(f.parse_if("--blocks", small), Err(invalid("--blocks", "9")));
        f.next();
        assert_eq!(f.scheme("--scheme"), Err(invalid("--scheme", "x")));
        assert_eq!(f.next(), None);
    }

    #[test]
    fn scheme_tokens_follow_the_policy_rows() {
        let tokens = scheme_tokens();
        let parsed: Vec<_> = tokens.split('|').map(SchemeKind::parse).collect();
        let all: Vec<_> = SchemeKind::ALL.into_iter().map(Some).collect();
        assert_eq!(parsed, all);
        for scheme in SchemeKind::ALL {
            let name = scheme.policy().name;
            assert_eq!(flags(&[name]).scheme("--scheme"), Ok(scheme));
        }
    }

    #[test]
    fn provenance_shape() {
        assert_eq!(provenance(4, 120).render(), r#"{"jobs":4,"wall_ms":120}"#);
    }
}
