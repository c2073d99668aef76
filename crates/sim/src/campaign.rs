//! The shared code of the seeded campaigns: crash-point torture
//! ([`crate::torture`]), attacks ([`crate::attack`]) and real-kill
//! crash tests ([`crate::crashtest`]).
//!
//! A campaign samples its cases per scheme, then runs every
//! `(scheme, case)` pair as one [`par::run_indexed`] cell: the case, its
//! oracle and — on a violation — the shrinking minimiser, so each cell
//! is a pure function of its spec. The cells fold into a [`Report`]
//! whose merge is order-independent (tallies sum commutatively in the
//! caller's scheme order; violations sort by scheme position, case and
//! message), so the report and its versioned JSON document are
//! byte-identical at any job count.
//!
//! The [`Campaign`] trait holds only what differs between campaigns:
//! the case and outcome types, sampling, the case body, its oracle and
//! shrink candidates, the per-scheme sums, the document's fields and an
//! optional replay command. This module holds everything else once,
//! including the bins' common tail ([`main`], [`replay`]) and the
//! replay-spec field reader ([`parse_spec`]).

use crate::cli;
use scue::SchemeKind;
use scue_util::obs::Json;
use scue_util::par;
use scue_util::prop::{shrink_failure, Strategy};
use scue_util::rng::Rng;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::process::ExitCode;
use std::time::Instant;

/// What sets one seeded campaign apart from the others.
pub trait Campaign: Clone + Debug + Sync {
    /// One case. Its derived `Ord` is the violation order within a
    /// scheme.
    type Case: Copy + Ord + Debug + Send + Sync;
    /// How one case ended.
    type Class: Copy + Ord + Debug + 'static;
    /// What running one case returns.
    type Result: Clone + Debug + Send;
    /// Per-scheme sums beyond the case, outcome and violation counts.
    type Sums: Clone + Debug + Default;

    /// The document's `kind` tag.
    const KIND: &'static str;
    /// The document's `schema_version`.
    const SCHEMA_VERSION: u64;
    /// Every outcome class, in JSON tally order.
    const CLASSES: &'static [Self::Class];
    /// Shrink budget per violation (property evaluations).
    const SHRINK_EVALS: u32 = 0;

    /// A class's stable snake_case name (its JSON tally key).
    fn class_name(class: Self::Class) -> &'static str;
    /// The cases one scheme runs.
    fn sample(&self, scheme: SchemeKind) -> Vec<Self::Case>;
    /// Runs one case end to end.
    fn run(&self, scheme: SchemeKind, case: Self::Case) -> Self::Result;
    /// The class a result falls in.
    fn class(result: &Self::Result) -> Self::Class;
    /// A result's first anomaly, empty when there was none.
    fn detail(result: &Self::Result) -> &str;
    /// The oracle: is this `(scheme, case, result)` acceptable? `Err`
    /// carries the reason for a violation.
    fn oracle(
        &self,
        scheme: SchemeKind,
        case: &Self::Case,
        result: &Self::Result,
    ) -> Result<(), String>;
    /// Strictly smaller candidates for a violating case, most aggressive
    /// first (none: the case is reported as sampled).
    fn shrink(&self, _case: &Self::Case) -> Vec<Self::Case> {
        Vec::new()
    }
    /// Adds one case to its scheme's sums.
    fn add(sums: &mut Self::Sums, case: &Self::Case, result: &Self::Result);
    /// The document's run parameters, between `kind` and `schemes`.
    fn params_json(&self, doc: Json) -> Json;
    /// A scheme entry's sums with its `outcomes` tally, between `cases`
    /// and `oracle_violations`.
    fn sums_json(sums: &Self::Sums, outcomes: Json, entry: Json) -> Json;
    /// The bin's per-scheme line after `cases=N`, up to the outcome list
    /// (the violation count included).
    fn tally_line(tally: &Tally<Self>) -> String;
    /// A case's fields, as a violation entry and the replay line show
    /// them.
    fn case_json(case: &Self::Case, entry: Json) -> Json;
    /// The command that reruns `case`, for campaigns whose cases replay.
    fn replay_command(&self, _scheme: SchemeKind, _case: &Self::Case) -> Option<String> {
        None
    }
    /// A result's fields on the replay line (replayable campaigns only).
    fn describe(_result: &Self::Result) -> String {
        String::new()
    }
    /// A scheme's stderr warning, if its sums call for one.
    fn warning(_sums: &Self::Sums) -> Option<String> {
        None
    }
    /// Document totals after `total_violations`.
    fn totals_json(_report: &Report<Self>, doc: Json) -> Json {
        doc
    }
    /// The tail of the bin's `oracle clean:` line.
    fn summary(report: &Report<Self>) -> String {
        // Every scheme runs the same number of cases.
        let points = report.tallies.first().map_or(0, |t| t.cases);
        format!("{} schemes × {points} points", report.tallies.len())
    }
}

/// One scheme's campaign tally.
#[derive(Debug, Clone)]
pub struct Tally<C: Campaign> {
    /// The scheme.
    pub scheme: SchemeKind,
    /// Cases run.
    pub cases: u64,
    /// Outcome histogram (classes absent from the map never occurred).
    pub outcomes: BTreeMap<C::Class, u64>,
    /// The campaign's own per-scheme sums.
    pub sums: C::Sums,
    /// Oracle violations among these cases.
    pub violations: u64,
}

/// One minimised oracle violation.
#[derive(Debug, Clone)]
pub struct Violation<C: Campaign> {
    /// The scheme that violated the oracle.
    pub scheme: SchemeKind,
    /// The minimal failing case.
    pub case: C::Case,
    /// The oracle's reason at the minimal case.
    pub message: String,
    /// Successful shrink steps applied to reach the minimum.
    pub shrink_steps: u32,
    /// Property evaluations spent shrinking.
    pub evals: u32,
}

/// A full campaign's results.
#[derive(Debug, Clone)]
pub struct Report<C: Campaign> {
    /// The campaign that ran.
    pub campaign: C,
    /// Per-scheme tallies, in the caller's scheme order.
    pub tallies: Vec<Tally<C>>,
    /// Minimised violations in canonical order (empty on a healthy
    /// campaign).
    pub violations: Vec<Violation<C>>,
}

impl<C: Campaign> Report<C> {
    /// Total oracle violations across all schemes.
    pub fn total_violations(&self) -> u64 {
        self.tallies.iter().map(|t| t.violations).sum()
    }

    /// The campaign as a versioned JSON document.
    pub fn to_json(&self) -> Json {
        let schemes = self
            .tallies
            .iter()
            .map(|t| {
                let entry = Json::obj()
                    .with("scheme", Json::Str(t.scheme.to_string()))
                    .with("cases", Json::U64(t.cases));
                C::sums_json(&t.sums, outcomes_json::<C>(&t.outcomes), entry)
                    .with("oracle_violations", Json::U64(t.violations))
            })
            .collect();
        let violations = self
            .violations
            .iter()
            .map(|v| {
                let scheme = Json::obj().with("scheme", Json::Str(v.scheme.to_string()));
                let entry =
                    C::case_json(&v.case, scheme).with("message", Json::Str(v.message.clone()));
                match self.campaign.replay_command(v.scheme, &v.case) {
                    Some(command) => entry
                        .with("shrink_steps", Json::U64(v.shrink_steps as u64))
                        .with("replay", Json::Str(command)),
                    None => entry,
                }
            })
            .collect();
        let head = Json::obj()
            .with("schema_version", Json::U64(C::SCHEMA_VERSION))
            .with("kind", Json::Str(C::KIND.to_string()));
        let doc = self
            .campaign
            .params_json(head)
            .with("schemes", Json::Arr(schemes))
            .with("total_violations", Json::U64(self.total_violations()));
        C::totals_json(self, doc).with("violations", Json::Arr(violations))
    }
}

/// A class tally as a JSON object over every class in
/// [`Campaign::CLASSES`] order, zeros included.
pub fn outcomes_json<C: Campaign>(counts: &BTreeMap<C::Class, u64>) -> Json {
    let fields = C::CLASSES.iter().map(|class| {
        let n = counts.get(class).copied().unwrap_or(0);
        (C::class_name(*class).to_string(), Json::U64(n))
    });
    Json::Obj(fields.collect())
}

/// Every class name of `C`, in tally order.
pub fn class_names<C: Campaign>() -> Vec<&'static str> {
    C::CLASSES
        .iter()
        .map(|&class| C::class_name(class))
        .collect()
}

/// One `(scheme, case)` cell's result: everything the merge needs,
/// independent of which worker ran it or when it finished.
#[derive(Debug, Clone)]
pub(crate) struct Cell<C: Campaign> {
    scheme: SchemeKind,
    case: C::Case,
    result: C::Result,
    violation: Option<Violation<C>>,
}

/// Runs one cell: the case, its oracle, and — on a violation — the
/// shrinking minimiser.
pub(crate) fn run_cell<C: Campaign>(campaign: &C, scheme: SchemeKind, case: C::Case) -> Cell<C> {
    let result = campaign.run(scheme, case);
    let violation = campaign
        .oracle(scheme, &case, &result)
        .err()
        .map(|message| minimise(campaign, scheme, case, message));
    Cell {
        scheme,
        case,
        result,
        violation,
    }
}

/// Folds cells into a [`Report`], independent of their order.
pub(crate) fn merge<C: Campaign>(
    campaign: &C,
    schemes: &[SchemeKind],
    cells: Vec<Cell<C>>,
) -> Report<C> {
    let position = |scheme: SchemeKind| {
        schemes
            .iter()
            .position(|&s| s == scheme)
            .expect("cell scheme must come from the campaign's scheme list")
    };
    let mut tallies: Vec<Tally<C>> = schemes
        .iter()
        .map(|&scheme| Tally {
            scheme,
            cases: 0,
            outcomes: BTreeMap::new(),
            sums: C::Sums::default(),
            violations: 0,
        })
        .collect();
    let mut violations = Vec::new();
    for cell in cells {
        let tally = &mut tallies[position(cell.scheme)];
        tally.cases += 1;
        *tally.outcomes.entry(C::class(&cell.result)).or_insert(0) += 1;
        C::add(&mut tally.sums, &cell.case, &cell.result);
        if let Some(violation) = cell.violation {
            tally.violations += 1;
            violations.push(violation);
        }
    }
    violations.sort_by(|a, b| {
        (position(a.scheme), a.case, &a.message).cmp(&(position(b.scheme), b.case, &b.message))
    });
    Report {
        campaign: campaign.clone(),
        tallies,
        violations,
    }
}

/// Runs the campaign over `schemes` on up to `jobs` worker threads:
/// sampling fans out per scheme, then every `(scheme, case)` pair is one
/// cell. The report is byte-identical at any job count.
pub fn run<C: Campaign>(campaign: &C, schemes: &[SchemeKind], jobs: usize) -> Report<C> {
    let sampled = par::run_indexed(jobs, schemes, |_, &scheme, _| campaign.sample(scheme));
    let cells: Vec<(SchemeKind, C::Case)> = schemes
        .iter()
        .zip(&sampled)
        .flat_map(|(&scheme, cases)| cases.iter().map(move |&case| (scheme, case)))
        .collect();
    let cells = par::run_indexed(jobs, &cells, |_, &(scheme, case), _| {
        run_cell(campaign, scheme, case)
    });
    merge(campaign, schemes, cells)
}

/// The campaign's shrink candidates as a prop-engine strategy. Campaign
/// cases are sampled, never generated.
struct Shrinker<'a, C>(&'a C);

impl<C: Campaign> Strategy for Shrinker<'_, C> {
    type Value = C::Case;

    fn generate(&self, _: &mut Rng) -> C::Case {
        unreachable!("campaign cases are sampled, never generated")
    }

    fn shrink(&self, case: &C::Case) -> Vec<C::Case> {
        self.0.shrink(case)
    }
}

/// Shrinks one violating case to a local minimum with the prop-harness
/// engine, re-running the full case and oracle at each evaluation.
pub fn minimise<C: Campaign>(
    campaign: &C,
    scheme: SchemeKind,
    case: C::Case,
    message: String,
) -> Violation<C> {
    let shrunk = shrink_failure(
        &Shrinker(campaign),
        case,
        message,
        C::SHRINK_EVALS,
        |candidate| campaign.oracle(scheme, &candidate, &campaign.run(scheme, candidate)),
    );
    Violation {
        scheme,
        case: shrunk.minimal,
        message: shrunk.message,
        shrink_steps: shrunk.shrink_steps,
        evals: shrunk.evals,
    }
}

/// A replay spec `scheme:field:…`, read one field at a time. Errors name
/// the field and echo its token.
pub struct SpecReader<'a>(std::str::Split<'a, char>);

impl<'a> SpecReader<'a> {
    /// The next field parsed by `parse`, with its token.
    pub fn token<T>(
        &mut self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<(T, &'a str), String> {
        let token = self
            .0
            .next()
            .ok_or_else(|| format!("replay spec is missing the {name} field"))?;
        parse(token)
            .map(|value| (value, token))
            .ok_or_else(|| format!("invalid {name} in replay spec: `{token}`"))
    }

    /// The next field parsed by `parse`.
    pub fn field<T>(
        &mut self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        self.token(name, parse).map(|(value, _)| value)
    }
}

/// Parses a `scheme:…` replay spec: the scheme field, then `case` reads
/// the case's fields; a field left over is an error.
pub fn parse_spec<T>(
    spec: &str,
    case: impl FnOnce(&mut SpecReader) -> Result<T, String>,
) -> Result<(SchemeKind, T), String> {
    let mut fields = SpecReader(spec.split(':'));
    let scheme = fields.field("scheme", SchemeKind::parse)?;
    let case = case(&mut fields)?;
    match fields.0.next() {
        Some(extra) => Err(format!("trailing field in replay spec: `{extra}`")),
        None => Ok((scheme, case)),
    }
}

/// A case's JSON fields as `key=value` pairs, strings unquoted.
fn case_pairs<C: Campaign>(case: &C::Case) -> String {
    let Json::Obj(fields) = C::case_json(case, Json::obj()) else {
        unreachable!("`case_json` extends an object")
    };
    let pairs: Vec<String> = fields
        .into_iter()
        .map(|(key, value)| match value {
            Json::Str(s) => format!("{key}={s}"),
            other => format!("{key}={}", other.render()),
        })
        .collect();
    pairs.join(" ")
}

/// Re-runs one case and prints the oracle's verdict: exit 0 when it
/// holds, 1 on a violation.
pub fn replay<C: Campaign>(campaign: &C, scheme: SchemeKind, case: C::Case) -> ExitCode {
    let result = campaign.run(scheme, case);
    println!(
        "replay {scheme} {}: {} ({})",
        case_pairs::<C>(&case),
        C::class_name(C::class(&result)),
        C::describe(&result),
    );
    let detail = C::detail(&result);
    if !detail.is_empty() {
        println!("  detail: {detail}");
    }
    match campaign.oracle(scheme, &case, &result) {
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

/// A campaign bin's run: prints the per-scheme lines, any violations
/// with their replay commands and the wall clock, writes the `--json`
/// document with its provenance, and exits 0 on a clean campaign, 1 on
/// oracle violations (or an unwritable document).
pub fn main<C: Campaign>(
    bin: &str,
    campaign: &C,
    schemes: &[SchemeKind],
    jobs: usize,
    json_path: Option<&str>,
) -> ExitCode {
    let started = Instant::now();
    let report = run(campaign, schemes, jobs);
    let wall_ms = started.elapsed().as_millis() as u64;
    for tally in &report.tallies {
        let outcomes: Vec<String> = tally
            .outcomes
            .iter()
            .map(|(&class, n)| format!("{}={n}", C::class_name(class)))
            .collect();
        println!(
            "{:<10} cases={} {} [{}]",
            tally.scheme.to_string(),
            tally.cases,
            C::tally_line(tally),
            outcomes.join(" "),
        );
    }
    for tally in &report.tallies {
        if let Some(warning) = C::warning(&tally.sums) {
            eprintln!("warning: {}: {warning}", tally.scheme);
        }
    }
    for v in &report.violations {
        match campaign.replay_command(v.scheme, &v.case) {
            Some(command) => {
                eprintln!(
                    "VIOLATION {}: {} (shrunk {} steps / {} evals)",
                    v.scheme, v.message, v.shrink_steps, v.evals
                );
                eprintln!("  replay: {command}");
            }
            None => eprintln!(
                "VIOLATION {} {}: {}",
                v.scheme,
                case_pairs::<C>(&v.case),
                v.message
            ),
        }
    }
    println!("campaign wall-clock: {wall_ms} ms at --jobs {jobs}");

    if let Some(path) = json_path {
        // The campaign payload is byte-identical at any job count; the
        // run's provenance rides in a trailing object so tooling can
        // strip it before diffing (see scripts/verify.sh).
        let mut doc = report.to_json();
        doc.set("provenance", cli::provenance(jobs, wall_ms));
        if let Err(e) = std::fs::write(path, doc.render_doc()) {
            eprintln!("{bin}: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if report.total_violations() > 0 {
        eprintln!("{} oracle violation(s)", report.total_violations());
        ExitCode::FAILURE
    } else {
        println!("oracle clean: {}", C::summary(&report));
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{Attack, AttackConfig};
    use crate::crashtest::{Crashtest, DurableFaultKind, KillCase};
    use crate::torture::{CaseSpec, FaultKind, Torture, TortureConfig};

    #[test]
    fn case_pairs_name_every_case_field() {
        // The replay line and crashtest's violation line (kill cases
        // have no replay command) describe a case this way.
        let spec = CaseSpec {
            ops: 60,
            crash_at: 500_000,
            fault: FaultKind::TornCounter,
        };
        assert_eq!(
            case_pairs::<Torture>(&spec),
            "ops=60 crash_at=500000 fault=torn_counter"
        );
        let kill = KillCase {
            index: 3,
            kill_epoch: 2,
            fault: DurableFaultKind::TornPage,
        };
        assert_eq!(
            case_pairs::<Crashtest>(&kill),
            "case=3 kill_epoch=2 fault=torn_page"
        );
    }

    /// A parallel run delivers cells in completion order; the merge must
    /// not care. Reverses and interleaves the serial cell stream and
    /// demands an identical rendered report.
    fn assert_merge_is_order_independent<C: Campaign>(campaign: &C, schemes: &[SchemeKind]) {
        let mut cells = Vec::new();
        for &scheme in schemes {
            for case in campaign.sample(scheme) {
                cells.push(run_cell(campaign, scheme, case));
            }
        }
        let reference = merge(campaign, schemes, cells.clone())
            .to_json()
            .render_doc();
        let mut reversed = cells.clone();
        reversed.reverse();
        let half = cells.len() / 2;
        let mut interleaved = Vec::new();
        for i in 0..half {
            interleaved.push(cells[i].clone());
            interleaved.push(cells[half + i].clone());
        }
        interleaved.extend(cells[2 * half..].iter().cloned());
        for shuffled in [reversed, interleaved] {
            assert_eq!(shuffled.len(), cells.len());
            let report = merge(campaign, schemes, shuffled);
            assert_eq!(report.to_json().render_doc(), reference);
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let schemes = [SchemeKind::Scue, SchemeKind::Lazy, SchemeKind::Baseline];
        // The strict Baseline oracle makes Baseline cells violate, so the
        // canonical violation order is exercised too.
        let cfg = TortureConfig {
            seed: 7,
            ops: 60,
            strict_baseline: true,
            ..TortureConfig::default()
        };
        assert_merge_is_order_independent(&Torture { cfg, points: 8 }, &schemes);
        let cfg = AttackConfig {
            seed: 5,
            ops: 48,
            drive_ops: 120,
        };
        assert_merge_is_order_independent(&Attack { cfg, points: 8 }, &schemes);
    }
}
