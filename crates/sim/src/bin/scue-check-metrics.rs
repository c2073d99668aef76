//! `scue-check-metrics` — validate the repo's JSON documents without
//! any external tooling (the pure-Rust stand-in for `jq` in
//! `scripts/verify.sh`).
//!
//! ```text
//! scue-check-metrics PATH
//! scue-check-metrics --compare-trajectory OLD NEW
//! ```
//!
//! Dispatches on the document's `kind` tag (Chrome traces are spotted
//! by their `traceEvents` array). Every versioned document must carry
//! its kind's schema version, and — when present — a positive
//! `provenance.jobs`. For run metrics: every required section present,
//! write-latency percentiles ordered (`p50 <= p95 <= p99 <= max`), a
//! positive `config.jobs` and — on crash runs — an integer
//! `recovery.repaired_leaves`. The three campaign documents share one
//! checker: integer run parameters, non-empty scheme tallies whose
//! outcome histograms partition the cases, and per-scheme violation
//! counts that sum to `total_violations` and match the violation list.
//! On top of that, `scue-torture` tallies must cover their
//! `repaired_counter` outcomes with `repaired_leaves`; `scue-attack`
//! tallies must partition again per attack kind, count one latency
//! sample per online detection and never show Baseline detecting;
//! `scue-crashtest` tallies bound `open_errors`/`fallbacks` by the case
//! count and sum to `total_fallbacks`. For `scue-mc` model-checker
//! documents: per-scheme verdict tallies partitioning the crash cases,
//! witness lists consistent with the witness cap, truncation counters
//! that agree with every `exhaustive` claim, and — for each exhaustive
//! search — witnesses exactly on the secure schemes without root crash
//! consistency. For `scue-profile` documents: per-scheme span tables
//! with coherent stats (`self_ns <= total_ns`), and — on the monotonic
//! clock only, where durations are real nanoseconds — at least 90% of
//! root wall time attributed to named spans. For
//! `scue-bench-trajectory` snapshots: positive throughput and primitive
//! medians.
//!
//! `--compare-trajectory` applies the regression gate between two
//! snapshots (DESIGN.md §12): engine throughput may regress at most
//! 30%, allocations per op may grow at most 10% + 8, primitive medians
//! at most 35% + 20 ns. Prints the first violation and exits 1.

use scue::SchemeKind;
use scue_sim::attack::{AttackClass, AttackKind};
use scue_sim::mc::{Verdict, WITNESS_CAP};
use scue_sim::torture::CaseClass;
use scue_sim::{
    ATTACK_DOC_KIND, ATTACK_SCHEMA_VERSION, CRASHTEST_DOC_KIND, CRASHTEST_SCHEMA_VERSION,
    MC_DOC_KIND, MC_SCHEMA_VERSION, METRICS_SCHEMA_VERSION, PROFILE_DOC_KIND,
    PROFILE_SCHEMA_VERSION, TORTURE_DOC_KIND, TORTURE_SCHEMA_VERSION,
};
use scue_util::obs::Json;

/// Sections every metrics document must carry.
const REQUIRED_SECTIONS: [&str; 11] = [
    "schema_version",
    "config",
    "totals",
    "write_latency",
    "read_latency",
    "mem",
    "mdcache",
    "wpq",
    "counters",
    "series",
    "trace",
];

/// `kind` tag of a perf-trajectory snapshot (`bench_trajectory`).
const TRAJECTORY_DOC_KIND: &str = "scue-bench-trajectory";
/// Expected trajectory schema version.
const TRAJECTORY_SCHEMA_VERSION: u64 = 1;
/// `otherData.kind` tag of a Chrome trace-event export.
const CHROME_DOC_KIND: &str = "scue-chrome-trace";
/// Monotonic-clock profiles must attribute at least this share of root
/// wall time to named spans. Virtual-clock profiles are exempt: tick
/// durations count span boundaries, not time, so coverage is
/// structurally capped near 50% for flat fan-outs.
const MIN_MONOTONIC_COVERAGE_PCT: f64 = 90.0;

// Regression-gate tolerances (DESIGN.md §12). Throughput and latency
// are wall-clock measurements on a shared machine, so the bands are
// wide; allocation counts are nearly deterministic, so theirs is tight.
const OPS_REGRESSION_PCT: f64 = 30.0;
const ALLOC_GROWTH_PCT: f64 = 10.0;
const ALLOC_GROWTH_SLACK: f64 = 8.0;
const PRIMITIVE_GROWTH_PCT: f64 = 35.0;
const PRIMITIVE_GROWTH_SLACK_NS: f64 = 20.0;

fn fail(msg: &str) -> ! {
    eprintln!("scue-check-metrics: {msg}");
    std::process::exit(1);
}

/// `msg`, prefixed with `ctx` (a scheme or section name) when there is
/// one.
fn at(ctx: &str, msg: String) -> String {
    if ctx.is_empty() {
        msg
    } else {
        format!("{ctx}: {msg}")
    }
}

/// `obj.key`, which must be present.
fn field<'a>(obj: &'a Json, ctx: &str, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| at(ctx, format!("missing `{key}`")))
}

/// `obj.key` as an unsigned integer.
fn int(obj: &Json, ctx: &str, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| at(ctx, format!("`{key}` is not an integer")))
}

/// `obj.key` as a number (integers included).
fn number(obj: &Json, ctx: &str, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| at(ctx, format!("`{key}` is not a number")))
}

/// `obj.key` as a string.
fn string<'a>(obj: &'a Json, ctx: &str, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| at(ctx, format!("`{key}` is not a string")))
}

/// `obj.key` as a boolean.
fn boolean(obj: &Json, ctx: &str, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(at(ctx, format!("`{key}` is not a boolean"))),
    }
}

/// `obj.key` as an array, which must not be empty.
fn array<'a>(obj: &'a Json, ctx: &str, key: &str) -> Result<&'a [Json], String> {
    let items = obj
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| at(ctx, format!("`{key}` is not an array")))?;
    if items.is_empty() {
        return Err(at(ctx, format!("`{key}` is empty")));
    }
    Ok(items)
}

/// The document's `schema_version`, which must be `expected`.
fn schema(doc: &Json, expected: u64) -> Result<(), String> {
    let version = int(doc, "", "schema_version")?;
    if version != expected {
        return Err(format!("schema_version {version}, expected {expected}"));
    }
    Ok(())
}

/// The optional `provenance` object the campaign, profile and figure
/// bins export: when present, a positive integer job count.
fn check_provenance(doc: &Json) -> Result<(), String> {
    let Some(provenance) = doc.get("provenance") else {
        return Ok(());
    };
    if int(provenance, "provenance", "jobs")? == 0 {
        return Err("provenance.jobs must be at least 1".to_string());
    }
    Ok(())
}

fn check(doc: &Json) -> Result<(), String> {
    for key in REQUIRED_SECTIONS {
        if doc.get(key).is_none() {
            return Err(format!("missing required section `{key}`"));
        }
    }
    schema(doc, METRICS_SCHEMA_VERSION)?;
    for section in ["write_latency", "read_latency"] {
        let lat = field(doc, "", section)?;
        let quantile = |name| int(lat, section, name);
        let (p50, p95, p99, max) = (
            quantile("p50")?,
            quantile("p95")?,
            quantile("p99")?,
            quantile("max")?,
        );
        if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
            return Err(format!(
                "{section} percentiles out of order: p50={p50} p95={p95} p99={p99} max={max}"
            ));
        }
    }
    doc.get("series")
        .and_then(Json::as_arr)
        .ok_or("series is not an array")?;
    number(field(doc, "", "mdcache")?, "mdcache", "hit_rate")?;
    if int(field(doc, "", "config")?, "config", "jobs")? == 0 {
        return Err("config.jobs must be at least 1".to_string());
    }
    if let Some(recovery) = doc.get("recovery") {
        int(recovery, "recovery", "repaired_leaves")?;
    }
    int(field(doc, "", "trace")?, "trace", "dropped_events")?;
    Ok(())
}

/// The tallies of `entry.outcomes` over `classes`, in order.
fn tallies(entry: &Json, ctx: &str, classes: &[&str]) -> Result<Vec<u64>, String> {
    let outcomes = field(entry, ctx, "outcomes")?;
    let ctx = format!("{ctx}: outcomes");
    classes
        .iter()
        .map(|class| int(outcomes, &ctx, class))
        .collect()
}

/// The checks every campaign document (torture, attack, crashtest)
/// shares: its schema `version`; the integer `seed`,
/// `total_violations` and `keys`; a non-empty `schemes` list whose
/// outcome tallies over `classes` partition each scheme's cases, whose
/// per-scheme violation counts sum to `total_violations`, and which
/// passes the kind's own `per_scheme` rules (given the entry, its name,
/// case count and tallies); a violation list of that total length whose
/// entries carry the string `violation_keys` (a `replay` must be a
/// `--replay` command); and the optional provenance.
fn check_campaign(
    doc: &Json,
    version: u64,
    keys: &[&str],
    classes: &[&str],
    violation_keys: &[&str],
    mut per_scheme: impl FnMut(&Json, &str, u64, &[u64]) -> Result<(), String>,
) -> Result<(), String> {
    schema(doc, version)?;
    for key in ["seed", "total_violations"].iter().chain(keys) {
        int(doc, "", key)?;
    }
    let mut violation_sum = 0;
    for entry in array(doc, "", "schemes")? {
        let name = string(entry, "scheme entry", "scheme")?;
        let cases = int(entry, name, "cases")?;
        let outcomes = tallies(entry, name, classes)?;
        let sum: u64 = outcomes.iter().sum();
        if sum != cases {
            return Err(format!(
                "{name}: outcome tallies sum to {sum}, expected {cases} cases"
            ));
        }
        per_scheme(entry, name, cases, &outcomes)?;
        violation_sum += int(entry, name, "oracle_violations")?;
    }
    let total = int(doc, "", "total_violations")?;
    if total != violation_sum {
        return Err(format!(
            "total_violations {total} != per-scheme sum {violation_sum}"
        ));
    }
    let listed = doc
        .get("violations")
        .and_then(Json::as_arr)
        .ok_or("`violations` is not an array")?;
    if listed.len() as u64 != total {
        return Err(format!(
            "violation list has {} entries, total_violations says {total}",
            listed.len()
        ));
    }
    for v in listed {
        for &key in violation_keys {
            let value = string(v, "violation entry", key)?;
            if key == "replay" && !value.contains("--replay") {
                return Err("violation entry without a usable `replay` command".to_string());
            }
        }
    }
    check_provenance(doc)
}

/// Validates a `scue-torture` campaign document.
fn check_torture(doc: &Json) -> Result<(), String> {
    let classes = CaseClass::ALL.map(CaseClass::name);
    let repaired = CaseClass::ALL
        .iter()
        .position(|&c| c == CaseClass::RepairedCounter)
        .expect("repaired_counter is a case class");
    check_campaign(
        doc,
        TORTURE_SCHEMA_VERSION,
        &["points", "ops"],
        &classes,
        &["replay"],
        |entry, name, _, outcomes| {
            // Every repaired_counter case repairs at least one leaf, so
            // the repaired-leaf total must cover the outcome count.
            let repaired_leaves = int(entry, name, "repaired_leaves")?;
            if repaired_leaves < outcomes[repaired] {
                return Err(format!(
                    "{name}: repaired_leaves {repaired_leaves} below \
                     repaired_counter outcome count {}",
                    outcomes[repaired]
                ));
            }
            int(entry, name, "history_dropped").map(|_| ())
        },
    )
}

/// Validates a `scue-attack` seeded attack-campaign document: outcome
/// tallies (total and per attack kind) partition the injected cases,
/// the detection-latency histogram counts exactly the online
/// detections, and Baseline never detects (silent corruption there is
/// the expected Table I outcome, asserted).
fn check_attack(doc: &Json) -> Result<(), String> {
    let classes = AttackClass::ALL.map(AttackClass::name);
    let class_index = |class| {
        AttackClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("every class is in AttackClass::ALL")
    };
    let (online, noop) = (
        class_index(AttackClass::DetectedOnline),
        class_index(AttackClass::UndetectedNoop),
    );
    check_campaign(
        doc,
        ATTACK_SCHEMA_VERSION,
        &["points", "ops", "drive_ops"],
        &classes,
        &["scheme", "attack", "message", "replay"],
        |entry, name, cases, outcomes| {
            let mutated = int(entry, name, "mutated")?;
            if mutated > cases {
                return Err(format!("{name}: mutated {mutated} exceeds {cases} cases"));
            }
            // The per-attack histograms are a finer partition of the
            // same cases: their class tallies must sum to the scheme's.
            let attacks = array(entry, name, "attacks")?;
            if attacks.len() != AttackKind::ALL.len() {
                return Err(format!(
                    "{name}: {} attack entries, expected {}",
                    attacks.len(),
                    AttackKind::ALL.len()
                ));
            }
            let mut per_attack = vec![0u64; classes.len()];
            for (kind, a) in AttackKind::ALL.iter().zip(attacks) {
                let attack_name = string(a, name, "attack")?;
                if attack_name != kind.name() {
                    return Err(format!(
                        "{name}: attack entry `{attack_name}` out of order, expected `{}`",
                        kind.name()
                    ));
                }
                let t = tallies(a, &format!("{name}/{attack_name}"), &classes)?;
                for (total, n) in per_attack.iter_mut().zip(t) {
                    *total += n;
                }
            }
            let attack_sum: u64 = per_attack.iter().sum();
            if attack_sum != cases {
                return Err(format!(
                    "{name}: per-attack tallies sum to {attack_sum}, expected {cases} cases"
                ));
            }
            if per_attack != outcomes {
                return Err(format!(
                    "{name}: per-attack tallies disagree with the scheme outcome tally"
                ));
            }
            // Online detections each record exactly one latency sample.
            let latency = field(entry, name, "detection_latency")?;
            let latency_count = int(latency, &format!("{name}: detection_latency"), "count")?;
            if latency_count != outcomes[online] {
                return Err(format!(
                    "{name}: detection_latency.count {latency_count} != \
                     detected_online outcome count {}",
                    outcomes[online]
                ));
            }
            // Baseline has nothing to verify with: any detection is a
            // modelling bug, and with effective tampers it must show the
            // silent corruption the paper's Table I predicts.
            if !scheme_named(name)?.policy().is_secure() {
                let detections: u64 = AttackClass::ALL
                    .iter()
                    .zip(outcomes)
                    .filter(|(c, _)| c.is_detection())
                    .map(|(_, n)| n)
                    .sum();
                if detections > 0 {
                    return Err(format!(
                        "{name}: an unprotected scheme reports {detections} detections"
                    ));
                }
                if mutated > 0 && outcomes[noop] == cases {
                    return Err(format!(
                        "{name}: effective tampers left no observable outcome"
                    ));
                }
            }
            Ok(())
        },
    )
}

/// Validates a `scue-crashtest` real-process kill campaign document.
fn check_crashtest(doc: &Json) -> Result<(), String> {
    let classes = CaseClass::ALL.map(CaseClass::name);
    let mut fallback_sum = 0;
    check_campaign(
        doc,
        CRASHTEST_SCHEMA_VERSION,
        &["kills", "epochs", "ops_per_epoch", "total_fallbacks"],
        &classes,
        &["scheme", "fault", "message"],
        |entry, name, cases, _| {
            // Open errors and slot fallbacks are per-case flags, so
            // neither count can exceed the case count.
            for key in ["faults_applied", "open_errors", "fallbacks"] {
                let n = int(entry, name, key)?;
                if n > cases {
                    return Err(format!("{name}: {key} {n} exceeds {cases} cases"));
                }
            }
            fallback_sum += int(entry, name, "fallbacks")?;
            Ok(())
        },
    )?;
    let total_fallbacks = int(doc, "", "total_fallbacks")?;
    if total_fallbacks != fallback_sum {
        return Err(format!(
            "total_fallbacks {total_fallbacks} != per-scheme sum {fallback_sum}"
        ));
    }
    Ok(())
}

/// The scheme whose display name is `name`.
fn scheme_named(name: &str) -> Result<SchemeKind, String> {
    SchemeKind::ALL
        .into_iter()
        .find(|s| s.policy().name == name)
        .ok_or(format!("unknown scheme `{name}`"))
}

/// Validates a `scue-mc` model-checker document.
fn check_mc(doc: &Json) -> Result<(), String> {
    schema(doc, MC_SCHEMA_VERSION)?;
    for key in [
        "blocks",
        "ops",
        "max_states",
        "max_depth",
        "seed",
        "total_witnesses",
        "rcc_witnesses",
        "failed_reproductions",
    ] {
        int(doc, "", key)?;
    }
    boolean(doc, "", "replay")?;
    let exhaustive = boolean(doc, "", "exhaustive")?;
    let mut witness_sum = 0;
    let mut all_exhaustive = true;
    for entry in array(doc, "", "schemes")? {
        let name = string(entry, "scheme entry", "scheme")?;
        let count = |key: &str| int(entry, name, key);
        if count("states")? == 0 {
            return Err(format!("{name}: a search explores at least one state"));
        }
        let cases = count("crash_cases")?;
        count("deepest")?;
        let (truncated_states, truncated_depth) =
            (count("truncated_states")?, count("truncated_depth")?);
        let scheme_exhaustive = boolean(entry, name, "exhaustive")?;
        // The exhaustive flag is a *claim*; the truncation counters are
        // the evidence. They must agree.
        if scheme_exhaustive != (truncated_states == 0 && truncated_depth == 0) {
            return Err(format!(
                "{name}: exhaustive={scheme_exhaustive} contradicts truncation counters \
                 (states dropped: {truncated_states}, depth cuts: {truncated_depth})"
            ));
        }
        all_exhaustive &= scheme_exhaustive;
        let verdicts = field(entry, name, "verdicts")?;
        let mut sum = 0;
        for v in Verdict::ALL {
            sum += int(verdicts, &format!("{name}: verdicts"), v.name())?;
        }
        if sum != cases {
            return Err(format!(
                "{name}: verdict tallies sum to {sum}, expected {cases} crash cases"
            ));
        }
        let witnesses = count("witnesses")?;
        witness_sum += witnesses;
        // A complete search finds a clean-crash witness exactly when the
        // scheme verifies but has a crash window (its policy row's root
        // discipline), at every scope scue-mc accepts.
        let policy = scheme_named(name)?.policy();
        let windowed = policy.is_secure() && !policy.root_crash_consistent();
        if scheme_exhaustive && (witnesses > 0) != windowed {
            return Err(format!(
                "{name}: exhaustive search found {witnesses} witnesses, but the scheme {}",
                if windowed {
                    "has a crash window"
                } else {
                    "has none"
                }
            ));
        }
        let inconsistent = verdicts
            .get("inconsistent")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if witnesses != inconsistent {
            return Err(format!(
                "{name}: `witnesses` {witnesses} != inconsistent verdict count {inconsistent}"
            ));
        }
        let list = entry
            .get("witness_list")
            .and_then(Json::as_arr)
            .ok_or(format!("{name}: `witness_list` is not an array"))?;
        let expected = witnesses.min(WITNESS_CAP as u64);
        if list.len() as u64 != expected {
            return Err(format!(
                "{name}: witness list has {} entries, expected {expected} \
                 ({witnesses} witnesses, cap {WITNESS_CAP})",
                list.len()
            ));
        }
        for w in list {
            let actions = w
                .get("actions")
                .and_then(Json::as_arr)
                .ok_or(format!("{name}: witness without an `actions` array"))?;
            if actions.is_empty() {
                return Err(format!("{name}: witness with an empty action trace"));
            }
            if actions.iter().any(|a| a.as_str().is_none()) {
                return Err(format!("{name}: witness action is not a string"));
            }
            string(w, &format!("{name}: witness"), "crash")?;
            int(w, &format!("{name}: witness"), "issues")?;
            // `replay`/`reproduced` are either both null (replay off or
            // not lowerable) or a spec string with a verdict.
            match (w.get("replay"), w.get("reproduced")) {
                (Some(Json::Null), Some(Json::Null)) => {}
                (Some(Json::Str(_)), Some(Json::Bool(_))) => {}
                _ => {
                    return Err(format!(
                        "{name}: witness `replay`/`reproduced` must be both \
                         null or a spec string with a boolean"
                    ));
                }
            }
        }
    }
    let total = int(doc, "", "total_witnesses")?;
    if total != witness_sum {
        return Err(format!(
            "total_witnesses {total} != per-scheme sum {witness_sum}"
        ));
    }
    if exhaustive != all_exhaustive {
        return Err(format!(
            "top-level exhaustive={exhaustive} contradicts per-scheme flags"
        ));
    }
    check_provenance(doc)
}

/// Reads one span entry (`SpanProfile::to_json` element), checking
/// stat coherence.
fn check_span_entry(ctx: &str, span: &Json) -> Result<(), String> {
    let name = string(span, ctx, "name")?;
    let ctx = format!("{ctx}: span `{name}`");
    string(span, &ctx, "parent")?;
    if int(span, &ctx, "calls")? == 0 {
        return Err(format!("{ctx} recorded with zero calls"));
    }
    let (total, self_ns) = (int(span, &ctx, "total_ns")?, int(span, &ctx, "self_ns")?);
    if self_ns > total {
        return Err(format!("{ctx}: self_ns {self_ns} exceeds total_ns {total}"));
    }
    int(span, &ctx, "allocs")?;
    int(span, &ctx, "alloc_bytes")?;
    Ok(())
}

/// Validates a `scue-profile` document.
fn check_profile(doc: &Json) -> Result<(), String> {
    schema(doc, PROFILE_SCHEMA_VERSION)?;
    let clock = string(doc, "", "clock")?;
    if clock != "monotonic" && clock != "virtual" {
        return Err(format!("unknown clock `{clock}`"));
    }
    if int(doc, "", "ops")? == 0 {
        return Err("`ops` must be positive".to_string());
    }
    int(doc, "", "seed")?;
    for entry in array(doc, "", "schemes")? {
        let name = string(entry, "scheme entry", "scheme")?;
        let coverage = number(entry, name, "coverage_pct")?;
        if clock == "monotonic" && coverage < MIN_MONOTONIC_COVERAGE_PCT {
            return Err(format!(
                "{name}: only {coverage:.1}% of wall time attributed to named \
                 spans (budget: {MIN_MONOTONIC_COVERAGE_PCT}%)"
            ));
        }
        boolean(entry, name, "recovered")?;
        for (section, keys) in [
            ("alloc", ["allocs", "bytes"]),
            ("trace", ["recorded", "dropped_events"]),
        ] {
            let obj = field(entry, name, section)?;
            for key in keys {
                int(obj, &format!("{name}: {section}"), key)?;
            }
        }
        for span in array(entry, name, "spans")? {
            check_span_entry(name, span)?;
        }
    }
    for span in array(doc, "", "aggregate_spans")? {
        check_span_entry("aggregate", span)?;
    }
    check_provenance(doc)
}

/// Validates a Chrome trace-event export (`scue-profile
/// --chrome-trace`). Detected by its `traceEvents` array rather than a
/// top-level `kind` tag, which the trace-event format reserves.
fn check_chrome(doc: &Json) -> Result<(), String> {
    let kind = string(field(doc, "", "otherData")?, "otherData", "kind")?;
    if kind != CHROME_DOC_KIND {
        return Err(format!(
            "otherData.kind `{kind}`, expected {CHROME_DOC_KIND}"
        ));
    }
    let mut spans = 0u64;
    for (i, event) in array(doc, "", "traceEvents")?.iter().enumerate() {
        let ctx = format!("traceEvents[{i}]");
        string(event, &ctx, "name")?;
        match string(event, &ctx, "ph")? {
            "X" => {
                spans += 1;
                for key in ["ts", "dur"] {
                    if number(event, &ctx, key)? < 0.0 {
                        return Err(format!("{ctx}: negative `{key}`"));
                    }
                }
            }
            "i" | "M" => {}
            other => return Err(format!("{ctx}: unknown phase `{other}`")),
        }
    }
    if spans == 0 {
        return Err("trace carries no complete (`ph:\"X\"`) span events".to_string());
    }
    Ok(())
}

/// Validates a `bench_trajectory` snapshot.
fn check_trajectory(doc: &Json) -> Result<(), String> {
    schema(doc, TRAJECTORY_SCHEMA_VERSION)?;
    int(doc, "", "pr")?;
    for key in ["engine_ops", "samples"] {
        if int(doc, "", key)? == 0 {
            return Err(format!("`{key}` must be positive"));
        }
    }
    for entry in array(doc, "", "engine")? {
        let name = string(entry, "engine entry", "scheme")?;
        let ops = number(entry, name, "ops_per_sec")?;
        if ops <= 0.0 {
            return Err(format!("{name}: non-positive ops_per_sec {ops}"));
        }
        for key in ["allocs_per_op", "alloc_bytes_per_op"] {
            if number(entry, name, key)? < 0.0 {
                return Err(format!("{name}: negative {key}"));
            }
        }
    }
    for entry in array(doc, "", "primitives")? {
        let name = string(entry, "primitive entry", "name")?;
        let ns = number(entry, name, "median_ns")?;
        if ns <= 0.0 {
            return Err(format!("{name}: non-positive median_ns {ns}"));
        }
    }
    check_provenance(doc)
}

/// Collects `(label, value)` pairs from a trajectory array section.
fn trajectory_values(
    doc: &Json,
    section: &str,
    label_key: &str,
    value_key: &str,
) -> Vec<(String, f64)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| {
                    let label = e.get(label_key).and_then(Json::as_str)?;
                    let value = e.get(value_key).and_then(Json::as_f64)?;
                    Some((label.to_string(), value))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The regression gate: compares a new trajectory snapshot against its
/// predecessor. Both documents must already have passed
/// [`check_trajectory`]. Returns the number of metrics compared.
fn compare_trajectory(old: &Json, new: &Json) -> Result<u64, String> {
    let mut compared = 0;
    // Throughput: the new snapshot may be slower, within the band.
    let new_ops = trajectory_values(new, "engine", "scheme", "ops_per_sec");
    for (scheme, old_ops) in trajectory_values(old, "engine", "scheme", "ops_per_sec") {
        let Some((_, now)) = new_ops.iter().find(|(s, _)| *s == scheme) else {
            continue;
        };
        let floor = old_ops * (1.0 - OPS_REGRESSION_PCT / 100.0);
        if *now < floor {
            return Err(format!(
                "{scheme}: engine throughput regressed {:.0} -> {:.0} ops/s \
                 (floor {:.0}, tolerance {OPS_REGRESSION_PCT}%)",
                old_ops, now, floor
            ));
        }
        compared += 1;
    }
    // Allocation cost: nearly deterministic, so the band is tight.
    let new_allocs = trajectory_values(new, "engine", "scheme", "allocs_per_op");
    for (scheme, old_allocs) in trajectory_values(old, "engine", "scheme", "allocs_per_op") {
        let Some((_, now)) = new_allocs.iter().find(|(s, _)| *s == scheme) else {
            continue;
        };
        let ceiling = old_allocs * (1.0 + ALLOC_GROWTH_PCT / 100.0) + ALLOC_GROWTH_SLACK;
        if *now > ceiling {
            return Err(format!(
                "{scheme}: allocations per op grew {old_allocs:.2} -> {now:.2} \
                 (ceiling {ceiling:.2}, tolerance {ALLOC_GROWTH_PCT}% + {ALLOC_GROWTH_SLACK})"
            ));
        }
        compared += 1;
    }
    // Primitive medians.
    let new_prims = trajectory_values(new, "primitives", "name", "median_ns");
    for (name, old_ns) in trajectory_values(old, "primitives", "name", "median_ns") {
        let Some((_, now)) = new_prims.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let ceiling = old_ns * (1.0 + PRIMITIVE_GROWTH_PCT / 100.0) + PRIMITIVE_GROWTH_SLACK_NS;
        if *now > ceiling {
            return Err(format!(
                "{name}: median grew {old_ns:.2} -> {now:.2} ns \
                 (ceiling {ceiling:.2}, tolerance {PRIMITIVE_GROWTH_PCT}% + \
                 {PRIMITIVE_GROWTH_SLACK_NS} ns)"
            ));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err("snapshots share no comparable metrics".to_string());
    }
    Ok(compared)
}

fn load(path: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read {path}: {e}")),
    };
    match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => fail(&format!("{path}: invalid JSON: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 3 && args[0] == "--compare-trajectory" {
        let (old_path, new_path) = (&args[1], &args[2]);
        let (old, new) = (load(old_path), load(new_path));
        for (path, doc) in [(old_path, &old), (new_path, &new)] {
            if let Err(msg) = check_trajectory(doc) {
                fail(&format!("{path}: {msg}"));
            }
        }
        match compare_trajectory(&old, &new) {
            Ok(n) => println!("{new_path}: ok ({n} metrics within tolerance of {old_path})"),
            Err(msg) => fail(&format!("{new_path} vs {old_path}: {msg}")),
        }
        return;
    }
    let [path] = args.as_slice() else {
        eprintln!("usage: scue-check-metrics PATH");
        eprintln!("       scue-check-metrics --compare-trajectory OLD NEW");
        std::process::exit(2);
    };
    let doc = load(path);
    let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("");
    let (checked, label, version) = if doc.get("traceEvents").is_some() {
        (check_chrome(&doc), CHROME_DOC_KIND, PROFILE_SCHEMA_VERSION)
    } else if kind == TORTURE_DOC_KIND {
        (check_torture(&doc), kind, TORTURE_SCHEMA_VERSION)
    } else if kind == ATTACK_DOC_KIND {
        (check_attack(&doc), kind, ATTACK_SCHEMA_VERSION)
    } else if kind == CRASHTEST_DOC_KIND {
        (check_crashtest(&doc), kind, CRASHTEST_SCHEMA_VERSION)
    } else if kind == MC_DOC_KIND {
        (check_mc(&doc), kind, MC_SCHEMA_VERSION)
    } else if kind == PROFILE_DOC_KIND {
        (check_profile(&doc), kind, PROFILE_SCHEMA_VERSION)
    } else if kind == TRAJECTORY_DOC_KIND {
        (check_trajectory(&doc), kind, TRAJECTORY_SCHEMA_VERSION)
    } else {
        (
            check(&doc),
            if kind.is_empty() {
                "scue-metrics"
            } else {
                kind
            },
            METRICS_SCHEMA_VERSION,
        )
    };
    if let Err(msg) = checked {
        fail(&format!("{path}: {msg}"));
    }
    println!("{path}: ok ({label} schema v{version})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use scue::SchemeKind;
    use scue_sim::torture::{self, TortureConfig};

    fn campaign_doc() -> Json {
        let cfg = TortureConfig {
            seed: 7,
            ops: 60,
            eadr: false,
            strict_baseline: false,
            strict_windows: false,
        };
        torture::campaign(&cfg, 7, &[SchemeKind::Scue, SchemeKind::Baseline]).to_json()
    }

    #[test]
    fn live_campaign_docs_pass() {
        let mut doc = campaign_doc();
        check_torture(&doc).unwrap();
        // With the bins' provenance attached, still fine.
        doc.set(
            "provenance",
            Json::obj()
                .with("jobs", Json::U64(4))
                .with("wall_ms", Json::U64(12)),
        );
        check_torture(&doc).unwrap();
    }

    #[test]
    fn missing_repaired_leaves_is_rejected() {
        let rendered = campaign_doc()
            .render_doc()
            .replace("\"repaired_leaves\"", "\"renamed\"");
        let doc = Json::parse(&rendered).unwrap();
        let err = check_torture(&doc).unwrap_err();
        assert!(err.contains("repaired_leaves"), "{err}");
    }

    #[test]
    fn zero_provenance_jobs_is_rejected() {
        let mut doc = campaign_doc();
        doc.set("provenance", Json::obj().with("jobs", Json::U64(0)));
        let err = check_torture(&doc).unwrap_err();
        assert!(err.contains("provenance.jobs"), "{err}");
    }

    /// A minimal torture doc with one scheme that claims
    /// `repaired_counter` outcomes but only `repaired_leaves` repairs.
    fn doc_with_repairs(repaired_cases: u64, repaired_leaves: u64) -> Json {
        let mut outcomes = Json::obj();
        for class in CaseClass::ALL {
            outcomes.set(class.name(), Json::U64(0));
        }
        outcomes.set(CaseClass::RepairedCounter.name(), Json::U64(repaired_cases));
        let scheme = Json::obj()
            .with("scheme", Json::Str("SCUE".into()))
            .with("cases", Json::U64(repaired_cases))
            .with("faults_applied", Json::U64(repaired_cases))
            .with("outcomes", outcomes)
            .with("repaired_leaves", Json::U64(repaired_leaves))
            .with("history_dropped", Json::U64(0))
            .with("oracle_violations", Json::U64(0));
        Json::obj()
            .with("schema_version", Json::U64(TORTURE_SCHEMA_VERSION))
            .with("kind", Json::Str(TORTURE_DOC_KIND.into()))
            .with("seed", Json::U64(1))
            .with("points", Json::U64(1))
            .with("ops", Json::U64(1))
            .with("total_violations", Json::U64(0))
            .with("schemes", Json::Arr(vec![scheme]))
            .with("violations", Json::Arr(vec![]))
    }

    /// A minimal, internally consistent crashtest doc.
    fn crashtest_doc() -> Json {
        let mut outcomes = Json::obj();
        for class in CaseClass::ALL {
            outcomes.set(class.name(), Json::U64(0));
        }
        outcomes.set(CaseClass::RecoveredIntact.name(), Json::U64(3));
        let scheme = Json::obj()
            .with("scheme", Json::Str("SCUE".into()))
            .with("cases", Json::U64(3))
            .with("faults_applied", Json::U64(2))
            .with("open_errors", Json::U64(0))
            .with("fallbacks", Json::U64(1))
            .with("outcomes", outcomes)
            .with("oracle_violations", Json::U64(0));
        Json::obj()
            .with("schema_version", Json::U64(CRASHTEST_SCHEMA_VERSION))
            .with("kind", Json::Str(CRASHTEST_DOC_KIND.into()))
            .with("seed", Json::U64(1))
            .with("kills", Json::U64(3))
            .with("epochs", Json::U64(4))
            .with("ops_per_epoch", Json::U64(24))
            .with("schemes", Json::Arr(vec![scheme]))
            .with("total_violations", Json::U64(0))
            .with("total_fallbacks", Json::U64(1))
            .with("violations", Json::Arr(vec![]))
    }

    #[test]
    fn crashtest_doc_passes() {
        check_crashtest(&crashtest_doc()).unwrap();
    }

    #[test]
    fn crashtest_fallback_total_must_match_schemes() {
        let mut doc = crashtest_doc();
        doc.set("total_fallbacks", Json::U64(7));
        let err = check_crashtest(&doc).unwrap_err();
        assert!(err.contains("total_fallbacks"), "{err}");
    }

    #[test]
    fn crashtest_per_case_flags_cannot_exceed_cases() {
        let mut doc = crashtest_doc();
        let schemes = match doc.get("schemes").cloned() {
            Some(Json::Arr(mut schemes)) => {
                schemes[0].set("open_errors", Json::U64(99));
                Json::Arr(schemes)
            }
            other => panic!("schemes missing: {other:?}"),
        };
        doc.set("schemes", schemes);
        // Keep everything else consistent; only the flag overflows.
        let err = check_crashtest(&doc).unwrap_err();
        assert!(err.contains("open_errors"), "{err}");
    }

    #[test]
    fn torture_docs_must_carry_history_dropped() {
        let mut doc = campaign_doc();
        let schemes = match doc.get("schemes").cloned() {
            Some(Json::Arr(mut schemes)) => {
                schemes[0].set("history_dropped", Json::Str("lots".into()));
                Json::Arr(schemes)
            }
            other => panic!("schemes missing: {other:?}"),
        };
        doc.set("schemes", schemes);
        let err = check_torture(&doc).unwrap_err();
        assert!(err.contains("history_dropped"), "{err}");
    }

    fn profile_docs() -> (Json, Json) {
        use scue_sim::profile::{self, ProfileConfig};
        use scue_util::obs::span::Clock;
        let cfg = ProfileConfig {
            schemes: vec![SchemeKind::Scue],
            ops: 40,
            seed: 3,
            clock: Clock::Virtual,
        };
        let results = profile::run(&cfg, 1);
        (
            profile::to_doc(&cfg, &results),
            profile::to_chrome_trace(&cfg, &results),
        )
    }

    #[test]
    fn live_profile_and_chrome_docs_pass() {
        let (profile, chrome) = profile_docs();
        check_profile(&profile).unwrap();
        check_chrome(&chrome).unwrap();
    }

    #[test]
    fn profile_coverage_gate_applies_only_to_the_monotonic_clock() {
        // Virtual-clock tick durations count span boundaries, not
        // time, so low coverage is structural there and must pass —
        // while the same figure on the monotonic clock means real wall
        // time escaped the span taxonomy and must fail.
        let (profile, _) = profile_docs();
        let mut low = profile;
        let schemes = match low.get("schemes").cloned() {
            Some(Json::Arr(mut schemes)) => {
                schemes[0].set("coverage_pct", Json::F64(48.0));
                Json::Arr(schemes)
            }
            other => panic!("schemes missing: {other:?}"),
        };
        low.set("schemes", schemes);
        check_profile(&low).unwrap();
        let rendered = low
            .render_doc()
            .replace("\"clock\":\"virtual\"", "\"clock\":\"monotonic\"");
        let err = check_profile(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("attributed"), "{err}");
    }

    #[test]
    fn incoherent_span_stats_are_rejected() {
        let (profile, _) = profile_docs();
        let mut doc = profile;
        // Corrupt the first aggregate span: self time above total.
        let spans = match doc.get("aggregate_spans").cloned() {
            Some(Json::Arr(mut spans)) => {
                spans[0].set("self_ns", Json::U64(u64::MAX));
                Json::Arr(spans)
            }
            other => panic!("aggregate_spans missing: {other:?}"),
        };
        doc.set("aggregate_spans", spans);
        let err = check_profile(&doc).unwrap_err();
        assert!(err.contains("exceeds total_ns"), "{err}");
    }

    #[test]
    fn chrome_doc_without_span_events_is_rejected() {
        let doc = Json::obj()
            .with(
                "traceEvents",
                Json::Arr(vec![Json::obj()
                    .with("name", Json::Str("process_name".into()))
                    .with("ph", Json::Str("M".into()))]),
            )
            .with(
                "otherData",
                Json::obj().with("kind", Json::Str(CHROME_DOC_KIND.into())),
            );
        let err = check_chrome(&doc).unwrap_err();
        assert!(err.contains("no complete"), "{err}");
    }

    fn trajectory_doc(ops_per_sec: f64, allocs_per_op: f64, hmac_ns: f64) -> Json {
        Json::obj()
            .with("schema_version", Json::U64(TRAJECTORY_SCHEMA_VERSION))
            .with("kind", Json::Str(TRAJECTORY_DOC_KIND.into()))
            .with("pr", Json::U64(7))
            .with("engine_ops", Json::U64(1000))
            .with("samples", Json::U64(3))
            .with(
                "engine",
                Json::Arr(vec![Json::obj()
                    .with("scheme", Json::Str("SCUE".into()))
                    .with("ops_per_sec", Json::F64(ops_per_sec))
                    .with("allocs_per_op", Json::F64(allocs_per_op))
                    .with("alloc_bytes_per_op", Json::F64(256.0))]),
            )
            .with(
                "primitives",
                Json::Arr(vec![Json::obj()
                    .with("name", Json::Str("hmac.compute".into()))
                    .with("median_ns", Json::F64(hmac_ns))]),
            )
    }

    #[test]
    fn trajectory_gate_tolerates_noise_but_catches_regressions() {
        let old = trajectory_doc(1_000_000.0, 3.0, 50.0);
        check_trajectory(&old).unwrap();
        // Within band: 20% slower, slightly more allocs, noisy hmac.
        let ok = trajectory_doc(800_000.0, 3.2, 60.0);
        assert_eq!(compare_trajectory(&old, &ok), Ok(3));
        // Throughput through the floor.
        let slow = trajectory_doc(600_000.0, 3.0, 50.0);
        let err = compare_trajectory(&old, &slow).unwrap_err();
        assert!(err.contains("throughput regressed"), "{err}");
        // Allocation growth beyond 10% + 8.
        let leaky = trajectory_doc(1_000_000.0, 12.0, 50.0);
        let err = compare_trajectory(&old, &leaky).unwrap_err();
        assert!(err.contains("allocations per op"), "{err}");
        // Primitive median beyond 35% + 20 ns.
        let hot = trajectory_doc(1_000_000.0, 3.0, 90.0);
        let err = compare_trajectory(&old, &hot).unwrap_err();
        assert!(err.contains("hmac.compute"), "{err}");
        // Disjoint snapshots cannot be gated.
        let mut alien = trajectory_doc(1.0, 1.0, 1.0);
        alien.set("engine", Json::Arr(vec![]));
        alien.set("primitives", Json::Arr(vec![]));
        assert!(compare_trajectory(&old, &alien).is_err());
    }

    fn mc_doc() -> Json {
        use scue_sim::mc::{self, McConfig};
        // Replay off keeps the test fast; the null replay/reproduced
        // pairing is part of what check_mc validates.
        let cfg = McConfig {
            replay: false,
            ..McConfig::default()
        };
        mc::run(&cfg, &[SchemeKind::Scue, SchemeKind::Lazy]).to_json()
    }

    #[test]
    fn live_mc_docs_pass() {
        let mut doc = mc_doc();
        check_mc(&doc).unwrap();
        doc.set(
            "provenance",
            Json::obj()
                .with("jobs", Json::U64(4))
                .with("wall_ms", Json::U64(9)),
        );
        check_mc(&doc).unwrap();
        // A replayed doc (spec string + boolean) also passes.
        let replayed =
            scue_sim::mc::run(&scue_sim::mc::McConfig::default(), &[SchemeKind::Lazy]).to_json();
        check_mc(&replayed).unwrap();
    }

    #[test]
    fn mc_witnesses_must_match_each_schemes_root_discipline() {
        // SCUE's clean entry relabelled as Eager: a window scheme with no
        // witnesses in an exhaustive search.
        let rendered = mc_doc()
            .render_doc()
            .replace("\"scheme\":\"SCUE\"", "\"scheme\":\"Eager\"");
        let err = check_mc(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(
            err.contains("Eager: exhaustive search found 0 witnesses"),
            "{err}"
        );
        // Lazy's witnessed entry relabelled as PLP: witnesses against a
        // root-crash-consistent scheme.
        let rendered = mc_doc()
            .render_doc()
            .replace("\"scheme\":\"Lazy\"", "\"scheme\":\"PLP\"");
        let err = check_mc(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("PLP: exhaustive search found"), "{err}");
        assert!(err.contains("has none"), "{err}");
        let rendered = mc_doc()
            .render_doc()
            .replace("\"scheme\":\"Lazy\"", "\"scheme\":\"Mercury\"");
        let err = check_mc(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("unknown scheme `Mercury`"), "{err}");
    }

    #[test]
    fn mc_verdicts_must_partition_crash_cases() {
        let doc = mc_doc();
        let rendered = doc
            .render_doc()
            .replace("\"unverified\":0", "\"unverified\":1");
        let err = check_mc(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("verdict tallies"), "{err}");
    }

    #[test]
    fn mc_exhaustive_claim_must_match_truncation_counters() {
        let doc = mc_doc();
        // Claim truncation without clearing the exhaustive flags.
        let rendered = doc
            .render_doc()
            .replace("\"truncated_states\":0", "\"truncated_states\":5");
        let err = check_mc(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("contradicts truncation counters"), "{err}");
    }

    #[test]
    fn mc_witness_totals_must_be_consistent() {
        let mut doc = mc_doc();
        doc.set("total_witnesses", Json::U64(999));
        let err = check_mc(&doc).unwrap_err();
        assert!(err.contains("total_witnesses"), "{err}");

        // Witness count must equal the inconsistent verdict tally.
        let doc = mc_doc();
        let schemes = match doc.get("schemes").cloned() {
            Some(Json::Arr(schemes)) => schemes,
            other => panic!("schemes missing: {other:?}"),
        };
        let lazy_witnesses = schemes[1].get("witnesses").and_then(Json::as_u64).unwrap();
        assert!(lazy_witnesses > 0, "lazy must produce witnesses");
        let rendered = doc.render_doc().replace(
            &format!("\"witnesses\":{lazy_witnesses}"),
            &format!("\"witnesses\":{}", lazy_witnesses + 1),
        );
        let err = check_mc(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("inconsistent verdict count"), "{err}");
    }

    #[test]
    fn mc_witness_entries_must_be_well_formed() {
        let doc = mc_doc();
        // A replay spec without a reproduction verdict is malformed.
        let rendered = doc.render_doc().replace(
            "\"replay\":null,\"reproduced\":null",
            "\"replay\":\"lazy:1:1:none\",\"reproduced\":null",
        );
        let err = check_mc(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("replay"), "{err}");
        // An empty action trace cannot witness anything.
        let rendered = mc_doc()
            .render_doc()
            .replace("\"actions\":[\"issue:0\"]", "\"actions\":[]");
        let err = check_mc(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("empty action trace"), "{err}");
    }

    fn attack_doc() -> Json {
        use scue_sim::attack::{self, AttackConfig};
        let cfg = AttackConfig {
            seed: 5,
            ops: 48,
            drive_ops: 120,
        };
        attack::campaign(&cfg, 4, &[SchemeKind::Scue, SchemeKind::Baseline]).to_json()
    }

    #[test]
    fn live_attack_docs_pass() {
        let mut doc = attack_doc();
        check_attack(&doc).unwrap();
        doc.set(
            "provenance",
            Json::obj()
                .with("jobs", Json::U64(4))
                .with("wall_ms", Json::U64(3)),
        );
        check_attack(&doc).unwrap();
    }

    #[test]
    fn attack_outcomes_must_partition_cases() {
        let rendered =
            attack_doc()
                .render_doc()
                .replacen("\"engine_failure\":0", "\"engine_failure\":1", 1);
        let err = check_attack(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("tallies"), "{err}");
    }

    #[test]
    fn attack_latency_count_must_match_online_detections() {
        let doc = attack_doc();
        let schemes = doc.get("schemes").and_then(Json::as_arr).unwrap();
        let scue_online = schemes[0]
            .get("outcomes")
            .and_then(|o| o.get("detected_online"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(scue_online > 0, "SCUE must detect online in this campaign");
        let rendered = doc.render_doc().replacen(
            &format!("\"count\":{scue_online}"),
            &format!("\"count\":{}", scue_online + 1),
            1,
        );
        let err = check_attack(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("detection_latency.count"), "{err}");
    }

    /// A minimal, internally consistent attack doc with one Baseline
    /// scheme whose cases all land in one outcome class (carried by the
    /// first attack kind).
    fn baseline_attack_doc(class: AttackClass, cases: u64) -> Json {
        let outcomes_with = |n: u64| {
            let mut outcomes = Json::obj();
            for c in AttackClass::ALL {
                outcomes.set(c.name(), Json::U64(if c == class { n } else { 0 }));
            }
            outcomes
        };
        let attacks = AttackKind::ALL
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                Json::obj()
                    .with("attack", Json::Str(kind.name().to_string()))
                    .with("outcomes", outcomes_with(if i == 0 { cases } else { 0 }))
            })
            .collect();
        let latency = scue_util::obs::Histogram::new().summary_json();
        let scheme = Json::obj()
            .with("scheme", Json::Str("Baseline".into()))
            .with("cases", Json::U64(cases))
            .with("mutated", Json::U64(cases))
            .with("outcomes", outcomes_with(cases))
            .with("attacks", Json::Arr(attacks))
            .with("detection_latency", latency)
            .with("oracle_violations", Json::U64(0));
        Json::obj()
            .with("schema_version", Json::U64(ATTACK_SCHEMA_VERSION))
            .with("kind", Json::Str(ATTACK_DOC_KIND.into()))
            .with("seed", Json::U64(1))
            .with("points", Json::U64(cases))
            .with("ops", Json::U64(8))
            .with("drive_ops", Json::U64(8))
            .with("schemes", Json::Arr(vec![scheme]))
            .with("total_violations", Json::U64(0))
            .with("violations", Json::Arr(vec![]))
    }

    #[test]
    fn baseline_reporting_a_detection_is_rejected() {
        // Silent corruption on Baseline is the expected Table I outcome.
        check_attack(&baseline_attack_doc(AttackClass::SilentCorruption, 4)).unwrap();
        // Baseline has no verification; a doc claiming it detected a
        // tamper is a modelling bug — for any detection class. The doc
        // stays internally consistent, so only the Baseline-specific
        // check can object.
        for class in [
            AttackClass::DetectedOnline,
            AttackClass::DetectedAtRecovery,
            AttackClass::DetectedOnAudit,
        ] {
            let doc = baseline_attack_doc(class, 4);
            let doc = if class == AttackClass::DetectedOnline {
                // Keep the latency histogram consistent with the online
                // count so the detection check is what fires.
                let rendered = doc.render_doc().replacen("\"count\":0", "\"count\":4", 1);
                Json::parse(&rendered).unwrap()
            } else {
                doc
            };
            let err = check_attack(&doc).unwrap_err();
            assert!(err.contains("unprotected scheme reports"), "{err}");
        }
        // Effective tampers that all vanish without a trace are just as
        // suspicious on an unprotected scheme.
        let err = check_attack(&baseline_attack_doc(AttackClass::UndetectedNoop, 4)).unwrap_err();
        assert!(err.contains("no observable outcome"), "{err}");
    }

    #[test]
    fn attack_violation_list_must_match_total() {
        let mut doc = attack_doc();
        doc.set("total_violations", Json::U64(3));
        let err = check_attack(&doc).unwrap_err();
        assert!(err.contains("total_violations"), "{err}");
    }

    #[test]
    fn repaired_leaves_below_outcome_count_is_rejected() {
        // Every repaired_counter case repairs at least one leaf, so a
        // tally claiming 3 repaired cases but only 2 repaired leaves
        // under-reports and must fail the coverage check.
        check_torture(&doc_with_repairs(3, 3)).unwrap();
        check_torture(&doc_with_repairs(3, 7)).unwrap();
        let err = check_torture(&doc_with_repairs(3, 2)).unwrap_err();
        assert!(err.contains("below"), "{err}");
    }
}
