//! Exhaustive small-scope crash model checking of the persist pipeline.
//!
//! The paper's root-crash-consistency argument (§III-B, §IV) is a claim
//! about *every* interleaving of leaf persists, WPQ drains, root
//! updates and power failures — not just the ones a randomised torture
//! campaign happens to sample. This module checks the claim by brute
//! force at small scope: an abstract model of the persist pipeline
//! ([`model`]) is exhaustively enumerated ([`search`]) for 2–3 counter
//! blocks and 1–4 ops, with **every crash point and every torn-write
//! word prefix**, and each scheme's recovery invariant is evaluated in
//! every reachable post-crash state.
//!
//! The expected shape of the result *is* the paper's Table I/§III-B
//! story, now machine-derived:
//!
//! * SCUE, PLP, BMF-ideal — and, from the related-literature zoo,
//!   Phoenix and Freij — verify **clean and exhaustively**: no
//!   reachable clean-crash state has an inconsistent trust base;
//! * Lazy, Eager, Triad-L1/L2 and Zuo yield **minimal counterexample
//!   traces** (one op, one crash) which the replay [`bridge`] lowers
//!   onto the concrete engine and re-proves as violations under the
//!   strict-windows torture oracle and the read-only
//!   recovery-invariant probe.
//!
//! A model checker that silently truncated its search would be worse
//! than none: every report carries an `exhaustive` flag plus truncation
//! counters, and "0 witnesses" under truncation means *unknown*.

pub mod bridge;
pub mod model;
pub mod search;

pub use bridge::{lift_case, lower_witness, reproduce_witness, LiftedCrash, Reproduction};
pub use model::{crash_verdict, Action, CrashMode, ModelState, Verdict, MAX_BLOCKS};
pub use search::{search_scheme, SchemeSearchReport, SearchConfig, Witness, WITNESS_CAP};

use crate::torture::TortureConfig;
use scue::SchemeKind;
use scue_util::obs::Json;

/// Version stamped into every model-checker JSON document.
pub const MC_SCHEMA_VERSION: u64 = 1;

/// Document kind tag distinguishing model-checker output.
pub const MC_DOC_KIND: &str = "scue-mc";

/// A full model-checking run's configuration.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Abstract search scope and budgets.
    pub search: SearchConfig,
    /// Concrete-side configuration the replay bridge lowers against.
    pub torture: TortureConfig,
    /// Whether to lower and reproduce witnesses on the concrete engine.
    pub replay: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            search: SearchConfig::default(),
            torture: TortureConfig::default(),
            replay: true,
        }
    }
}

/// One scheme's search result plus the concrete fate of its witnesses.
#[derive(Debug, Clone)]
pub struct SchemeMcReport {
    /// The exhaustive (or honestly truncated) search result.
    pub search: SchemeSearchReport,
    /// Reproductions aligned with `search.witness_list` (`None` when
    /// replay was disabled or the witness does not lower).
    pub reproductions: Vec<Option<Reproduction>>,
}

/// A full model-checking run over several schemes.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Configuration in force.
    pub config: McConfig,
    /// Per-scheme results, in the caller's scheme order.
    pub schemes: Vec<SchemeMcReport>,
}

impl McReport {
    /// Whether every scheme's search covered its whole space.
    pub fn exhaustive(&self) -> bool {
        self.schemes.iter().all(|s| s.search.exhaustive)
    }

    /// Total inconsistent crash cases across all schemes.
    pub fn total_witnesses(&self) -> u64 {
        self.schemes.iter().map(|s| s.search.witnesses_total).sum()
    }

    /// Witnesses against schemes the paper claims are root-crash
    /// consistent — any nonzero value is a model-check failure.
    pub fn rcc_witnesses(&self) -> u64 {
        self.schemes
            .iter()
            .filter(|s| s.search.scheme.policy().root_crash_consistent())
            .map(|s| s.search.witnesses_total)
            .sum()
    }

    /// Witnesses that lowered to a concrete case but failed to
    /// reproduce — any nonzero value means the abstract model and the
    /// engine disagree.
    pub fn failed_reproductions(&self) -> u64 {
        self.schemes
            .iter()
            .flat_map(|s| s.reproductions.iter().flatten())
            .filter(|r| !r.reproduced())
            .count() as u64
    }

    /// The run as a versioned JSON document.
    pub fn to_json(&self) -> Json {
        let schemes = self
            .schemes
            .iter()
            .map(|s| {
                let mut verdicts = Json::obj();
                for v in Verdict::ALL {
                    verdicts.set(
                        v.name(),
                        Json::U64(s.search.verdicts.get(&v).copied().unwrap_or(0)),
                    );
                }
                let witness_list = s
                    .search
                    .witness_list
                    .iter()
                    .zip(&s.reproductions)
                    .map(|(w, repro)| {
                        let actions = w.actions.iter().map(|a| Json::Str(a.token())).collect();
                        let mut doc = Json::obj()
                            .with("actions", Json::Arr(actions))
                            .with("crash", Json::Str(w.crash.token()))
                            .with("issues", Json::U64(w.issues() as u64));
                        match repro {
                            Some(r) => {
                                doc.set("replay", Json::Str(r.spec.clone()));
                                doc.set("reproduced", Json::Bool(r.reproduced()));
                            }
                            None => {
                                doc.set("replay", Json::Null);
                                doc.set("reproduced", Json::Null);
                            }
                        }
                        doc
                    })
                    .collect();
                Json::obj()
                    .with("scheme", Json::Str(s.search.scheme.to_string()))
                    .with("states", Json::U64(s.search.states))
                    .with("crash_cases", Json::U64(s.search.crash_cases))
                    .with("deepest", Json::U64(s.search.deepest as u64))
                    .with("exhaustive", Json::Bool(s.search.exhaustive))
                    .with("truncated_states", Json::U64(s.search.truncated_states))
                    .with("truncated_depth", Json::U64(s.search.truncated_depth))
                    .with("verdicts", verdicts)
                    .with("witnesses", Json::U64(s.search.witnesses_total))
                    .with("witness_list", Json::Arr(witness_list))
            })
            .collect();
        Json::obj()
            .with("schema_version", Json::U64(MC_SCHEMA_VERSION))
            .with("kind", Json::Str(MC_DOC_KIND.to_string()))
            .with("blocks", Json::U64(self.config.search.blocks as u64))
            .with("ops", Json::U64(self.config.search.ops as u64))
            .with(
                "max_states",
                Json::U64(self.config.search.max_states as u64),
            )
            .with("max_depth", Json::U64(self.config.search.max_depth as u64))
            .with("seed", Json::U64(self.config.torture.seed))
            .with("replay", Json::Bool(self.config.replay))
            .with("schemes", Json::Arr(schemes))
            .with("total_witnesses", Json::U64(self.total_witnesses()))
            .with("rcc_witnesses", Json::U64(self.rcc_witnesses()))
            .with(
                "failed_reproductions",
                Json::U64(self.failed_reproductions()),
            )
            .with("exhaustive", Json::Bool(self.exhaustive()))
    }
}

/// Model-checks every scheme in `schemes` at the configured scope,
/// lowering and reproducing witnesses when `cfg.replay` is set.
pub fn run(cfg: &McConfig, schemes: &[SchemeKind]) -> McReport {
    let schemes = schemes
        .iter()
        .map(|&scheme| {
            let search = search_scheme(scheme, &cfg.search);
            let reproductions = if cfg.replay {
                let mut out: Vec<Option<Reproduction>> = vec![None; search.witness_list.len()];
                for (i, repro) in
                    bridge::reproduce_all(&cfg.torture, &search.witness_list, cfg.search.jobs)
                {
                    out[i] = Some(repro);
                }
                out
            } else {
                vec![None; search.witness_list.len()]
            };
            SchemeMcReport {
                search,
                reproductions,
            }
        })
        .collect();
    McReport {
        config: *cfg,
        schemes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> McConfig {
        McConfig::default()
    }

    #[test]
    fn full_run_matches_the_paper_story() {
        let report = run(&smoke(), &SchemeKind::ALL);
        assert!(report.exhaustive());
        assert_eq!(report.rcc_witnesses(), 0);
        assert_eq!(report.failed_reproductions(), 0);
        assert!(report.total_witnesses() > 0, "lazy/eager must witness");
        for s in &report.schemes {
            // Window schemes (the non-root-crash-consistent secure ones)
            // must witness; everyone else must verify clean.
            let expect_witnesses = s.search.scheme.policy().is_secure()
                && !s.search.scheme.policy().root_crash_consistent();
            assert_eq!(
                s.search.witnesses_total > 0,
                expect_witnesses,
                "{}: {:?}",
                s.search.scheme,
                s.search
            );
            for repro in s.reproductions.iter().flatten() {
                assert!(repro.reproduced(), "{}: {repro:?}", s.search.scheme);
            }
        }
    }

    #[test]
    fn json_document_is_versioned_and_consistent() {
        let report = run(&smoke(), &[SchemeKind::Scue, SchemeKind::Lazy]);
        let doc = report.to_json();
        let parsed = Json::parse(&doc.render_doc()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_u64),
            Some(MC_SCHEMA_VERSION)
        );
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some(MC_DOC_KIND));
        let schemes = parsed.get("schemes").and_then(Json::as_arr).unwrap();
        assert_eq!(schemes.len(), 2);
        for s in schemes {
            let cases = s.get("crash_cases").and_then(Json::as_u64).unwrap();
            let verdicts = s.get("verdicts").unwrap();
            let sum: u64 = Verdict::ALL
                .iter()
                .map(|v| verdicts.get(v.name()).and_then(Json::as_u64).unwrap())
                .sum();
            assert_eq!(sum, cases, "verdicts must partition the crash cases");
        }
        // The Lazy witness carries a replayable spec marked reproduced.
        let lazy = &schemes[1];
        let list = lazy.get("witness_list").and_then(Json::as_arr).unwrap();
        assert!(!list.is_empty());
        assert_eq!(list[0].get("reproduced"), Some(&Json::Bool(true)));
        let spec = list[0].get("replay").and_then(Json::as_str).unwrap();
        assert!(spec.starts_with("lazy:"));
    }

    #[test]
    fn rendered_report_is_jobs_invariant() {
        let serial = run(&smoke(), &SchemeKind::ALL).to_json().render_doc();
        for jobs in [4, 7] {
            let cfg = McConfig {
                search: SearchConfig {
                    jobs,
                    ..SearchConfig::default()
                },
                ..smoke()
            };
            let parallel = run(&cfg, &SchemeKind::ALL).to_json().render_doc();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn truncation_is_surfaced_in_the_document() {
        let cfg = McConfig {
            search: SearchConfig {
                max_states: 2,
                ..SearchConfig::default()
            },
            replay: false,
            ..smoke()
        };
        let report = run(&cfg, &[SchemeKind::Scue]);
        assert!(!report.exhaustive());
        let doc = report.to_json().render_doc();
        assert!(doc.contains("\"exhaustive\":false"), "{doc}");
        let parsed = Json::parse(&doc).unwrap();
        let s = &parsed.get("schemes").and_then(Json::as_arr).unwrap()[0];
        assert!(s.get("truncated_states").and_then(Json::as_u64).unwrap() > 0);
    }
}
