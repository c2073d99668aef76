//! End-to-end checks of the crash model checker: the committed golden
//! counterexample witnesses must stay byte-stable across job counts,
//! and every golden witness must still reproduce as a concrete
//! violation when its replay spec is run against the real engine.
//!
//! Regenerate the golden after an intentional model change with:
//!
//! ```text
//! SCUE_UPDATE_GOLDEN=1 cargo test -p scue-sim --test mc_e2e
//! ```

use scue::SchemeKind;
use scue_sim::mc::{self, lift_case, McConfig, SearchConfig};
use scue_sim::torture::{self, CaseSpec, TortureConfig};
use scue_util::obs::Json;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/mc_witnesses.json")
}

/// The machine-derived witness document committed as a golden: the
/// model checker's counterexamples for every window scheme in the zoo
/// (Lazy, Eager, Triad-L1/L2, Zuo) at smoke scope, with their lowered
/// replay specs and reproduction verdicts.
fn witness_doc(jobs: usize) -> String {
    let cfg = McConfig {
        search: SearchConfig {
            jobs,
            ..SearchConfig::default()
        },
        ..McConfig::default()
    };
    let report = mc::run(
        &cfg,
        &[
            SchemeKind::Lazy,
            SchemeKind::Eager,
            SchemeKind::TriadL1,
            SchemeKind::TriadL2,
            SchemeKind::Zuo,
        ],
    );
    let full = report.to_json();
    let schemes = full
        .get("schemes")
        .and_then(Json::as_arr)
        .expect("schemes array")
        .iter()
        .map(|s| {
            Json::obj()
                .with("scheme", s.get("scheme").unwrap().clone())
                .with("witnesses", s.get("witnesses").unwrap().clone())
                .with("witness_list", s.get("witness_list").unwrap().clone())
        })
        .collect();
    Json::obj()
        .with("kind", Json::Str("scue-mc-witnesses".into()))
        .with("blocks", full.get("blocks").unwrap().clone())
        .with("ops", full.get("ops").unwrap().clone())
        .with("seed", full.get("seed").unwrap().clone())
        .with("schemes", Json::Arr(schemes))
        .render_doc()
}

#[test]
fn golden_witnesses_are_jobs_invariant_and_committed() {
    let serial = witness_doc(1);
    assert_eq!(
        witness_doc(4),
        serial,
        "witness document diverged between --jobs 1 and --jobs 4"
    );
    let path = golden_path();
    if std::env::var("SCUE_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &serial).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        serial, golden,
        "mc_witnesses.json diverged from the committed golden \
         (SCUE_UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

#[test]
fn every_golden_witness_reproduces_a_concrete_violation() {
    let golden = std::fs::read_to_string(golden_path())
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden_path().display()));
    let doc = Json::parse(&golden).expect("golden parses");
    let seed = doc.get("seed").and_then(Json::as_u64).expect("seed");
    let strict = TortureConfig {
        seed,
        strict_windows: true,
        ..TortureConfig::default()
    };
    let mut replayed = 0;
    for entry in doc.get("schemes").and_then(Json::as_arr).expect("schemes") {
        let name = entry.get("scheme").and_then(Json::as_str).unwrap();
        let list = entry
            .get("witness_list")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{name}: witness_list"));
        assert!(!list.is_empty(), "{name}: golden must carry witnesses");
        for w in list {
            assert_eq!(
                w.get("reproduced"),
                Some(&Json::Bool(true)),
                "{name}: committed witness not marked reproduced: {w:?}"
            );
            let spec = w
                .get("replay")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{name}: witness without a replay spec: {w:?}"));
            let (scheme, case) = CaseSpec::diagnose_replay(spec)
                .unwrap_or_else(|e| panic!("bad spec `{spec}`: {e}"));
            assert_eq!(scheme.to_string(), *name, "spec `{spec}` names {name}");

            // Forward direction: the spec violates the strict oracle.
            let result = torture::run_case(scheme, &strict, case);
            torture::oracle(scheme, &strict, &result).expect_err(&format!(
                "golden witness `{spec}` must reproduce a strict-windows violation"
            ));

            // Reverse direction: lifting the concrete case back to
            // abstract coordinates matches the witness and lands in a
            // window (the trust base is missing increments).
            let lifted = lift_case(scheme, &strict, case).expect("clean-crash case lifts");
            let issues = w.get("issues").and_then(Json::as_u64).unwrap();
            assert_eq!(lifted.issues as u64, issues, "spec `{spec}`");
            assert!(
                lifted.missing > 0,
                "spec `{spec}`: lifted case must miss trust-base increments"
            );
            replayed += 1;
        }
    }
    assert!(replayed >= 5, "golden must cover all five window schemes");
}
