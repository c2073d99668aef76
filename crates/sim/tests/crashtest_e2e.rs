//! End-to-end checks of the `scue-crashtest` binary: a real campaign
//! with real SIGKILLed child processes, exercised exactly the way
//! `scripts/verify.sh` drives it.

use scue_util::obs::Json;
use std::path::PathBuf;
use std::process::Command;

fn crashtest_exe() -> &'static str {
    env!("CARGO_BIN_EXE_scue-crashtest")
}

fn check_metrics_exe() -> &'static str {
    env!("CARGO_BIN_EXE_scue-check-metrics")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("scue-crashtest-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[test]
fn tiny_campaign_is_clean_and_its_json_validates() {
    let dir = tmp_dir("tiny");
    let json = dir.join("crashtest.json");
    let out = Command::new(crashtest_exe())
        .args([
            "--seed",
            "11",
            "--kills",
            "5",
            "--epochs",
            "3",
            "--ops-per-epoch",
            "8",
            "--scheme",
            "scue",
            "--jobs",
            "2",
        ])
        .arg("--dir")
        .arg(&dir)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("run scue-crashtest");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "campaign failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("oracle clean"), "{stdout}");

    let doc =
        Json::parse(&std::fs::read_to_string(&json).expect("json written")).expect("valid JSON");
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("scue-crashtest")
    );
    assert_eq!(doc.get("total_violations").and_then(Json::as_u64), Some(0));
    // The 5-case rotation includes both slot-damage faults, each pinned
    // past the first epoch — at least one open must have fallen back.
    let fallbacks = doc
        .get("total_fallbacks")
        .and_then(Json::as_u64)
        .expect("total_fallbacks");
    assert!(fallbacks >= 1, "expected at least one slot fallback");

    // The validator accepts what the binary emits.
    let check = Command::new(check_metrics_exe())
        .arg(&json)
        .output()
        .expect("run scue-check-metrics");
    assert!(
        check.status.success(),
        "check-metrics rejected the doc: {}",
        String::from_utf8_lossy(&check.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed 4's case 23 on PLP tears the page holding an L1 node that
/// covers only the resume probe's line: recovery and the read audit
/// never touch it, so the resume write is the first to verify it. That
/// MAC mismatch is a detection, not an unusable machine.
#[test]
fn integrity_error_on_the_resume_probe_is_a_detection() {
    let dir = tmp_dir("resume-probe");
    let out = Command::new(crashtest_exe())
        .args([
            "--seed", "4", "--kills", "24", "--scheme", "plp", "--jobs", "2",
        ])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("run scue-crashtest");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "campaign failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(!stdout.contains("resume_failure"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn child_mode_commits_checkpoints_and_exits_clean() {
    let dir = tmp_dir("child");
    let image = dir.join("child.img");
    let out = Command::new(crashtest_exe())
        .args(["--child", "scue", "7", "2", "4"])
        .arg(&image)
        .output()
        .expect("run child");
    assert!(
        out.status.success(),
        "child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("base "), "{stdout}");
    assert_eq!(
        lines.iter().filter(|l| l.starts_with("epoch ")).count(),
        2,
        "{stdout}"
    );
    assert_eq!(lines.last(), Some(&"done"), "{stdout}");
    assert!(image.exists(), "child must leave a durable image behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2() {
    let out = Command::new(crashtest_exe())
        .args(["--frobnicate"])
        .output()
        .expect("run scue-crashtest");
    assert_eq!(out.status.code(), Some(2));
}
