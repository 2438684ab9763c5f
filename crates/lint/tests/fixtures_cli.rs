//! End-to-end tests: the `harmony-lint` binary over the checked-in
//! fixtures (a bad and a fixed tree per rule family), the library over
//! the real repo (must be clean), and a mutation test that deletes a real
//! SAFETY comment and asserts the pass catches it at the right location.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the binary with `--root dir`; returns (exit_code, stdout).
fn lint(dir: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_harmony-lint"))
        .arg("--root")
        .arg(dir)
        .output()
        .expect("run harmony-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Asserts `bad/` fails mentioning `expect_line`, and `fixed/` passes.
fn check_pair(name: &str, expect_line: &str) {
    let (code, stdout) = lint(&fixture(name).join("bad"));
    assert_eq!(code, 1, "{name}/bad should fail; stdout:\n{stdout}");
    assert!(
        stdout.contains(expect_line),
        "{name}/bad stdout should contain `{expect_line}`:\n{stdout}"
    );
    let (code, stdout) = lint(&fixture(name).join("fixed"));
    assert_eq!(code, 0, "{name}/fixed should pass; stdout:\n{stdout}");
}

#[test]
fn unsafe_without_safety_comment() {
    check_pair("unsafe_comment", "ptr.rs:2  HL-UNSAFE-COMMENT");
}

#[test]
fn target_feature_without_guard() {
    check_pair("unsafe_guard", "HL-UNSAFE-GUARD");
}

#[test]
fn lock_inversion() {
    check_pair("lock_order", "engine.rs:4  HL-LOCK-ORDER");
}

#[test]
fn forbidden_unwrap() {
    check_pair("forbid", "worker.rs:2  HL-FORBID-UNWRAP");
}

#[test]
fn allowlist_stale_entry_fails_and_justified_entry_suppresses() {
    check_pair("allowlist", "HL-ALLOW-STALE");
}

#[test]
fn fix_allowlist_bootstraps_a_clean_run() {
    // Copy the failing forbid fixture to a scratch dir, bootstrap the
    // allowlist, and verify the tree then lints clean.
    let dir = std::env::temp_dir().join(format!("hl-bootstrap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    for f in ["lint.toml", "worker.rs"] {
        std::fs::copy(fixture("forbid").join("bad").join(f), dir.join(f)).expect("copy fixture");
    }
    let (code, _) = lint(&dir);
    assert_eq!(code, 1);
    let status = Command::new(env!("CARGO_BIN_EXE_harmony-lint"))
        .arg("--root")
        .arg(&dir)
        .arg("--fix-allowlist")
        .status()
        .expect("run --fix-allowlist");
    assert!(status.success());
    let allow = std::fs::read_to_string(dir.join("lint.allow")).expect("lint.allow written");
    assert!(allow.contains("HL-FORBID-UNWRAP  worker.rs  handle"));
    let (code, stdout) = lint(&dir);
    assert_eq!(code, 0, "bootstrapped tree should pass:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repo_tree_is_clean() {
    let report = harmony_lint::run(&harmony_lint::default_root()).expect("lint repo");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "repo tree has findings:\n{}",
        rendered.join("\n")
    );
}

/// Deleting any `// SAFETY:` comment in the real distance.rs must fail
/// with `HL-UNSAFE-COMMENT`.
#[test]
fn real_distance_safety_comment_deletion_is_caught() {
    let root = harmony_lint::default_root();
    let src = std::fs::read_to_string(root.join("crates/index/src/distance.rs"))
        .expect("read distance.rs");
    let safety_line = src
        .lines()
        .find(|l| l.trim_start().starts_with("// SAFETY:"))
        .expect("a SAFETY comment");
    let mutated = src.replacen(safety_line, "", 1);

    let dir = std::env::temp_dir().join(format!("hl-safety-mut-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    std::fs::write(dir.join("distance.rs"), mutated).expect("write mutated");
    std::fs::write(dir.join("lint.toml"), "").expect("write config");
    let cfg = harmony_lint::config::load(&dir.join("lint.toml")).expect("config");
    let mut al = harmony_lint::allowlist::Allowlist::default();
    let report = harmony_lint::run_with(&dir, &cfg, &mut al).expect("lint scratch");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule.id() == "HL-UNSAFE-COMMENT" && f.file == "distance.rs"),
        "expected HL-UNSAFE-COMMENT in distance.rs, got:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
