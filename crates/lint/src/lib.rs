//! harmony-lint: repo-invariant static analysis for the Harmony workspace.
//!
//! The compiler cannot see the invariants this crate enforces: `SAFETY`
//! obligations on `unsafe` code, the lock-acquisition order that keeps
//! router and supervisor threads deadlock-free, and the no-panic
//! discipline of the hot paths. See DESIGN.md §7 for the rule catalogue
//! and allowlist policy; configuration lives in `lint.toml`, deliberate
//! exceptions in `lint.allow`, both at the repo root.

pub mod allowlist;
pub mod config;
pub mod findings;
pub mod index;
pub mod lexer;
pub mod rules;

use allowlist::Allowlist;
use config::Config;
use findings::Finding;
use index::FileIndex;
use std::path::{Path, PathBuf};

/// Result of one lint run.
#[derive(Debug)]
pub struct Report {
    /// Active findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Findings suppressed by the allowlist.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

/// Runs all rules over the tree at `root` using `root/lint.toml` and
/// `root/lint.allow`.
pub fn run(root: &Path) -> Result<Report, String> {
    let cfg = config::load(&root.join("lint.toml"))?;
    let mut al = Allowlist::load(&root.join("lint.allow"), "lint.allow")?;
    run_with(root, &cfg, &mut al)
}

/// Runs all rules with explicit config and allowlist (fixture tests use
/// this to point at synthetic trees).
pub fn run_with(root: &Path, cfg: &Config, al: &mut Allowlist) -> Result<Report, String> {
    let mut files = Vec::new();
    collect(root, root, cfg, &mut files)?;
    files.sort();

    let mut indexed = Vec::with_capacity(files.len());
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        indexed.push(FileIndex::build(rel.clone(), lexer::lex(&text)));
    }

    let mut raw: Vec<Finding> = Vec::new();
    for fi in &indexed {
        rules::forbid::check(fi, cfg, &mut raw);
        rules::unsafe_audit::check(fi, &mut raw);
        for lo in &cfg.lock_orders {
            if covers(&lo.file, &fi.path) {
                rules::locks::check(fi, lo, &mut raw);
            }
        }
    }
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        if al.permits(&f) {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }
    findings.extend(al.audit());
    findings.sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
    Ok(Report {
        findings,
        suppressed,
        files: indexed.len(),
    })
}

/// Recursively collects repo-relative `.rs` paths under `dir`.
fn collect(root: &Path, dir: &Path, cfg: &Config, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = rel_path(root, &path);
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == ".git" || name == "target" || excluded(cfg, &rel) {
                continue;
            }
            collect(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") && !excluded(cfg, &rel) {
            out.push(rel);
        }
    }
    Ok(())
}

fn excluded(cfg: &Config, rel: &str) -> bool {
    cfg.exclude.iter().any(|p| covers(p, rel))
}

/// Whether the `lint.toml` path `entry` covers the repo-relative file
/// `rel`: it names the file itself, or a directory above it.
pub(crate) fn covers(entry: &str, rel: &str) -> bool {
    rel.strip_prefix(entry)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Default repo root: the workspace that contains this crate.
pub fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}
