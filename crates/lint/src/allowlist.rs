//! `lint.allow`: the checked-in record of deliberate exceptions.
//!
//! One entry per line:
//!
//! ```text
//! RULE_ID  path/from/repo/root.rs  fn_name  # one-line justification
//! ```
//!
//! `fn_name` is the enclosing function of the finding, or `-` for
//! file-level findings. Every entry must carry a `#` justification
//! (enforced as `HL-ALLOW-JUSTIFY`), and entries that no longer suppress
//! anything are flagged as `HL-ALLOW-STALE` so the file cannot rot.

use crate::findings::{Finding, Rule};
use std::path::Path;

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Rule ID string, e.g. `HL-FORBID-UNWRAP`.
    pub rule: String,
    /// Repo-relative file the exception applies to.
    pub file: String,
    /// Enclosing function name, `-` for file-level findings.
    pub func: String,
    /// Text after `#`, trimmed. Empty when the `#` is missing.
    pub justification: String,
    /// 1-based line in `lint.allow`.
    pub line: u32,
    /// Set when the entry suppressed at least one finding this run.
    pub used: bool,
}

/// Loaded allowlist. A missing file is an empty allowlist, not an error.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Repo-relative path of the allowlist file (for finding locations).
    pub path: String,
    /// Parsed entries.
    pub entries: Vec<Entry>,
}

impl Allowlist {
    /// Loads `lint.allow` from `path` (repo-relative name `rel` used in
    /// findings). Returns `Err` only on malformed entries.
    pub fn load(path: &Path, rel: &str) -> Result<Allowlist, String> {
        let mut al = Allowlist {
            path: rel.to_string(),
            entries: Vec::new(),
        };
        let Ok(text) = std::fs::read_to_string(path) else {
            return Ok(al);
        };
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (head, just) = match line.split_once('#') {
                Some((h, j)) => (h.trim(), j.trim().to_string()),
                None => (line, String::new()),
            };
            let parts: Vec<&str> = head.split_whitespace().collect();
            if parts.len() != 3 {
                return Err(format!(
                    "{rel}:{}: expected `RULE_ID file fn  # justification`, got `{line}`",
                    ln + 1
                ));
            }
            al.entries.push(Entry {
                rule: parts[0].to_string(),
                file: parts[1].to_string(),
                func: parts[2].to_string(),
                justification: just,
                line: ln as u32 + 1,
                used: false,
            });
        }
        Ok(al)
    }

    /// `true` when an entry covers the finding; marks that entry used.
    pub fn permits(&mut self, f: &Finding) -> bool {
        let func = if f.func.is_empty() { "-" } else { &f.func };
        let mut hit = false;
        for e in &mut self.entries {
            if e.rule == f.rule.id() && e.file == f.file && e.func == func {
                e.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Findings about the allowlist itself: unused (stale) entries and
    /// entries with no justification.
    pub fn audit(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for e in &self.entries {
            if e.justification.is_empty() {
                out.push(Finding::new(
                    Rule::AllowJustify,
                    self.path.clone(),
                    e.line,
                    "",
                    format!(
                        "allowlist entry `{} {} {}` has no `# justification`",
                        e.rule, e.file, e.func
                    ),
                ));
            }
            if !e.used {
                out.push(Finding::new(
                    Rule::AllowStale,
                    self.path.clone(),
                    e.line,
                    "",
                    format!(
                        "allowlist entry `{} {} {}` no longer matches any finding",
                        e.rule, e.file, e.func
                    ),
                ));
            }
        }
        out
    }

    /// Renders a bootstrap allowlist covering `findings`, for
    /// `--fix-allowlist`. Existing entries are preserved; new ones get a
    /// placeholder justification the author must edit.
    pub fn bootstrap(&self, findings: &[Finding]) -> String {
        let mut lines: Vec<String> = Vec::new();
        lines.push("# lint.allow — deliberate exceptions to harmony-lint rules.".into());
        lines.push("# Format: RULE_ID  file  fn  # one-line justification".into());
        lines.push(String::new());
        let mut seen: Vec<(String, String, String)> = Vec::new();
        for e in &self.entries {
            if e.used {
                let just = if e.justification.is_empty() {
                    "EDIT: justify this exception".to_string()
                } else {
                    e.justification.clone()
                };
                lines.push(format!("{}  {}  {}  # {}", e.rule, e.file, e.func, just));
                seen.push((e.rule.clone(), e.file.clone(), e.func.clone()));
            }
        }
        for f in findings {
            if matches!(f.rule, Rule::AllowStale | Rule::AllowJustify) {
                continue;
            }
            let func = if f.func.is_empty() {
                "-".to_string()
            } else {
                f.func.clone()
            };
            let key = (f.rule.id().to_string(), f.file.clone(), func.clone());
            if seen.contains(&key) {
                continue;
            }
            lines.push(format!(
                "{}  {}  {}  # EDIT: justify this exception",
                f.rule.id(),
                f.file,
                func
            ));
            seen.push(key);
        }
        lines.push(String::new());
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_text(text: &str) -> Allowlist {
        // Tests run on parallel threads: one file each.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!("hl-allow-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let p = dir.join(format!("lint-{n}.allow"));
        std::fs::write(&p, text).unwrap();
        Allowlist::load(&p, "lint.allow").unwrap()
    }

    #[test]
    fn permits_and_marks_used() {
        let mut al = entry_text("HL-FORBID-UNWRAP  crates/a.rs  spawn  # fallible twin exists\n");
        let f = Finding::new(Rule::ForbidUnwrap, "crates/a.rs", 10, "spawn", "x");
        assert!(al.permits(&f));
        assert!(al.audit().is_empty());
    }

    #[test]
    fn stale_and_unjustified_entries_flagged() {
        let al = entry_text(
            "HL-FORBID-UNWRAP  crates/a.rs  spawn  # ok\nHL-LOCK-ORDER  crates/b.rs  f\n",
        );
        let findings = al.audit();
        // Both entries unused → 2 stale; second also unjustified.
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.rule == Rule::AllowStale)
                .count(),
            2
        );
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.rule == Rule::AllowJustify)
                .count(),
            1
        );
    }

    #[test]
    fn missing_file_is_empty() {
        let al = Allowlist::load(Path::new("/nonexistent/lint.allow"), "lint.allow").unwrap();
        assert!(al.entries.is_empty());
    }

    #[test]
    fn bootstrap_renders_new_entries() {
        let al = entry_text("");
        let f = Finding::new(Rule::ForbidUnwrap, "crates/a.rs", 3, "go", "msg");
        let text = al.bootstrap(&[f]);
        assert!(text.contains("HL-FORBID-UNWRAP  crates/a.rs  go  # EDIT"));
    }
}
