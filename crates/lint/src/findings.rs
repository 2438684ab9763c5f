//! Finding representation and the stable rule-ID catalogue.

use std::fmt;

/// Stable rule identifiers. The string form is what appears in output and
/// in `lint.allow`, so renaming one is a breaking change for allowlists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `unsafe` block or fn without an adjacent `// SAFETY:` comment.
    UnsafeComment,
    /// `#[target_feature]` fn reachable from a caller that does not check
    /// CPU feature availability.
    UnsafeGuard,
    /// Lock acquired while holding a lock that is ordered after it.
    LockOrder,
    /// Lock not declared in `lint.toml` acquired together with ordered locks.
    LockUnknown,
    /// `unwrap()`/`expect()` in a file where panics are forbidden.
    ForbidUnwrap,
    /// Time API (`thread::sleep`, `Instant::now`) in a codec/encode path.
    ForbidTime,
    /// `todo!`/`unimplemented!` anywhere.
    ForbidTodo,
    /// `dbg!` anywhere.
    ForbidDbg,
    /// Allowlist entry that no longer matches anything in the tree.
    AllowStale,
    /// Allowlist entry with no `#` justification.
    AllowJustify,
}

impl Rule {
    /// The stable textual ID.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeComment => "HL-UNSAFE-COMMENT",
            Rule::UnsafeGuard => "HL-UNSAFE-GUARD",
            Rule::LockOrder => "HL-LOCK-ORDER",
            Rule::LockUnknown => "HL-LOCK-UNKNOWN",
            Rule::ForbidUnwrap => "HL-FORBID-UNWRAP",
            Rule::ForbidTime => "HL-FORBID-TIME",
            Rule::ForbidTodo => "HL-FORBID-TODO",
            Rule::ForbidDbg => "HL-FORBID-DBG",
            Rule::AllowStale => "HL-ALLOW-STALE",
            Rule::AllowJustify => "HL-ALLOW-JUSTIFY",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding, printable as `file:line  RULE_ID  message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: Rule,
    /// Path relative to the repo root, `/`-separated.
    pub file: String,
    /// 1-based line; 0 when the finding is not tied to a line (e.g. a
    /// stale allowlist entry for a deleted file).
    pub line: u32,
    /// Name of the enclosing function, used as the allowlist key. Empty
    /// for file-level findings.
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}  {}  {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// Constructs a finding; `func` may be empty for file-level findings.
    pub fn new(
        rule: Rule,
        file: impl Into<String>,
        line: u32,
        func: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule,
            file: file.into(),
            line,
            func: func.into(),
            message: message.into(),
        }
    }
}
