//! `lint.toml` loading.
//!
//! The container has no crates.io access, so this is a purpose-built
//! parser for the subset of TOML the config actually uses: `[section]`
//! headers, `[[section]]` array-of-tables headers, string values, and
//! (possibly multiline) string arrays. Anything else is a hard error —
//! a silently ignored config line is worse than a loud one.

use std::path::Path;

/// Declared lock order for one file, or for every file under one
/// directory: `order[i]` must be acquired before `order[j]` whenever
/// `i < j` and both are held.
#[derive(Debug, Clone, Default)]
pub struct LockOrder {
    /// Repo-relative file or directory the order applies to.
    pub file: String,
    /// Lock names (the field identifier the lock lives behind), outermost
    /// first.
    pub order: Vec<String>,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directory prefixes (repo-relative) excluded from all rules.
    pub exclude: Vec<String>,
    /// Files (or directories of files) where `unwrap()`/`expect()` are
    /// forbidden outside the allowlist.
    pub no_panic: Vec<String>,
    /// Files where `thread::sleep`/`Instant::now` are forbidden (codec and
    /// encode paths must stay deterministic and non-blocking).
    pub no_time: Vec<String>,
    /// Declared lock orders, one per file or directory.
    pub lock_orders: Vec<LockOrder>,
}

/// Parses config text. `origin` is used in error messages only.
pub fn parse(text: &str, origin: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();

    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            section = name.trim().to_string();
            if section == "lock_order" {
                cfg.lock_orders.push(LockOrder::default());
            } else {
                return Err(format!(
                    "{origin}:{}: unknown array-of-tables [[{section}]]",
                    ln + 1
                ));
            }
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(format!("{origin}:{}: expected `key = value`", ln + 1));
        };
        let key = line[..eq].trim().to_string();
        let mut val = line[eq + 1..].trim().to_string();
        // Multiline array: keep consuming until the closing bracket.
        if val.starts_with('[') && !balanced(&val) {
            for (_, cont) in lines.by_ref() {
                val.push(' ');
                val.push_str(strip_comment(cont).trim());
                if balanced(&val) {
                    break;
                }
            }
        }
        set(&mut cfg, &section, &key, &val).map_err(|e| format!("{origin}:{}: {e}", ln + 1))?;
    }
    Ok(cfg)
}

/// Loads and parses `lint.toml` from `path`.
pub fn load(path: &Path) -> Result<Config, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text, &path.display().to_string())
}

fn set(cfg: &mut Config, section: &str, key: &str, val: &str) -> Result<(), String> {
    match (section, key) {
        ("paths", "exclude") => cfg.exclude = parse_array(val)?,
        ("forbid", "no_panic") => cfg.no_panic = parse_array(val)?,
        ("forbid", "no_time") => cfg.no_time = parse_array(val)?,
        ("lock_order", "file") => {
            order_mut(cfg)?.file = parse_string(val)?;
        }
        ("lock_order", "order") => {
            order_mut(cfg)?.order = parse_array(val)?;
        }
        _ => return Err(format!("unknown key `{key}` in section `[{section}]`")),
    }
    Ok(())
}

fn order_mut(cfg: &mut Config) -> Result<&mut LockOrder, String> {
    cfg.lock_orders
        .last_mut()
        .ok_or_else(|| "key outside a [[lock_order]] table".to_string())
}

/// Removes a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_escape = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_escape => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_escape = c == '\\' && !prev_escape;
    }
    line
}

/// `true` when every `[` has a matching `]` (strings respected).
fn balanced(val: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in val.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string(val: &str) -> Result<String, String> {
    let v = val.trim();
    v.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(|s| s.to_string())
        .ok_or_else(|| format!("expected a quoted string, got `{v}`"))
}

fn parse_array(val: &str) -> Result<Vec<String>, String> {
    let v = val.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array, got `{v}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_round_trips() {
        let text = r#"
# harmony-lint configuration
[paths]
exclude = ["target", "vendor"]

[forbid]
no_panic = [
    "crates/core/src/worker.rs",   # router threads
    "crates/core/src/engine.rs",
]
no_time = ["crates/cluster/src/codec.rs"]

[[lock_order]]
file = "crates/core/src/engine.rs"
order = ["supervisor", "ingest", "base"]

[[lock_order]]
file = "crates/cluster/src/transport.rs"
order = ["senders", "state"]
"#;
        let cfg = parse(text, "test").unwrap();
        assert_eq!(cfg.exclude, vec!["target", "vendor"]);
        assert_eq!(cfg.no_panic.len(), 2);
        assert_eq!(cfg.no_time, vec!["crates/cluster/src/codec.rs"]);
        assert_eq!(cfg.lock_orders.len(), 2);
        assert_eq!(
            cfg.lock_orders[0].order,
            vec!["supervisor", "ingest", "base"]
        );
        assert_eq!(cfg.lock_orders[1].file, "crates/cluster/src/transport.rs");
    }

    #[test]
    fn unknown_key_is_an_error() {
        assert!(parse("[forbid]\nbogus = \"x\"\n", "test").is_err());
        // So is a section no rule reads.
        assert!(parse("[codec]\nfiles = []\n", "test").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = parse("[[lock_order]]\nfile = \"a#b.rs\"\n", "test").unwrap();
        assert_eq!(cfg.lock_orders[0].file, "a#b.rs");
    }
}
