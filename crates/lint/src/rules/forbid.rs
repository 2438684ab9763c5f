//! Forbidden-API rules.
//!
//! * `HL-FORBID-TODO` / `HL-FORBID-DBG` — `todo!`, `unimplemented!` and
//!   `dbg!` anywhere, tests included: they are edit-time scaffolding and
//!   must never merge.
//! * `HL-FORBID-UNWRAP` — `.unwrap()` / `.expect(` in files listed under
//!   `forbid.no_panic` (worker, transport, codec): a panic there kills a
//!   router or supervisor thread and wedges the cluster. Test code is
//!   exempt; deliberate exceptions go in `lint.allow` with a
//!   justification.
//! * `HL-FORBID-TIME` — `thread::sleep` / `Instant::now` in files listed
//!   under `forbid.no_time` (codec paths): encode/decode must stay
//!   deterministic and non-blocking so frames can be re-encoded for
//!   retries and replays byte-for-byte.

use crate::config::Config;
use crate::findings::{Finding, Rule};
use crate::index::FileIndex;
use crate::lexer::Kind;

/// Runs the forbidden-API family over one file.
pub fn check(fi: &FileIndex, cfg: &Config, out: &mut Vec<Finding>) {
    let listed = |entries: &[String]| entries.iter().any(|e| crate::covers(e, &fi.path));
    let no_panic = listed(&cfg.no_panic);
    let no_time = listed(&cfg.no_time);
    let toks = &fi.toks;
    let n = toks.len();

    let fn_name = |i: usize| {
        fi.enclosing_fn(i)
            .map(|f| f.name.clone())
            .unwrap_or_default()
    };

    for i in 0..n {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            continue;
        }
        let bang = i + 1 < n && toks[i + 1].is_punct('!');
        match t.text.as_str() {
            "todo" | "unimplemented" if bang => {
                out.push(Finding::new(
                    Rule::ForbidTodo,
                    fi.path.clone(),
                    t.line,
                    fn_name(i),
                    format!("`{}!` must not be committed", t.text),
                ));
            }
            "dbg" if bang => {
                out.push(Finding::new(
                    Rule::ForbidDbg,
                    fi.path.clone(),
                    t.line,
                    fn_name(i),
                    "`dbg!` must not be committed",
                ));
            }
            "unwrap" | "expect"
                if no_panic
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && i + 1 < n
                    && toks[i + 1].is_punct('(')
                    && !fi.in_test(i) =>
            {
                out.push(Finding::new(
                    Rule::ForbidUnwrap,
                    fi.path.clone(),
                    t.line,
                    fn_name(i),
                    format!(
                        "`.{}()` in a no-panic file; return an error or allowlist with justification",
                        t.text
                    ),
                ));
            }
            "sleep"
                if no_time
                    && i >= 2
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && !fi.in_test(i) =>
            {
                out.push(Finding::new(
                    Rule::ForbidTime,
                    fi.path.clone(),
                    t.line,
                    fn_name(i),
                    "`thread::sleep` in a codec path",
                ));
            }
            "now"
                if no_time
                    && i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].is_ident("Instant")
                    && !fi.in_test(i) =>
            {
                out.push(Finding::new(
                    Rule::ForbidTime,
                    fi.path.clone(),
                    t.line,
                    fn_name(i),
                    "`Instant::now` in a codec path",
                ));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, no_panic: bool, no_time: bool) -> Vec<Finding> {
        let fi = FileIndex::build("f.rs".into(), lex(src));
        let mut cfg = Config::default();
        if no_panic {
            cfg.no_panic.push("f.rs".into());
        }
        if no_time {
            cfg.no_time.push("f.rs".into());
        }
        let mut out = Vec::new();
        check(&fi, &cfg, &mut out);
        out
    }

    #[test]
    fn todo_and_dbg_fire_everywhere() {
        let out = run("fn f() { todo!() }\nfn g() { dbg!(1); }", false, false);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].rule, Rule::ForbidTodo);
        assert_eq!(out[1].rule, Rule::ForbidDbg);
        assert_eq!(out[0].func, "f");
    }

    #[test]
    fn unwrap_fires_only_in_no_panic_files_outside_tests() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t(x: Option<u8>) { x.unwrap(); } }";
        assert_eq!(run(src, true, false).len(), 1);
        assert!(run(src, false, false).is_empty());
    }

    #[test]
    fn a_directory_entry_covers_the_files_under_it() {
        let fi = FileIndex::build(
            "a/engine/mod.rs".into(),
            lex("fn f(x: Option<u8>) { x.unwrap(); }"),
        );
        let findings = |entry: &str| {
            let cfg = Config {
                no_panic: vec![entry.into()],
                ..Config::default()
            };
            let mut out = Vec::new();
            check(&fi, &cfg, &mut out);
            out.len()
        };
        assert_eq!(findings("a/engine"), 1);
        assert_eq!(findings("a/engine/mod.rs"), 1);
        // A name that merely starts the same way is another path.
        assert_eq!(findings("a/eng"), 0);
        assert_eq!(findings("a/engine/mod"), 0);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let out = run("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }", true, false);
        assert!(out.is_empty());
    }

    #[test]
    fn time_apis_fire_in_no_time_files() {
        let out = run(
            "fn f() { std::thread::sleep(d); let t = Instant::now(); }",
            false,
            true,
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|f| f.rule == Rule::ForbidTime));
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let out = run(
            "fn f() { let s = \"todo!\"; } // dbg!(1) and x.unwrap()",
            true,
            true,
        );
        assert!(out.is_empty());
    }
}
