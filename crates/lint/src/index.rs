//! Structural index over one file's token stream.
//!
//! A single pass records, for every function, its token interval, module
//! path, attributes, and whether it sits inside a `#[cfg(test)]` region.
//! Rules consume this instead of re-deriving brace structure themselves.

use crate::lexer::{Kind, Tok};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Module path inside the file (`[]` at top level).
    pub module: Vec<String>,
    /// Attribute texts with whitespace removed, e.g. `cfg(test)`,
    /// `target_feature(enable="avx2,fma")`.
    pub attrs: Vec<String>,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Inside a `#[cfg(test)]` module or itself a `#[test]`/`#[cfg(test)]` item.
    pub in_test: bool,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token index of the body `{` (== `end` for bodyless decls).
    pub body_start: usize,
    /// Token index one past the closing `}` (or past the `;`).
    pub end: usize,
    /// Line of the `fn` keyword.
    pub line: u32,
}

impl FnInfo {
    /// `module::name` qualification for matching call sites.
    pub fn qualified(&self) -> String {
        let mut q = self.module.join("::");
        if !q.is_empty() {
            q.push_str("::");
        }
        q.push_str(&self.name);
        q
    }
}

/// Index over one file.
#[derive(Debug)]
pub struct FileIndex {
    /// Repo-relative, `/`-separated path.
    pub path: String,
    /// The file's tokens.
    pub toks: Vec<Tok>,
    /// All `fn` items in source order.
    pub fns: Vec<FnInfo>,
    /// Token intervals `[start, end)` under `#[cfg(test)]`.
    pub test_regions: Vec<(usize, usize)>,
}

impl FileIndex {
    /// Builds the index for a file's tokens.
    pub fn build(path: String, toks: Vec<Tok>) -> FileIndex {
        let mut idx = FileIndex {
            path,
            toks,
            fns: Vec::new(),
            test_regions: Vec::new(),
        };
        idx.scan();
        idx
    }

    /// Innermost function whose body contains token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.start <= i && i < f.end)
            .max_by_key(|f| f.start)
    }

    /// `true` when token `i` lies inside a test region or test fn.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| s <= i && i < e)
            || self.enclosing_fn(i).is_some_and(|f| f.in_test)
    }

    fn scan(&mut self) {
        let toks = &self.toks;
        let n = toks.len();
        let mut i = 0usize;
        // (module-name, close-brace token index) for each open `mod {`.
        let mut mod_stack: Vec<(String, usize)> = Vec::new();
        let mut pending_attrs: Vec<String> = Vec::new();
        // Non-attr, non-comment tokens since the last item boundary; used
        // to find `unsafe` modifiers in front of `fn`.
        let mut modifiers: Vec<usize> = Vec::new();

        let mut fns = Vec::new();
        let mut test_regions = Vec::new();
        // Only comments and inner attributes seen so far: an inner
        // `#![cfg(test)]` here is the file's own attribute.
        let mut file_start = true;

        while i < n {
            let t = &toks[i];
            // Pop closed modules.
            while mod_stack.last().is_some_and(|&(_, close)| i > close) {
                mod_stack.pop();
            }
            match t.kind {
                Kind::Comment => {
                    i += 1;
                    continue;
                }
                Kind::Punct if t.text == "#" => {
                    // Attribute `#[...]` or `#![...]`.
                    let mut j = i + 1;
                    let inner = j < n && toks[j].is_punct('!');
                    if inner {
                        j += 1;
                    }
                    if j < n && toks[j].is_punct('[') {
                        let close = matching(toks, j, "[", "]");
                        let text: String = toks[j + 1..close]
                            .iter()
                            .filter(|t| t.kind != Kind::Comment)
                            .map(|t| t.text.as_str())
                            .collect();
                        // `#![cfg(test)]` at the top of a file makes the whole
                        // file (a test module's own file) test code; inside a
                        // block it would reach past the block's close.
                        if inner && file_start && is_cfg_test(std::slice::from_ref(&text)) {
                            test_regions.push((i, n));
                        }
                        file_start &= inner;
                        pending_attrs.push(text);
                        i = close + 1;
                        continue;
                    }
                    file_start = false;
                    i += 1;
                    continue;
                }
                Kind::Ident => file_start = false,
                _ => {
                    file_start = false;
                    if t.text == ";" || t.text == "{" || t.text == "}" {
                        modifiers.clear();
                        pending_attrs.clear();
                    }
                    i += 1;
                    continue;
                }
            }
            match t.text.as_str() {
                "mod" if i + 1 < n && toks[i + 1].kind == Kind::Ident => {
                    let name = toks[i + 1].text.clone();
                    // `mod name;` declarations have no body.
                    if i + 2 < n && toks[i + 2].is_punct('{') {
                        let close = matching(toks, i + 2, "{", "}");
                        if is_cfg_test(&pending_attrs) {
                            test_regions.push((i, close + 1));
                        }
                        mod_stack.push((name, close));
                        pending_attrs.clear();
                        modifiers.clear();
                        i += 3;
                    } else {
                        pending_attrs.clear();
                        modifiers.clear();
                        i += 2;
                    }
                    continue;
                }
                "fn" if i + 1 < n && toks[i + 1].kind == Kind::Ident => {
                    let name = toks[i + 1].text.clone();
                    let is_unsafe = modifiers.iter().any(|&m| toks[m].is_ident("unsafe"));
                    // Body `{` or `;` terminating a bodyless declaration.
                    let mut j = i + 2;
                    while j < n && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                        j += 1;
                    }
                    let (body_start, end) = if j < n && toks[j].is_punct('{') {
                        (j, matching(toks, j, "{", "}") + 1)
                    } else {
                        (j.min(n), j.min(n) + 1)
                    };
                    let in_test = !test_regions.is_empty()
                        && test_regions.iter().any(|&(s, e)| s <= i && i < e)
                        || pending_attrs
                            .iter()
                            .any(|a| a == "test" || a == "cfg(test)");
                    if pending_attrs.iter().any(|a| a == "cfg(test)") {
                        test_regions.push((i, end));
                    }
                    fns.push(FnInfo {
                        name,
                        module: mod_stack.iter().map(|(m, _)| m.clone()).collect(),
                        attrs: std::mem::take(&mut pending_attrs),
                        is_unsafe,
                        in_test,
                        start: i,
                        body_start,
                        end,
                        line: t.line,
                    });
                    modifiers.clear();
                    // Descend INTO the body (nested fns, inner items).
                    i = body_start.min(n);
                    if i < n && toks[i].is_punct('{') {
                        i += 1;
                    } else {
                        i = end.min(n);
                    }
                    continue;
                }
                "impl" => {
                    // Only a `#[cfg(test)] impl` matters here: its fns are
                    // test code. Any other is walked like the tokens around
                    // it, which finds the fns inside.
                    let mut j = i + 1;
                    while j < n && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                        j += 1;
                    }
                    let cfg_test = pending_attrs.iter().any(|a| a == "cfg(test)");
                    if j < n && toks[j].is_punct('{') && cfg_test {
                        test_regions.push((i, matching(toks, j, "{", "}") + 1));
                    }
                    pending_attrs.clear();
                    modifiers.clear();
                    i = j;
                    continue;
                }
                _ => {
                    modifiers.push(i);
                    i += 1;
                }
            }
        }
        self.fns = fns;
        self.test_regions = test_regions;
    }
}

/// `true` when an attribute list contains `cfg(test)` (including compound
/// forms like `cfg(all(test,target_arch="x86_64"))`).
fn is_cfg_test(attrs: &[String]) -> bool {
    attrs
        .iter()
        .any(|a| a.starts_with("cfg(") && a.contains("test"))
}

/// Index of the token matching `open` at `open_idx` (e.g. `{`/`}`); returns
/// the last token index when unbalanced so callers never overrun.
pub fn matching(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.kind == Kind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn idx(src: &str) -> FileIndex {
        FileIndex::build("test.rs".into(), lex(src))
    }

    #[test]
    fn fns_with_modules_and_unsafe() {
        let fi = idx(
            "mod avx2 {\n  pub unsafe fn l2(a: &[f32]) -> f32 { 0.0 }\n}\npub fn l2() -> f32 { 1.0 }\n",
        );
        assert_eq!(fi.fns.len(), 2);
        assert_eq!(fi.fns[0].qualified(), "avx2::l2");
        assert!(fi.fns[0].is_unsafe);
        assert_eq!(fi.fns[1].qualified(), "l2");
        assert!(!fi.fns[1].is_unsafe);
    }

    #[test]
    fn cfg_test_marks_regions_and_fns() {
        let fi =
            idx("fn real() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { real(); }\n}\n");
        assert!(!fi.fns[0].in_test);
        assert!(fi.fns[1].in_test);
        let call = fi
            .toks
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| t.is_ident("real"))
            .map(|(k, _)| k)
            .unwrap();
        assert!(fi.in_test(call));
        assert!(!fi.in_test(0));
    }

    #[test]
    fn inner_cfg_test_marks_the_rest_of_the_file() {
        let fi = idx("//! Tests.\n#![cfg(test)]\nuse super::*;\nfn helper() { x.unwrap(); }\n");
        assert!(fi.fns[0].in_test);
        assert!(fi.in_test(fi.toks.len() - 1));
        let plain = idx("#![allow(dead_code)]\nfn helper() { x.unwrap(); }\n");
        assert!(!plain.fns[0].in_test);
        // Inside a block the inner attribute is the block's, not the file's.
        let nested = idx("mod m { #![cfg(test)] }\nfn prod() { x.unwrap(); }\n");
        assert!(!nested.fns[0].in_test);
        assert!(!nested.in_test(nested.toks.len() - 1));
        let in_fn = idx("fn f() { #![cfg(test)] }\nfn prod() { x.unwrap(); }\n");
        assert!(!in_fn.fns[1].in_test);
    }

    #[test]
    fn attrs_are_normalized() {
        let fi = idx("#[target_feature(enable = \"avx2,fma\")]\npub unsafe fn k() {}\n");
        assert_eq!(fi.fns[0].attrs, vec!["target_feature(enable=\"avx2,fma\")"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let fi = idx("fn takes(f: fn(i32) -> i32) -> i32 { f(1) }\n");
        assert_eq!(fi.fns.len(), 1);
        assert_eq!(fi.fns[0].name, "takes");
    }
}
