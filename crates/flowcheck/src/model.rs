//! A brace-matched outline over the token stream: `fn` items with body
//! ranges, with `#[cfg(test)] mod … { … }` blocks masked out.
//!
//! Test modules are the *observers* of the deterministic system, not part
//! of it — a test harness may iterate a scratch `HashMap` freely — so both
//! rule engines analyze only non-test code.

use crate::lex::{ExemptMarker, Lexed, Token};

/// One `fn` item: its name and the half-open token range of its body
/// (between, exclusive of, the outer braces).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub line: u32,
    /// Token index of the body's opening `{`.
    pub body_open: usize,
    /// Token index of the body's closing `}`.
    pub body_close: usize,
}

/// A lexed file plus its outline, as consumed by the rule engines.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path as reported in diagnostics (repo-relative in repo mode).
    pub path: String,
    pub tokens: Vec<Token>,
    pub markers: Vec<ExemptMarker>,
    pub fns: Vec<FnItem>,
    /// Token ranges belonging to `#[cfg(test)]` modules; indices inside
    /// any of these ranges are skipped by the engines.
    pub test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let Lexed { tokens, markers } = crate::lex::lex(src);
        let test_ranges = find_test_ranges(&tokens);
        let fns = find_fns(&tokens, &test_ranges);
        SourceFile {
            path: path.to_string(),
            tokens,
            markers,
            fns,
            test_ranges,
        }
    }

    pub fn in_test_range(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx < b)
    }

    /// Looks up a fn item by name (first match).
    pub fn find_fn(&self, name: &str) -> Option<&FnItem> {
        self.fns.iter().find(|f| f.name == name)
    }

    /// True if an exempt marker sits on `line` or the line directly above
    /// (markers may annotate a statement from the preceding line).
    pub fn marker_near_line(&self, line: u32) -> Option<&ExemptMarker> {
        self.markers
            .iter()
            .find(|m| m.line == line || m.line + 1 == line)
    }

    /// True if an exempt marker sits inside the fn body's line span or in
    /// the three lines above the `fn` keyword (doc/attribute position).
    pub fn marker_for_fn(&self, f: &FnItem) -> Option<&ExemptMarker> {
        let end_line = self.tokens[f.body_close].line;
        self.markers
            .iter()
            .find(|m| m.line + 3 >= f.line && m.line <= end_line)
    }
}

/// Finds the matching `}` for the `{` at `open`.
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    debug_assert_eq!(tokens[open].text, "{");
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len() - 1
}

fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // `# [ cfg ( test ) ] mod NAME {`
        if tokens[i].text == "#"
            && matches_seq(tokens, i + 1, &["[", "cfg", "(", "test", ")", "]", "mod"])
        {
            // Skip to the module's opening brace.
            let mut j = i + 8; // past `mod`, at NAME
            while j < tokens.len() && tokens[j].text != "{" {
                j += 1;
            }
            if j < tokens.len() {
                let close = match_brace(tokens, j);
                out.push((i, close + 1));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn find_fns(tokens: &[Token], test_ranges: &[(usize, usize)]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "fn"
            && i + 1 < tokens.len()
            && !test_ranges.iter().any(|&(a, b)| i >= a && i < b)
        {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i].line;
            // Walk to the body `{`, skipping the parameter parens and any
            // bracketed generics / where-clause punctuation. A `;` first
            // means a trait method signature or extern decl: no body.
            let mut j = i + 2;
            let mut paren = 0i32;
            let mut angle_guard = 0usize; // crude: skip `<...>` by counting
            let mut body = None;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    "<" => angle_guard += 1,
                    ">" => angle_guard = angle_guard.saturating_sub(1),
                    ";" if paren == 0 => break,
                    "{" if paren == 0 && angle_guard == 0 => {
                        body = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = body {
                let close = match_brace(tokens, open);
                out.push(FnItem {
                    name,
                    line,
                    body_open: open,
                    body_close: close,
                });
                // Continue scanning *inside* the body too (nested fns),
                // so only advance past the signature.
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// True if `tokens[start..]` begins with exactly `texts`.
pub fn matches_seq(tokens: &[Token], start: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| tokens.get(start + k).map(|t| t.text.as_str()) == Some(*want))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlines_fns() {
        let f = SourceFile::parse("x.rs", "impl K { fn a(&self) { 1 } fn b() -> u8 { 2 } }");
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn masks_test_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() { } }";
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["live"]);
    }

    #[test]
    fn generic_fn_body_found() {
        let src = "fn g<T: Ord>(x: T) -> Vec<T> where T: Clone { vec![x] }";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.fns.len(), 1);
        assert!(f.fns[0].body_close > f.fns[0].body_open);
    }

    #[test]
    fn finds_marker_near_fn() {
        let src = "// flowcheck: exempt(why)\nfn f() { }";
        let f = SourceFile::parse("x.rs", src);
        let item = f.find_fn("f").unwrap();
        assert!(f.marker_for_fn(item).is_some());
    }
}
