//! Structural index over a lexed file: function spans, `#[cfg(test)]`
//! regions, hot-path regions, `bist-lint:` markers, `impl` blocks and
//! the bare-`pub` items the `dead-pub` rule checks.
//!
//! Everything here is line-granular and brace-counted over the *code*
//! channel only, so braces in strings or comments never derail a span.

use crate::lexer::{is_ident_char, LexedLine};

/// A function item: its name, signature line and body extent
/// (inclusive, 0-based line indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based line of the body's opening brace.
    pub body_start: usize,
    /// 0-based line of the body's closing brace.
    pub body_end: usize,
    /// Whether a `#[target_feature(...)]` attribute precedes it.
    pub target_feature: bool,
}

/// A `// bist-lint: hot-path` region: the next function item after the
/// marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotRegion {
    /// Name of the marked function.
    pub fn_name: String,
    /// 0-based first line of the region (the marker line).
    pub start: usize,
    /// 0-based last line of the region (the body's closing brace).
    pub end: usize,
}

/// An inline `// bist-lint: allow(<rule>) — <reason>` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowMarker {
    /// 0-based line the marker sits on.
    pub line: usize,
    /// The rule name inside the parentheses.
    pub rule: String,
    /// Whether a non-empty reason follows the closing parenthesis.
    pub has_reason: bool,
}

/// A bare-`pub` item: a top-level (or inline-`mod`) definition, or a
/// method of an inherent `impl` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// The item's name.
    pub name: String,
    /// Its keyword: `fn`, `struct`, `enum`, `const`, `static`, `type`,
    /// `trait` or `union`.
    pub kind: &'static str,
    /// The self type when the item is an inherent-`impl` method.
    pub owner: Option<String>,
    /// 0-based line of the `pub` keyword.
    pub line: usize,
    /// 0-based last line of the item (its closing brace or `;`).
    pub end: usize,
}

/// An `impl` block's self type and extent (inclusive, 0-based lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplBlock {
    /// Last path segment of the self type (`Foo` for `impl<T> a::Foo<T>`).
    pub self_ty: String,
    /// Whether this is `impl Trait for Type`.
    pub trait_impl: bool,
    /// 0-based line the block's header starts on.
    pub start: usize,
    /// 0-based line of the closing brace.
    pub end: usize,
}

/// The structural index of one file.
#[derive(Debug, Default)]
pub struct Structure {
    /// Every function item found, in source order.
    pub fns: Vec<FnSpan>,
    /// Inclusive line ranges covered by a `#[cfg(test)]` item.
    pub cfg_test: Vec<(usize, usize)>,
    /// Hot-path regions, in source order.
    pub hot_regions: Vec<HotRegion>,
    /// Allow markers, in source order.
    pub allows: Vec<AllowMarker>,
    /// Bare-`pub` items outside function bodies, in source order.
    pub pub_items: Vec<PubItem>,
    /// `impl` blocks, in source order.
    pub impls: Vec<ImplBlock>,
}

impl Structure {
    /// Builds the index for a lexed file.
    pub fn build(lines: &[LexedLine]) -> Self {
        let (pub_items, impls) = find_items(lines);
        let mut s = Structure {
            fns: find_fns(lines),
            cfg_test: Vec::new(),
            hot_regions: Vec::new(),
            allows: Vec::new(),
            pub_items,
            impls,
        };
        for (i, line) in lines.iter().enumerate() {
            if line.code.contains("#[cfg(test)]") {
                if let Some((open, close)) = brace_span_from(lines, i) {
                    s.cfg_test.push((i.min(open), close));
                }
            }
            if let Some(rest) = marker_payload(&line.comment, "hot-path") {
                // The region is the next fn item; `rest` may carry an
                // optional free-text label after the marker.
                let _ = rest;
                if let Some(f) = s.fns.iter().find(|f| f.sig_line >= i) {
                    s.hot_regions.push(HotRegion {
                        fn_name: f.name.clone(),
                        start: i,
                        end: f.body_end,
                    });
                }
            }
            if let Some(rest) = marker_payload(&line.comment, "allow(") {
                if let Some(close) = rest.find(')') {
                    let rule = rest[..close].trim().to_owned();
                    let tail = rest[close + 1..].trim();
                    // A reason must follow a dash/colon separator —
                    // "allow(x)" alone is not a justification.
                    let has_reason = tail
                        .strip_prefix('—')
                        .or_else(|| tail.strip_prefix('-'))
                        .or_else(|| tail.strip_prefix(':'))
                        .is_some_and(|r| !r.trim().is_empty());
                    s.allows.push(AllowMarker {
                        line: i,
                        rule,
                        has_reason,
                    });
                }
            }
        }
        s
    }

    /// Whether the 0-based line sits inside a `#[cfg(test)]` item.
    pub fn in_cfg_test(&self, line: usize) -> bool {
        self.cfg_test.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// The innermost function whose body contains the 0-based line.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body_start <= line && line <= f.body_end)
            .max_by_key(|f| f.body_start)
    }

    /// Whether rule `rule` is suppressed at the 0-based line: a
    /// well-formed allow marker on the same line or the line above.
    pub fn allowed_at(&self, line: usize, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.has_reason && (a.line == line || a.line + 1 == line))
    }
}

/// Extracts the payload after a `bist-lint: <key>` marker in comment
/// text, or `None` when the marker is absent.
///
/// A marker must *start* its comment as a plain `// bist-lint:` line
/// comment — doc comments (`///`, `//!`) and prose that merely quotes
/// the syntax never register as markers.
fn marker_payload<'a>(comment: &'a str, key: &str) -> Option<&'a str> {
    let at = comment.find("bist-lint:")?;
    if comment[..at].trim() != "//" {
        return None;
    }
    let rest = comment[at + "bist-lint:".len()..].trim_start();
    rest.strip_prefix(key)
}

/// What opened a brace block, as far as item scoping cares.
#[derive(Clone, Copy)]
enum Block {
    /// An inline `mod`: its items are still module items.
    Mod,
    /// An `impl` block (index into the impl list).
    Impl(usize),
    /// Anything else: fn bodies, type bodies, traits, expressions.
    Other,
}

/// An item header's classification at its first `{` or top-level `;`.
enum Header {
    /// A bare-`pub` item: its keyword and name.
    Pub(&'static str, String),
    /// An `impl` block: self type and whether it implements a trait.
    Impl(String, bool),
    Mod,
    Other,
}

/// Item keywords the `dead-pub` rule checks.
const PUB_KINDS: [&str; 8] = [
    "fn", "struct", "enum", "const", "static", "type", "trait", "union",
];

/// Walks the code channel as a sequence of item headers, each ended by
/// its first `{` or paren-depth-0 `;`, and collects the bare-`pub`
/// items and `impl` blocks in item scope: the file, inline `mod`s, and
/// (for methods) inherent `impl` bodies.
fn find_items(lines: &[LexedLine]) -> (Vec<PubItem>, Vec<ImplBlock>) {
    let mut items: Vec<PubItem> = Vec::new();
    let mut impls: Vec<ImplBlock> = Vec::new();
    // Each open block, with the item it closes (if any).
    let mut stack: Vec<(Block, Option<usize>)> = Vec::new();
    // The header so far, one `\n` per line break, and the line it
    // started on.
    let mut header = String::new();
    let mut header_line = 0;
    let mut parens = 0i32;
    for (li, l) in lines.iter().enumerate() {
        for c in l.code.chars() {
            match c {
                '(' | '[' => parens += 1,
                ')' | ']' => parens -= 1,
                '}' => {
                    if let Some((block, item)) = stack.pop() {
                        if let Some(k) = item {
                            items[k].end = li;
                        }
                        if let Block::Impl(k) = block {
                            impls[k].end = li;
                        }
                    }
                }
                _ => {}
            }
            if c != '{' && c != '}' && (c != ';' || parens > 0) {
                header.push(c);
                continue;
            }
            if c != '}' {
                let item_scope = stack
                    .iter()
                    .all(|(b, _)| matches!(b, Block::Mod | Block::Impl(_)));
                let owner = match stack.last() {
                    Some((Block::Impl(k), _)) => Some(&impls[*k]),
                    _ => None,
                };
                let (offset, parsed) = if item_scope {
                    parse_header(&header)
                } else {
                    (0, Header::Other)
                };
                let start = header_line + header[..offset].matches('\n').count();
                let mut item = None;
                let mut block = Block::Other;
                match parsed {
                    // Inside an `impl`, only inherent methods count.
                    Header::Pub(kind, name)
                        if owner.is_none_or(|o| !o.trait_impl && kind == "fn") =>
                    {
                        item = Some(items.len());
                        items.push(PubItem {
                            name,
                            kind,
                            owner: owner.map(|o| o.self_ty.clone()),
                            line: start,
                            end: li,
                        });
                    }
                    Header::Impl(self_ty, trait_impl) if owner.is_none() && c == '{' => {
                        block = Block::Impl(impls.len());
                        impls.push(ImplBlock {
                            self_ty,
                            trait_impl,
                            start,
                            end: li,
                        });
                    }
                    Header::Mod if owner.is_none() => block = Block::Mod,
                    _ => {}
                }
                if c == '{' {
                    stack.push((block, item));
                }
            }
            header.clear();
            header_line = li;
            parens = 0;
        }
        header.push('\n');
    }
    (items, impls)
}

/// Classifies an item header (the code before its first `{` or
/// top-level `;`), returning the byte offset where the item proper
/// starts, after its attributes, and what it is.
fn parse_header(header: &str) -> (usize, Header) {
    let mut rest = header.trim_start();
    // Skip `#[...]` / `#![...]` attributes, brackets balanced.
    while rest.starts_with('#') {
        let mut depth = 0;
        let close = rest.find(|c| {
            depth += i32::from(c == '[') - i32::from(c == ']');
            c == ']' && depth == 0
        });
        match close {
            Some(i) => rest = rest[i + 1..].trim_start(),
            None => return (0, Header::Other),
        }
    }
    let offset = header.len() - rest.len();
    // `pub(crate)` and friends are not bare `pub`.
    let (bare_pub, tail) = match rest.strip_prefix("pub") {
        Some(t) if t.starts_with('(') => (false, t.split_once(')').map_or("", |(_, t)| t)),
        Some(t) if t.starts_with(char::is_whitespace) => (true, t),
        _ => (false, rest),
    };
    let words: Vec<&str> = tail
        .split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .collect();
    let mut w = &words[..];
    while let [q, next, ..] = w {
        let qualifier = matches!(*q, "unsafe" | "async" | "extern" | "default")
            || *q == "const" && matches!(*next, "fn" | "unsafe" | "async" | "extern");
        if !qualifier {
            break;
        }
        w = &w[1..];
    }
    let parsed = match w {
        ["mod", ..] => Header::Mod,
        ["impl", ..] => parse_impl(tail),
        [kw, rest @ ..] if bare_pub => {
            // `static mut NAME`: the name follows the `mut`.
            let name = rest.iter().find(|&&n| n != "mut");
            match (PUB_KINDS.iter().find(|k| *k == kw), name) {
                (Some(kind), Some(name)) => Header::Pub(kind, (*name).to_owned()),
                _ => Header::Other,
            }
        }
        _ => Header::Other,
    };
    (offset, parsed)
}

/// Classifies an `impl` header: the last path segment of its self type
/// and whether it implements a trait (`impl Trait for Type`).
fn parse_impl(header: &str) -> Header {
    // Drop everything inside angle brackets (`->` is not a closer).
    let mut depth = 0i32;
    let mut prev = ' ';
    let mut top = String::new();
    for c in header.chars() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => depth -= 1,
            _ if depth == 0 => top.push(c),
            _ => {}
        }
        prev = c;
    }
    let words: Vec<&str> = top
        .split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .skip_while(|w| *w != "impl")
        .skip(1)
        .take_while(|w| *w != "where")
        .collect();
    let self_ty = words.last().map_or(String::new(), |w| (*w).to_owned());
    Header::Impl(self_ty, words.contains(&"for"))
}

/// Finds every function item by scanning for `fn <ident>` in the code
/// channel and brace-matching its body.
fn find_fns(lines: &[LexedLine]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        let mut from = 0;
        while let Some(rel) = code[from..].find("fn ") {
            let at = from + rel;
            from = at + 3;
            // Word boundary on the left ("fn" must not be an ident tail).
            if at > 0 && is_ident_char(code[..at].chars().next_back().unwrap_or(' ')) {
                continue;
            }
            let name: String = code[at + 3..]
                .trim_start()
                .chars()
                .take_while(|&c| is_ident_char(c))
                .collect();
            if name.is_empty() {
                continue;
            }
            // The body opens at the first `{` at bracket-depth 0 before
            // any `;` (a `;` first means a bodiless declaration).
            let Some((open_line, open_col)) = find_body_open(lines, i, at + 3) else {
                continue;
            };
            let Some(close_line) = match_brace(lines, open_line, open_col) else {
                continue;
            };
            fns.push(FnSpan {
                name,
                sig_line: i,
                body_start: open_line,
                body_end: close_line,
                target_feature: has_target_feature(lines, i),
            });
        }
    }
    fns
}

/// Whether the contiguous attribute/comment block above `sig_line`
/// carries `#[target_feature`.
fn has_target_feature(lines: &[LexedLine], sig_line: usize) -> bool {
    // The attribute may share the signature's line range upward through
    // attributes and doc comments.
    let mut i = sig_line;
    loop {
        if lines[i].code.contains("#[target_feature") {
            return true;
        }
        if i == 0 {
            return false;
        }
        let above = &lines[i - 1];
        if above.is_attr() || above.is_code_blank() && !above.comment.is_empty() {
            i -= 1;
        } else {
            return false;
        }
    }
}

/// From `(line, col)` scan for the body's opening `{` at
/// square-bracket/paren depth 0, stopping at a top-level `;`.
fn find_body_open(lines: &[LexedLine], line: usize, col: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    for (li, l) in lines.iter().enumerate().skip(line) {
        let start = if li == line { col } else { 0 };
        for (ci, c) in l.code.char_indices() {
            if ci < start {
                continue;
            }
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => return Some((li, ci)),
                ';' if depth == 0 => return None,
                _ => {}
            }
        }
    }
    None
}

/// Line of the `}` matching the `{` at `(line, col)`.
fn match_brace(lines: &[LexedLine], line: usize, col: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (li, l) in lines.iter().enumerate().skip(line) {
        for (ci, c) in l.code.char_indices() {
            if li == line && ci < col {
                continue;
            }
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(li);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// First `{` at or after `line`, brace-matched to its close — used for
/// `#[cfg(test)]` item extents.
fn brace_span_from(lines: &[LexedLine], line: usize) -> Option<(usize, usize)> {
    for (li, l) in lines.iter().enumerate().skip(line) {
        if let Some(ci) = l.code.find('{') {
            return match_brace(lines, li, ci).map(|close| (li, close));
        }
        // A `;` before any `{` ends the item without a body.
        if l.code.contains(';') {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_spans_and_enclosing() {
        let src = "fn outer() {\n    let x = 1;\n}\n\npub fn next(a: [u8; 4]) -> u32 {\n    0\n}\n";
        let s = Structure::build(&lex(src));
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "outer");
        assert_eq!((s.fns[0].body_start, s.fns[0].body_end), (0, 2));
        assert_eq!(s.fns[1].name, "next");
        assert_eq!(s.enclosing_fn(1).unwrap().name, "outer");
        assert_eq!(s.enclosing_fn(5).unwrap().name, "next");
        assert!(s.enclosing_fn(3).is_none());
    }

    #[test]
    fn bodiless_decls_are_skipped() {
        let s = Structure::build(&lex("trait T {\n    fn decl(&self) -> u8;\n    fn with(&self) -> u8 {\n        1\n    }\n}\n"));
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["with"]);
    }

    #[test]
    fn cfg_test_region_covers_mod() {
        let src = "fn live() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let s = Structure::build(&lex(src));
        assert!(!s.in_cfg_test(0));
        assert!(s.in_cfg_test(2));
        assert!(s.in_cfg_test(4));
        assert!(s.in_cfg_test(5));
    }

    #[test]
    fn hot_region_attaches_to_next_fn() {
        let src =
            "// bist-lint: hot-path\n#[inline]\nfn hot(x: f64) -> f64 {\n    x\n}\nfn cold() {}\n";
        let s = Structure::build(&lex(src));
        assert_eq!(s.hot_regions.len(), 1);
        let r = &s.hot_regions[0];
        assert_eq!(r.fn_name, "hot");
        assert_eq!((r.start, r.end), (0, 4));
    }

    #[test]
    fn allow_markers_need_reasons() {
        let src = "let a = 1; // bist-lint: allow(determinism) — timing metadata\nlet b = 2; // bist-lint: allow(determinism)\n";
        let s = Structure::build(&lex(src));
        assert_eq!(s.allows.len(), 2);
        assert!(s.allows[0].has_reason);
        assert!(!s.allows[1].has_reason);
        assert!(s.allowed_at(0, "determinism"));
        assert!(s.allowed_at(1, "determinism"), "line-above marker applies");
        assert!(
            !s.allowed_at(2, "determinism"),
            "bare marker never suppresses"
        );
    }

    #[test]
    fn pub_items_and_impl_blocks() {
        let src = "#[derive(Debug)]\npub struct A;\nimpl A {\n    pub fn m(&self) {}\n    fn private(&self) {}\n}\n\
                   impl<T: Fn() -> u8> fmt::Display for A {\n    fn fmt(&self) {}\n}\n\
                   pub(crate) fn hidden() {}\npub const fn k() -> u8 {\n    0\n}\n\
                   mod inner {\n    pub static mut S: [u8; 2] = [0; 2];\n}\n\
                   fn body() {\n    pub fn nested() {}\n}\n";
        let s = Structure::build(&lex(src));
        let items: Vec<_> = s
            .pub_items
            .iter()
            .map(|i| (i.kind, i.name.as_str(), i.owner.as_deref(), i.line, i.end))
            .collect();
        assert_eq!(
            items,
            [
                ("struct", "A", None, 1, 1),
                ("fn", "m", Some("A"), 3, 3),
                ("fn", "k", None, 10, 12),
                ("static", "S", None, 14, 14),
            ]
        );
        let impls: Vec<_> = s
            .impls
            .iter()
            .map(|b| (b.self_ty.as_str(), b.trait_impl, b.start, b.end))
            .collect();
        assert_eq!(impls, [("A", false, 2, 5), ("A", true, 6, 8)]);
    }

    #[test]
    fn target_feature_detected_through_attrs() {
        let src = "#[cfg(target_arch = \"x86_64\")]\n#[target_feature(enable = \"avx2\")]\nunsafe fn kern() {\n}\n";
        let s = Structure::build(&lex(src));
        assert_eq!(s.fns.len(), 1);
        assert!(s.fns[0].target_feature);
    }
}
