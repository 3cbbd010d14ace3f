//! A small line-oriented Rust lexer: splits a source file into per-line
//! *code* and *comment* channels so the rules never match tokens inside
//! string literals or prose.
//!
//! This is not a full tokenizer — it only needs to classify every byte
//! as code, comment, or literal content. Literal contents are blanked to
//! spaces (delimiters kept), so downstream token searches see the code
//! shape with its layout intact; comment text is collected verbatim per
//! line, because two of the lint rules (`SAFETY:` / `ORDERING:`
//! justifications, `bist-lint:` markers) live *in* the comments.

/// One source line, split into its code and comment channels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LexedLine {
    /// The code channel: source text with comments removed and
    /// string/char literal contents blanked to spaces.
    pub code: String,
    /// The comment channel: concatenated text of every line/block
    /// comment that touches this line (markers included).
    pub comment: String,
}

impl LexedLine {
    /// Whether the line carries no code at all (blank or comment-only).
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// Whether the line's code is exactly an attribute (`#[...]` or
    /// `#![...]`), possibly continued — attribute lines are neither
    /// `unsafe` sites nor justification breaks.
    pub fn is_attr(&self) -> bool {
        let t = self.code.trim_start();
        t.starts_with("#[") || t.starts_with("#![")
    }
}

/// Lexer state across lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Normal,
    /// Nested block comment at the given depth.
    Block(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string closed by `"` + this many `#`s.
    RawStr(u32),
}

/// Whether `c` can be part of an identifier — the boundary test used
/// both here (raw-string prefix detection) and by the rule matchers.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lexes a whole source file into per-line code/comment channels.
pub fn lex(src: &str) -> Vec<LexedLine> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = LexedLine::default();
    let mut state = State::Normal;
    let mut i = 0usize;

    // Closes the current line on `\n`, preserving multi-line state.
    macro_rules! newline {
        () => {{
            lines.push(std::mem::take(&mut cur));
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        match state {
            State::Normal => {
                if c == '\n' {
                    newline!();
                    i += 1;
                } else if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // Line comment (`//`, `///`, `//!`): rest of line.
                    let mut j = i;
                    while j < chars.len() && chars[j] != '\n' {
                        cur.comment.push(chars[j]);
                        j += 1;
                    }
                    i = j;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::Block(1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                } else if let Some((prefix_len, hashes)) = raw_string_at(&chars, i) {
                    for k in 0..prefix_len {
                        cur.code.push(chars[i + k]);
                    }
                    state = State::RawStr(hashes);
                    i += prefix_len;
                } else if c == 'b' && chars.get(i + 1) == Some(&'"') && !prev_is_ident(&chars, i) {
                    cur.code.push_str("b\"");
                    state = State::Str;
                    i += 2;
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal either escapes
                    // (`'\n'`) or closes one char later (`'x'`); anything
                    // else (`'a`, `'static`) is a lifetime.
                    if chars.get(i + 1) == Some(&'\\') {
                        cur.code.push_str("' ");
                        i += 2;
                        // Skip the escape body to the closing quote.
                        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                            cur.code.push(' ');
                            i += 1;
                        }
                        if chars.get(i) == Some(&'\'') {
                            cur.code.push('\'');
                            i += 1;
                        }
                    } else if chars.get(i + 2) == Some(&'\'') {
                        cur.code.push_str("' '");
                        i += 3;
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::Block(depth) => {
                if c == '\n' {
                    newline!();
                    i += 1;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::Block(depth + 1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    cur.comment.push_str("*/");
                    state = if depth > 1 {
                        State::Block(depth - 1)
                    } else {
                        State::Normal
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\n' {
                    newline!();
                    i += 1;
                } else if c == '\\' {
                    // An escape blanks two chars; when the second is the
                    // line break of a `\` continuation, the line still ends.
                    cur.code.push(' ');
                    if chars.get(i + 1) == Some(&'\n') {
                        newline!();
                    } else {
                        cur.code.push(' ');
                    }
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Normal;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '\n' {
                    newline!();
                    i += 1;
                } else if c == '"' && closes_raw(&chars, i, hashes) {
                    cur.code.push('"');
                    for _ in 0..hashes {
                        cur.code.push('#');
                    }
                    state = State::Normal;
                    i += 1 + hashes as usize;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    // Final line without a trailing newline.
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Detects a raw-string opener (`r"`, `r#"`, `br#"` …) at `i`,
/// returning `(prefix_len, hashes)`.
fn raw_string_at(chars: &[char], i: usize) -> Option<(usize, u32)> {
    if prev_is_ident(chars, i) {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((j - i + 1, hashes))
    } else {
        None
    }
}

/// Whether a `"` at `i` closes a raw string expecting `hashes` hashes.
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(chars[i - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_leave_the_code_channel() {
        let l = lex("let x = 1; // Vec::new() in prose\n");
        assert_eq!(l.len(), 1);
        assert!(!l[0].code.contains("Vec::new"));
        assert!(l[0].comment.contains("Vec::new"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let l = lex("let s = \"Vec::new() format!\";\nlet t = r#\"unsafe { }\"#;\n");
        assert!(!l[0].code.contains("Vec::new"));
        assert!(!l[1].code.contains("unsafe"));
        assert!(l[0].code.contains('"'), "delimiters survive");
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let l = lex(r#"let s = "a\"b"; let v = Vec::new();"#);
        assert!(l[0].code.contains("Vec::new"), "{:?}", l[0]);
    }

    #[test]
    fn block_comments_span_lines() {
        let l = lex("/* one\n   Vec::new()\n*/ let y = 2;\n");
        assert!(l[1].code.trim().is_empty());
        assert!(l[1].comment.contains("Vec::new"));
        assert!(l[2].code.contains("let y"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ still comment */ let z = 3;\n");
        assert!(l[0].code.contains("let z"));
        assert!(!l[0].code.contains("still"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x'; let n = '\\n';\n");
        assert!(l[0].code.contains("fn f<'a>"));
        assert!(l[1].code.contains("let c"));
        assert!(l[1].code.contains("let n"));
    }

    #[test]
    fn multiline_strings_keep_line_count() {
        let src = "let s = \"line1\nVec::new()\nline3\";\nlet x = 1;\n";
        let l = lex(src);
        assert_eq!(l.len(), 4);
        assert!(!l[1].code.contains("Vec::new"));
        assert!(l[3].code.contains("let x"));
    }

    #[test]
    fn string_continuations_keep_line_count() {
        let src = "let s = \"a \\\n   b\";\nlet v = Vec::new();\n";
        let l = lex(src);
        assert_eq!(l.len(), 3);
        assert!(l[2].code.contains("Vec::new"), "{l:?}");
    }

    #[test]
    fn attr_lines_classify() {
        let l = lex("#[cfg(test)]\n#![forbid(unsafe_code)]\nfn f() {}\n");
        assert!(l[0].is_attr());
        assert!(l[1].is_attr());
        assert!(!l[2].is_attr());
    }
}
