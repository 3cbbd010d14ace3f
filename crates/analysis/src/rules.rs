//! The five rule families of `bist-lint`. Four are the static shadow
//! of a runtime gate the workspace already enforces dynamically; the
//! fifth keeps the library surface down to what something calls:
//!
//! | rule | statically proves | runtime gate it shadows |
//! |---|---|---|
//! | `hot-path-alloc` | no allocating constructs in marked hot paths | counting-allocator proof (`tests/zero_alloc.rs`) |
//! | `undocumented-unsafe` | every `unsafe` justified; `#[target_feature]` kernels only reached behind runtime detection | UB has no runtime gate — this is the only net |
//! | `atomic-ordering` | every atomic `Ordering::` choice justified | worker-count `report_checksum` equality gate |
//! | `determinism` | no wall clocks, hash iteration or stray RNGs in report-producing crates | bit-identical fleet reports for any worker count |
//! | `dead-pub` | every bare-`pub` library item is used in code somewhere other than its own definition, its own `impl` blocks, tests (`#[cfg(test)]` code and files under a `tests/` directory), its crate's own `pub use` re-exports and crates that cannot name it | none — the compiler's dead-code lint stops at `pub` |
//!
//! Diagnostics are suppressible only via an inline
//! `// bist-lint: allow(<rule>) — <reason>` marker (same line or the
//! line above); a marker without a reason suppresses nothing.

use crate::lexer::{is_ident_char, lex, LexedLine};
use crate::structure::Structure;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Allocating constructs inside a `// bist-lint: hot-path` region.
    HotPathAlloc,
    /// `unsafe` without a SAFETY justification, or a `#[target_feature]`
    /// kernel reached outside a feature-detected scope.
    UndocumentedUnsafe,
    /// Atomic `Ordering::` without an `// ORDERING:` justification.
    AtomicOrdering,
    /// Nondeterminism seams in report-producing crates.
    Determinism,
    /// A bare-`pub` library item nothing outside itself references.
    DeadPub,
}

impl Rule {
    /// The rule's marker name, as written in `allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::Determinism => "determinism",
            Rule::DeadPub => "dead-pub",
        }
    }

    /// All rules, in report order.
    pub const ALL: [Rule; 5] = [
        Rule::HotPathAlloc,
        Rule::UndocumentedUnsafe,
        Rule::AtomicOrdering,
        Rule::Determinism,
        Rule::DeadPub,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Where a file sits in the workspace — drives per-rule scoping.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// Workspace-relative display path.
    pub path: String,
    /// Library source of a report-producing crate (core/dsp/rtl/mc):
    /// the `determinism` rule applies.
    pub report_crate: bool,
    /// Test/example/bench code: `atomic-ordering` and `determinism`
    /// do not apply (timing and ad-hoc seeding are legitimate there);
    /// `unsafe` hygiene still does.
    pub test_code: bool,
    /// A designated seeded-RNG seam module
    /// (`crates/core/src/source.rs`, home of `stream_rng`, or its
    /// re-exporting historical path `crates/mc/src/batch.rs`): RNG
    /// construction is its job, so the RNG-construction check is
    /// waived — every other determinism check still applies.
    pub rng_seam: bool,
    /// Library source (`crates/*/src/**` outside `src/bin/`, `main.rs`
    /// and the API-mirroring `crates/compat/`): the `dead-pub` rule
    /// applies.
    pub library: bool,
    /// The package that owns the file (its manifest's `name`).
    pub krate: String,
    /// The packages its manifest lists as dependencies or
    /// dev-dependencies: besides its own, the only packages whose items
    /// the file can name.
    pub deps: Vec<String>,
}

/// Per-file tallies folded into the workspace report.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileStats {
    /// Hot-path regions found.
    pub hot_regions: usize,
    /// Well-formed allow markers found.
    pub allow_markers: usize,
    /// `unsafe` sites inspected.
    pub unsafe_sites: usize,
    /// Atomic `Ordering::` sites inspected.
    pub ordering_sites: usize,
    /// `#[target_feature]` kernel call sites inspected.
    pub kernel_calls: usize,
    /// Bare-`pub` library items inspected.
    pub pub_items: usize,
}

/// Allocating constructs forbidden in hot-path regions: each is a
/// `(needle, bound_start)` pair — `bound_start` demands an identifier
/// boundary before the needle (macros and method tails carry their own
/// sigil).
const ALLOC_TOKENS: &[(&str, bool)] = &[
    ("Vec::new", true),
    ("vec!", true),
    ("with_capacity", true),
    (".collect", false),
    ("to_vec", true),
    ("format!", true),
    ("Box::new", true),
    ("String::new", true),
    ("String::from", true),
    ("to_string", true),
    ("to_owned", true),
];

/// Atomic ordering variants (distinguishes `atomic::Ordering` from
/// `cmp::Ordering`, whose variants are `Less`/`Equal`/`Greater`).
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// RNG constructors that bypass the seeded `stream_rng` seam.
const RNG_TOKENS: &[&str] = &[
    "seed_from_u64",
    "from_seed",
    "from_entropy",
    "from_os_rng",
    "thread_rng",
];

/// Pass 1 of the workspace analysis: the facts every file's check
/// needs from all the others.
#[derive(Debug, Default)]
pub struct Index {
    /// Names of the `#[target_feature]` functions declared anywhere, so
    /// a call site in any file is checked against the full set.
    pub kernels: BTreeSet<String>,
    /// Every indexed file's path, package and dependencies.
    files: Vec<FileContext>,
    /// For each identifier, the files that mention it (indices into
    /// `files`) and their strongest mention, so `dead-pub` can ask
    /// whether any file but an item's own uses it.
    mentions: BTreeMap<String, Vec<(usize, Mention)>>,
}

impl Index {
    /// Builds the index over every source of the analysis, each with
    /// the context of its file.
    pub fn build<'a>(sources: impl IntoIterator<Item = (&'a FileContext, &'a str)>) -> Self {
        let mut index = Index::default();
        for (ctx, src) in sources {
            let lines = lex(src);
            let st = Structure::build(&lines);
            let kernels = st.fns.iter().filter(|f| f.target_feature);
            index.kernels.extend(kernels.map(|f| f.name.clone()));
            // Tests check an item; they are no reason for it to exist.
            let test_file = ctx.path.split('/').any(|c| c == "tests");
            let mut strongest: BTreeMap<&str, Mention> = BTreeMap::new();
            for (li, name, how) in mentions(&lines) {
                if test_file || st.in_cfg_test(li) {
                    continue;
                }
                let m = strongest.entry(name).or_insert(how);
                *m = (*m).max(how);
            }
            for (name, how) in strongest {
                let files = index.mentions.entry(name.to_owned()).or_default();
                files.push((index.files.len(), how));
            }
            index.files.push(ctx.clone());
        }
        index
    }
}

/// How code mentions an identifier, weakest first. A definition site
/// (`fn NAME`, `struct NAME`, …) is no mention at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mention {
    /// Inside a `pub use` re-export: a use only from another crate.
    Reexport,
    /// Named anywhere else: a use of any item but an inherent method,
    /// whose name a field, local or parameter can share.
    Named,
    /// Called or named by path (`.name(`, `.name::<`, `::name`): a use
    /// of any item.
    Called,
}

/// Keywords whose next identifier is being defined, not used.
const DEF_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// The code channel as tokens: identifier-character runs and single
/// punctuation characters, whitespace dropped.
fn tokens(code: &str) -> impl Iterator<Item = &str> {
    let mut rest = code;
    std::iter::from_fn(move || {
        rest = rest.trim_start();
        let first = rest.chars().next()?;
        let len = if is_ident_char(first) {
            rest.find(|c| !is_ident_char(c)).unwrap_or(rest.len())
        } else {
            first.len_utf8()
        };
        let (tok, tail) = rest.split_at(len);
        rest = tail;
        Some(tok)
    })
}

/// Every identifier a file mentions in code, with its 0-based line and
/// how it is mentioned. Definition sites are left out, and so are enum
/// variants: a variant's definition and an `Enum::Variant` path name
/// the variant, not a type that shares its name.
fn mentions(lines: &[LexedLine]) -> Vec<(usize, &str, Mention)> {
    let toks: Vec<(usize, &str)> = lines
        .iter()
        .enumerate()
        .flat_map(|(li, l)| tokens(&l.code).map(move |t| (li, t)))
        .collect();
    let at = |i: usize| toks.get(i).map_or("", |t| t.1);
    let before = |i: usize, k: usize| i.checked_sub(k).map_or("", at);
    let camel = |t: &str| t.starts_with(char::is_uppercase) && t.contains(char::is_lowercase);
    let mut out = Vec::new();
    let mut reexport = false;
    // Bracket nesting depth, the depth of the enum body the cursor is
    // in, and whether an `enum` keyword still awaits its body.
    let mut depth = 0usize;
    let mut enum_body = None;
    let mut enum_header = false;
    for (i, &(li, tok)) in toks.iter().enumerate() {
        match tok {
            ";" => reexport = false,
            // `pub use` and `pub(crate) use`.
            "use" => {
                reexport = before(i, 1) == "pub"
                    || before(i, 1) == ")" && before(i, 3) == "(" && before(i, 4) == "pub";
            }
            "enum" => enum_header = true,
            "{" | "(" | "[" => {
                depth += 1;
                if tok == "{" && std::mem::take(&mut enum_header) {
                    enum_body = Some(depth);
                }
            }
            "}" | ")" | "]" => {
                if enum_body == Some(depth) {
                    enum_body = None;
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        if !tok.starts_with(|c: char| c.is_alphabetic() || c == '_') {
            continue;
        }
        // `'static` is a lifetime and `*const` a pointer, not a definition.
        let keyword = before(i, 1);
        if DEF_KEYWORDS.contains(&keyword) && !matches!(before(i, 2), "'" | "*") {
            continue;
        }
        let path = keyword == ":" && before(i, 2) == ":";
        // A variant starts each entry of an enum body; modules are
        // snake_case, so `Upper::Camel` is an enum (or `Self`) path.
        let variant_def = enum_body == Some(depth) && matches!(keyword, "{" | "," | "]");
        if variant_def || path && camel(tok) && before(i, 3).starts_with(char::is_uppercase) {
            continue;
        }
        let call = keyword == "." && (at(i + 1) == "(" || at(i + 1) == ":" && at(i + 2) == ":");
        let how = if reexport {
            Mention::Reexport
        } else if path || call {
            Mention::Called
        } else {
            Mention::Named
        };
        out.push((li, tok, how));
    }
    out
}

/// Analyzes one file under `ctx` against every rule, returning the
/// findings and tallies. `index` is pass 1 over the whole workspace
/// (see [`Index::build`]).
pub fn analyze_file(src: &str, ctx: &FileContext, index: &Index) -> (Vec<Diagnostic>, FileStats) {
    let lines = lex(src);
    let st = Structure::build(&lines);
    let mut out = Vec::new();
    let mut stats = FileStats {
        hot_regions: st.hot_regions.len(),
        allow_markers: st.allows.iter().filter(|a| a.has_reason).count(),
        ..FileStats::default()
    };

    check_hot_path_alloc(&lines, &st, ctx, &mut out);
    check_unsafe(&lines, &st, ctx, &mut out, &mut stats);
    check_kernel_calls(&lines, &st, ctx, &index.kernels, &mut out, &mut stats);
    check_atomic_ordering(&lines, &st, ctx, &mut out, &mut stats);
    check_determinism(&lines, &st, ctx, &mut out);
    check_dead_pub(&lines, &st, ctx, index, &mut out, &mut stats);

    out.sort();
    (out, stats)
}

/// Pushes `diag` unless an allow marker suppresses it.
fn emit(
    st: &Structure,
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
    line: usize,
    rule: Rule,
    message: String,
) {
    if !st.allowed_at(line, rule.name()) {
        out.push(Diagnostic {
            file: ctx.path.clone(),
            line: line + 1,
            rule,
            message,
        });
    }
}

/// Token search with identifier boundaries on both sides.
fn token_positions(code: &str, needle: &str, bound_start: bool) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(needle) {
        let at = from + rel;
        from = at + needle.len();
        if bound_start {
            if let Some(prev) = code[..at].chars().next_back() {
                if is_ident_char(prev) {
                    continue;
                }
            }
        }
        let next = code[at + needle.len()..].chars().next();
        if next.is_some_and(is_ident_char) {
            continue;
        }
        hits.push(at);
    }
    hits
}

fn has_token(code: &str, needle: &str, bound_start: bool) -> bool {
    !token_positions(code, needle, bound_start).is_empty()
}

// ---------------------------------------------------------------------
// Rule 1: hot-path-alloc
// ---------------------------------------------------------------------

fn check_hot_path_alloc(
    lines: &[LexedLine],
    st: &Structure,
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
) {
    for region in &st.hot_regions {
        let span = &lines[region.start..=region.end.min(lines.len().saturating_sub(1))];
        for (off, line) in span.iter().enumerate() {
            let li = region.start + off;
            for &(needle, bound) in ALLOC_TOKENS {
                for _ in token_positions(&line.code, needle, bound) {
                    emit(
                        st,
                        ctx,
                        out,
                        li,
                        Rule::HotPathAlloc,
                        format!(
                            "allocating construct `{needle}` in hot-path region `{}`",
                            region.fn_name
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: undocumented-unsafe (+ target_feature reachability)
// ---------------------------------------------------------------------

/// Whether the contiguous comment/attribute block ending at `line`
/// (inclusive) carries a SAFETY justification (`SAFETY:` in a comment,
/// or a `# Safety` doc heading).
fn safety_documented(lines: &[LexedLine], line: usize) -> bool {
    let justifies =
        |c: &str| c.contains("SAFETY:") || c.contains("Safety:") || c.contains("# Safety");
    if justifies(&lines[line].comment) {
        return true;
    }
    let mut i = line;
    while i > 0 {
        let above = &lines[i - 1];
        let comment_only = above.is_code_blank() && !above.comment.is_empty();
        if comment_only || above.is_attr() {
            if justifies(&above.comment) {
                return true;
            }
            i -= 1;
        } else {
            break;
        }
    }
    false
}

fn check_unsafe(
    lines: &[LexedLine],
    st: &Structure,
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
    stats: &mut FileStats,
) {
    for (li, line) in lines.iter().enumerate() {
        if line.is_attr() || !has_token(&line.code, "unsafe", true) {
            continue;
        }
        stats.unsafe_sites += 1;
        if !safety_documented(lines, li) {
            emit(
                st,
                ctx,
                out,
                li,
                Rule::UndocumentedUnsafe,
                "`unsafe` without a `// SAFETY:` justification (or `# Safety` doc section)"
                    .to_owned(),
            );
        }
    }
}

fn check_kernel_calls(
    lines: &[LexedLine],
    st: &Structure,
    ctx: &FileContext,
    kernels: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
    stats: &mut FileStats,
) {
    if kernels.is_empty() {
        return;
    }
    for (li, line) in lines.iter().enumerate() {
        for kernel in kernels {
            for at in token_positions(&line.code, kernel, true) {
                // The definition itself is not a call site.
                if line.code[..at].trim_end().ends_with("fn") {
                    continue;
                }
                // Neither is a mention without invocation parentheses.
                if !line.code[at + kernel.len()..].trim_start().starts_with('(') {
                    continue;
                }
                stats.kernel_calls += 1;
                let guarded = match st.enclosing_fn(li) {
                    // A kernel may call (or tail into) another kernel:
                    // the feature set is already enabled.
                    Some(f) if f.target_feature => true,
                    // Otherwise the enclosing function must have
                    // detected the features before this call.
                    Some(f) => (f.body_start..=li)
                        .any(|i| lines[i].code.contains("is_x86_feature_detected!")),
                    None => false,
                };
                if !guarded {
                    emit(
                        st,
                        ctx,
                        out,
                        li,
                        Rule::UndocumentedUnsafe,
                        format!(
                            "call to `#[target_feature]` fn `{kernel}` outside an \
                             `is_x86_feature_detected!`-guarded scope"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: atomic-ordering
// ---------------------------------------------------------------------

/// Whether the contiguous comment block at/above `line` carries an
/// `ORDERING:` justification.
fn ordering_documented(lines: &[LexedLine], line: usize) -> bool {
    if lines[line].comment.contains("ORDERING:") {
        return true;
    }
    let mut i = line;
    while i > 0 {
        let above = &lines[i - 1];
        let comment_only = above.is_code_blank() && !above.comment.is_empty();
        if comment_only || above.is_attr() {
            if above.comment.contains("ORDERING:") {
                return true;
            }
            i -= 1;
        } else {
            break;
        }
    }
    false
}

fn check_atomic_ordering(
    lines: &[LexedLine],
    st: &Structure,
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
    stats: &mut FileStats,
) {
    if ctx.test_code {
        return;
    }
    for (li, line) in lines.iter().enumerate() {
        if st.in_cfg_test(li) {
            continue;
        }
        for &variant in ATOMIC_ORDERINGS {
            if has_token(&line.code, variant, true) {
                stats.ordering_sites += 1;
                if !ordering_documented(lines, li) {
                    emit(
                        st,
                        ctx,
                        out,
                        li,
                        Rule::AtomicOrdering,
                        format!("`{variant}` without an adjacent `// ORDERING:` justification"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: determinism
// ---------------------------------------------------------------------

fn check_determinism(
    lines: &[LexedLine],
    st: &Structure,
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
) {
    if !ctx.report_crate || ctx.test_code {
        return;
    }
    for (li, line) in lines.iter().enumerate() {
        if st.in_cfg_test(li) {
            continue;
        }
        // Imports alone don't perturb a report; construction and
        // iteration sites do, and those need the type name too — so
        // skipping `use` lines loses nothing but noise.
        if line.code.trim_start().starts_with("use ") {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            if has_token(&line.code, ty, true) {
                emit(
                    st,
                    ctx,
                    out,
                    li,
                    Rule::Determinism,
                    format!(
                        "`{ty}` in a report-producing crate: iteration order is \
                         nondeterministic — use `BTreeMap`/`BTreeSet` or an index keyed by \
                         device"
                    ),
                );
            }
        }
        for clock in ["Instant::now", "SystemTime"] {
            if has_token(&line.code, clock, true) {
                emit(
                    st,
                    ctx,
                    out,
                    li,
                    Rule::Determinism,
                    format!(
                        "`{clock}` in a report-producing crate: wall-clock reads may not \
                         influence report contents"
                    ),
                );
            }
        }
        if !ctx.rng_seam {
            for rng in RNG_TOKENS {
                if has_token(&line.code, rng, true) {
                    emit(
                        st,
                        ctx,
                        out,
                        li,
                        Rule::Determinism,
                        format!(
                            "`{rng}` constructs an RNG outside the seeded `stream_rng` seam \
                             (`bist_core::source::stream_rng`)"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 5: dead-pub
// ---------------------------------------------------------------------

fn check_dead_pub(
    lines: &[LexedLine],
    st: &Structure,
    ctx: &FileContext,
    index: &Index,
    out: &mut Vec<Diagnostic>,
    stats: &mut FileStats,
) {
    if !ctx.library {
        return;
    }
    let here = mentions(lines);
    for item in &st.pub_items {
        if st.in_cfg_test(item.line) {
            continue;
        }
        stats.pub_items += 1;
        let name = item.name.as_str();
        // A field, local or parameter can share an inherent method's
        // name, so only a call or a path uses one.
        let method = item.owner.is_some();
        let need = |same_crate: bool| match (method, same_crate) {
            (true, _) => Mention::Called,
            (false, true) => Mention::Named,
            (false, false) => Mention::Reexport,
        };
        let mut elsewhere = index.mentions.get(name).into_iter().flatten();
        let used_elsewhere = elsewhere.any(|&(f, how)| {
            let file = &index.files[f];
            let same_crate = file.krate == ctx.krate;
            file.path != ctx.path
                && (same_crate || file.deps.contains(&ctx.krate))
                && how >= need(same_crate)
        });
        if used_elsewhere {
            continue;
        }
        // A type's own `impl` blocks name it without using it.
        let is_type = !method && item.kind != "fn";
        let excluded = |li: usize| {
            (item.line..=item.end).contains(&li)
                || st.in_cfg_test(li)
                || is_type
                    && st
                        .impls
                        .iter()
                        .any(|b| b.self_ty == name && (b.start..=b.end).contains(&li))
        };
        let used_here = here
            .iter()
            .any(|&(li, w, how)| w == name && how >= need(true) && !excluded(li));
        if !used_here {
            let path = match &item.owner {
                Some(owner) => format!("{owner}::{name}"),
                None => name.to_owned(),
            };
            emit(
                st,
                ctx,
                out,
                item.line,
                Rule::DeadPub,
                format!(
                    "`pub {} {path}` is used nowhere outside its own definition, impl \
                     blocks and tests",
                    item.kind
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileContext {
        FileContext {
            path: "test.rs".into(),
            report_crate: true,
            test_code: false,
            rng_seam: false,
            library: true,
            ..FileContext::default()
        }
    }

    fn run(src: &str, ctx: &FileContext) -> Vec<Diagnostic> {
        analyze_file(src, ctx, &Index::build([(ctx, src)])).0
    }

    #[test]
    fn token_boundaries_hold() {
        assert!(has_token("let x = Vec::new();", "Vec::new", true));
        assert!(!has_token("let x = MyVec::newish();", "Vec::new", true));
        assert!(!has_token("fn recollect() {}", ".collect", false));
        assert!(has_token("it.collect::<Vec<_>>()", ".collect", false));
    }

    #[test]
    fn cfg_test_rng_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn r() {\n        let _ = StdRng::seed_from_u64(1);\n    }\n}\n";
        assert!(run(src, &ctx()).is_empty());
    }

    #[test]
    fn live_rng_fires() {
        let src = "fn r() {\n    let _ = StdRng::seed_from_u64(1);\n}\n";
        let d = run(src, &ctx());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::Determinism);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn non_report_crate_is_out_of_scope() {
        let src = "fn r() {\n    let _ = StdRng::seed_from_u64(1);\n}\n";
        let mut c = ctx();
        c.report_crate = false;
        assert!(run(src, &c).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_atomic_ordering() {
        let src = "fn f(a: u32, b: u32) -> std::cmp::Ordering {\n    a.cmp(&b)\n}\n";
        assert!(run(src, &ctx()).is_empty());
    }
}
