//! Golden-fixture tests: each rule family has a trigger fixture whose
//! exact diagnostics (rule, line, message) are pinned, and an allowed
//! fixture proving the documented escape hatches — SAFETY/ORDERING
//! comments, detection guards, `#[cfg(test)]` scoping, references from
//! other files and inline `// bist-lint: allow(...)` markers — suppress
//! cleanly.

use bist_analysis::{analyze_file, Diagnostic, FileContext, Index, Rule};

fn report_ctx(path: &str) -> FileContext {
    FileContext {
        path: path.to_owned(),
        report_crate: true,
        test_code: false,
        rng_seam: false,
        library: true,
        ..FileContext::default()
    }
}

/// Runs a fixture indexed on its own, as if it were the whole
/// workspace, mirroring the two-pass analysis.
fn run(src: &str, ctx: &FileContext) -> Vec<Diagnostic> {
    analyze_file(src, ctx, &Index::build([(ctx, src)])).0
}

/// A library file `crates/<krate>/src/<file>` of package `krate`, whose
/// manifest lists `deps`.
fn lib_file(krate: &str, file: &str, deps: &[&str]) -> FileContext {
    FileContext {
        krate: krate.to_owned(),
        deps: deps.iter().map(|d| (*d).to_owned()).collect(),
        ..report_ctx(&format!("crates/{krate}/src/{file}"))
    }
}

/// Runs fixture files indexed together, as if they were the whole
/// workspace, returning every file's `dead-pub` findings as
/// `(path, line, message)`.
fn dead_pub_in(files: &[(FileContext, &str)]) -> Vec<(String, usize, String)> {
    let index = Index::build(files.iter().map(|(ctx, src)| (ctx, *src)));
    files
        .iter()
        .flat_map(|(ctx, src)| analyze_file(src, ctx, &index).0)
        .filter(|d| d.rule == Rule::DeadPub)
        .map(|d| (d.file, d.line, d.message))
        .collect()
}

fn flat(diags: &[Diagnostic]) -> Vec<(Rule, usize, &str)> {
    diags
        .iter()
        .map(|d| (d.rule, d.line, d.message.as_str()))
        .collect()
}

#[test]
fn hot_path_alloc_fires_inside_region_only() {
    let src = include_str!("fixtures/hot_alloc_trigger.rs");
    let diags = run(src, &report_ctx("fixtures/hot_alloc_trigger.rs"));
    assert_eq!(
        flat(&diags),
        [
            (
                Rule::HotPathAlloc,
                5,
                "allocating construct `to_vec` in hot-path region `hot_lane`",
            ),
            (
                Rule::HotPathAlloc,
                6,
                "allocating construct `Vec::new` in hot-path region `hot_lane`",
            ),
            (
                Rule::HotPathAlloc,
                8,
                "allocating construct `format!` in hot-path region `hot_lane`",
            ),
        ],
        "cold_path's Vec::new (line 13) must NOT fire — it is outside the region"
    );
}

#[test]
fn hot_path_alloc_suppressed_by_allow_marker() {
    let src = include_str!("fixtures/hot_alloc_allowed.rs");
    let diags = run(src, &report_ctx("fixtures/hot_alloc_allowed.rs"));
    assert_eq!(flat(&diags), [], "reasoned allow marker must suppress");
}

#[test]
fn undocumented_unsafe_and_unguarded_kernel_fire() {
    let src = include_str!("fixtures/unsafe_trigger.rs");
    let diags = run(src, &report_ctx("fixtures/unsafe_trigger.rs"));
    assert_eq!(
        flat(&diags),
        [
            (
                Rule::UndocumentedUnsafe,
                4,
                "`unsafe` without a `// SAFETY:` justification (or `# Safety` doc section)",
            ),
            (
                Rule::UndocumentedUnsafe,
                9,
                "`unsafe` without a `// SAFETY:` justification (or `# Safety` doc section)",
            ),
            (
                Rule::UndocumentedUnsafe,
                9,
                "call to `#[target_feature]` fn `kernel` outside an \
                 `is_x86_feature_detected!`-guarded scope",
            ),
        ],
    );
}

#[test]
fn documented_unsafe_and_guarded_kernel_pass() {
    let src = include_str!("fixtures/unsafe_allowed.rs");
    let diags = run(src, &report_ctx("fixtures/unsafe_allowed.rs"));
    assert_eq!(
        flat(&diags),
        [],
        "# Safety doc, SAFETY comment, detection guard and allow marker all suppress"
    );
}

#[test]
fn atomic_ordering_fires_without_justification() {
    let src = include_str!("fixtures/ordering_trigger.rs");
    let diags = run(src, &report_ctx("fixtures/ordering_trigger.rs"));
    assert_eq!(
        flat(&diags),
        [
            (
                Rule::AtomicOrdering,
                6,
                "`Ordering::Relaxed` without an adjacent `// ORDERING:` justification",
            ),
            (
                Rule::AtomicOrdering,
                10,
                "`Ordering::SeqCst` without an adjacent `// ORDERING:` justification",
            ),
        ],
    );
}

#[test]
fn atomic_ordering_satisfied_by_comment_or_marker() {
    let src = include_str!("fixtures/ordering_allowed.rs");
    let diags = run(src, &report_ctx("fixtures/ordering_allowed.rs"));
    assert_eq!(flat(&diags), []);
}

#[test]
fn atomic_ordering_skips_test_code() {
    let src = include_str!("fixtures/ordering_trigger.rs");
    let mut ctx = report_ctx("fixtures/ordering_trigger.rs");
    ctx.test_code = true;
    assert_eq!(run(src, &ctx), [], "test code may pick orderings ad hoc");
}

#[test]
fn determinism_fires_on_hash_clock_and_rng() {
    let src = include_str!("fixtures/determinism_trigger.rs");
    let diags = run(src, &report_ctx("fixtures/determinism_trigger.rs"));
    assert_eq!(
        flat(&diags),
        [
            (
                Rule::Determinism,
                7,
                "`HashMap` in a report-producing crate: iteration order is nondeterministic \
                 — use `BTreeMap`/`BTreeSet` or an index keyed by device",
            ),
            (
                Rule::Determinism,
                15,
                "`Instant::now` in a report-producing crate: wall-clock reads may not \
                 influence report contents",
            ),
            (
                Rule::Determinism,
                19,
                "`seed_from_u64` constructs an RNG outside the seeded `stream_rng` seam \
                 (`bist_core::source::stream_rng`)",
            ),
        ],
        "`use` lines (3-4) must not fire; the type-position `Instant` (line 14) must not fire"
    );
}

#[test]
fn determinism_rng_seam_waives_only_rng_construction() {
    let src = include_str!("fixtures/determinism_trigger.rs");
    let mut ctx = report_ctx("crates/mc/src/batch.rs");
    ctx.rng_seam = true;
    let diags = run(src, &ctx);
    let rules: Vec<(Rule, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(
        rules,
        [(Rule::Determinism, 7), (Rule::Determinism, 15)],
        "the seam may construct RNGs, but HashMap/Instant findings survive"
    );
}

#[test]
fn determinism_suppressed_by_marker_and_cfg_test() {
    let src = include_str!("fixtures/determinism_allowed.rs");
    let diags = run(src, &report_ctx("fixtures/determinism_allowed.rs"));
    assert_eq!(flat(&diags), []);
}

#[test]
fn determinism_only_applies_to_report_crates() {
    let src = include_str!("fixtures/determinism_trigger.rs");
    let mut ctx = report_ctx("crates/bench/src/lib.rs");
    ctx.report_crate = false;
    assert_eq!(run(src, &ctx), [], "non-report crates are out of scope");
}

fn dead_pub(line: usize, item: &str) -> (Rule, usize, String) {
    (
        Rule::DeadPub,
        line,
        format!(
            "`pub {item}` is used nowhere outside its own definition, impl blocks and \
             tests"
        ),
    )
}

#[test]
fn dead_pub_fires_on_items_only_their_tests_and_docs_name() {
    let src = include_str!("fixtures/dead_pub_trigger.rs");
    let diags = run(src, &report_ctx("fixtures/dead_pub_trigger.rs"));
    let got: Vec<(Rule, usize, String)> = diags
        .iter()
        .map(|d| (d.rule, d.line, d.message.clone()))
        .collect();
    assert_eq!(
        got,
        [
            dead_pub(8, "fn only_in_doctest"),
            dead_pub(14, "struct OnlyInTests"),
            dead_pub(20, "fn OnlyInTests::new"),
            dead_pub(26, "fn countdown"),
            dead_pub(35, "const IN_PROSE"),
        ],
    );
}

#[test]
fn dead_pub_accepts_siblings_own_impl_and_other_files() {
    let src = include_str!("fixtures/dead_pub_allowed.rs");
    let ctx = report_ctx("fixtures/dead_pub_allowed.rs");
    let other = "fn main() {\n    let mut m = fixture::Meter::default();\n    m.reset();\n}\n";
    let other_ctx = report_ctx("fixtures/caller.rs");
    let diags = analyze_file(src, &ctx, &Index::build([(&ctx, src), (&other_ctx, other)])).0;
    assert_eq!(flat(&diags), []);
    // Without the other file, the two items only it names fire.
    let alone: Vec<(Rule, usize)> = run(src, &ctx).iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(alone, [(Rule::DeadPub, 8), (Rule::DeadPub, 19)]);
}

fn dead_at(file: &str, line: usize, item: &str) -> (String, usize, String) {
    let (_, line, message) = dead_pub(line, item);
    (file.to_owned(), line, message)
}

#[test]
fn dead_pub_ignores_its_own_crates_reexports() {
    let lib = "pub mod fft;\npub use fft::spectrum;\n";
    let fft = "pub fn spectrum() -> u32 {\n    1\n}\n";
    let files = [
        (lib_file("dsp", "lib.rs", &[]), lib),
        (lib_file("dsp", "fft.rs", &[]), fft),
    ];
    assert_eq!(
        dead_pub_in(&files),
        [dead_at("crates/dsp/src/fft.rs", 1, "fn spectrum")],
        "a `pub use` in the item's own crate only re-exports it"
    );
    // Another crate that depends on it may re-export it: that is a use.
    let facade = "pub use dsp::fft::spectrum;\n";
    let files = [
        files[0].clone(),
        files[1].clone(),
        (lib_file("umbrella", "lib.rs", &["dsp"]), facade),
    ];
    assert_eq!(dead_pub_in(&files), []);
}

#[test]
fn dead_pub_ignores_definitions_of_the_same_name() {
    // Two configs whose same-named getters only define each other's name.
    let flash = "pub struct Flash;\nimpl Flash {\n    pub fn sigma(&self) -> f64 {\n        1.0\n    }\n}\n";
    let sar =
        "pub struct Sar;\nimpl Sar {\n    pub fn sigma(&self) -> f64 {\n        2.0\n    }\n}\n";
    let user = "fn make() -> (adc::Flash, adc::Sar) {\n    (adc::Flash, adc::Sar)\n}\n";
    let files = [
        (lib_file("adc", "flash.rs", &[]), flash),
        (lib_file("adc", "sar.rs", &[]), sar),
        (lib_file("core", "make.rs", &["adc"]), user),
    ];
    assert_eq!(
        dead_pub_in(&files),
        [
            dead_at("crates/adc/src/flash.rs", 3, "fn Flash::sigma"),
            dead_at("crates/adc/src/sar.rs", 3, "fn Sar::sigma"),
        ]
    );
    // The same holds for free items: `fn helper` is no use of `helper`.
    let a = "pub fn helper() {}\n";
    let b = "pub fn helper() {}\n";
    let files = [
        (lib_file("adc", "a.rs", &[]), a),
        (lib_file("adc", "b.rs", &[]), b),
    ];
    assert_eq!(
        dead_pub_in(&files),
        [
            dead_at("crates/adc/src/a.rs", 1, "fn helper"),
            dead_at("crates/adc/src/b.rs", 1, "fn helper"),
        ]
    );
}

#[test]
fn dead_pub_counts_a_method_only_where_it_is_called_or_pathed() {
    let wave = "pub struct Wave;\nimpl Wave {\n    pub fn full_scale(&self) -> f64 {\n        1.0\n    }\n}\n";
    // A field, a parameter and a local of the method's name.
    let plan = "pub struct Plan {\n    pub full_scale: f64,\n}\n\
                fn span(p: &Plan, w: adc::Wave, full_scale: bool) -> f64 {\n\
                \x20   let _ = (w, full_scale);\n    p.full_scale\n}\n";
    let files = [
        (lib_file("adc", "signal.rs", &[]), wave),
        (lib_file("core", "plan.rs", &["adc"]), plan),
    ];
    assert_eq!(
        dead_pub_in(&files),
        [dead_at(
            "crates/adc/src/signal.rs",
            3,
            "fn Wave::full_scale"
        )]
    );
    for caller in [
        "w.full_scale()",
        "adc::Wave::full_scale(&w)",
        "[w].map(Wave::full_scale)",
    ] {
        let call = format!("fn f(w: adc::Wave) {{\n    let _ = {caller};\n}}\n");
        let call = (lib_file("core", "call.rs", &["adc"]), call.as_str());
        let files = [files[0].clone(), files[1].clone(), call];
        assert_eq!(dead_pub_in(&files), [], "{caller}");
    }
}

#[test]
fn dead_pub_counts_only_crates_that_can_name_the_item() {
    let stats = "pub fn percentile(v: &[f64]) -> f64 {\n    v[0]\n}\n";
    // A bench crate with its own `stats::percentile`, and no dependency
    // on the library's crate.
    let bench = "mod stats {\n    pub fn percentile(v: &[f64]) -> f64 {\n        v[0]\n    }\n}\n\
                 pub fn p50(v: &[f64]) -> f64 {\n    stats::percentile(v)\n}\n";
    let bench_ctx = FileContext {
        path: "fleetbench/src/main.rs".to_owned(),
        krate: "fleetbench".to_owned(),
        deps: vec!["core".to_owned()],
        library: false,
        ..FileContext::default()
    };
    let files = [
        (lib_file("dsp", "stats.rs", &[]), stats),
        (bench_ctx.clone(), bench),
    ];
    assert_eq!(
        dead_pub_in(&files),
        [dead_at("crates/dsp/src/stats.rs", 1, "fn percentile")]
    );
    // A crate that lists it as a dev-dependency can call it.
    let dev = FileContext {
        deps: vec!["core".to_owned(), "dsp".to_owned()],
        ..bench_ctx
    };
    let files = [files[0].clone(), (dev, bench)];
    assert_eq!(dead_pub_in(&files), []);
}

#[test]
fn dead_pub_counts_a_variant_as_no_use_of_a_same_named_type() {
    let src = include_str!("fixtures/dead_pub_variant_trigger.rs");
    let ctx = report_ctx("fixtures/dead_pub_variant_trigger.rs");
    let got: Vec<(Rule, usize, String)> = run(src, &ctx)
        .iter()
        .map(|d| (d.rule, d.line, d.message.clone()))
        .collect();
    assert_eq!(got, [dead_pub(6, "struct Histogram")]);
    let src = include_str!("fixtures/dead_pub_variant_allowed.rs");
    let ctx = report_ctx("fixtures/dead_pub_variant_allowed.rs");
    assert_eq!(flat(&run(src, &ctx)), []);
    // Nor does a variant in a dependent crate use the type.
    let stats = "pub struct Histogram;\n";
    let harness = "pub enum HarnessError {\n    Histogram(u32),\n}\n\
                   pub fn code(e: HarnessError) -> u32 {\n\
                   \x20   let HarnessError::Histogram(c) = e;\n    c\n}\n";
    let files = [
        (lib_file("dsp", "stats.rs", &[]), stats),
        (lib_file("core", "harness.rs", &["dsp"]), harness),
        (
            lib_file("root", "lib.rs", &["core"]),
            "pub use core::code;\n",
        ),
    ];
    assert_eq!(
        dead_pub_in(&files),
        [dead_at("crates/dsp/src/stats.rs", 1, "struct Histogram")]
    );
}

#[test]
fn dead_pub_ignores_test_only_callers() {
    let lib = "pub fn settle() -> u32 {\n    1\n}\n";
    // Another file's `#[cfg(test)]` module, and an integration test.
    let unit = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n\
                \x20       assert_eq!(crate::sweep::settle(), 1);\n    }\n}\n";
    let integration = "#[test]\nfn t() {\n    assert_eq!(core::settle(), 1);\n}\n";
    let caller = |path: &str, krate: &str, deps: &[&str]| FileContext {
        path: path.to_owned(),
        krate: krate.to_owned(),
        deps: deps.iter().map(|d| (*d).to_owned()).collect(),
        ..FileContext::default()
    };
    let files = [
        (lib_file("core", "sweep.rs", &[]), lib),
        (lib_file("core", "monitor.rs", &[]), unit),
        (
            caller("crates/core/tests/sweep.rs", "core", &[]),
            integration,
        ),
    ];
    assert_eq!(
        dead_pub_in(&files),
        [dead_at("crates/core/src/sweep.rs", 1, "fn settle")]
    );
    // One call from an example, or from a `src/bin/` binary, clears it.
    let call = "fn main() {\n    let _ = core::settle();\n}\n";
    for user in [
        caller("examples/tour.rs", "root", &["core"]),
        caller("crates/bench/src/bin/table1.rs", "bench", &["core"]),
    ] {
        let files = [
            files[0].clone(),
            files[1].clone(),
            files[2].clone(),
            (user, call),
        ];
        assert_eq!(dead_pub_in(&files), [], "{}", files[3].0.path);
    }
}

#[test]
fn dead_pub_only_applies_to_library_source() {
    let src = include_str!("fixtures/dead_pub_trigger.rs");
    let mut ctx = report_ctx("crates/bench/src/bin/table1.rs");
    ctx.library = false;
    assert_eq!(
        run(src, &ctx),
        [],
        "bins, tests and examples are callers, not API"
    );
}

#[test]
fn diagnostics_render_clickable_locations() {
    let src = include_str!("fixtures/ordering_trigger.rs");
    let diags = run(src, &report_ctx("crates/x/src/y.rs"));
    assert_eq!(
        diags[0].to_string(),
        "crates/x/src/y.rs:6: [atomic-ordering] `Ordering::Relaxed` without an adjacent \
         `// ORDERING:` justification"
    );
}

#[test]
fn bare_allow_markers_suppress_nothing() {
    // Same trigger line, but the marker carries no reason.
    let src = "// bist-lint: hot-path\nfn hot() -> Vec<u8> {\n    // bist-lint: allow(hot-path-alloc)\n    Vec::new()\n}\n";
    let diags = run(src, &report_ctx("f.rs"));
    assert_eq!(diags.len(), 1, "a reasonless marker is not a justification");
    assert_eq!(diags[0].rule, Rule::HotPathAlloc);
    assert_eq!(diags[0].line, 4);
}

#[test]
fn doc_comments_quoting_marker_syntax_do_not_register() {
    // Prose that *mentions* the marker must not create regions or allows.
    let src = "/// Mark regions with `// bist-lint: hot-path` above the fn.\nfn explain() -> Vec<u8> {\n    Vec::new()\n}\n";
    let diags = run(src, &report_ctx("f.rs"));
    assert_eq!(
        diags,
        [],
        "a quoted marker in a doc comment is not a marker"
    );
}
