//! The live-workspace gate: `bist-lint` must report zero violations on
//! this repository, and deleting any of the justifications it guards —
//! a `SAFETY:` comment, an `ORDERING:` comment, an allow marker — or
//! inserting an allocation into a hot path or an uncalled `pub fn` into
//! a library must surface a diagnostic.
//! Because this file runs under `cargo test` (tier 1) and the dedicated
//! CI job, those mutations fail CI.

use bist_analysis::lexer::lex;
use bist_analysis::structure::Structure;
use bist_analysis::{
    analyze_sources, analyze_workspace, find_workspace_root, read_sources, Diagnostic, Packages,
    Rule,
};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

/// Applies `mutate` to one real workspace file and re-analyzes the
/// whole workspace with it, returning that file's findings — the
/// in-memory version of editing the file and re-running `bist-lint`.
fn analyze_mutated(rel: &str, mutate: impl Fn(&str) -> String) -> Vec<Diagnostic> {
    analyze_edited(&[(rel, &mutate)])
        .into_iter()
        .filter(|d| d.file == rel)
        .collect()
}

/// A workspace file and the mutation applied to its source.
type Edit<'a> = (&'a str, &'a dyn Fn(&str) -> String);

/// Applies each edit and re-analyzes the whole workspace, returning
/// every finding.
fn analyze_edited(edits: &[Edit]) -> Vec<Diagnostic> {
    let mut sources = read_sources(&root()).expect("workspace sources");
    for &(rel, mutate) in edits {
        let (_, src) = sources
            .iter_mut()
            .find(|(path, _)| path == rel)
            .unwrap_or_else(|| panic!("{rel} is scanned"));
        let mutated = mutate(src);
        assert_ne!(*src, mutated, "mutation must change {rel}");
        *src = mutated;
    }
    let packages = Packages::read(&root()).expect("workspace manifests");
    analyze_sources(&sources, &packages).diagnostics
}

#[test]
fn live_workspace_is_clean() {
    let analysis = analyze_workspace(&root()).expect("workspace scan");
    assert_eq!(
        analysis.diagnostics,
        [],
        "the workspace must satisfy every bist-lint rule"
    );
    // The inventory the rules guard must actually exist — a walker
    // regression that skipped the engine sources would also report
    // "clean". Lower bounds, not equalities: future PRs add sites.
    assert!(
        analysis.files_scanned >= 100,
        "walker must see the workspace"
    );
    assert!(
        analysis.stats.hot_regions >= 10,
        "device loops, pool drains, checkpoints and Goertzel push are marked"
    );
    assert!(analysis.stats.allow_markers >= 2);
    assert!(
        analysis.stats.ordering_sites >= 2,
        "pool cursor + service atomics"
    );
    assert!(analysis.stats.unsafe_sites >= 2, "fma kernel + call site");
    assert!(
        analysis.index.kernels.contains("group_kernel_fma"),
        "pass 1 must find the #[target_feature] kernel"
    );
    assert_eq!(analysis.stats.kernel_calls, 1, "one guarded fma dispatch");
    assert!(
        analysis.stats.pub_items >= 500,
        "dead-pub must see the library surface, saw {}",
        analysis.stats.pub_items
    );
}

#[test]
fn no_library_source_queues_a_dead_pub_item() {
    // An uncalled `pub` item is deleted, not parked behind a marker. The
    // lint's own fixtures, which the walker skips, still exercise it.
    let queued: Vec<String> = read_sources(&root())
        .expect("workspace sources")
        .into_iter()
        .filter(|(rel, _)| rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src"))
        .flat_map(|(rel, src)| {
            Structure::build(&lex(&src))
                .allows
                .into_iter()
                .filter(|m| m.rule == "dead-pub")
                .map(move |m| format!("{rel}:{}", m.line + 1))
        })
        .collect();
    assert_eq!(queued, Vec::<String>::new(), "allow(dead-pub) markers");
}

#[test]
fn every_scanned_file_lexes_to_its_physical_line_count() {
    // Diagnostics carry line numbers from the lexer, so a lexer that
    // drops a line break misplaces every finding below it.
    for (rel, src) in read_sources(&root()).expect("workspace sources") {
        assert_eq!(lex(&src).len(), src.lines().count(), "{rel}");
    }
}

#[test]
fn json_report_parses_with_the_record_reader() {
    let analysis = analyze_workspace(&root()).expect("workspace scan");
    let json = bist_analysis::report::render_json(&analysis);
    let metrics = bist_bench::record_metrics(&json);
    let get = |k: &str| {
        metrics
            .iter()
            .find(|(key, _)| key == k)
            .unwrap_or_else(|| panic!("metric {k} missing"))
            .1
    };
    assert_eq!(get("violations"), 0.0);
    assert_eq!(get("files_scanned"), analysis.files_scanned as f64);
    assert_eq!(get("hot_path_regions"), analysis.stats.hot_regions as f64);
    for rule in Rule::ALL {
        let key = format!("violations_{}", rule.name().replace('-', "_"));
        assert_eq!(get(&key), 0.0, "{key}");
    }
    assert_eq!(get("pub_items"), analysis.stats.pub_items as f64);
    // Rust line count per crate, keyed as `rust_lines_<crate>`.
    let crates = [
        "adc",
        "analysis",
        "bench",
        "compat",
        "core",
        "dsp",
        "mc",
        "rtl",
        "serve",
        "fleetbench",
        "adc_bist",
    ];
    let per_crate: f64 = crates
        .iter()
        .map(|c| get(&format!("rust_lines_{c}")))
        .inspect(|&lines| assert!(lines > 0.0))
        .sum();
    let physical: usize = read_sources(&root())
        .expect("workspace sources")
        .iter()
        .map(|(_, src)| src.lines().count())
        .sum();
    assert_eq!(get("rust_lines_total"), physical as f64);
    assert_eq!(
        per_crate, physical as f64,
        "every line counts toward one crate"
    );
}

#[test]
fn stripping_an_ordering_comment_fires() {
    let rel = "crates/core/src/pool.rs";
    let diags = analyze_mutated(rel, |s| s.replace("ORDERING:", "NOTE:"));
    assert!(
        diags.iter().any(|d| d.rule == Rule::AtomicOrdering),
        "{rel}: deleting the ORDERING justification must fire, got {diags:?}"
    );
}

#[test]
fn stripping_a_safety_comment_fires() {
    let diags = analyze_mutated("crates/core/src/batch.rs", |s| {
        s.replace("SAFETY", "DETAIL").replace("Safety", "Detail")
    });
    let unsafe_diags: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::UndocumentedUnsafe)
        .collect();
    assert!(
        unsafe_diags.len() >= 2,
        "both the fma kernel's # Safety section and the call-site SAFETY \
         comment must be load-bearing, got {diags:?}"
    );
}

#[test]
fn inserting_an_allocation_into_a_hot_path_fires() {
    let diags = analyze_mutated("crates/core/src/batch.rs", |s| {
        // Drop a Vec::new into the body of the first hot-path region.
        let lines: Vec<&str> = s.lines().collect();
        let marker = lines
            .iter()
            .position(|l| l.trim_start().starts_with("// bist-lint: hot-path"))
            .expect("batch.rs declares hot-path regions");
        let open = (marker..lines.len())
            .find(|&i| lines[i].trim_end().ends_with('{'))
            .expect("region fn opens a body");
        let mut out: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
        out.insert(
            open + 1,
            "        let _scratch: Vec<u64> = Vec::new();".to_owned(),
        );
        out.join("\n")
    });
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::HotPathAlloc && d.message.contains("`Vec::new`")),
        "an allocation smuggled into a hot path must fire, got {diags:?}"
    );
}

#[test]
fn removing_an_allow_marker_fires() {
    let diags = analyze_mutated("crates/serve/src/telemetry.rs", |s| {
        s.lines()
            .filter(|l| !l.contains("bist-lint: allow(determinism)"))
            .collect::<Vec<_>>()
            .join("\n")
    });
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::Determinism && d.message.contains("Instant::now")),
        "the wall-clock read is only legal under its marker, got {diags:?}"
    );
}

#[test]
fn appending_an_uncalled_pub_fn_fires_once_at_its_line() {
    let rel = "crates/dsp/src/stats.rs";
    let src = std::fs::read_to_string(root().join(rel)).expect(rel);
    // One blank line after the file's last line, then the new item.
    let line = src.trim_end().lines().count() + 2;
    let diags = analyze_mutated(rel, |s| {
        format!(
            "{}\n\npub fn stats_helper_nothing_calls() -> f64 {{\n    0.0\n}}\n",
            s.trim_end()
        )
    });
    assert_eq!(
        diags.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
        [(Rule::DeadPub, line)],
        "{diags:?}"
    );
}

#[test]
fn a_pub_fn_only_tests_call_fires_until_an_example_calls_it() {
    let lib = "crates/core/src/lib.rs";
    let item = |s: &str| format!("{s}\npub fn only_tests_call_this() -> u32 {{\n    0\n}}\n");
    let test = |s: &str| {
        format!("{s}\n#[test]\nfn calls_it() {{\n    assert_eq!(bist_core::only_tests_call_this(), 0);\n}}\n")
    };
    let edits: [Edit; 2] = [(lib, &item), ("crates/core/tests/properties.rs", &test)];
    let diags = analyze_edited(&edits);
    let fired: Vec<(&str, Rule)> = diags.iter().map(|d| (d.file.as_str(), d.rule)).collect();
    assert_eq!(fired, [(lib, Rule::DeadPub)], "{diags:?}");
    // One production caller clears it.
    let example =
        |s: &str| format!("{s}\nfn _use() -> u32 {{\n    bist_core::only_tests_call_this()\n}}\n");
    let edits: [Edit; 3] = [edits[0], edits[1], ("examples/quickstart.rs", &example)];
    assert_eq!(analyze_edited(&edits), []);
}
