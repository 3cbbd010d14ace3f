//! The live-workspace gate: `bist-lint` must report zero violations on
//! this repository, and deleting any of the justifications it guards —
//! a `SAFETY:` comment, an `ORDERING:` comment, an allow marker — or
//! inserting an allocation into a hot path must surface a diagnostic.
//! Because this file runs under `cargo test` (tier 1) and the dedicated
//! CI job, those mutations fail CI.

use bist_analysis::{
    analyze_file, analyze_workspace, collect_kernels, context_for, find_workspace_root, Diagnostic,
    Rule,
};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

/// Reads a real workspace file, applies `mutate`, and re-analyzes it
/// under its real path context — the in-memory version of editing the
/// file and re-running `bist-lint`.
fn analyze_mutated(rel: &str, mutate: impl Fn(&str) -> String) -> Vec<Diagnostic> {
    let src = fs::read_to_string(root().join(rel)).expect(rel);
    let mutated = mutate(&src);
    assert_ne!(src, mutated, "mutation must change {rel}");
    let kernels: BTreeSet<String> = collect_kernels(&mutated).into_iter().collect();
    analyze_file(&mutated, &context_for(rel), &kernels).0
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
        "lane loops, pool drains, checkpoints and Goertzel push are marked"
    );
    assert!(analysis.stats.allow_markers >= 4);
    assert!(
        analysis.stats.ordering_sites >= 2,
        "pool cursor + service atomics"
    );
    assert!(analysis.stats.unsafe_sites >= 2, "fma kernel + call site");
    assert!(
        analysis.kernels.contains("group_kernel_fma"),
        "pass 1 must find the #[target_feature] kernel"
    );
    assert_eq!(analysis.stats.kernel_calls, 1, "one guarded fma dispatch");
}

#[test]
fn json_report_parses_with_the_perf_gate_reader() {
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
    let diags = analyze_mutated("crates/mc/src/experiment.rs", |s| {
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
