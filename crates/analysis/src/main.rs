//! `bist-lint` — walk the workspace, enforce the engine invariants at
//! the source level, and emit a flat-JSON report.
//!
//! ```text
//! bist-lint [--root <dir>] [--json <path>] [--quiet]
//! ```
//!
//! Exits 0 when the workspace is clean, 1 on any violation, 2 on usage
//! or I/O errors. Without `--root`, the workspace root is found by
//! walking upward from the current directory.

#![forbid(unsafe_code)]

use bist_analysis::report::render_json;
use bist_analysis::{analyze_workspace, find_workspace_root, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_path = args.next().map(PathBuf::from),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("usage: bist-lint [--root <dir>] [--json <path>] [--quiet]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bist-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("bist-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    let analysis = match analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bist-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_path {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, render_json(&analysis)) {
            eprintln!("bist-lint: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for d in &analysis.diagnostics {
        println!("{d}");
    }
    if !quiet {
        let per_rule: Vec<String> = Rule::ALL
            .iter()
            .map(|&r| format!("{}: {}", r.name(), analysis.count(r)))
            .collect();
        eprintln!(
            "bist-lint: {} file(s), {} hot-path region(s), {} unsafe site(s), \
             {} ordering site(s), {} kernel call site(s), {} pub item(s), {} allow marker(s)",
            analysis.files_scanned,
            analysis.stats.hot_regions,
            analysis.stats.unsafe_sites,
            analysis.stats.ordering_sites,
            analysis.stats.kernel_calls,
            analysis.stats.pub_items,
            analysis.stats.allow_markers,
        );
        eprintln!(
            "bist-lint: {} violation(s) ({})",
            analysis.diagnostics.len(),
            per_rule.join(", ")
        );
    }
    if analysis.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
