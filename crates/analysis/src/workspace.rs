//! Workspace walking and whole-workspace analysis: collect every `.rs`
//! file, derive each file's [`FileContext`] from its path and its
//! package's manifest, run pass 1 (the kernel and identifier [`Index`])
//! then pass 2 (all rules) and fold the tallies and per-crate line
//! counts.

use crate::rules::{analyze_file, Diagnostic, FileContext, FileStats, Index};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Library source roots of the report-producing crates — the crates
/// whose outputs feed `report_checksum`-gated fleet reports, where the
/// `determinism` rule applies.
pub const REPORT_CRATE_ROOTS: [&str; 5] = [
    "crates/core/src/",
    "crates/dsp/src/",
    "crates/rtl/src/",
    "crates/mc/src/",
    "crates/serve/src/",
];

/// The designated seeded-RNG seam modules: the only places in the
/// report-producing crates allowed to construct RNGs. The canonical
/// derivations (`stream_rng`, `device_rng`, the SplitMix64 finaliser)
/// live in `bist_core::source` next to the device-generation seam;
/// `bist_mc::batch` re-exports them and keeps its historical path.
pub const RNG_SEAMS: [&str; 2] = ["crates/core/src/source.rs", "crates/mc/src/batch.rs"];

/// Aggregated result of a workspace run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Every finding, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Summed per-file tallies.
    pub stats: FileStats,
    /// Pass 1: kernels and identifier references, workspace-wide.
    pub index: Index,
    /// Physical lines of scanned Rust per crate: `crates/<name>/…` under
    /// `<name>`, `fleetbench/…` under `fleetbench`, and the root package
    /// (`src/`, `tests/`, `examples/`) under `adc_bist`.
    pub rust_lines: BTreeMap<String, usize>,
}

impl Analysis {
    /// Findings for one rule.
    pub fn count(&self, rule: crate::rules::Rule) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }
}

/// One package of the workspace, as its `Cargo.toml` declares it.
#[derive(Debug)]
struct Package {
    /// Workspace-relative directory with a trailing `/`; empty for the
    /// root package.
    dir: String,
    /// `[package] name`.
    name: String,
    /// Keys of `[dependencies]` and `[dev-dependencies]`.
    deps: Vec<String>,
}

/// The workspace's packages: which one owns each file, and which
/// packages that file can name.
#[derive(Debug, Default)]
pub struct Packages(Vec<Package>);

impl Packages {
    /// Parses `(workspace-relative manifest path, text)` pairs. Only the
    /// package name and the dependency keys are read.
    pub fn parse(manifests: &[(String, String)]) -> Self {
        let mut packages = Vec::new();
        for (rel, text) in manifests {
            let mut section = "";
            let mut name = None;
            let mut deps = Vec::new();
            for line in text.lines().map(str::trim) {
                if let Some(header) = line.strip_prefix('[') {
                    section = header.trim_end_matches(']');
                    continue;
                }
                let Some((key, value)) = line.split_once('=') else {
                    continue;
                };
                // `bist-dsp.workspace = true` depends on `bist-dsp`.
                let key = key.split('.').next().unwrap_or("").trim().trim_matches('"');
                match section {
                    "package" if key == "name" => name = Some(value.trim().trim_matches('"')),
                    "dependencies" | "dev-dependencies" => deps.push(key.to_owned()),
                    _ => {}
                }
            }
            if let Some(name) = name {
                packages.push(Package {
                    dir: rel.trim_end_matches("Cargo.toml").to_owned(),
                    name: name.to_owned(),
                    deps,
                });
            }
        }
        Packages(packages)
    }

    /// Reads and parses every `Cargo.toml` under `root`, skipping what
    /// [`collect_files`] skips.
    pub fn read(root: &Path) -> io::Result<Self> {
        let mut paths = Vec::new();
        walk(root, root, "Cargo.toml", &mut paths)?;
        let manifests = paths
            .into_iter()
            .map(|rel| {
                let text = fs::read_to_string(root.join(&rel))?;
                Ok((rel.to_string_lossy().replace('\\', "/"), text))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Packages::parse(&manifests))
    }

    /// The package whose directory most closely encloses `rel`.
    fn owner(&self, rel: &str) -> Option<&Package> {
        self.0
            .iter()
            .filter(|p| rel.starts_with(&p.dir))
            .max_by_key(|p| p.dir.len())
    }
}

/// Derives a file's rule scope from its workspace-relative path and the
/// package that owns it.
pub fn context_for(rel: &str, packages: &Packages) -> FileContext {
    let test_code = rel
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    let parts: Vec<&str> = rel.split('/').collect();
    let library = matches!(parts[..], ["crates", krate, "src", ..] if krate != "compat")
        && !parts.contains(&"bin")
        && !rel.ends_with("/main.rs");
    let owner = packages.owner(rel);
    FileContext {
        path: rel.to_owned(),
        report_crate: !test_code && REPORT_CRATE_ROOTS.iter().any(|r| rel.starts_with(r)),
        test_code,
        rng_seam: RNG_SEAMS.contains(&rel),
        library,
        krate: owner.map_or(String::new(), |p| p.name.clone()),
        deps: owner.map_or(Vec::new(), |p| p.deps.clone()),
    }
}

/// The crate a file's lines count toward in [`Analysis::rust_lines`].
fn line_key(rel: &str) -> &str {
    match rel.split('/').collect::<Vec<_>>()[..] {
        ["crates", krate, _, ..] => krate,
        ["fleetbench", _, ..] => "fleetbench",
        _ => "adc_bist",
    }
}

/// Collects every analyzable `.rs` file under `root`, workspace-relative
/// with forward slashes, sorted. Skips build output (`target/`), VCS
/// internals, and the linter's own golden fixtures (which exist to
/// violate the rules).
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, ".rs", &mut files)?;
    files.sort();
    Ok(files)
}

/// Collects the files under `dir` whose names end with `suffix`.
fn walk(root: &Path, dir: &Path, suffix: &str, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, suffix, files)?;
        } else if name.ends_with(suffix) {
            files.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// Reads every analyzable file under `root` as `(relative path,
/// source)` pairs, in [`collect_files`] order.
pub fn read_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    collect_files(root)?
        .into_iter()
        .map(|rel| {
            let src = fs::read_to_string(root.join(&rel))?;
            Ok((rel.to_string_lossy().replace('\\', "/"), src))
        })
        .collect()
}

/// Runs the full two-pass analysis over the workspace at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    Ok(analyze_sources(
        &read_sources(root)?,
        &Packages::read(root)?,
    ))
}

/// Runs the two-pass analysis over in-memory `(relative path, source)`
/// pairs owned by `packages`: pass 1 indexes them all, pass 2 checks
/// each file.
pub fn analyze_sources(sources: &[(String, String)], packages: &Packages) -> Analysis {
    let contexts: Vec<FileContext> = sources
        .iter()
        .map(|(rel, _)| context_for(rel, packages))
        .collect();
    let indexed = contexts
        .iter()
        .zip(sources)
        .map(|(c, (_, s))| (c, s.as_str()));
    let mut analysis = Analysis {
        files_scanned: sources.len(),
        index: Index::build(indexed),
        ..Analysis::default()
    };
    for (ctx, (rel, src)) in contexts.iter().zip(sources) {
        let (diags, stats) = analyze_file(src, ctx, &analysis.index);
        analysis.diagnostics.extend(diags);
        analysis.stats.hot_regions += stats.hot_regions;
        analysis.stats.allow_markers += stats.allow_markers;
        analysis.stats.unsafe_sites += stats.unsafe_sites;
        analysis.stats.ordering_sites += stats.ordering_sites;
        analysis.stats.kernel_calls += stats.kernel_calls;
        analysis.stats.pub_items += stats.pub_items;
        *analysis
            .rust_lines
            .entry(line_key(rel).to_owned())
            .or_default() += src.lines().count();
    }
    analysis.diagnostics.sort();
    analysis
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]` — the analysis root when `--root` is absent.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_follow_paths() {
        let context_for = |rel: &str| context_for(rel, &Packages::default());
        let c = context_for("crates/core/src/batch.rs");
        assert!(c.report_crate && !c.test_code && !c.rng_seam);
        let c = context_for("crates/mc/src/batch.rs");
        assert!(c.report_crate && c.rng_seam);
        let c = context_for("crates/core/src/source.rs");
        assert!(c.report_crate && c.rng_seam);
        let c = context_for("crates/serve/src/service.rs");
        assert!(c.report_crate && !c.test_code && !c.rng_seam);
        let c = context_for("tests/zero_alloc.rs");
        assert!(!c.report_crate && c.test_code);
        let c = context_for("crates/serve/tests/backpressure.rs");
        assert!(!c.report_crate && c.test_code);
        let c = context_for("crates/bench/src/lib.rs");
        assert!(!c.report_crate && !c.test_code);
        let c = context_for("examples/quickstart.rs");
        assert!(c.test_code);
        // `dead-pub` scope: library source only.
        for rel in ["crates/core/src/batch.rs", "crates/bench/src/lib.rs"] {
            assert!(context_for(rel).library, "{rel}");
        }
        for rel in [
            "examples/quickstart.rs",
            "crates/bench/src/bin/table1.rs",
            "crates/analysis/src/main.rs",
            "crates/compat/rand/src/lib.rs",
            "tests/zero_alloc.rs",
            "src/lib.rs",
            "fleetbench/src/lib.rs",
        ] {
            assert!(!context_for(rel).library, "{rel}");
        }
    }

    #[test]
    fn lines_count_toward_their_crate() {
        assert_eq!(line_key("crates/core/src/batch.rs"), "core");
        assert_eq!(line_key("crates/compat/rand/src/lib.rs"), "compat");
        assert_eq!(line_key("fleetbench/src/main.rs"), "fleetbench");
        assert_eq!(line_key("src/lib.rs"), "adc_bist");
        assert_eq!(line_key("tests/paper.rs"), "adc_bist");
        assert_eq!(line_key("examples/quickstart.rs"), "adc_bist");
    }

    #[test]
    fn files_belong_to_their_nearest_manifest() {
        let manifests = [
            ("Cargo.toml", "[package]\nname = \"umbrella\"\n[dependencies]\nleaf.workspace = true\n[workspace.dependencies]\nleaf = { path = \"crates/leaf\" }\n"),
            ("crates/leaf/Cargo.toml", "[package]\nname = \"leaf\"\n[dev-dependencies]\n\"tool\" = { path = \"../tool\" }\n[[bin]]\nname = \"x\"\n"),
        ];
        let manifests: Vec<(String, String)> = manifests
            .iter()
            .map(|&(p, t)| (p.to_owned(), t.to_owned()))
            .collect();
        let packages = Packages::parse(&manifests);
        let c = context_for("crates/leaf/src/lib.rs", &packages);
        assert_eq!(
            (c.krate.as_str(), c.deps),
            ("leaf", vec!["tool".to_owned()])
        );
        let c = context_for("examples/tour.rs", &packages);
        assert_eq!(
            (c.krate.as_str(), c.deps),
            ("umbrella", vec!["leaf".to_owned()])
        );
    }

    #[test]
    fn workspace_root_is_found() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/analysis").is_dir());
    }
}
