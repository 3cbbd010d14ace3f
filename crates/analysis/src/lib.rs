//! # bist-analysis
//!
//! `bist-lint`: a workspace-native static-analysis pass that proves the
//! `adc-bist` engine invariants at the *source* level — the shift-left
//! the paper's BIST philosophy applies to silicon, applied to the
//! reproduction itself. The three invariants the workspace already
//! enforces dynamically (zero allocation on the hot paths, bit-identical
//! fleet reports for any worker count, identical
//! early-stop latch points on both backends) each get a static shadow
//! that fires when the regression is *written*, not when a fleet run
//! diverges:
//!
//! * [`rules::Rule::HotPathAlloc`] — no allocating constructs inside
//!   `// bist-lint: hot-path`-marked regions (statically complements
//!   the counting-allocator proof in `crates/core/tests/zero_alloc.rs`).
//! * [`rules::Rule::UndocumentedUnsafe`] — every `unsafe` carries a
//!   `SAFETY` justification, and every `#[target_feature]` kernel is
//!   only reached from an `is_x86_feature_detected!`-guarded scope or
//!   another kernel.
//! * [`rules::Rule::AtomicOrdering`] — every atomic `Ordering::` choice
//!   carries an `// ORDERING:` justification (the worker-pool claim
//!   cursors are load-bearing for report determinism).
//! * [`rules::Rule::Determinism`] — no `HashMap`/`HashSet`, wall-clock
//!   reads, or RNG construction outside the seeded
//!   `bist_mc::batch::stream_rng` seam in the report-producing crates
//!   (core/dsp/rtl/mc library sources).
//!
//! A fifth rule keeps the library surface down to what something calls:
//!
//! * [`rules::Rule::DeadPub`] — every bare-`pub` item in library source
//!   (`crates/*/src`, outside bins and the API-mirroring compat crates)
//!   is used in code by another file, or by its own file outside its
//!   own definition, its own `impl` blocks and `#[cfg(test)]` code.
//!   Tests do not count as users: pass 1 indexes how every file
//!   mentions each identifier, skipping `#[cfg(test)]` code and files
//!   under a `tests/` directory. A use counts only where the item can
//!   be meant: in a file whose package is the item's own or depends on
//!   it (examples, bins and `fleetbench/` included), not at
//!   a definition site, not in a `pub use` of its own crate, and not as
//!   an enum variant (its definition or an `Enum::Variant` path). An
//!   inherent method is used only where it is called or named by path,
//!   never by a field or local of the same name. Doc comments,
//!   doctests and strings never count.
//!
//! Diagnostics are machine-readable flat JSON (the record shape of the
//! bench binaries — see [`report::render_json`]) and suppressible
//! only via inline `// bist-lint: allow(<rule>) — <reason>` markers.
//! The analyzer runs against the live workspace as a tier-1 test
//! (`tests/workspace_clean.rs`) and as the dedicated `static-analysis`
//! CI job (the `bist-lint` binary).
//!
//! Zero dependencies by design: the container is hermetic, and the
//! checker that gates everything else must itself build first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod structure;
pub mod workspace;

pub use rules::{analyze_file, Diagnostic, FileContext, Index, Rule};
pub use workspace::{
    analyze_sources, analyze_workspace, context_for, find_workspace_root, read_sources, Analysis,
    Packages,
};
