//! Experiment E14: **sequenced early-stop fleet validation** — the
//! uncertainty-guided sequencer over both verdict backends, scored
//! against full-sweep ground truth.
//!
//! Part 1 runs `bist_mc::differential::run_seq_differential`: for every
//! device × cell (static counter-width × mismatch σ cells plus dynamic
//! resolution × mismatch σ cells), three runs consume bit-identical
//! code streams — the full sweep (ground truth), the sequenced
//! behavioural path and the sequenced gate-accurate RTL path. The two
//! sequenced backends must latch **identical decisions at identical
//! sample indices** (any divergence exits 1, which the CI fleet
//! verdict gates rely on), and the sequenced decision is scored against the
//! full sweep for empirical type I/II drift (must stay within the
//! configured `alpha`/`beta` budgets) and samples-to-decision
//! reduction (must reach ≥ 2x on ground-truth-accepted devices).
//! Candidate cells rejected by config validation are reported as
//! skipped and excluded from every figure. An empty sweep
//! (`BIST_DEVICES=0`) is not clean, so it fails too. The per-cell
//! table and CSV come from `bist_bench::write_seq_cells`, shared with
//! `arch_fleet`. The sequencer's wall-clock cost per kept sample is
//! fleetbench's to measure (`sequencer.ns_per_sample_ratio`).
//!
//! The policy is `SequencerConfig::default()`: drift budgets α = β =
//! 1e-3, 256 samples before the first checkpoint, one every 64.
//!
//! Knobs: `BIST_DEVICES` (default 400), `BIST_WORKERS`.

use bist_bench::{report_divergences, write_seq_cells, Scenario, SEED};
use bist_core::sequencer::SequencerConfig;
use bist_mc::differential::run_seq_differential;

fn main() {
    let mut clean = true;
    Scenario::run("seq_fleet", |sc| clean = run(sc));
    if !clean {
        eprintln!("seq_fleet: sequencer divergence, drift-budget or reduction gate failed");
        std::process::exit(1);
    }
}

fn run(sc: &mut Scenario) -> bool {
    let devices = sc.usize_knob("BIST_DEVICES", 400);
    let workers = sc.workers();
    let policy = SequencerConfig::default();

    // --- Part 1: the sequenced differential sweep -------------------
    let result = run_seq_differential(SEED, &policy, devices, workers);
    println!("sequenced sweep  {result}");
    for cell in &result.skipped_cells {
        println!("skipped cell {}: {}", cell.scenario, cell.reason);
    }

    write_seq_cells(
        sc,
        &result,
        "E14 sequenced differential: early-stop layer over both backends",
        "scenario",
        "seq_fleet.csv",
    );
    report_divergences(&result.divergences, "");

    sc.metric_count("devices", devices as u64);
    sc.metric_count("comparisons", result.comparisons);
    sc.metric_count("divergences", result.divergences.len() as u64);
    sc.metric_count("skipped_cells", result.skipped_cells.len() as u64);
    sc.metric("alpha", policy.alpha);
    sc.metric("beta", policy.beta);
    sc.metric("early_stop_rate", result.early_stop_rate());
    sc.metric("type_i_drift", result.type_i_drift());
    sc.metric("type_ii_drift", result.type_ii_drift());
    sc.metric("reduction_overall", result.reduction_overall());
    sc.metric("reduction_accepted", result.reduction_accepted());
    sc.metric("reduction_rejected", result.reduction_rejected());

    // The gates. An empty sweep is not clean; drift must stay within
    // the configured budgets — compared as event counts with binomial
    // slack (budget·n + 3·√(budget·n)), since the budgets *price*
    // occasional drift and a single in-budget event must not fail a
    // small smoke run; passing devices must on average decide in less
    // than half the full-sweep samples.
    let good: u64 = result.per_scenario.iter().map(|t| t.full_accepted).sum();
    let bad = result.comparisons - good;
    let drift_i: u64 = result.per_scenario.iter().map(|t| t.drift_i).sum();
    let drift_ii: u64 = result.per_scenario.iter().map(|t| t.drift_ii).sum();
    let allow =
        |budget: f64, n: u64| (budget * n as f64 + 3.0 * (budget * n as f64).sqrt()).ceil() as u64;
    let drift_ok = drift_i <= allow(policy.alpha, good) && drift_ii <= allow(policy.beta, bad);
    let reduction_ok = result.reduction_accepted() >= 2.0;
    let clean = result.is_clean() && drift_ok && reduction_ok;
    if clean {
        println!("reading: both backends latch the identical early-stop decision on every");
        println!("device, the sequenced verdicts drift from full-sweep ground truth within");
        println!(
            "the configured budgets (I {drift_i}/{good} vs budget {:.0e}, II {drift_ii}/{bad} \
             vs {:.0e}), and passing",
            policy.alpha, policy.beta
        );
        println!(
            "devices decide {:.1}x sooner — the BIST's cheap-verdict promise, now on a",
            result.reduction_accepted()
        );
        println!("per-sample budget instead of a per-sweep one.");
    } else {
        println!(
            "reading: GATE FAILED — divergences {} / drift I {drift_i}/{good} \
             (allow {}) / drift II {drift_ii}/{bad} (allow {}) / \
             reduction on accepted {:.2}x (≥2x?)",
            result.divergences.len(),
            allow(policy.alpha, good),
            allow(policy.beta, bad),
            result.reduction_accepted()
        );
    }
    clean
}
