//! Experiment E13: **dynamic differential fleet validation** of the
//! behavioural↔RTL verdict seam for the §2 dynamic parameters judged
//! with fixed-point gates.
//!
//! Part 1 sweeps both dynamic verdict backends — the streaming Goertzel
//! bank and the fixed-point `bist_rtl::DynBistTop` — over the same
//! coherent sine code streams for every device × converter resolution
//! (6/8 bit) × mismatch σ (0 / 0.16 / 0.21 LSB) × coherent-bin choice
//! (1021/997 cycles), demanding **decision-exact agreement**: the
//! per-limit pass/fail bits, sample count and completeness expectation
//! must be identical (the raw dB metrics may differ only by the RTL's
//! bounded fixed-point quantisation). **Any divergence fails the run**
//! (exit 1), which the CI smoke step relies on.
//!
//! Part 2 screens a paper-point population (6-bit, σ = 0.21, 4096
//! samples × 1021 cycles) through each backend end to end, through the
//! batch seam (`Experiment::run_with`), and demands equal tallies. The
//! RTL path's speed is fleetbench's to measure (`rtl.*.devices_per_s`).
//!
//! Knobs: `BIST_DEVICES` (default 1000 → 12 000 device×scenario
//! comparisons), `BIST_WORKERS`.

use bist_adc::flash::FlashConfig;
use bist_adc::types::{Resolution, Volts};
use bist_bench::{report_divergences, Scenario, SEED};
use bist_core::backend::RtlBackend;
use bist_core::dynamic::DynamicConfig;
use bist_core::report::Table;
use bist_core::screener::Workload;
use bist_mc::batch::Batch;
use bist_mc::differential::run_dyn_differential;
use bist_mc::experiment::Experiment;

fn main() {
    let mut clean = true;
    Scenario::run("dyn_fleet", |sc| clean = run(sc));
    if !clean {
        eprintln!("dyn_fleet: behavioural↔RTL dynamic divergence detected — failing the run");
        std::process::exit(1);
    }
}

fn run(sc: &mut Scenario) -> bool {
    let devices = sc.usize_knob("BIST_DEVICES", 1000);
    let workers = sc.workers();

    // --- Part 1: the dynamic differential sweep ---------------------
    let result = run_dyn_differential(SEED, devices, workers);
    println!("dynamic sweep  {result}");

    let mut table = Table::new(&["scenario", "compared", "decision-exact", "accepted"])
        .with_title("E13 differential: Goertzel bank vs fixed-point DynBistTop");
    let mut csv = Vec::new();
    for tally in &result.per_scenario {
        table.row_owned(vec![
            tally.scenario.to_string(),
            tally.comparisons.to_string(),
            tally.agreements.to_string(),
            tally.accepted.to_string(),
        ]);
        csv.push(vec![
            tally.scenario.resolution_bits.to_string(),
            format!("0.{:03}", tally.scenario.sigma_milli_lsb),
            tally.scenario.cycles.to_string(),
            tally.comparisons.to_string(),
            tally.agreements.to_string(),
            tally.accepted.to_string(),
        ]);
    }
    println!("{table}");
    report_divergences(&result.divergences, "");

    // --- Part 2: fleet tallies, backend vs backend ------------------
    let flash =
        FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).with_width_sigma_lsb(0.21);
    let batch = Batch::of(flash).seed(SEED).size(devices);
    let workload = Workload::dynamic_sine(DynamicConfig::paper_default());
    let experiment = Experiment::new(batch, workload);
    let behavioral = experiment.run(workers);
    let rtl = experiment.run_with(workers, RtlBackend::new);
    let verdicts_agree = behavioral == rtl;
    println!(
        "fleet (6-bit σ0.21, {devices} devices): behavioral {behavioral}, rtl {rtl}; \
         acceptance {:.1}%",
        100.0 * behavioral.acceptance_rate(),
    );
    if !verdicts_agree {
        println!("fleet phase: screening tallies DIVERGED");
    }

    sc.metric_count("devices", devices as u64);
    sc.metric_count("comparisons", result.comparisons);
    sc.metric_count("divergences", result.divergences.len() as u64);
    sc.metric("agreement_rate", result.agreement_rate());
    sc.metric("acceptance_rate", behavioral.acceptance_rate());
    let path = sc.csv(
        "dyn_fleet.csv",
        &[
            "resolution_bits",
            "sigma_lsb",
            "cycles",
            "compared",
            "decision_exact",
            "accepted",
        ],
        &csv,
    );
    eprintln!("wrote {}", path.display());
    // An empty sweep must not read as a pass — the smoke gate would go
    // vacuously green on BIST_DEVICES=0.
    let clean = result.comparisons > 0 && result.is_clean() && verdicts_agree;
    if clean {
        println!("reading: the fixed-point dynamic datapath reaches the identical accept/reject");
        println!("decision on every device — §2's THD/noise-power test runs on-chip with \"simple");
        println!("digital functions\" and no loss of verdict fidelity.");
    } else {
        println!("reading: behavioural and RTL dynamic verdicts DIVERGED — see above.");
    }
    clean
}
