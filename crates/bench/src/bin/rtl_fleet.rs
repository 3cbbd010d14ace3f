//! Experiment E12: **differential fleet validation** of the
//! behavioural↔RTL verdict seam.
//!
//! Part 1 sweeps both verdict backends — the production behavioural
//! accumulators and the gate-accurate `bist_rtl::BistTop` — over the
//! same code streams for every device × counter width (4–7) × deglitch
//! × noise point, demanding bit-exact agreement on every verdict field.
//! **Any divergence fails the run** (exit 1), which is what the CI
//! smoke step relies on.
//!
//! Part 2 screens the same batch through each backend end to end,
//! through the batch seam (`Experiment::run_with`), and demands equal
//! tallies. The RTL path's speed is fleetbench's to measure
//! (`rtl.*.devices_per_s`, `rtl.slowdown_vs_behavioral`).
//!
//! The second sweep runs a ramp with a −0.022 relative slope error: the
//! paper's "slightly too steep" measurement ramp.
//!
//! Knobs: `BIST_DEVICES` (default 1000), `BIST_WORKERS`.

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_bench::{report_divergences, Scenario, SEED};
use bist_core::backend::RtlBackend;
use bist_core::config::BistConfig;
use bist_core::report::Table;
use bist_core::screener::Workload;
use bist_mc::batch::Batch;
use bist_mc::differential::run_differential;
use bist_mc::experiment::Experiment;

/// Relative slope error of the skewed sweep's ramp.
const SLOPE_ERROR: f64 = -0.022;

fn main() {
    let mut clean = true;
    Scenario::run("rtl_fleet", |sc| clean = run(sc));
    if !clean {
        eprintln!("rtl_fleet: behavioural↔RTL divergence detected — failing the run");
        std::process::exit(1);
    }
}

fn run(sc: &mut Scenario) -> bool {
    let devices = sc.usize_knob("BIST_DEVICES", 1000);
    let workers = sc.workers();
    let batch = Batch::paper_simulation(SEED, devices);

    // --- Part 1: differential sweep, nominal and skewed ramps -------
    let nominal = run_differential(&batch, 0.0, workers);
    let skewed = run_differential(&batch, SLOPE_ERROR, workers);
    println!("nominal ramp   {nominal}");
    println!("skewed ramp    {skewed}");

    let mut table = Table::new(&["scenario", "compared", "bit-exact", "accepted"])
        .with_title("E12 differential: behavioural vs RTL backend, nominal ramp");
    let mut csv = Vec::new();
    for (ramp, result) in [("nominal", &nominal), ("skewed", &skewed)] {
        for tally in &result.per_scenario {
            if ramp == "nominal" {
                table.row_owned(vec![
                    tally.scenario.to_string(),
                    tally.comparisons.to_string(),
                    tally.agreements.to_string(),
                    tally.accepted.to_string(),
                ]);
            }
            csv.push(vec![
                ramp.to_owned(),
                tally.scenario.counter_bits.to_string(),
                u8::from(tally.scenario.deglitch).to_string(),
                tally.scenario.noise.label().to_owned(),
                tally.comparisons.to_string(),
                tally.agreements.to_string(),
                tally.accepted.to_string(),
            ]);
        }
    }
    println!("{table}");
    report_divergences(&nominal.divergences, "nominal");
    report_divergences(&skewed.divergences, "skewed");

    // --- Part 2: fleet tallies, backend vs backend ------------------
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(6)
        .build()
        .expect("paper operating point");
    let experiment = Experiment::new(batch, Workload::static_ramp(config));
    let behavioral = experiment.run(workers);
    let rtl = experiment.run_with(workers, RtlBackend::new);
    let verdicts_agree = behavioral == rtl;
    println!("fleet (6-bit counter, {devices} devices): behavioral {behavioral}, rtl {rtl}");
    if !verdicts_agree {
        println!("fleet phase: screening results DIVERGED");
    }

    sc.metric_count("devices", devices as u64);
    sc.metric_count("comparisons", nominal.comparisons + skewed.comparisons);
    sc.metric_count(
        "divergences",
        (nominal.divergences.len() + skewed.divergences.len()) as u64,
    );
    sc.metric("agreement_rate_nominal", nominal.agreement_rate());
    sc.metric("agreement_rate_skewed", skewed.agreement_rate());
    let path = sc.csv(
        "rtl_fleet.csv",
        &[
            "ramp",
            "counter_bits",
            "deglitch",
            "noise",
            "compared",
            "bit_exact",
            "accepted",
        ],
        &csv,
    );
    eprintln!("wrote {}", path.display());
    // An empty sweep must not read as a pass — the smoke gate would go
    // vacuously green on BIST_DEVICES=0.
    let clean =
        nominal.comparisons > 0 && nominal.is_clean() && skewed.is_clean() && verdicts_agree;
    if clean {
        println!(
            "reading: the gate-accurate datapath reaches the identical verdict on every device —"
        );
        println!(
            "the on-chip design of Figures 2/4 is a faithful drop-in for the reference model."
        );
    } else {
        println!(
            "reading: behavioural and RTL verdicts DIVERGED — see the DIVERGENCE lines above."
        );
    }
    clean
}
