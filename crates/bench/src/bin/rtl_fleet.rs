//! Experiment E12: **differential fleet validation** of the
//! behavioural↔RTL verdict seam.
//!
//! Sweeps both verdict backends — the behavioural engine fleets run
//! (run-skipping the noiseless cells) and the gate-accurate
//! `bist_rtl::BistTop` — over the same code streams for every device ×
//! counter width (4–7) × deglitch × noise point, demanding bit-exact
//! agreement on every verdict field. **Any divergence fails the run**
//! (exit 1), which is what the CI smoke step relies on; an empty sweep
//! (`BIST_DEVICES=0`) is not clean, so it fails too. The cells are
//! `bist_mc::differential::Cell::Batch` cells, whose fields the CSV
//! columns carry. The RTL path's speed is fleetbench's to measure
//! (`rtl.*.devices_per_s`, `rtl.slowdown_vs_behavioral`).
//!
//! The second sweep runs a ramp with a −0.022 relative slope error: the
//! paper's "slightly too steep" measurement ramp.
//!
//! Knobs: `BIST_DEVICES` (default 1000), `BIST_WORKERS`.

use bist_bench::{report_divergences, Scenario, SEED};
use bist_core::report::Table;
use bist_mc::batch::Batch;
use bist_mc::differential::{run_differential, Cell};

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

    let nominal = run_differential(&batch, 0.0, workers);
    let skewed = run_differential(&batch, SLOPE_ERROR, workers);
    println!("nominal ramp   {nominal}");
    println!("skewed ramp    {skewed}");

    let mut table = Table::new(&["scenario", "compared", "bit-exact", "accepted"])
        .with_title("E12 differential: behavioural vs RTL backend, nominal ramp");
    let mut csv = Vec::new();
    for (ramp, result) in [("nominal", &nominal), ("skewed", &skewed)] {
        for tally in &result.per_scenario {
            let Cell::Batch {
                counter_bits,
                deglitch,
                noise,
            } = tally.scenario
            else {
                unreachable!("the static grid holds only batch cells")
            };
            if ramp == "nominal" {
                table.row_owned(vec![
                    tally.scenario.to_string(),
                    tally.comparisons.to_string(),
                    tally.agreements.to_string(),
                    tally.full_accepted.to_string(),
                ]);
            }
            csv.push(vec![
                ramp.to_owned(),
                counter_bits.to_string(),
                u8::from(deglitch).to_string(),
                noise.label().to_owned(),
                tally.comparisons.to_string(),
                tally.agreements.to_string(),
                tally.full_accepted.to_string(),
            ]);
        }
    }
    println!("{table}");
    report_divergences(&nominal.divergences, "nominal");
    report_divergences(&skewed.divergences, "skewed");

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
    let clean = nominal.is_clean() && skewed.is_clean();
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
