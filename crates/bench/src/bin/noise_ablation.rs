//! Ablation: the §3 deglitch filter under comparator transition noise.
//!
//! §3 excludes transition noise from the theory but prescribes the cure:
//! "Toggles in the LSB can be removed by means of a simple digital
//! filter." This experiment sweeps the transition-noise level and
//! measures the BIST type-I rate with and without the majority-vote
//! deglitcher, quantifying both the damage the noise does and how much
//! of it the filter recovers.
//!
//! Knobs: `BIST_BATCH` (default 800), `BIST_WORKERS` (0 = all
//! cores).

use bist_adc::noise::NoiseConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_bench::{Scenario, SEED};
use bist_core::config::BistConfig;
use bist_core::report::{fmt_prob, Table};
use bist_core::screener::Workload;
use bist_mc::batch::Batch;
use bist_mc::experiment::Experiment;

fn main() {
    Scenario::run("noise_ablation", run);
}

fn run(sc: &mut Scenario) {
    let n = sc.usize_knob("BIST_BATCH", 800);
    let workers = sc.workers();
    let spec = LinearitySpec::paper_stringent();
    eprintln!("noise_ablation: {n} devices per cell, 6-bit counter");

    let mut t = Table::new(&[
        "noise [LSB rms]",
        "raw type I",
        "deglitched type I",
        "raw type II",
        "deglitched type II",
    ])
    .with_title("Transition-noise ablation (±0.5 LSB spec, 6-bit counter)");
    let mut csv = Vec::new();
    for noise_lsb in [0.0, 0.002, 0.005, 0.01, 0.02, 0.04] {
        // 0.1 V per LSB in the batch devices.
        let noise = NoiseConfig::noiseless().with_transition_noise(noise_lsb * 0.1);
        let mut cells = Vec::new();
        for deglitch in [false, true] {
            let config = BistConfig::builder(Resolution::SIX_BIT, spec)
                .counter_bits(6)
                .deglitch(deglitch)
                .build()
                .expect("valid configuration");
            let batch = Batch::paper_simulation(SEED, n);
            let result = Experiment::new(batch, Workload::static_ramp(config))
                .with_noise(noise)
                .run(workers);
            cells.push((result.type_i(), result.type_ii()));
        }
        t.row_owned(vec![
            format!("{noise_lsb:.3}"),
            fmt_prob(cells[0].0.point()),
            fmt_prob(cells[1].0.point()),
            fmt_prob(cells[0].1.point()),
            fmt_prob(cells[1].1.point()),
        ]);
        csv.push(vec![
            noise_lsb.to_string(),
            fmt_prob(cells[0].0.point()),
            fmt_prob(cells[1].0.point()),
            fmt_prob(cells[0].1.point()),
            fmt_prob(cells[1].1.point()),
        ]);
    }
    println!("{t}");
    println!("reading: without the filter, small transition noise splits code runs and");
    println!("type I collapses toward 1; the 3-tap majority voter restores the noiseless");
    println!("rate until the noise approaches Δs (≈0.023 LSB at 6 bits), the regime limit");
    println!("the paper's 'simple digital filter' remark implies.");
    let path = sc.csv(
        "noise_ablation.csv",
        &[
            "noise_lsb",
            "raw_type_i",
            "deglitched_type_i",
            "raw_type_ii",
            "deglitched_type_ii",
        ],
        &csv,
    );
    eprintln!("wrote {}", path.display());
}
