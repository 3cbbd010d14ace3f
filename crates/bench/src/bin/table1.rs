//! Experiment E1/E2: regenerates **Table 1** of the paper — type I and
//! type II error probabilities vs counter size under the stringent
//! ±0.5 LSB DNL spec.
//!
//! Columns: the paper's published SIM/MEAS values, our analytic theory
//! (SIM), a Monte-Carlo run on iid-width devices (validating the
//! theory), and a "measurement" run on physically-modelled flash devices
//! with the paper's inferred ramp-slope error.
//!
//! Knobs: `BIST_SIM_BATCH` / `BIST_MEAS_BATCH` (device counts,
//! default 4000), `BIST_WORKERS` (0 = all cores).

use bist_bench::{Scenario, SEED};
use bist_core::report::{fmt_prob, Table};
use bist_mc::tables::{table1, Table1Config};

/// The paper's published Table 1 (counter bits → (sim I, sim II, meas I,
/// meas II, Δs)).
const PAPER: [(u32, f64, f64, f64, f64, f64); 4] = [
    (4, 0.065, 0.045, 0.13, 0.03, 0.09),
    (5, 0.025, 0.045, 0.06, 0.03, 0.05),
    (6, 0.015, 0.015, 0.04, 0.02, 0.02),
    (7, 0.015, 0.005, 0.02, 0.01, 0.01),
];

fn main() {
    Scenario::run("table1", run);
}

fn run(sc: &mut Scenario) {
    let cfg = Table1Config {
        sim_batch: sc.usize_knob("BIST_SIM_BATCH", 4000),
        meas_batch: sc.usize_knob("BIST_MEAS_BATCH", 4000),
        slope_error_millis: -22,
        seed: SEED,
        workers: sc.workers(),
    };
    eprintln!(
        "table1: sim batch {}, meas batch {} (paper used 364 silicon devices)",
        cfg.sim_batch, cfg.meas_batch
    );
    let rows = table1(&cfg);

    let mut t = Table::new(&[
        "counter",
        "Δs [LSB]",
        "paper sim I",
        "ours sim I",
        "MC sim I",
        "paper sim II",
        "ours sim II",
        "MC sim II",
        "paper meas I",
        "ours meas I",
        "paper meas II",
        "ours meas II",
    ])
    .with_title("Table 1 — stringent DNL spec ±0.5 LSB (conditional rates)");
    let mut csv = Vec::new();
    for (row, paper) in rows.iter().zip(PAPER.iter()) {
        assert_eq!(row.counter_bits, paper.0);
        t.row_owned(vec![
            row.counter_bits.to_string(),
            format!("{:.4}", row.delta_s),
            format!("{:.3}", paper.1),
            fmt_prob(Some(row.sim_type_i)),
            fmt_prob(row.sim_mc_type_i.point()),
            format!("{:.3}", paper.2),
            fmt_prob(Some(row.sim_type_ii)),
            fmt_prob(row.sim_mc_type_ii.point()),
            format!("{:.3}", paper.3),
            fmt_prob(row.meas_type_i.point()),
            format!("{:.3}", paper.4),
            fmt_prob(row.meas_type_ii.point()),
        ]);
        csv.push(vec![
            row.counter_bits.to_string(),
            row.delta_s.to_string(),
            row.sim_type_i.to_string(),
            row.sim_type_ii.to_string(),
            fmt_prob(row.sim_mc_type_i.point()),
            fmt_prob(row.sim_mc_type_ii.point()),
            fmt_prob(row.meas_type_i.point()),
            fmt_prob(row.meas_type_ii.point()),
        ]);
    }
    println!("{t}");
    println!("trend: type I ratio per extra counter bit (paper: ~0.5):");
    for w in rows.windows(2) {
        println!(
            "  {} -> {} bits: analytic {:.2}",
            w[0].counter_bits,
            w[1].counter_bits,
            w[1].sim_type_i / w[0].sim_type_i
        );
    }
    println!(
        "\n95% Wilson intervals (measurement): type I {}, {}, {}, {}",
        rows[0].meas_type_i, rows[1].meas_type_i, rows[2].meas_type_i, rows[3].meas_type_i
    );
    let path = sc.csv(
        "table1.csv",
        &[
            "counter_bits",
            "delta_s_lsb",
            "sim_type_i",
            "sim_type_ii",
            "mc_sim_type_i",
            "mc_sim_type_ii",
            "meas_type_i",
            "meas_type_ii",
        ],
        &csv,
    );
    eprintln!("wrote {}", path.display());
}
