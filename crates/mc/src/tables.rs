//! Drivers that regenerate the paper's tables and figures.
//!
//! Each function returns structured rows; the `bist-bench` binaries
//! format them next to the paper's published values. Interpretation
//! conventions: Table 1 probabilities are
//! *conditional* rates — `P(reject|good)`, `P(accept|faulty)` — while
//! Table 2 is *joint* device fractions (the 10–100 ppm shipped-part
//! language); both conventions are emitted so readers can compare.

use crate::batch::{conditional_faulty_widths, transfer_from_widths, Batch};
use crate::estimate::Proportion;
use crate::experiment::Experiment;
use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::analytic::{
    code_probabilities, device_probabilities, DeviceProbabilities, WidthDistribution,
};
use bist_core::config::BistConfig;
use bist_core::limits::{plan_delta_s, CountLimits};
use bist_core::pool;
use bist_core::screener::{Screener, Workload};

/// Number of codes a full sweep judges on the paper's 6-bit device
/// (inner codes only).
pub const JUDGED_CODES: u64 = 62;

/// Evaluates the §3 theory at one operating point.
pub fn analytic_point(
    spec: &LinearitySpec,
    sigma_lsb: f64,
    delta_s: f64,
    codes: u64,
) -> DeviceProbabilities {
    let dist = WidthDistribution::new(1.0, sigma_lsb);
    let limits = CountLimits::from_spec(spec, delta_s).expect("valid operating point");
    let c = code_probabilities(&dist, spec, delta_s, &limits);
    device_probabilities(&c, codes)
}

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Counter size in bits (the paper sweeps 4–7).
    pub counter_bits: u32,
    /// The balanced step size used, in LSB.
    pub delta_s: f64,
    /// Analytic (theory) conditional type I — the paper's SIM column.
    pub sim_type_i: f64,
    /// Analytic conditional type II.
    pub sim_type_ii: f64,
    /// Monte-Carlo type I on iid-width devices (validates the theory).
    pub sim_mc_type_i: Proportion,
    /// Monte-Carlo type II on iid-width devices.
    pub sim_mc_type_ii: Proportion,
    /// "Measured" type I: physical flash batch with the slope error.
    pub meas_type_i: Proportion,
    /// "Measured" type II.
    pub meas_type_ii: Proportion,
}

/// Configuration of the Table 1 reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Config {
    /// Devices in the iid-width (simulation) batch.
    pub sim_batch: usize,
    /// Devices in the physical-flash (measurement) batch. The paper had
    /// 364; larger values tighten the confidence intervals.
    pub meas_batch: usize,
    /// Ramp slope error applied to the measurement runs, expressed as
    /// the relative error *at the 4-bit operating point* in per-mille.
    /// The paper inferred its measurement ramp made Δs ≈ 0.002 LSB
    /// smaller at Δs ≈ 0.091 (−22 ‰); each row scales the relative
    /// error by `Δs_row/Δs_4bit` so the absolute miscalibration stays a
    /// fixed fraction of the count spacing, matching the per-counter
    /// recalibration of the paper's measurements.
    pub slope_error_millis: i32,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub workers: usize,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            sim_batch: 4000,
            meas_batch: 4000,
            // Δs 2.2 % smaller ≈ the paper's −0.002 LSB at Δs ≈ 0.091.
            slope_error_millis: -22,
            seed: 1997,
            workers: 0,
        }
    }
}

/// Regenerates Table 1: type I/II for counter sizes 4–7 under the
/// stringent ±0.5 LSB spec.
pub fn table1(cfg: &Table1Config) -> Vec<Table1Row> {
    let spec = LinearitySpec::paper_stringent();
    let ds_4bit = plan_delta_s(&spec, 4).0;
    (4..=7)
        .map(|bits| {
            let bist = BistConfig::builder(Resolution::SIX_BIT, spec)
                .counter_bits(bits)
                .build()
                .expect("paper operating points are valid");
            let ds = bist.delta_s().0;
            let analytic = analytic_point(&spec, 0.21, ds, JUDGED_CODES);

            let sim_batch = Batch::paper_simulation(cfg.seed, cfg.sim_batch);
            let sim = Experiment::new(sim_batch, Workload::static_ramp(bist)).run(cfg.workers);

            let mut meas_batch = Batch::paper_measurement(cfg.seed ^ 0xABCD);
            meas_batch.size = cfg.meas_batch;
            // Scale the relative slope error with Δs so the absolute
            // miscalibration stays a fixed fraction of the count spacing
            // (see `Table1Config::slope_error_millis`).
            let slope_error = cfg.slope_error_millis as f64 / 1000.0 * (ds / ds_4bit);
            let meas = Experiment::new(meas_batch, Workload::static_ramp(bist))
                .with_slope_error(slope_error)
                .run(cfg.workers);

            Table1Row {
                counter_bits: bits,
                delta_s: ds,
                sim_type_i: analytic.type_i,
                sim_type_ii: analytic.type_ii,
                sim_mc_type_i: sim.type_i(),
                sim_mc_type_ii: sim.type_ii(),
                meas_type_i: meas.type_i(),
                meas_type_ii: meas.type_ii(),
            }
        })
        .collect()
}

/// One row of the Table 2 reproduction (actual spec ±1 LSB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Counter size in bits.
    pub counter_bits: u32,
    /// Joint type I `P(reject ∧ good)` (the paper prints ×10⁻⁶).
    pub type_i_joint: f64,
    /// Joint type II `P(accept ∧ faulty)`.
    pub type_ii_joint: f64,
    /// Conditional type II `P(accept | faulty)` from the theory.
    pub type_ii_conditional: f64,
    /// Conditional type II from the rare-event Monte Carlo (devices
    /// sampled conditioned on being faulty).
    pub mc_type_ii_conditional: Proportion,
    /// The paper's "max. error made" column: ΔV_max/2^k in LSB.
    pub max_error_lsb: f64,
}

/// Regenerates Table 2: joint error probabilities at the actual ±1 LSB
/// spec, with a conditional Monte-Carlo check of `P(accept|faulty)`
/// (`faulty_devices` conditioned draws per counter size, fanned out
/// across `workers` threads with per-worker scratch reuse; 0 = auto).
pub fn table2(faulty_devices: usize, seed: u64, workers: usize) -> Vec<Table2Row> {
    let spec = LinearitySpec::paper_actual();
    let dist = WidthDistribution::paper_worst_case();
    (4..=7)
        .map(|bits| {
            let ds = plan_delta_s(&spec, bits).0;
            let analytic = analytic_point(&spec, 0.21, ds, JUDGED_CODES);
            let bist = BistConfig::builder(Resolution::SIX_BIT, spec)
                .counter_bits(bits)
                .build()
                .expect("paper operating points are valid");

            // Rare-event MC: sample devices conditioned on exactly one
            // out-of-spec code (P(≥2 bad | faulty) ≈ 3×10⁻³, negligible)
            // and run the full counting BIST on each. Devices derive
            // from `(seed, index)`, so the fan-out is deterministic.
            let batch = Batch::paper_simulation(seed ^ u64::from(bits), 1);
            let accepted: u64 = pool::map_ranges(
                faulty_devices,
                workers,
                || Screener::new(Workload::static_ramp(bist)),
                |screener, from, to| {
                    (from..to)
                        .filter(|&i| {
                            let mut rng = batch.device_rng(i ^ 0x7ab1e2);
                            let widths = conditional_faulty_widths(&dist, &spec, 62, &mut rng);
                            let tf = transfer_from_widths(Resolution::SIX_BIT, &widths);
                            screener.screen_one(&tf, &mut rng).accepted()
                        })
                        .count() as u64
                },
            )
            .into_iter()
            .sum();

            Table2Row {
                counter_bits: bits,
                type_i_joint: analytic.type_i_joint,
                type_ii_joint: analytic.type_ii_joint,
                type_ii_conditional: analytic.type_ii,
                mc_type_ii_conditional: Proportion::new(accepted, faulty_devices as u64),
                max_error_lsb: 2.0 / (1u64 << bits) as f64,
            }
        })
        .collect()
}

/// One point of the Figure 7 reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure7Point {
    /// Step size Δs in LSB.
    pub delta_s: f64,
    /// Analytic conditional type I at this Δs.
    pub type_i: f64,
    /// Analytic conditional type II.
    pub type_ii: f64,
    /// Count window at this Δs.
    pub i_min: u64,
    /// Count window at this Δs.
    pub i_max: u64,
}

/// Regenerates Figure 7: P(type I) and P(type II) as a function of Δs
/// over the region where a `counter_bits` counter suffices
/// (`ΔV_max/(2^k+1) < Δs ≤ ΔV_max/2^(k-1)`-ish; the paper plots the
/// 4-bit region).
pub fn figure7(counter_bits: u32, points: usize) -> Vec<Figure7Point> {
    assert!(points >= 2, "need at least two sweep points");
    let spec = LinearitySpec::paper_stringent();
    let (_, hi) = spec.width_window_lsb();
    let cap = (1u64 << counter_bits) as f64;
    // Sweep from "counter exactly full" to "counter half used".
    let ds_lo = hi.0 / (cap + 1.0) + 1e-9;
    let ds_hi = hi.0 / (cap / 2.0 + 1.0);
    (0..points)
        .map(|i| {
            let ds = ds_lo + (ds_hi - ds_lo) * i as f64 / (points - 1) as f64;
            let limits = CountLimits::from_spec(&spec, ds).expect("within counter region");
            let d = analytic_point(&spec, 0.21, ds, JUDGED_CODES);
            Figure7Point {
                delta_s: ds,
                type_i: d.type_i,
                type_ii: d.type_ii,
                i_min: limits.i_min(),
                i_max: limits.i_max(),
            }
        })
        .collect()
}

/// Monte-Carlo overlay for Figure 7 at selected Δs values.
pub fn figure7_mc(
    delta_s_values: &[f64],
    batch_size: usize,
    seed: u64,
    workers: usize,
) -> Vec<(f64, Proportion, Proportion)> {
    let spec = LinearitySpec::paper_stringent();
    delta_s_values
        .iter()
        .map(|&ds| {
            // A 16-bit counter never saturates in this region; the Δs
            // itself defines the window.
            let bist = BistConfig::builder(Resolution::SIX_BIT, spec)
                .counter_bits(16)
                .delta_s(bist_adc::types::Lsb(ds))
                .build()
                .expect("sweep points are valid");
            let batch = Batch::paper_simulation(seed, batch_size);
            let r = Experiment::new(batch, Workload::static_ramp(bist)).run(workers);
            (ds, r.type_i(), r.type_ii())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_point_reproduces_yield() {
        let d = analytic_point(&LinearitySpec::paper_stringent(), 0.21, 0.091, 64);
        assert!((0.28..0.38).contains(&d.p_good));
    }

    #[test]
    fn table1_small_run_is_consistent() {
        let cfg = Table1Config {
            sim_batch: 400,
            meas_batch: 400,
            slope_error_millis: -22,
            seed: 7,
            workers: 1,
        };
        let rows = table1(&cfg);
        assert_eq!(rows.len(), 4);
        // Counter sizes 4..=7 in order; type I decreasing (analytic).
        for w in rows.windows(2) {
            assert_eq!(w[1].counter_bits, w[0].counter_bits + 1);
            assert!(w[1].sim_type_i <= w[0].sim_type_i * 1.05);
        }
        // MC agrees with the analytic sim column within its interval
        // (allow the interval to miss occasionally — check 3 of 4 rows).
        let hits = rows
            .iter()
            .filter(|r| {
                let (lo, hi) = r.sim_mc_type_i.wilson(0.99).expect("non-empty batch");
                r.sim_type_i >= lo - 0.01 && r.sim_type_i <= hi + 0.01
            })
            .count();
        assert!(hits >= 3, "analytic/MC disagree in {}/4 rows", 4 - hits);
        // Measurement (slope error) raises type I above the sim column —
        // the paper's observation (meas ≈ 2× sim at 4 bits).
        let r4 = &rows[0];
        assert!(
            r4.meas_type_i.point().expect("non-empty") > r4.sim_type_i,
            "meas {} vs sim {}",
            r4.meas_type_i,
            r4.sim_type_i
        );
    }

    #[test]
    fn table2_joint_probabilities_in_ppm_range() {
        let rows = table2(300, 3, 0);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            // The paper's values are 5–70 ppm; ours must land in the
            // same decade band (1–200 ppm).
            assert!(
                (1e-6..2e-4).contains(&r.type_ii_joint),
                "counter {}: joint type II {}",
                r.counter_bits,
                r.type_ii_joint
            );
            // The conditional MC must agree with the conditional theory.
            assert!(
                r.mc_type_ii_conditional
                    .wilson(0.99)
                    .map(|(lo, hi)| r.type_ii_conditional >= lo - 0.05
                        && r.type_ii_conditional <= hi + 0.05)
                    .unwrap_or(false),
                "counter {}: cond {} vs MC {}",
                r.counter_bits,
                r.type_ii_conditional,
                r.mc_type_ii_conditional
            );
        }
        // Max-error column: 1/8, 1/16, 1/32, 1/64.
        assert_eq!(rows[0].max_error_lsb, 0.125);
        assert_eq!(rows[3].max_error_lsb, 0.015625);
    }

    #[test]
    fn table2_independent_of_workers() {
        let a = table2(120, 5, 1);
        let b = table2(120, 5, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mc_type_ii_conditional, y.mc_type_ii_conditional);
        }
    }

    #[test]
    fn figure7_sweep_shape() {
        let pts = figure7(4, 40);
        assert_eq!(pts.len(), 40);
        // All points usable by a 4-bit counter (counts stored as i−1).
        assert!(pts.iter().all(|p| p.i_max <= 16));
        // Type I/II must oscillate: the sweep crosses window-placement
        // resonances, so the max/min ratio is large.
        let max_i = pts.iter().map(|p| p.type_i).fold(0.0f64, f64::max);
        let min_i = pts.iter().map(|p| p.type_i).fold(1.0f64, f64::min);
        assert!(
            max_i / min_i.max(1e-9) > 2.0,
            "flat type I: {min_i}..{max_i}"
        );
    }

    #[test]
    fn figure7_mc_overlay_matches_theory() {
        let pts = figure7_mc(&[0.0909], 600, 11, 1);
        let (ds, p1, _) = &pts[0];
        let theory = analytic_point(&LinearitySpec::paper_stringent(), 0.21, *ds, JUDGED_CODES);
        let (lo, hi) = p1.wilson(0.99).expect("non-empty");
        assert!(
            theory.type_i >= lo - 0.02 && theory.type_i <= hi + 0.02,
            "theory {} outside MC [{lo}, {hi}]",
            theory.type_i
        );
    }

    #[test]
    #[should_panic(expected = "at least two sweep points")]
    fn figure7_single_point_panics() {
        figure7(4, 1);
    }
}
