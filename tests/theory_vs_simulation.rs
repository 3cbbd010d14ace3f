//! Integration: the §3 closed-form theory, the Monte-Carlo engine and
//! the full counting simulation must tell the same story — the pillars
//! behind Tables 1–2 and Figure 7.

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::analytic::{acceptance_probability, WidthDistribution};
use bist_core::config::BistConfig;
use bist_core::limits::{plan_delta_s, CountLimits};
use bist_core::screener::Workload;
use bist_core::yield_model::YieldModel;
use bist_mc::batch::Batch;
use bist_mc::experiment::Experiment;
use bist_mc::tables::{analytic_point, JUDGED_CODES};

#[test]
fn analytic_type_i_within_mc_interval_at_paper_point() {
    let spec = LinearitySpec::paper_stringent();
    let config = BistConfig::builder(Resolution::SIX_BIT, spec)
        .counter_bits(4)
        .build()
        .expect("paper operating point");
    let theory = analytic_point(&spec, 0.21, config.delta_s().0, JUDGED_CODES);
    let batch = Batch::paper_simulation(101, 3000);
    let result = Experiment::new(batch, Workload::static_ramp(config)).run(0);
    let (lo, hi) = result.type_i().wilson(0.99).expect("non-empty");
    assert!(
        theory.type_i >= lo - 0.01 && theory.type_i <= hi + 0.01,
        "theory {} vs MC [{lo}, {hi}]",
        theory.type_i
    );
    let (lo, hi) = result.type_ii().wilson(0.99).expect("non-empty");
    assert!(
        theory.type_ii >= lo - 0.01 && theory.type_ii <= hi + 0.01,
        "theory {} vs MC [{lo}, {hi}]",
        theory.type_ii
    );
}

#[test]
fn physical_flash_matches_iid_theory_shape() {
    // The flash ladder's widths are correlated (ρ = −1/(N−1)), which the
    // paper argues is negligible at 6 bits: the physical batch must land
    // near the iid theory.
    let spec = LinearitySpec::paper_stringent();
    let config = BistConfig::builder(Resolution::SIX_BIT, spec)
        .counter_bits(5)
        .build()
        .expect("paper operating point");
    let theory = analytic_point(&spec, 0.21, config.delta_s().0, JUDGED_CODES);
    let mut batch = Batch::paper_measurement(202);
    batch.size = 3000;
    let result = Experiment::new(batch, Workload::static_ramp(config)).run(0);
    let mc = result.type_i().point().expect("non-empty");
    assert!(
        (mc - theory.type_i).abs() < 0.04,
        "flash MC {mc} vs theory {}",
        theory.type_i
    );
}

#[test]
fn yield_model_matches_batches() {
    let model = YieldModel::paper_device();
    let spec = LinearitySpec::paper_stringent();
    let theory = model.p_device_good(&spec);
    let batch = Batch::paper_simulation(303, 5000);
    let good = (0..batch.size)
        .filter(|&i| spec.classify(&batch.device(i)).good)
        .count();
    let mc = good as f64 / batch.size as f64;
    assert!((mc - theory).abs() < 0.03, "MC {mc} vs theory {theory}");
}

#[test]
fn acceptance_trapezoid_matches_counting_simulation() {
    // End-to-end: place a single synthetic code width at ΔV, run the
    // real sampling+counting pipeline over many ramp phases, and compare
    // the acceptance frequency with h(ΔV, Δs).
    let spec = LinearitySpec::paper_stringent();
    let ds = plan_delta_s(&spec, 4).0;
    let limits = CountLimits::from_spec(&spec, ds).expect("paper operating point");
    for dv in [0.49, 0.53, 0.58, 1.0, 1.42, 1.47, 1.54] {
        let mut accepted = 0u32;
        let phases = 2000;
        for k in 0..phases {
            let phase = (k as f64 + 0.5) / phases as f64;
            // Transitions at `phase·Δs` and `phase·Δs + ΔV` (in LSB);
            // count samples at integer multiples of Δs falling between.
            let t0 = phase * ds;
            let t1 = t0 + dv;
            let first = (t0 / ds).ceil() as i64;
            let last = ((t1 / ds).ceil() as i64) - 1;
            let count = (last - first + 1).max(0) as u64;
            if (limits.i_min()..=limits.i_max()).contains(&count) {
                accepted += 1;
            }
        }
        let empirical = f64::from(accepted) / f64::from(phases);
        let h = acceptance_probability(dv, ds, limits.i_min(), limits.i_max());
        assert!(
            (empirical - h).abs() < 0.01,
            "ΔV {dv}: empirical {empirical} vs h {h}"
        );
    }
}

#[test]
fn width_sigma_sweep_reproduces_paper_band() {
    // The paper quotes σ between 0.16 and 0.21 LSB; across that band the
    // stringent-spec yield moves from ~69 % down to ~33 %.
    let spec = LinearitySpec::paper_stringent();
    let lo = YieldModel::new(WidthDistribution::new(1.0, 0.16), 64).p_device_good(&spec);
    let hi = YieldModel::new(WidthDistribution::new(1.0, 0.21), 64).p_device_good(&spec);
    assert!(lo > 0.6, "σ=0.16 yield {lo}");
    assert!((0.28..0.38).contains(&hi), "σ=0.21 yield {hi}");
}
