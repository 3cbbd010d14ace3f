//! Property-based tests of the BIST method's invariants: acceptance
//! function laws, count-limit consistency, and planner monotonicity.

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::analytic::{acceptance_probability, code_probabilities, WidthDistribution};
use bist_core::limits::{plan_delta_s, CountLimits};
use bist_core::qmin::QminPlan;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// h(ΔV, Δs) is a probability and is exactly the measure of sample
    /// phases whose count lands in the window.
    #[test]
    fn acceptance_is_probability(
        dv in 0.0f64..3.0,
        ds in 0.005f64..0.5,
        i_min in 1u64..20,
        extra in 0u64..30,
    ) {
        let i_max = i_min + extra;
        let h = acceptance_probability(dv, ds, i_min, i_max);
        prop_assert!((0.0..=1.0).contains(&h), "h = {h}");
        // Phase-measure cross-check at moderate resolution.
        let trials = 4000;
        let x = dv / ds;
        let hits = (0..trials)
            .filter(|&t| {
                let u = (t as f64 + 0.5) / trials as f64;
                let i = (x + u).floor() as u64;
                (i_min..=i_max).contains(&i)
            })
            .count();
        let emp = hits as f64 / trials as f64;
        prop_assert!((emp - h).abs() < 2e-3, "emp {emp} vs h {h}");
    }

    /// Widening the count window can only increase acceptance.
    #[test]
    fn acceptance_monotone_in_window(
        dv in 0.0f64..3.0,
        ds in 0.01f64..0.3,
        i_min in 2u64..15,
        extra in 0u64..20,
    ) {
        let i_max = i_min + extra;
        let h = acceptance_probability(dv, ds, i_min, i_max);
        let wider_low = acceptance_probability(dv, ds, i_min - 1, i_max);
        let wider_high = acceptance_probability(dv, ds, i_min, i_max + 1);
        prop_assert!(wider_low >= h - 1e-12);
        prop_assert!(wider_high >= h - 1e-12);
    }

    /// Count limits honour their definition: a width of exactly
    /// `i·Δs` is inside the spec window iff `i` is inside the limits
    /// (up to the open/closed boundary conventions of ceil/floor).
    #[test]
    fn count_limits_consistent_with_window(
        dnl_limit in 0.05f64..0.9,
        ds in 0.005f64..0.2,
    ) {
        let spec = LinearitySpec::dnl_only(dnl_limit);
        prop_assume!(CountLimits::from_spec(&spec, ds).is_ok());
        let lim = CountLimits::from_spec(&spec, ds).expect("checked");
        let (lo, hi) = spec.width_window_lsb();
        // Interior counts map to interior widths.
        for i in lim.i_min()..=lim.i_max() {
            let width = i as f64 * ds;
            prop_assert!(width >= lo.0 - 1e-12 && width <= hi.0 + 1e-12,
                "count {i} → width {width} outside [{}, {}]", lo.0, hi.0);
        }
        // Counts just outside map to widths outside.
        if lim.i_min() > 0 {
            let w = (lim.i_min() - 1) as f64 * ds;
            prop_assert!(w < lo.0 + 1e-12);
        }
        let w = (lim.i_max() + 1) as f64 * ds;
        prop_assert!(w > hi.0 - 1e-12);
    }

    /// The per-code probability masses always partition: good/faulty ×
    /// accept/reject sums to 1 (up to the sub-zero-width tail).
    #[test]
    fn code_probability_partition(
        sigma in 0.05f64..0.4,
        counter_bits in 4u32..9,
    ) {
        let spec = LinearitySpec::paper_stringent();
        let ds = plan_delta_s(&spec, counter_bits).0;
        let dist = WidthDistribution::new(1.0, sigma);
        let lim = CountLimits::from_spec(&spec, ds).expect("planned point");
        let c = code_probabilities(&dist, &spec, ds, &lim);
        prop_assert!(c.p_good >= 0.0 && c.p_good <= 1.0);
        prop_assert!(c.p_accept_and_good <= c.p_good + 1e-12);
        prop_assert!(c.p_accept() <= 1.0 + 1e-12);
        let type_i = c.type_i_conditional();
        prop_assert!((0.0..=1.0).contains(&type_i));
        // P(accept ∧ faulty) ≤ P(faulty): a type II rate within [0, 1].
        prop_assert!(c.p_accept_and_faulty >= 0.0);
        prop_assert!(c.p_accept_and_faulty <= 1.0 - c.p_good + 1e-12);
    }

    /// Larger counters (smaller planned Δs) never increase the analytic
    /// per-code type-I mass.
    #[test]
    fn finer_steps_shrink_per_code_type_i(sigma in 0.1f64..0.3) {
        let spec = LinearitySpec::paper_stringent();
        let dist = WidthDistribution::new(1.0, sigma);
        let mut last = f64::INFINITY;
        for bits in [4u32, 6, 8, 10] {
            let ds = plan_delta_s(&spec, bits).0;
            let lim = CountLimits::from_spec(&spec, ds).expect("planned point");
            let c = code_probabilities(&dist, &spec, ds, &lim);
            let mass = c.p_reject_and_good();
            prop_assert!(mass <= last * 1.2 + 1e-12, "bits {bits}: {mass} vs {last}");
            last = mass;
        }
    }

    /// q_min is monotone in stimulus frequency and never exceeds n.
    #[test]
    fn qmin_monotone(
        n in 4u32..14,
        dnl in 0.1f64..1.0,
        inl in 0.1f64..2.0,
    ) {
        let plan = QminPlan::new(Resolution::new(n).expect("valid"), dnl, inl);
        let mut last = 0u32;
        let mut became_untestable = false;
        for exp in -70..=0 {
            let ratio = 2f64.powf(exp as f64 / 10.0);
            match plan.q_min(ratio * 1e6, 1e6) {
                Some(q) => {
                    prop_assert!(!became_untestable, "testability regained at ratio {ratio}");
                    prop_assert!(q >= last, "ratio {ratio}: q {q} < {last}");
                    prop_assert!(q <= n);
                    last = q;
                }
                None => became_untestable = true,
            }
        }
    }
}
