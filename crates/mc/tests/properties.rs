//! Property-based tests of the Monte-Carlo estimator invariants.

use bist_adc::types::Resolution;
use bist_mc::batch::{transfer_from_widths, Batch};
use bist_mc::estimate::Proportion;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Wilson interval always contains the point estimate and is
    /// ordered.
    #[test]
    fn wilson_contains_point(successes in 0u64..1000, extra in 0u64..1000) {
        let trials = successes + extra;
        prop_assume!(trials > 0);
        let p = Proportion::new(successes, trials);
        let point = p.point().expect("trials > 0");
        let (lo, hi) = p.wilson(0.95).expect("trials > 0");
        prop_assert!(lo <= point + 1e-12, "lo {lo} > point {point}");
        prop_assert!(hi >= point - 1e-12, "hi {hi} < point {point}");
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
    }

    /// Higher confidence never narrows the interval.
    #[test]
    fn wilson_monotone_in_confidence(successes in 0u64..100, extra in 1u64..100) {
        let p = Proportion::new(successes, successes + extra);
        let (lo90, hi90) = p.wilson(0.90).expect("non-empty");
        let (lo99, hi99) = p.wilson(0.99).expect("non-empty");
        prop_assert!(lo99 <= lo90 + 1e-12);
        prop_assert!(hi99 >= hi90 - 1e-12);
    }

    /// Wilson coverage: across many simulated binomial draws the 95 %
    /// interval misses the true p at roughly the nominal rate (checked
    /// loosely: at least 85 % coverage).
    #[test]
    fn wilson_coverage(p_num in 1u32..99) {
        let p_true = f64::from(p_num) / 100.0;
        let trials_per_rep = 200u64;
        let reps = 200;
        // Deterministic pseudo-binomial draws via splitmix64.
        let mut state = 0x1234_5678u64 ^ u64::from(p_num) << 32;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let mut covered = 0;
        for _ in 0..reps {
            let successes = (0..trials_per_rep).filter(|_| next() < p_true).count() as u64;
            let (lo, hi) = Proportion::new(successes, trials_per_rep)
                .wilson(0.95)
                .expect("non-zero trials");
            if (lo..=hi).contains(&p_true) {
                covered += 1;
            }
        }
        let coverage = f64::from(covered) / f64::from(reps);
        prop_assert!(coverage > 0.85, "coverage {coverage} at p {p_true}");
    }

    /// Batch devices are pure functions of (seed, index): regenerating
    /// any device reproduces it exactly, in any order.
    #[test]
    fn batch_devices_are_pure(seed in 0u64..10_000, index in 0usize..300) {
        let batch = Batch::paper_simulation(seed, 300);
        let a = batch.device(index);
        // Access other devices in between.
        let _ = batch.device((index + 7) % 300);
        let b = batch.device(index);
        prop_assert_eq!(a.transitions(), b.transitions());
    }

    /// transfer_from_widths round-trips the width vector (clamped at 0).
    #[test]
    fn widths_round_trip(widths in prop::collection::vec(0.0f64..2.5, 62)) {
        let tf = transfer_from_widths(Resolution::SIX_BIT, &widths);
        let got = tf.code_widths_lsb();
        prop_assert_eq!(got.len(), widths.len());
        for (g, w) in got.iter().zip(&widths) {
            prop_assert!((g.0 - w).abs() < 1e-9, "width {} vs {}", g.0, w);
        }
    }
}
