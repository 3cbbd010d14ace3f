//! Property-based tests of the converter substrate's invariants.

use bist_adc::flash::FlashConfig;
use bist_adc::sar::SarConfig;
use bist_adc::transfer::{characterize, Adc, TransferFunction};
use bist_adc::types::{Resolution, Volts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary monotone transition levels for a 4-bit device.
fn arb_transitions() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..0.2, 15).prop_map(|gaps| {
        let mut t = Vec::with_capacity(15);
        let mut acc = 0.05;
        for g in gaps {
            acc += g;
            t.push(acc);
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conversion is monotone non-decreasing in the input for any
    /// monotone transfer function.
    #[test]
    fn conversion_is_monotone(t in arb_transitions()) {
        let res = Resolution::new(4).expect("4 bits valid");
        let hi = t.last().copied().expect("non-empty") + 0.1;
        let tf = TransferFunction::from_transitions(res, Volts(0.0), Volts(hi), t);
        let mut last = 0;
        let mut v = -0.01;
        while v < hi + 0.05 {
            let c = tf.convert(Volts(v)).0;
            prop_assert!(c >= last);
            last = c;
            v += 0.003;
        }
        prop_assert_eq!(last, 15);
    }

    /// Converting a voltage just above transition k yields at least
    /// code k; just below, strictly less.
    #[test]
    fn transitions_are_thresholds(t in arb_transitions()) {
        let res = Resolution::new(4).expect("4 bits valid");
        let hi = t.last().copied().expect("non-empty") + 0.1;
        let tf = TransferFunction::from_transitions(res, Volts(0.0), Volts(hi), t);
        for (k, &tv) in (1..=15u32).zip(tf.transitions()) {
            prop_assert!(tf.convert(Volts(tv + 1e-9)).0 >= k);
            prop_assert!(tf.convert(Volts(tv - 1e-9)).0 <= k);
        }
    }

    /// Characterisation by sweeping recovers the true transitions of any
    /// monotone transfer to within the sweep step. The first `below`
    /// transitions are moved under the sweep's start (`low − step`),
    /// where the first sweep point is the level they must recover.
    #[test]
    fn characterize_recovers_transitions(t in arb_transitions(), below in 0usize..8) {
        let res = Resolution::new(4).expect("4 bits valid");
        let shift = below.checked_sub(1).map_or(0.0, |k| -(t[k] + 0.01));
        let t: Vec<f64> = t.iter().map(|x| x + shift).collect();
        let hi = t.last().copied().expect("non-empty") + 0.1;
        let tf = TransferFunction::from_transitions(res, Volts(0.0), Volts(hi), t.clone());
        let step = 0.0005;
        let rec = characterize(&tf, Volts(step));
        for (k, (r, t)) in rec.transitions().iter().zip(tf.transitions()).enumerate() {
            let err = (r - t.max(-step)).abs();
            prop_assert!(err <= step * 1.01, "transition {}: err {err}", k + 1);
        }
    }

    /// Flash devices state a transfer that exactly matches their own
    /// conversion behaviour.
    #[test]
    fn flash_transfer_matches_convert(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adc = FlashConfig::paper_device().sample(&mut rng);
        let tf = adc.transfer().expect("flash states transfer");
        let mut v = -0.1;
        while v < 6.6 {
            prop_assert_eq!(adc.convert(Volts(v)), tf.convert(Volts(v)), "at {} V", v);
            v += 0.013;
        }
    }

    /// SAR conversion agrees with its own characterised transfer.
    #[test]
    fn sar_transfer_matches_convert(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adc = SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_unit_cap_sigma(0.03)
            .sample(&mut rng);
        let tf = adc.transfer().expect("sar characterises");
        // The characterisation step bounds the disagreement region around
        // each transition; probe away from transitions.
        let mut v = 0.0123;
        while v < 6.4 {
            let direct = adc.convert(Volts(v)).0 as i64;
            let via_tf = tf.convert(Volts(v)).0 as i64;
            prop_assert!((direct - via_tf).abs() <= 1, "at {} V: {} vs {}", v, direct, via_tf);
            v += 0.037;
        }
    }

    /// Code widths of a flash device sum to the span between the first
    /// and last transition (telescoping identity, the root of Eq. 10).
    #[test]
    fn widths_telescope(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adc = FlashConfig::paper_device().sample(&mut rng);
        let tf = adc.transfer().expect("flash states transfer");
        let q = tf.lsb_size().0;
        let width_sum: f64 = tf.code_widths_lsb().iter().map(|w| w.0 * q).sum();
        let t = tf.transitions();
        let span = t[62] - t[0];
        prop_assert!((width_sum - span).abs() < 1e-9);
    }
}

proptest! {
    // Each case sweeps up to 10 bits twice in the dev profile.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A SAR device's transfer, searched on the sweep grid against its
    /// DAC level table, is bit-identical to sweeping its direct
    /// `convert`. Non-monotone DACs (σ_unit up to 0.3) and offsets up to
    /// 8 LSB are in range: at 6 bits these reach codes at the sweep start
    /// and leave top transitions unreached, filled at `high + margin`.
    #[test]
    fn sar_transfer_matches_direct_sweep_bit_for_bit(
        bits in 1u32..=10,
        sigma_unit in 0.0f64..=0.3,
        sigma_offset in 0.0f64..=8.0,
        low in -5.0f64..5.0,
        span in 0.01f64..10.0,
        seed in 0u64..1_000_000,
    ) {
        let res = Resolution::new(bits).expect("1-10 bits valid");
        let adc = SarConfig::new(res, Volts(low), Volts(low + span))
            .with_unit_cap_sigma(sigma_unit)
            .with_offset_sigma_lsb(sigma_offset)
            .sample(&mut StdRng::seed_from_u64(seed));
        let (lo, hi) = adc.input_range();
        let q = (hi.0 - lo.0) / res.code_count() as f64;
        let direct = characterize(&adc, Volts(q / 256.0));
        let table = adc.transfer().expect("sar characterises");
        for (k, (a, b)) in table.transitions().iter().zip(direct.transitions()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "transition {}: {} vs {}", k + 1, a, b);
        }
    }
}
