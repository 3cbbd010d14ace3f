//! Property-based tests of the RTL primitives' hardware laws.

use bist_rtl::accumulator::Accumulator;
use bist_rtl::counter::Counter;
use bist_rtl::datapath::{LsbProcessor, LsbProcessorConfig};
use bist_rtl::deglitch::{CodeMedianFilter, Deglitcher};
use bist_rtl::edge::EdgeDetector;
use bist_rtl::logic::Bus;
use bist_rtl::registers::{Misr, ShiftRegister};
use bist_rtl::window_compare::{WindowComparator, WindowVerdict};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bus truncation equals masking; wrapping add stays in range.
    #[test]
    fn bus_laws(width in 1u32..17, value in 0u64..1_000_000, add in 0u64..1_000_000) {
        let mask = (1u64 << width) - 1;
        let b = Bus::truncate(width, value);
        prop_assert_eq!(b.value(), value & mask);
        let sum = b.wrapping_add(add);
        prop_assert_eq!(sum.value(), (value & mask).wrapping_add(add) & mask);
    }

    /// Bit slicing reassembles to the original word.
    #[test]
    fn bus_slice_reassembles(value in 0u64..256) {
        let b = Bus::new(8, value);
        let hi = b.slice(7, 4);
        let lo = b.slice(3, 0);
        prop_assert_eq!(hi.value() << 4 | lo.value(), value);
    }

    /// A counter that never clears counts exactly min(ticks, max).
    #[test]
    fn counter_counts_ticks(width in 2u32..10, ticks in 0u64..2000) {
        let mut c = Counter::new(width);
        for _ in 0..ticks {
            c.tick(true, false);
        }
        let ceiling = c.value().max_value();
        prop_assert_eq!(c.value().value(), ticks.min(ceiling));
        prop_assert_eq!(c.overflowed(), ticks > ceiling);
    }

    /// Clear always wins over enable and resets overflow.
    #[test]
    fn counter_clear_dominates(width in 2u32..10, ticks in 1u64..500) {
        let mut c = Counter::new(width);
        for _ in 0..ticks {
            c.tick(true, false);
        }
        c.tick(true, true);
        prop_assert_eq!(c.value().value(), 0);
        prop_assert!(!c.overflowed());
    }

    /// The accumulator never exceeds its symmetric bounds and is exact
    /// while unsaturated.
    #[test]
    fn accumulator_bounds(width in 3u32..16, deltas in prop::collection::vec(-50i64..50, 1..100)) {
        let mut acc = Accumulator::new(width);
        let limit = (1i64 << (width - 1)) - 1;
        let mut exact: i64 = 0;
        let mut ever_saturated = false;
        for &d in &deltas {
            let value = acc.add(d);
            exact += d;
            ever_saturated |= exact.abs() > limit;
            prop_assert!(value.abs() <= limit);
            if !ever_saturated {
                prop_assert_eq!(value, exact);
            }
        }
        prop_assert_eq!(acc.saturated(), ever_saturated);
    }

    /// The window comparator is a partition: exactly one verdict per
    /// count, ordered TooNarrow < Pass < TooWide along the count axis.
    #[test]
    fn window_comparator_partition(i_min in 0u64..50, extra in 0u64..50, count in 0u64..200) {
        let cmp = WindowComparator::new(i_min, i_min + extra);
        let v = cmp.compare(count);
        match v {
            WindowVerdict::TooNarrow => prop_assert!(count < i_min),
            WindowVerdict::Pass => prop_assert!((i_min..=i_min + extra).contains(&count)),
            WindowVerdict::TooWide => prop_assert!(count > i_min + extra),
        }
    }

    /// A shift register is a pure delay of its own length.
    #[test]
    fn shift_register_is_delay(len in 1usize..16, bits in prop::collection::vec(any::<bool>(), 1..80)) {
        let mut sr = ShiftRegister::new(len);
        let outs: Vec<bool> = bits.iter().map(|&b| sr.tick(b)).collect();
        for (i, &out) in outs.iter().enumerate() {
            let expected = if i >= len { bits[i - len] } else { false };
            prop_assert_eq!(out, expected, "at {}", i);
        }
    }

    /// MISR signatures are deterministic and differ for single-word
    /// stream differences (no aliasing on these short streams).
    #[test]
    fn misr_sensitivity(words in prop::collection::vec(0u64..65536, 2..40), flip in 0usize..39) {
        prop_assume!(flip < words.len());
        let taps = 0b1010_0000_0001_1001u64;
        let mut a = Misr::new(16, taps);
        let mut b = Misr::new(16, taps);
        for &w in &words {
            a.tick(w);
        }
        for (i, &w) in words.iter().enumerate() {
            b.tick(if i == flip { w ^ 0x8000 } else { w });
        }
        prop_assert_ne!(a.signature(), b.signature());
    }

    /// The edge detector is exactly a 2-cycle-delayed transition
    /// detector of its input — no spurious power-on edge for any
    /// stream, including those starting high (the priming window).
    #[test]
    fn edge_detector_reports_input_transitions_only(
        bits in prop::collection::vec(any::<bool>(), 1..120),
    ) {
        let mut ed = EdgeDetector::new();
        let mut observed = Vec::new();
        for (t, &b) in bits.iter().enumerate() {
            let e = ed.tick(b);
            if e.any() {
                observed.push((t, e.rising));
            }
        }
        let expected: Vec<(usize, bool)> = bits
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] != w[1])
            .map(|(i, w)| (i + 3, w[1])) // transition at i+1, +2 latency
            .filter(|(t, _)| *t < bits.len())
            .collect();
        prop_assert_eq!(observed, expected);
    }

    /// Recirculating either deglitch filter (the drain protocol) never
    /// changes its output, whatever state the stream left it in.
    #[test]
    fn deglitch_hold_is_inert(
        bits in prop::collection::vec(any::<bool>(), 1..60),
        codes in prop::collection::vec(0u64..64, 1..60),
        drains in 1usize..8,
    ) {
        let mut d = Deglitcher::new();
        let mut last = false;
        for &b in &bits {
            last = d.tick(b);
        }
        for _ in 0..drains {
            prop_assert_eq!(d.hold(), last);
        }
        let mut f = CodeMedianFilter::new(6);
        let mut last = Bus::zero(6);
        for &c in &codes {
            last = f.tick(Bus::new(6, c));
        }
        for _ in 0..drains {
            prop_assert_eq!(f.hold(), last);
        }
    }

    /// The MISR compaction of the top level never truncates a count:
    /// for any counter width, two single-code sweeps with different
    /// measured widths produce different signatures (the old fixed
    /// 14-bit mask aliased widths ≡ mod 2^14).
    #[test]
    fn top_signature_separates_widths(
        counter_bits in 14u32..18,
        width_a in 1u64..40_000,
        delta in 1u64..=16_384, // includes 2^14, the old mask's alias stride
    ) {
        use bist_rtl::top::{BistTop, BistTopConfig};
        let capacity = 1u64 << counter_bits;
        let width_b = width_a + delta;
        prop_assume!(width_b <= capacity);
        let cfg = BistTopConfig {
            lsb: LsbProcessorConfig {
                counter_bits,
                i_min: 1,
                i_max: capacity,
                i_ideal: 10,
                inl_limit_counts: None,
                deglitch: false,
            },
            adc_bits: 6,
            expected_codes: 1,
        };
        let sig = |width: u64| {
            let mut top = BistTop::new(cfg);
            for _ in 0..3 { top.tick(0); }
            for _ in 0..width { top.tick(1); }
            for _ in 0..4 { top.tick(0); }
            for _ in 0..BistTop::DRAIN_TICKS { top.drain_tick(); }
            assert_eq!(top.report().codes_measured, 1);
            top.report().signature.value()
        };
        prop_assert_ne!(sig(width_a), sig(width_b));
    }

    /// The LSB processor judges exactly `runs − 2` codes for any clean
    /// run-length stream (first and last runs are partial).
    #[test]
    fn processor_measurement_count(runs in prop::collection::vec(3u64..30, 3..40)) {
        let mut p = LsbProcessor::new(LsbProcessorConfig {
            counter_bits: 8,
            i_min: 1,
            i_max: 256,
            i_ideal: 10,
            inl_limit_counts: None,
            deglitch: false,
        });
        let mut level = false;
        let mut measured = 0u64;
        for &r in &runs {
            for _ in 0..r {
                if p.tick(level).is_some() {
                    measured += 1;
                }
            }
            level = !level;
        }
        // The final run's closing edge may fall beyond the stream (the
        // 2-cycle synchroniser), so allow one missing measurement.
        let expected = runs.len() as u64 - 2;
        prop_assert!(measured == expected || measured == expected.saturating_sub(1),
            "measured {} of {} runs", measured, runs.len());
    }
}
