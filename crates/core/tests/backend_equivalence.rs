//! Property tests of the behavioural↔RTL verdict seam: for the same
//! code stream, `LsbMonitorAcc` + `FunctionalAcc` (via
//! `BehavioralBackend`) and the gate-accurate `bist_rtl::BistTop` (via
//! `RtlBackend`) must produce identical pass/fail, DNL-failure counts,
//! functional-mismatch counts and per-code measurements — including
//! counter saturation, INL drift and glitch-toggled streams.
//!
//! Stream contract: the behavioural accumulators stop dead at the last
//! sample, while the RTL drains its synchroniser by recirculating the
//! deglitch filters. On the raw (undeglitched) path the two are exact
//! for *any* stream. With the deglitch filters in the path, a
//! majority/median window still in flight at the last sample is
//! undecidable in stream-time, so bit-exactness requires the stimulus
//! to dwell a few samples past the final transition — which every
//! harness ramp guarantees by overshooting full scale by 10 LSB. The
//! generators below mirror that: glitches land anywhere except the
//! final `DWELL` samples when deglitching is enabled.

use bist_adc::spec::LinearitySpec;
use bist_adc::types::{Code, Resolution};
use bist_core::backend::{Backend, BehavioralBackend, RtlBackend};
use bist_core::config::BistConfig;
use bist_core::harness::Scratch;
use bist_core::lsb_monitor::CodeResult;
use proptest::prelude::*;

/// Samples of settled input required after the last transition for the
/// deglitched path (median/majority window + synchroniser).
const DWELL: usize = 4;

fn config(counter_bits: u32, deglitch: bool, check_inl: bool) -> BistConfig {
    let spec = if check_inl {
        LinearitySpec::new(0.5, 1.0)
    } else {
        LinearitySpec::paper_stringent()
    };
    BistConfig::builder(Resolution::SIX_BIT, spec)
        .counter_bits(counter_bits)
        .deglitch(deglitch)
        .build()
        .expect("planned operating points are valid")
}

/// Builds a staircase with the given per-code widths, LSB-toggles the
/// samples at `glitches` (wrapped into range), and — when `deglitch` —
/// holds the last code for `DWELL` extra samples.
fn stream(widths: &[u8], glitches: &[usize], deglitch: bool) -> Vec<Code> {
    let mut codes = Vec::new();
    for (c, &w) in widths.iter().enumerate() {
        codes.extend(std::iter::repeat_n(Code(c as u32), w as usize));
    }
    if codes.is_empty() {
        return codes;
    }
    let safe = codes.len().saturating_sub(if deglitch { DWELL } else { 0 });
    if safe > 0 {
        for &g in glitches {
            let i = g % safe;
            codes[i] = Code(codes[i].0 ^ 1);
        }
    }
    if deglitch {
        let last = *codes.last().expect("non-empty");
        codes.extend(std::iter::repeat_n(last, DWELL));
    }
    codes
}

/// Judges `codes` through both backends, asserting equal verdicts, and
/// returns each backend's per-code monitor results.
fn run_both(config: &BistConfig, codes: &[Code]) -> (Vec<CodeResult>, Vec<CodeResult>) {
    let mut scratch_b = Scratch::new();
    let mut scratch_r = Scratch::new();
    let behavioral = BehavioralBackend
        .judge(config, None, codes.iter().copied(), &mut scratch_b)
        .verdict;
    let rtl = RtlBackend::new()
        .judge(config, None, codes.iter().copied(), &mut scratch_r)
        .verdict;
    assert_eq!(
        behavioral,
        rtl,
        "verdict mismatch for {} codes at {config}",
        codes.len()
    );
    (
        scratch_b.take_outcome(behavioral).monitor.codes,
        scratch_r.take_outcome(rtl).monitor.codes,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Clean and glitched staircases, all counter widths, with and
    /// without INL checking: the full verdict (acceptance, completeness,
    /// DNL/INL failure counts, functional checks and mismatches, sample
    /// count) is identical, and so is every per-code measurement the
    /// monitor records — including saturated (overflowed) codes.
    #[test]
    fn backends_agree_on_random_staircases(
        widths in prop::collection::vec(0u8..48, 2..64),
        glitches in prop::collection::vec(0usize..10_000, 0..6),
        counter_bits in 4u32..=8,
        deglitch in any::<bool>(),
        check_inl in any::<bool>(),
    ) {
        let config = config(counter_bits, deglitch, check_inl);
        let codes = stream(&widths, &glitches, deglitch);
        let (codes_b, codes_r) = run_both(&config, &codes);
        // Per-code detail: the hardware's view differs only in the
        // engineering width estimate of saturated codes (it cannot know
        // the unmeasurable raw width), so compare the on-chip fields.
        prop_assert_eq!(codes_b.len(), codes_r.len());
        for (b, r) in codes_b.iter().zip(&codes_r) {
            prop_assert_eq!(b.index, r.index);
            prop_assert_eq!(b.count, r.count);
            prop_assert_eq!(b.overflow, r.overflow);
            prop_assert_eq!(b.dnl_verdict, r.dnl_verdict);
            prop_assert_eq!(b.inl_counts, r.inl_counts);
            prop_assert_eq!(b.inl_pass, r.inl_pass);
            if !b.overflow {
                prop_assert_eq!(b.width_lsb, r.width_lsb);
            }
        }
    }

    /// The undeglitched path needs no dwell: streams may end anywhere —
    /// including exactly at a transition, the case the RTL can only
    /// recover through its drain cycles.
    #[test]
    fn raw_path_agrees_on_abruptly_ending_streams(
        widths in prop::collection::vec(1u8..20, 2..40),
        counter_bits in 4u32..=7,
        tail in 0u32..4,
    ) {
        let config = config(counter_bits, false, false);
        let mut codes = stream(&widths, &[], false);
        // Close with a fresh transition and 0–3 samples after it.
        let next = Code(codes.last().map_or(0, |c| c.0 ^ 1));
        codes.extend(std::iter::repeat_n(next, 1 + tail as usize));
        run_both(&config, &codes);
    }

    /// Saturation stress: every code far wider than the counter
    /// capacity — the overflow flag, the clamped counts and the
    /// resulting verdicts line up.
    #[test]
    fn backends_agree_under_heavy_saturation(
        widths in prop::collection::vec(30u8..250, 2..20),
        counter_bits in 4u32..=5,
    ) {
        let config = config(counter_bits, false, true);
        let codes = stream(&widths, &[], false);
        let (codes_b, codes_r) = run_both(&config, &codes);
        prop_assert!(codes_b
            .iter()
            .zip(&codes_r)
            .all(|(b, r)| b.overflow == r.overflow && b.count == r.count));
    }
}

/// A stuck-at-toggling LSB emits far more transitions than expected:
/// both backends must (a) count the surplus identically and (b) reject
/// via the exact-count completeness rule even when every split run
/// happens to pass the window.
#[test]
fn toggling_lsb_breaks_completeness_in_both_backends() {
    let config = config(4, false, false);
    // Width 12 per code with the planned window [6, 16]: splitting each
    // run into 6 + 6 passes the DNL window on every half.
    let codes: Vec<Code> = (0u32..64)
        .flat_map(|c| {
            (0..12).map(move |k| {
                // Toggle the LSB halfway through each code's run.
                if k >= 6 {
                    Code(c ^ 1)
                } else {
                    Code(c)
                }
            })
        })
        .collect();
    let mut scratch_b = Scratch::new();
    let mut scratch_r = Scratch::new();
    let behavioral = BehavioralBackend
        .judge(&config, None, codes.iter().copied(), &mut scratch_b)
        .verdict;
    let rtl = RtlBackend::new()
        .judge(&config, None, codes.iter().copied(), &mut scratch_r)
        .verdict;
    assert_eq!(behavioral, rtl);
    assert!(behavioral.codes_judged > behavioral.expected_codes);
    assert!(
        !behavioral.complete(),
        "surplus transitions must not read complete"
    );
    assert!(!behavioral.accepted());
}
