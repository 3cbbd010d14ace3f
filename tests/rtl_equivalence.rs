#![allow(clippy::needless_range_loop)] // index loops mirror the maths/netlists
//! Integration: the behavioural LSB monitor (`bist-core`), the
//! cycle-accurate RTL datapath (`bist-rtl`) and the upper-bit checkers
//! must agree code-for-code on real converter captures — including
//! property-based random run-length streams.

use bist_adc::flash::FlashConfig;
use bist_adc::sampler::{acquire, SamplingConfig};
use bist_adc::signal::Ramp;
use bist_adc::spec::LinearitySpec;
use bist_adc::types::{Resolution, Volts};
use bist_core::config::BistConfig;
use bist_core::functional::check_code_stream;
use bist_core::lsb_monitor::{CodeResult, LsbMonitorAcc};
use bist_rtl::datapath::{LsbProcessor, UpperBitChecker};
use bist_rtl::logic::Bus;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn paper_config(bits: u32) -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(bits)
        .build()
        .expect("paper operating point")
}

/// The behavioural monitor's per-code results over a whole bit stream.
fn monitor_codes(config: &BistConfig, stream: &[bool]) -> Vec<CodeResult> {
    let mut codes = Vec::new();
    let mut acc = LsbMonitorAcc::new(config, &mut codes);
    for &b in stream {
        acc.push(b);
    }
    codes
}

/// Captures a full ramp sweep of a random flash device.
fn flash_capture(seed: u64, config: &BistConfig) -> bist_adc::sampler::Capture {
    let mut rng = StdRng::seed_from_u64(seed);
    let adc = FlashConfig::paper_device().sample(&mut rng);
    let lsb = 0.1;
    let slope = config.delta_s().0 * lsb * 1.0e6;
    let samples = ((6.4 + 1.4) / slope * 1.0e6) as usize;
    acquire(
        &adc,
        &Ramp::new(Volts(-0.2), slope),
        SamplingConfig::new(1.0e6, samples),
    )
}

#[test]
fn behavioural_monitor_matches_rtl_on_flash_devices() {
    for seed in 0..10 {
        for bits in [4, 6] {
            let config = paper_config(bits);
            let capture = flash_capture(seed, &config);
            let stream: Vec<bool> = capture.bits(0).collect();

            let behavioural = monitor_codes(&config, &stream);
            let mut rtl = LsbProcessor::new(config.to_rtl());
            let mut rtl_counts = Vec::new();
            let mut rtl_pass = Vec::new();
            for &b in &stream {
                if let Some(m) = rtl.tick(b) {
                    rtl_counts.push(m.count);
                    rtl_pass.push(m.dnl_verdict);
                }
            }
            let n = rtl_counts.len().min(behavioural.len());
            assert!(n >= 60, "seed {seed}: only {n} common measurements");
            for i in 0..n {
                assert_eq!(
                    behavioural[i].count, rtl_counts[i],
                    "seed {seed} bits {bits} code {i}: count mismatch"
                );
                assert_eq!(
                    behavioural[i].dnl_verdict, rtl_pass[i],
                    "seed {seed} bits {bits} code {i}: verdict mismatch"
                );
            }
        }
    }
}

#[test]
fn functional_checker_matches_rtl_on_flash_devices() {
    for seed in 0..10 {
        let config = paper_config(5);
        let capture = flash_capture(seed, &config);
        let behavioural = check_code_stream(capture.codes(), 0);
        let mut rtl = UpperBitChecker::new(5);
        for &c in capture.codes() {
            rtl.tick(c.0 & 1 == 1, Bus::truncate(5, u64::from(c.0 >> 1)));
        }
        assert_eq!(behavioural.mismatches, rtl.mismatches(), "seed {seed}");
        assert_eq!(behavioural.checks.len() as u64, rtl.checks(), "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary run-length streams the behavioural monitor and the
    /// RTL processor agree on every common measurement.
    #[test]
    fn monitor_rtl_agree_on_random_streams(
        runs in prop::collection::vec(1u64..40, 3..60),
        counter_bits in 4u32..8,
    ) {
        let config = paper_config(counter_bits);
        let mut stream = Vec::new();
        let mut level = false;
        for &r in &runs {
            stream.extend(std::iter::repeat_n(level, r as usize));
            level = !level;
        }
        let behavioural = monitor_codes(&config, &stream);
        let mut rtl = LsbProcessor::new(config.to_rtl());
        let mut rtl_ms = Vec::new();
        for &b in &stream {
            if let Some(m) = rtl.tick(b) {
                rtl_ms.push(m);
            }
        }
        let n = rtl_ms.len().min(behavioural.len());
        // The RTL's synchroniser latency may drop at most the final edge.
        prop_assert!(behavioural.len() <= rtl_ms.len() + 1);
        for i in 0..n {
            prop_assert_eq!(behavioural[i].count, rtl_ms[i].count);
            prop_assert_eq!(behavioural[i].dnl_verdict, rtl_ms[i].dnl_verdict);
            prop_assert_eq!(behavioural[i].inl_counts, rtl_ms[i].inl_counts);
        }
    }

    /// The measured count is always the true run length (up to counter
    /// capacity), regardless of the stream shape.
    #[test]
    fn counts_equal_run_lengths(
        runs in prop::collection::vec(1u64..200, 3..40),
    ) {
        let config = paper_config(6);
        let capacity = 1u64 << 6;
        let mut stream = Vec::new();
        let mut level = false;
        for &r in &runs {
            stream.extend(std::iter::repeat_n(level, r as usize));
            level = !level;
        }
        let result = monitor_codes(&config, &stream);
        // Complete inner runs are runs[1..n-1].
        let expected: Vec<u64> = runs[1..runs.len() - 1]
            .iter()
            .map(|&r| r.min(capacity))
            .collect();
        let got: Vec<u64> = result.iter().map(|c| c.count).collect();
        prop_assert_eq!(got, expected);
    }
}
