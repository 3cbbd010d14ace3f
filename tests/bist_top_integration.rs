//! Integration: the single-pin RTL top level (`bist_rtl::top::BistTop`)
//! must reach the same device verdicts as the behavioural harness on
//! real converter sweeps — the last link between the paper's concept and
//! synthesisable hardware.
//!
//! Since the backend seam landed this agreement is *exact*: driven
//! through the drain protocol (`BistTop::DRAIN_TICKS` recirculating
//! cycles after the last sample), the RTL top reports the identical
//! measurement count, failure counts and pass/fail as the behavioural
//! accumulators — the looser "±1 code, compare rejections only"
//! tolerances this test used to need are gone.

use bist_adc::flash::FlashConfig;
use bist_adc::sampler::{acquire, SamplingConfig};
use bist_adc::signal::Ramp;
use bist_adc::spec::LinearitySpec;
use bist_adc::types::{Resolution, Volts};
use bist_core::backend::{Backend, BehavioralBackend};
use bist_core::config::BistConfig;
use bist_core::harness::Scratch;
use bist_core::screener::{Screener, Workload};
use bist_rtl::top::{BistTop, BistTopConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn paper_config(bits: u32) -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(bits)
        .build()
        .expect("paper operating point")
}

fn top_from(config: &BistConfig) -> BistTop {
    BistTop::new(BistTopConfig {
        lsb: config.to_rtl(),
        adc_bits: config.resolution().bits(),
        expected_codes: config.expected_measurements(),
    })
}

/// Runs a capture through the top level, honouring the drain protocol.
fn run_top(top: &mut BistTop, codes: &[bist_adc::types::Code]) {
    for code in codes {
        top.tick(u64::from(code.0));
    }
    for _ in 0..BistTop::DRAIN_TICKS {
        top.drain_tick();
    }
}

#[test]
fn top_level_agrees_with_harness_on_flash_batch() {
    let config = paper_config(5);
    let total = 40;
    for seed in 0..total {
        let mut rng = StdRng::seed_from_u64(seed);
        let adc = FlashConfig::paper_device().sample(&mut rng);
        let slope = config.delta_s().0 * 0.1 * 1.0e6;
        let capture = acquire(
            &adc,
            &Ramp::new(Volts(-0.2), slope),
            SamplingConfig::new(1.0e6, ((6.4 + 1.4) / slope * 1.0e6) as usize),
        );
        let mut scratch = Scratch::new();
        let codes = capture.codes().iter().copied();
        let verdict = BehavioralBackend.judge(&config, None, codes, &mut scratch);
        let behavioural = scratch.take_outcome(verdict.verdict);

        let mut top = top_from(&config);
        run_top(&mut top, capture.codes());
        let report = top.report();
        // Exact agreement, field by field — no latency fudge.
        assert_eq!(
            report.codes_measured,
            behavioural.monitor.codes.len() as u64,
            "seed {seed}: measurement count"
        );
        assert_eq!(
            report.dnl_failures, behavioural.monitor.dnl_failures,
            "seed {seed}: DNL failures"
        );
        assert_eq!(
            report.inl_failures, behavioural.monitor.inl_failures,
            "seed {seed}: INL failures"
        );
        assert_eq!(
            report.functional_mismatches, behavioural.functional.mismatches,
            "seed {seed}: functional mismatches"
        );
        assert_eq!(
            report.functional_checks,
            behavioural.functional.checks.len() as u64,
            "seed {seed}: functional checks"
        );
        assert_eq!(report.complete, behavioural.complete(), "seed {seed}");
        assert_eq!(report.pass(), behavioural.accepted(), "seed {seed}");
    }
}

#[test]
fn top_level_catches_the_stuck_lsb_that_needs_completeness() {
    // The fault class that motivated the completeness check: dead LSB.
    let config = paper_config(4);
    let mut top = top_from(&config);
    // A staircase with the LSB masked off.
    for c in 0..64u64 {
        for _ in 0..11 {
            top.tick(c & !1);
        }
    }
    for _ in 0..BistTop::DRAIN_TICKS {
        top.drain_tick();
    }
    let report = top.report();
    assert!(!report.complete);
    assert!(!report.pass());

    // Behavioural side agrees.
    let mut rng = StdRng::seed_from_u64(1);
    let good =
        bist_adc::transfer::TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
    let faulty = bist_adc::faults::FaultyAdc::new(
        good,
        bist_adc::faults::OutputFault::StuckBit {
            bit: 0,
            value: false,
        },
    );
    let mut screener = Screener::new(Workload::static_ramp(config));
    let verdict = screener.screen_one(&faulty, &mut rng);
    let outcome = screener
        .take_static_outcome(&verdict)
        .expect("static workload");
    assert!(!outcome.complete());
    assert!(!outcome.accepted());
}

#[test]
fn signature_distinguishes_devices() {
    // Different mismatch instances must yield different MISR signatures
    // (the whole point of compaction: one register read identifies the
    // measured linearity profile).
    let config = paper_config(6);
    let mut signatures = std::collections::HashSet::new();
    for seed in 0..20 {
        let mut rng = StdRng::seed_from_u64(seed);
        let adc = FlashConfig::paper_device().sample(&mut rng);
        let slope = config.delta_s().0 * 0.1 * 1.0e6;
        let capture = acquire(
            &adc,
            &Ramp::new(Volts(-0.2), slope),
            SamplingConfig::new(1.0e6, ((6.4 + 1.4) / slope * 1.0e6) as usize),
        );
        let mut top = top_from(&config);
        run_top(&mut top, capture.codes());
        signatures.insert(top.report().signature.value());
    }
    assert_eq!(signatures.len(), 20, "signature collision across devices");
}
