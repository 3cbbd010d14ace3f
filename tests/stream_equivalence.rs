//! Integration: the streaming acquisition engine is observationally
//! identical to the seed's materialised path.
//!
//! The refactor fused stimulus→code→verdict into a single pass
//! (`CodeStream` + streaming accumulators); these properties pin the
//! equivalence across random devices, noise configurations and ramp
//! slope errors:
//!
//! * per-device **verdicts** and full per-code/per-check detail,
//! * batch **confusion matrices**,
//! * code **histograms** (the reference/conventional harness path).

use bist_adc::histogram::CodeHistogram;
use bist_adc::noise::NoiseConfig;
use bist_adc::sampler::SamplingConfig;
use bist_adc::signal::{Ramp, Stimulus};
use bist_adc::spec::LinearitySpec;
use bist_adc::stream::CodeStream;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Code, Resolution, Volts};
use bist_core::backend::{Backend, BehavioralBackend};
use bist_core::config::BistConfig;
use bist_core::decision::ConfusionMatrix;
use bist_core::harness::{BistOutcome, Scratch};
use bist_core::limits::slope_for_delta_s;
use bist_mc::batch::Batch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1.0e6;

/// The harness-style sweep plan for a batch device (0.1 V/LSB, range
/// 0–6.4 V): start 2 LSB low, overshoot the top.
fn plan(config: &BistConfig, slope_error: f64) -> (Ramp, SamplingConfig) {
    let slope = slope_for_delta_s(config.delta_s(), FS, 0.1);
    let samples = ((6.4 + 1.4) / slope * FS) as usize;
    (
        Ramp::new(Volts(-0.2), slope).with_slope_error(slope_error),
        SamplingConfig::new(FS, samples),
    )
}

/// The materialised path: judge an already-collected capture.
fn judge_capture(config: &BistConfig, capture: &[Code]) -> BistOutcome {
    let mut scratch = Scratch::default();
    let codes = capture.iter().copied();
    let verdict = BehavioralBackend
        .judge(config, None, codes, Some(&mut scratch))
        .verdict;
    scratch.take_outcome(verdict)
}

fn config(bits: u32, deglitch: bool) -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(bits)
        .deglitch(deglitch)
        .build()
        .expect("paper operating points are valid")
}

fn noise_config(level: u8) -> NoiseConfig {
    match level {
        0 => NoiseConfig::noiseless(),
        1 => NoiseConfig::noiseless().with_input_noise(0.002),
        2 => NoiseConfig::noiseless().with_transition_noise(0.004),
        _ => NoiseConfig::noiseless()
            .with_input_noise(0.001)
            .with_transition_noise(0.002)
            .with_jitter(1e-7),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-device: the fused single-pass engine and the seed's
    /// capture-then-process path agree on the verdict AND on every
    /// per-code / per-check detail, from the same RNG state.
    #[test]
    fn streaming_equals_materialized_per_device(
        seed in 0u64..1_000_000,
        bits in 4u32..=7,
        noise_level in 0u8..4,
        deglitch in any::<bool>(),
        slope_error in -0.03f64..0.03,
    ) {
        let cfg = config(bits, deglitch);
        let noise = noise_config(noise_level);
        let tf = Batch::paper_simulation(seed, 1).device(0);
        let (ramp, sampling) = plan(&cfg, slope_error);

        let mut rng_m = StdRng::seed_from_u64(seed ^ 0xfeed);
        let capture: Vec<Code> =
            CodeStream::noisy(&tf, &ramp, sampling, &noise, &mut rng_m).collect();
        let materialized = judge_capture(&cfg, &capture);

        let mut rng_s = StdRng::seed_from_u64(seed ^ 0xfeed);
        let mut scratch = Scratch::default();
        let codes = CodeStream::noisy(&tf, &ramp, sampling, &noise, &mut rng_s);
        let verdict = BehavioralBackend.judge(&cfg, None, codes, Some(&mut scratch)).verdict;

        prop_assert_eq!(verdict.accepted(), materialized.accepted());
        prop_assert_eq!(verdict.complete(), materialized.complete());
        prop_assert_eq!(verdict.codes_judged as usize, materialized.monitor.codes.len());
        prop_assert_eq!(verdict.dnl_failures, materialized.monitor.dnl_failures);
        prop_assert_eq!(verdict.inl_failures, materialized.monitor.inl_failures);
        prop_assert_eq!(verdict.functional_mismatches, materialized.functional.mismatches);
        prop_assert_eq!(verdict.samples as usize, capture.len());
        prop_assert_eq!(scratch.take_outcome(verdict), materialized);
    }

    /// Batch level: screening a whole batch through the streaming
    /// engine yields the identical confusion matrix to the materialised
    /// path, device for device.
    #[test]
    fn streaming_equals_materialized_confusion_matrix(
        seed in 0u64..1_000_000,
        bits in 4u32..=7,
        noise_level in 0u8..4,
        slope_error in -0.03f64..0.03,
    ) {
        let cfg = config(bits, false);
        let noise = noise_config(noise_level);
        let spec = *cfg.spec();
        let batch = Batch::paper_simulation(seed, 6);
        let (ramp, sampling) = plan(&cfg, slope_error);

        let mut streamed = ConfusionMatrix::new();
        let mut materialized = ConfusionMatrix::new();
        let mut scratch = Scratch::default();
        for i in 0..batch.size {
            let tf = batch.device(i);
            let truth = spec.classify(&tf).good;

            let mut rng = batch.device_rng(i);
            let codes = CodeStream::noisy(&tf, &ramp, sampling, &noise, &mut rng);
            let verdict = BehavioralBackend.judge(&cfg, None, codes, Some(&mut scratch)).verdict;
            streamed.record(truth, verdict.accepted());

            let mut rng = batch.device_rng(i);
            let capture: Vec<Code> =
                CodeStream::noisy(&tf, &ramp, sampling, &noise, &mut rng).collect();
            materialized.record(truth, judge_capture(&cfg, &capture).accepted());
        }
        prop_assert_eq!(streamed, materialized);
    }

    /// Histogram path: accumulating a `CodeHistogram` directly from the
    /// stream (as `reference_measurement` now does) equals building it
    /// from a materialised capture of the same sweep.
    #[test]
    fn streaming_equals_materialized_histogram(
        seed in 0u64..1_000_000,
        noise_level in 0u8..4,
        samples_per_code in 20u32..200,
    ) {
        let noise = noise_config(noise_level);
        let tf = Batch::paper_simulation(seed, 1).device(0);
        let slope = 0.1 / samples_per_code as f64 * FS;
        let ramp = Ramp::new(Volts(-0.2), slope);
        let sampling = SamplingConfig::new(FS, ((6.4 + 1.4) / slope * FS) as usize);

        let mut rng_s = StdRng::seed_from_u64(seed);
        let streamed = CodeHistogram::from_codes(
            Resolution::SIX_BIT,
            CodeStream::noisy(&tf, &ramp, sampling, &noise, &mut rng_s),
        );
        let mut rng_m = StdRng::seed_from_u64(seed);
        let capture: Vec<Code> =
            CodeStream::noisy(&tf, &ramp, sampling, &noise, &mut rng_m).collect();
        let materialized = CodeHistogram::from_codes(Resolution::SIX_BIT, capture);
        prop_assert_eq!(streamed, materialized);
    }
}

/// Non-property pin: a collected capture of one sweep is literally the
/// per-sample conversion of the stimulus at each sample instant.
#[test]
fn capture_is_collected_stream() {
    let tf = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
    let ramp = Ramp::new(Volts(-0.1), 1.0);
    let sampling = SamplingConfig::new(1e3, 7000);
    let capture: Vec<Code> = CodeStream::noiseless(&tf, &ramp, sampling).collect();
    let per_sample: Vec<Code> = (0..sampling.samples)
        .map(|i| tf.convert(ramp.value(sampling.sample_time(i))))
        .collect();
    assert_eq!(capture, per_sample);
}
