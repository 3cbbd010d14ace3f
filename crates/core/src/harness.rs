//! Test harnesses: wire a stimulus through a converter into the BIST,
//! the reference measurement, or the conventional production test.
//!
//! Three flavours, mirroring §4 of the paper:
//!
//! * the proposed method — slow ramp, LSB monitor plus upper-bit
//!   functional check — run through
//!   [`crate::screener::Screener`] with a static workload.
//! * [`reference_measurement`] — the "very accurate measurement, taking
//!   approximately 1000 samples per code width … as a reference".
//! * [`conventional_test`] — the production histogram test "where 4096
//!   samples are taken for the test of all the codes".
//!
//! ## The streaming engine
//!
//! All three harnesses are built on a fused single-pass pipeline that
//! matches the hardware semantics: a lazy
//! [`CodeStream`] evaluates the stimulus,
//! injects noise and converts one sample at a time, and the
//! accumulators — [`LsbMonitorAcc`](crate::lsb_monitor::LsbMonitorAcc),
//! [`FunctionalAcc`](crate::functional::FunctionalAcc), the transition
//! counter and (for the histogram harnesses) the
//! [`CodeHistogram`] — consume it
//! incrementally from one traversal. No capture is materialised.
//!
//! The verdict stage is pluggable through [`crate::backend::Backend`]:
//! the identical fused acquisition can be judged by the behavioural
//! accumulators ([`crate::backend::BehavioralBackend`], the default) or
//! by the gate-accurate `bist_rtl::BistTop` datapath
//! ([`crate::backend::RtlBackend`]) — the seam the differential fleet
//! experiment in `bist-mc` validates at scale. The entry point is
//! [`crate::screener::Screener`], which drives this engine for static
//! workloads; to screen codes from an external source without
//! materialising them, call [`crate::backend::Backend::judge`]
//! directly.
//!
//! ## Scratch reuse
//!
//! Per-device state that must persist across devices lives in
//! [`Scratch`]: the per-code and per-check result buffers. The contract
//! is *clear, don't shrink* — each run clears the buffers but keeps
//! their capacity, so after the first device ("warm-up") the
//! device→verdict hot path under
//! [`crate::screener::Screener::screen_one`] performs zero heap
//! allocations (enforced by the workspace's `tests/zero_alloc.rs`).

use crate::config::BistConfig;
use crate::functional::{FunctionalCheck, FunctionalResult, FunctionalTally};
use crate::limits::slope_for_delta_s;
use crate::lsb_monitor::{CodeResult, MonitorResult, MonitorTally};
use bist_adc::histogram::{ramp_linearity, CodeHistogram, HistogramLinearity, HistogramTestError};
use bist_adc::noise::NoiseConfig;
use bist_adc::sampler::SamplingConfig;
use bist_adc::signal::Ramp;
use bist_adc::spec::LinearitySpec;
use bist_adc::stream::CodeStream;
use bist_adc::transfer::Adc;
use bist_adc::types::Volts;
use rand::RngCore;
use std::fmt;

/// Sample rate used by the simulated harnesses — static ramp and
/// dynamic sine alike (the absolute value is immaterial: the ramp cares
/// only about the slope/f_sample ratio Δs of Eq. 5, the sine only about
/// the cycles-per-record coherency ratio).
pub(crate) const SAMPLE_RATE: f64 = 1.0e6;

/// Result of one complete BIST run on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct BistOutcome {
    /// The LSB-monitor result (DNL/INL verdicts per code).
    pub monitor: MonitorResult,
    /// The upper-bit functional result.
    pub functional: FunctionalResult,
    /// The number of complete measurements a healthy sweep must produce
    /// (a cheap on-chip transition counter enforces this; without it a
    /// dead LSB would pass both checks vacuously).
    pub expected_codes: u64,
}

impl BistOutcome {
    /// The device-level decision: accepted only if the sweep produced
    /// the expected number of measurements, every code passed the
    /// DNL/INL windows, and the functional check saw no mismatch.
    pub fn accepted(&self) -> bool {
        self.complete() && self.monitor.all_pass() && self.functional.all_pass()
    }

    /// Whether the sweep produced *exactly* the expected number of code
    /// measurements. Missing transitions indicate stuck bits, dead
    /// comparators or a stuck output bus; surplus transitions indicate
    /// a toggling LSB splitting codes — under the earlier `>=` rule a
    /// glitchy sweep could still read "complete".
    pub fn complete(&self) -> bool {
        self.monitor.codes.len() as u64 == self.expected_codes
    }
}

impl fmt::Display for BistOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} | {} | device {}",
            self.monitor,
            self.functional,
            if self.complete() {
                "complete".to_owned()
            } else {
                format!(
                    "INCOMPLETE ({}/{} codes)",
                    self.monitor.codes.len(),
                    self.expected_codes
                )
            },
            if self.accepted() {
                "ACCEPTED"
            } else {
                "REJECTED"
            }
        )
    }
}

/// Compact, heap-free verdict of one BIST sweep — what the on-chip
/// block actually latches. The full per-code detail stays in the
/// [`Scratch`] the sweep ran with (see [`Scratch::take_outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistVerdict {
    /// Number of complete codes the LSB monitor judged.
    pub codes_judged: u64,
    /// DNL window failures.
    pub dnl_failures: u64,
    /// INL window failures.
    pub inl_failures: u64,
    /// Functional checks fired.
    pub functional_checks: u64,
    /// Functional mismatches.
    pub functional_mismatches: u64,
    /// The transition-counter expectation (see [`BistOutcome`]).
    pub expected_codes: u64,
    /// ADC samples consumed by the sweep.
    pub samples: u64,
}

impl BistVerdict {
    /// Whether the sweep produced *exactly* the expected number of
    /// measurements (same rule as [`BistOutcome::complete`]: surplus
    /// transitions fail too).
    pub fn complete(&self) -> bool {
        self.codes_judged == self.expected_codes
    }

    /// The device-level decision (same rule as [`BistOutcome::accepted`]).
    pub fn accepted(&self) -> bool {
        self.complete()
            && self.dnl_failures == 0
            && self.inl_failures == 0
            && self.functional_mismatches == 0
    }

    /// The full-sweep verdict from the accumulators' closing tallies
    /// after `samples` samples under `config`.
    pub fn from_tallies(
        config: &BistConfig,
        monitor: MonitorTally,
        functional: FunctionalTally,
        samples: u64,
    ) -> Self {
        BistVerdict {
            codes_judged: monitor.codes_judged,
            dnl_failures: monitor.dnl_failures,
            inl_failures: monitor.inl_failures,
            functional_checks: functional.checks,
            functional_mismatches: functional.mismatches,
            expected_codes: config.expected_measurements(),
            samples,
        }
    }
}

/// Reusable per-device working state for the streaming engine.
///
/// Holds the result buffers the accumulators write into. Contract:
/// every run *clears* the buffers but never shrinks them, so capacity
/// warms up on the first device and subsequent devices allocate
/// nothing. Keep one `Scratch` per worker thread and pass it to
/// [`crate::backend::Backend::judge`] (a [`crate::screener::Screener`]
/// carries its own).
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) monitor_codes: Vec<CodeResult>,
    pub(crate) checks: Vec<FunctionalCheck>,
}

impl Scratch {
    /// Creates an empty scratch (buffers warm up on first use).
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Assembles the full [`BistOutcome`] of the most recent sweep,
    /// moving the detail buffers out (the scratch then re-warms on the
    /// next device; use only on the detailed/diagnostic path).
    pub fn take_outcome(&mut self, verdict: BistVerdict) -> BistOutcome {
        BistOutcome {
            monitor: MonitorResult {
                codes: std::mem::take(&mut self.monitor_codes),
                dnl_failures: verdict.dnl_failures,
                inl_failures: verdict.inl_failures,
            },
            functional: FunctionalResult {
                checks: std::mem::take(&mut self.checks),
                mismatches: verdict.functional_mismatches,
            },
            expected_codes: verdict.expected_codes,
        }
    }
}

/// Builds the ramp and sampling plan realising the config's Δs on the
/// given converter: starts two LSB below the range, overshoots the top.
/// Public so benches and diagnostics can reproduce the exact sweep the
/// harness drives.
pub fn plan_ramp<A: Adc + ?Sized>(adc: &A, config: &BistConfig) -> (Ramp, SamplingConfig) {
    let (low, high) = adc.input_range();
    let lsb = adc.resolution().lsb_size(Volts(high.0 - low.0)).0;
    let slope = slope_for_delta_s(config.delta_s(), SAMPLE_RATE, lsb);
    // Start 2 LSB below the range; overshoot the top by 10 LSB so that
    // devices whose accumulated width drift (gain error) pushes the last
    // transitions past nominal full scale still have every code closed.
    let start = Volts(low.0 - 2.0 * lsb);
    let span = (high.0 - low.0) + 12.0 * lsb;
    let samples = (span / slope * SAMPLE_RATE).ceil() as usize + 2;
    (
        Ramp::new(start, slope),
        SamplingConfig::new(SAMPLE_RATE, samples),
    )
}

/// A histogram-test verdict: the linearity estimate plus the spec
/// decision.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramVerdict {
    /// The DNL/INL estimate.
    pub linearity: HistogramLinearity,
    /// Whether the estimate meets the spec.
    pub accepted: bool,
}

/// Runs a ramp histogram test with `samples_per_code` average hits per
/// code and judges it against `spec` — §4's reference measurement uses
/// ~1000 samples per code.
///
/// The histogram accumulates directly from the code stream: the ~64 k
/// sample capture of the paper's reference setting is never
/// materialised.
///
/// # Errors
///
/// Returns [`HistogramTestError`] if the ramp yields an unusable
/// histogram.
///
/// # Panics
///
/// Panics if `samples_per_code` is zero.
pub fn reference_measurement<A: Adc + ?Sized, R: RngCore + ?Sized>(
    adc: &A,
    spec: &LinearitySpec,
    samples_per_code: u32,
    noise: &NoiseConfig,
    rng: &mut R,
) -> Result<HistogramVerdict, HistogramTestError> {
    assert!(samples_per_code > 0, "samples per code must be non-zero");
    let (low, high) = adc.input_range();
    let lsb = adc.resolution().lsb_size(Volts(high.0 - low.0)).0;
    let slope = lsb / samples_per_code as f64 * SAMPLE_RATE;
    let start = Volts(low.0 - 2.0 * lsb);
    let span = (high.0 - low.0) + 12.0 * lsb;
    let samples = (span / slope * SAMPLE_RATE).ceil() as usize + 2;
    let ramp = Ramp::new(start, slope);
    let stream = CodeStream::noisy(
        adc,
        &ramp,
        SamplingConfig::new(SAMPLE_RATE, samples),
        noise,
        rng,
    );
    let hist = CodeHistogram::from_codes(adc.resolution(), stream);
    let linearity = ramp_linearity(&hist)?;
    let accepted = judge_linearity(&linearity, spec);
    Ok(HistogramVerdict {
        linearity,
        accepted,
    })
}

/// The conventional production test of §4: a ramp histogram with a fixed
/// *total* sample budget (4096 for the paper's 6-bit device, i.e. 64 per
/// code).
///
/// # Errors
///
/// Returns [`HistogramTestError`] if the ramp yields an unusable
/// histogram.
///
/// # Panics
///
/// Panics if `total_samples` is smaller than the number of codes.
pub fn conventional_test<A: Adc + ?Sized, R: RngCore + ?Sized>(
    adc: &A,
    spec: &LinearitySpec,
    total_samples: u32,
    noise: &NoiseConfig,
    rng: &mut R,
) -> Result<HistogramVerdict, HistogramTestError> {
    let codes = adc.resolution().code_count();
    assert!(
        total_samples >= codes,
        "need at least one sample per code ({codes})"
    );
    reference_measurement(adc, spec, total_samples / codes, noise, rng)
}

/// Judges a histogram linearity estimate against a spec (DNL always,
/// INL when the spec has an INL limit).
pub fn judge_linearity(linearity: &HistogramLinearity, spec: &LinearitySpec) -> bool {
    let dnl_ok = linearity.peak_dnl().0 <= spec.dnl_limit().0;
    let inl_ok = match spec.inl_limit() {
        Some(limit) => linearity.peak_inl().0 <= limit.0,
        None => true,
    };
    dnl_ok && inl_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BehavioralBackend};
    use crate::screener::{Screener, Workload};
    use bist_adc::faults::{FaultyAdc, OutputFault};
    use bist_adc::flash::FlashConfig;
    use bist_adc::transfer::TransferFunction;
    use bist_adc::types::{Code, Resolution};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ideal() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    fn cfg(bits: u32) -> BistConfig {
        BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(bits)
            .build()
            .unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// One-shot static sweep through the screener front door, returning
    /// the full per-code outcome.
    fn run_static_bist<A: Adc + ?Sized>(
        adc: &A,
        config: &BistConfig,
        noise: &NoiseConfig,
        slope_error: f64,
        rng: &mut StdRng,
    ) -> BistOutcome {
        let mut screener = Screener::new(
            Workload::static_ramp(*config)
                .with_noise(*noise)
                .with_slope_error(slope_error),
        );
        let verdict = screener.screen_one(adc, rng);
        screener
            .take_static_outcome(&verdict)
            .expect("static workload")
    }

    #[test]
    fn ideal_device_accepted_all_counters() {
        for bits in 4..=7 {
            let outcome = run_static_bist(
                &ideal(),
                &cfg(bits),
                &NoiseConfig::noiseless(),
                0.0,
                &mut rng(1),
            );
            assert!(outcome.accepted(), "counter {bits}: {outcome}");
            assert_eq!(outcome.monitor.codes.len(), 62);
        }
    }

    #[test]
    fn measured_counts_near_ideal() {
        let config = cfg(4);
        let outcome = run_static_bist(
            &ideal(),
            &config,
            &NoiseConfig::noiseless(),
            0.0,
            &mut rng(1),
        );
        let ideal_count = config.limits().i_ideal();
        for c in &outcome.monitor.codes {
            assert!(
                c.count.abs_diff(ideal_count) <= 1,
                "count {} vs ideal {ideal_count}",
                c.count
            );
        }
    }

    #[test]
    fn streaming_verdict_matches_materialized_outcome() {
        // The streaming engine and the materialised capture path must be
        // bit-identical from the same RNG state — including under noise,
        // slope error and the deglitcher.
        let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .deglitch(true)
            .build()
            .unwrap();
        let adc = FlashConfig::paper_device().sample(&mut rng(21));
        let noise = NoiseConfig::noiseless().with_transition_noise(0.004);
        for (round, slope_error) in [(0u64, 0.0), (1, -0.022), (2, 0.015)] {
            let mut screener = Screener::new(
                Workload::static_ramp(config)
                    .with_noise(noise)
                    .with_slope_error(slope_error),
            );
            let verdict = screener.screen_one(&adc, &mut rng(100 + round));
            let streamed = screener.take_static_outcome(&verdict).unwrap();
            let (ramp, sampling) = plan_ramp(&adc, &config);
            let ramp = ramp.with_slope_error(slope_error);
            let mut rng = rng(100 + round);
            let capture: Vec<Code> =
                CodeStream::noisy(&adc, &ramp, sampling, &noise, &mut rng).collect();
            let mut scratch = Scratch::new();
            let codes = capture.iter().copied();
            let judged = BehavioralBackend.judge(&config, None, codes, &mut scratch);
            let materialized = scratch.take_outcome(judged.verdict);
            assert_eq!(streamed, materialized);
            assert_eq!(verdict.accepted(), materialized.accepted());
            assert_eq!(verdict.samples(), capture.len() as u64);
        }
    }

    #[test]
    fn scratch_take_outcome_preserves_detail() {
        let config = cfg(6);
        let mut screener = Screener::new(Workload::static_ramp(config));
        let verdict = screener.screen_one(&ideal(), &mut rng(1));
        let codes_judged = verdict
            .as_static()
            .expect("static workload")
            .verdict
            .codes_judged;
        let outcome = screener
            .take_static_outcome(&verdict)
            .expect("static workload");
        assert_eq!(outcome.monitor.codes.len() as u64, codes_judged);
        assert!(outcome.accepted());
        // The detail moved out: a second take finds the buffers empty.
        let again = screener.take_static_outcome(&verdict).unwrap();
        assert!(again.monitor.codes.is_empty() && again.functional.checks.is_empty());
    }

    #[test]
    fn grossly_nonlinear_device_rejected() {
        // Make code 20 two LSB wide (DNL +1, way past ±0.5).
        let mut t: Vec<f64> = (1..=63).map(|k| k as f64 * 0.1).collect();
        t[20] += 0.1;
        let adc =
            TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t);
        let outcome = run_static_bist(&adc, &cfg(4), &NoiseConfig::noiseless(), 0.0, &mut rng(1));
        assert!(!outcome.accepted());
        assert!(outcome.monitor.dnl_failures > 0);
    }

    #[test]
    fn stuck_output_bit_caught_by_functional_test() {
        let adc = FaultyAdc::new(
            ideal(),
            OutputFault::StuckBit {
                bit: 3,
                value: false,
            },
        );
        let outcome = run_static_bist(&adc, &cfg(4), &NoiseConfig::noiseless(), 0.0, &mut rng(1));
        assert!(!outcome.functional.all_pass());
        assert!(!outcome.accepted());
    }

    #[test]
    fn slope_error_shifts_counts() {
        let config = cfg(6);
        let nominal = run_static_bist(
            &ideal(),
            &config,
            &NoiseConfig::noiseless(),
            0.0,
            &mut rng(1),
        );
        // A 5 % steeper ramp yields ~5 % fewer counts per code.
        let steep = run_static_bist(
            &ideal(),
            &config,
            &NoiseConfig::noiseless(),
            0.05,
            &mut rng(1),
        );
        let mean = |o: &BistOutcome| {
            o.monitor.codes.iter().map(|c| c.count).sum::<u64>() as f64
                / o.monitor.codes.len() as f64
        };
        let ratio = mean(&steep) / mean(&nominal);
        assert!((ratio - 1.0 / 1.05).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn reference_measurement_classifies_ideal_good() {
        let v = reference_measurement(
            &ideal(),
            &LinearitySpec::paper_stringent(),
            1000,
            &NoiseConfig::noiseless(),
            &mut rng(2),
        )
        .unwrap();
        assert!(v.accepted);
        assert!(v.linearity.peak_dnl().0 < 0.01);
        assert!((v.linearity.samples_per_code - 1000.0).abs() < 40.0);
    }

    #[test]
    fn conventional_test_uses_budget() {
        let v = conventional_test(
            &ideal(),
            &LinearitySpec::paper_stringent(),
            4096,
            &NoiseConfig::noiseless(),
            &mut rng(3),
        )
        .unwrap();
        assert!(v.accepted);
        assert!((v.linearity.samples_per_code - 64.0).abs() < 5.0);
    }

    #[test]
    fn bist_agrees_with_reference_on_flash_batch() {
        // On real mismatched devices, the 7-bit BIST and the accurate
        // reference must agree on the vast majority of devices.
        let config = cfg(7);
        let spec = LinearitySpec::paper_stringent();
        let mut r = rng(11);
        let mut agree = 0;
        let total = 40;
        for _ in 0..total {
            let adc = FlashConfig::paper_device().sample(&mut r);
            let bist = run_static_bist(&adc, &config, &NoiseConfig::noiseless(), 0.0, &mut r);
            let reference =
                reference_measurement(&adc, &spec, 1000, &NoiseConfig::noiseless(), &mut r)
                    .unwrap();
            if bist.accepted() == reference.accepted {
                agree += 1;
            }
        }
        assert!(agree >= total - 3, "only {agree}/{total} agree");
    }

    #[test]
    #[should_panic(expected = "at least one sample per code")]
    fn conventional_too_few_samples_panics() {
        let _ = conventional_test(
            &ideal(),
            &LinearitySpec::paper_stringent(),
            10,
            &NoiseConfig::noiseless(),
            &mut rng(1),
        );
    }

    #[test]
    fn outcome_display() {
        let outcome = run_static_bist(
            &ideal(),
            &cfg(4),
            &NoiseConfig::noiseless(),
            0.0,
            &mut rng(1),
        );
        assert!(outcome.to_string().contains("ACCEPTED"));
    }
}
