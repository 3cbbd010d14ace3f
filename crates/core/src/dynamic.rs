//! The dynamic-test subsystem: streaming SINAD / THD / ENOB /
//! noise-power verdicts through the same fused pipeline and backend
//! seam as the static engine.
//!
//! §2 of the paper names the dynamic parameters — "the Total Harmonic
//! Distortion and the introduced noise power" — as the main test
//! parameters next to the static linearity tests, and advocates "simple
//! digital functions" for on-chip processing. This module is that
//! workload as a first-class citizen of the streaming engine:
//!
//! * **Stimulus** — a coherent full-scale sine ([`plan_sine`]), swept
//!   through the same lazy [`bist_adc::stream::CodeStream`]
//!   acquisition as the static
//!   ramp (noise injection included).
//! * **Accumulation** — a streaming Goertzel bank
//!   ([`bist_dsp::goertzel::GoertzelBank`]): fundamental + aliased
//!   harmonics + Welford total-power moments, so the record is never
//!   materialised. One reusable [`DynScratch`] per worker keeps the
//!   device→verdict hot path allocation-free after warm-up (enforced by
//!   the workspace's `tests/zero_alloc.rs`).
//! * **Verdict** — a compact [`DynamicVerdict`]: the four §2 metrics
//!   judged against configurable [`DynamicLimits`], plus an exact
//!   sample-count completeness check (a truncated record must never
//!   read as a valid measurement).
//! * **Backends** — the verdict stage is pluggable through
//!   [`crate::backend::Backend`]: the behavioural bank, or the
//!   gate-accurate fixed-point `bist_rtl::DynBistTop` clocked one code
//!   per tick. Both derive their metrics through the *same*
//!   [`TonePowers::metrics`] arithmetic, so the only behavioural↔RTL
//!   difference is the RTL's bounded fixed-point quantisation — the
//!   `bist_mc::differential` dynamic fleet sweep demands their
//!   *decisions* agree on every device.

use crate::config::ConfigError;
use crate::harness::SAMPLE_RATE;
use bist_adc::sampler::SamplingConfig;
use bist_adc::signal::SineWave;
use bist_adc::transfer::Adc;
use bist_adc::types::Resolution;
use bist_dsp::goertzel::{GoertzelBank, ToneMetrics, TonePowers};
use bist_dsp::spectrum::ideal_sinad_db;
use std::fmt;

/// Relative full-scale overdrive of the default dynamic stimulus: the
/// sine slightly over-ranges the converter so the end codes are
/// exercised and clipping stays negligible (the paper-era 4096-sample
/// capture used the same trick).
pub const DEFAULT_OVERDRIVE: f64 = 0.01875;

/// Default number of harmonic orders counted as distortion (matches
/// [`bist_dsp::spectrum::ToneAnalysisConfig`]).
pub const DEFAULT_HARMONICS: usize = 5;

/// Acceptance limits for the dynamic test parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicLimits {
    /// Minimum signal to noise-and-distortion, dB.
    pub min_sinad_db: f64,
    /// Maximum total harmonic distortion, dB (a *less negative* THD is
    /// worse).
    pub max_thd_db: f64,
    /// Minimum effective number of bits.
    pub min_enob: f64,
    /// Maximum introduced noise power, LSB² (the §2 parameter; excludes
    /// DC, carrier and harmonics).
    pub max_noise_power_lsb2: f64,
}

impl DynamicLimits {
    /// Screening limits for an `n`-bit converter: one effective bit of
    /// SINAD/ENOB allowance below ideal, −30 dB THD, and ½ LSB² of
    /// introduced noise (the ideal quantiser contributes 1/12 LSB²).
    pub fn for_resolution(resolution: Resolution) -> Self {
        let bits = resolution.bits() as f64;
        DynamicLimits {
            min_sinad_db: ideal_sinad_db(resolution.bits()) - 6.02,
            max_thd_db: -30.0,
            min_enob: bits - 1.0,
            max_noise_power_lsb2: 0.5,
        }
    }
}

impl fmt::Display for DynamicLimits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SINAD ≥ {:.1} dB, THD ≤ {:.1} dB, ENOB ≥ {:.2}, noise ≤ {:.3} LSB²",
            self.min_sinad_db, self.max_thd_db, self.min_enob, self.max_noise_power_lsb2
        )
    }
}

/// Complete configuration of a dynamic BIST run: the coherent capture
/// plan plus the acceptance limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    resolution: Resolution,
    record_len: usize,
    cycles: u32,
    harmonics: usize,
    overdrive: f64,
    limits: DynamicLimits,
}

impl DynamicConfig {
    /// Creates a dynamic test plan: `record_len` samples with `cycles`
    /// full sine periods in the record (`cycles` odd and coprime with
    /// `record_len` gives best code coverage). Harmonics, overdrive and
    /// limits start at their defaults ([`DEFAULT_HARMONICS`],
    /// [`DEFAULT_OVERDRIVE`], [`DynamicLimits::for_resolution`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the fundamental is not strictly
    /// between DC and Nyquist, or if the fixed-point RTL datapath
    /// cannot guarantee the plan (so both backends accept exactly the
    /// same configuration space).
    pub fn new(
        resolution: Resolution,
        record_len: usize,
        cycles: u32,
    ) -> Result<Self, ConfigError> {
        if cycles == 0 || 2 * cycles as usize >= record_len {
            return Err(ConfigError::FundamentalOutOfRange { cycles, record_len });
        }
        let config = DynamicConfig {
            resolution,
            record_len,
            cycles,
            harmonics: DEFAULT_HARMONICS,
            overdrive: DEFAULT_OVERDRIVE,
            limits: DynamicLimits::for_resolution(resolution),
        };
        config
            .to_rtl()
            .validate()
            .map_err(ConfigError::FixedPointUnrealisable)?;
        Ok(config)
    }

    /// The paper-scale operating point: the 6-bit vehicle with the
    /// 4096-sample, 1021-cycle coherent record of the dynamic-screening
    /// experiment.
    pub fn paper_default() -> Self {
        DynamicConfig::new(Resolution::SIX_BIT, 4096, 1021).expect("paper operating point is valid")
    }

    /// Overrides the relative full-scale overdrive of the stimulus.
    ///
    /// # Panics
    ///
    /// Panics if `overdrive` is negative.
    pub fn with_overdrive(mut self, overdrive: f64) -> Self {
        assert!(overdrive >= 0.0, "overdrive must be non-negative");
        self.overdrive = overdrive;
        self
    }

    /// The converter resolution under test.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Samples per coherent record.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// Sine cycles per record (= the fundamental's DFT bin).
    pub fn cycles(&self) -> u32 {
        self.cycles
    }

    /// Harmonic orders counted as distortion.
    pub fn harmonics(&self) -> usize {
        self.harmonics
    }

    /// The acceptance limits.
    pub fn limits(&self) -> &DynamicLimits {
        &self.limits
    }

    /// The RTL datapath configuration equivalent to this plan.
    pub fn to_rtl(&self) -> bist_rtl::dyn_top::DynBistTopConfig {
        bist_rtl::dyn_top::DynBistTopConfig {
            adc_bits: self.resolution.bits(),
            record_len: self.record_len,
            fundamental_bin: self.cycles as usize,
            harmonics: self.harmonics,
        }
    }

    /// Judges a one-sided power decomposition (in LSB² units) against
    /// the limits — the single verdict path both backends share, so
    /// behavioural and RTL runs can only differ through the powers they
    /// feed in.
    pub fn judge_powers(&self, powers: &TonePowers, samples: u64) -> DynamicVerdict {
        let m: ToneMetrics = powers.metrics();
        let complete = samples == self.record_len as u64;
        DynamicVerdict {
            sinad_db: m.sinad_db,
            thd_db: m.thd_db,
            enob: m.enob,
            noise_power_lsb2: m.noise_power,
            samples,
            expected_samples: self.record_len as u64,
            checks: DynChecks {
                complete,
                sinad: m.sinad_db >= self.limits.min_sinad_db,
                thd: m.thd_db <= self.limits.max_thd_db,
                enob: m.enob >= self.limits.min_enob,
                noise: m.noise_power <= self.limits.max_noise_power_lsb2,
            },
        }
    }
}

impl fmt::Display for DynamicConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dynamic BIST {}: {} samples, {} cycles, H2..H{}, {}",
            self.resolution,
            self.record_len,
            self.cycles,
            self.harmonics + 1,
            self.limits
        )
    }
}

/// The boolean outcome of every dynamic check — the part of a
/// [`DynamicVerdict`] that must be **bit-exact** across backends (the
/// raw dB metrics may differ by the RTL's bounded fixed-point
/// quantisation; the decisions may not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynChecks {
    /// Exactly the expected number of samples were processed.
    pub complete: bool,
    /// SINAD meets the limit.
    pub sinad: bool,
    /// THD meets the limit.
    pub thd: bool,
    /// ENOB meets the limit.
    pub enob: bool,
    /// Introduced noise power meets the limit.
    pub noise: bool,
}

impl DynChecks {
    /// Whether every check passed.
    pub fn all_pass(&self) -> bool {
        self.complete && self.sinad && self.thd && self.enob && self.noise
    }
}

/// Compact, heap-free verdict of one dynamic sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicVerdict {
    /// Signal to noise-and-distortion, dB.
    pub sinad_db: f64,
    /// Total harmonic distortion, dB relative to the carrier.
    pub thd_db: f64,
    /// Effective number of bits.
    pub enob: f64,
    /// Introduced noise power, LSB² (the §2 parameter).
    pub noise_power_lsb2: f64,
    /// ADC samples consumed by the sweep.
    pub samples: u64,
    /// Samples a healthy sweep must produce (the record length).
    pub expected_samples: u64,
    /// The per-limit decisions (bit-exact across backends).
    pub checks: DynChecks,
}

impl DynamicVerdict {
    /// Whether the sweep processed *exactly* the expected number of
    /// samples.
    pub fn complete(&self) -> bool {
        self.checks.complete
    }

    /// The device-level decision: complete and every metric within its
    /// limit.
    pub fn accepted(&self) -> bool {
        self.checks.all_pass()
    }
}

impl fmt::Display for DynamicVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SINAD {:.1} dB, THD {:.1} dB, ENOB {:.2} b, noise {:.3} LSB² | {} | device {}",
            self.sinad_db,
            self.thd_db,
            self.enob,
            self.noise_power_lsb2,
            if self.complete() {
                "complete".to_owned()
            } else {
                format!("INCOMPLETE ({}/{})", self.samples, self.expected_samples)
            },
            if self.accepted() {
                "ACCEPTED"
            } else {
                "REJECTED"
            }
        )
    }
}

/// Reusable per-worker state for the behavioural dynamic path: the
/// Goertzel bank is built once per configuration and *reset in place*
/// between devices, so after warm-up the device→verdict path performs
/// zero heap allocations (same contract as [`crate::harness::Scratch`]).
#[derive(Debug, Default)]
pub struct DynScratch {
    bank: Option<GoertzelBank>,
}

impl DynScratch {
    /// Creates an empty scratch (the bank warms up on first use).
    pub fn new() -> Self {
        DynScratch::default()
    }

    /// The bank for `config`: reset in place when the cached plan
    /// matches, rebuilt otherwise.
    pub(crate) fn bank_for(&mut self, config: &DynamicConfig) -> &mut GoertzelBank {
        let fits = self.bank.as_ref().is_some_and(|b| {
            b.n() == config.record_len
                && b.fundamental_bin() == config.cycles as usize
                && b.harmonics() == config.harmonics
        });
        if !fits {
            self.bank = Some(GoertzelBank::new(
                config.cycles as usize,
                config.record_len,
                config.harmonics,
            ));
        }
        let bank = self.bank.as_mut().expect("bank installed above");
        bank.reset();
        bank
    }
}

/// Builds the coherent sine stimulus and sampling plan realising the
/// config on the given converter: full scale plus the configured
/// overdrive, centred mid-range. Public so benches and diagnostics can
/// reproduce the exact sweep the harness drives.
pub fn plan_sine<A: Adc + ?Sized>(adc: &A, config: &DynamicConfig) -> (SineWave, SamplingConfig) {
    let (low, high) = adc.input_range();
    let amplitude = (high.0 - low.0) / 2.0 * (1.0 + config.overdrive);
    let offset = bist_adc::types::Volts((low.0 + high.0) / 2.0);
    let frequency = SineWave::coherent_frequency(config.cycles, config.record_len, SAMPLE_RATE);
    (
        SineWave::new(amplitude, frequency, 0.0, offset),
        SamplingConfig::new(SAMPLE_RATE, config.record_len),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BehavioralBackend, RtlBackend};
    use crate::screener::{Screener, Workload};
    use bist_adc::flash::FlashConfig;
    use bist_adc::noise::NoiseConfig;
    use bist_adc::stream::CodeStream;
    use bist_adc::transfer::TransferFunction;
    use bist_adc::types::Volts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ideal() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    /// One-shot dynamic sweep through the screener front door.
    fn run_dynamic_bist<A: Adc + ?Sized>(
        adc: &A,
        config: &DynamicConfig,
        noise: &NoiseConfig,
        rng: &mut StdRng,
    ) -> DynamicVerdict {
        let mut screener = Screener::new(Workload::dynamic_sine(*config).with_noise(*noise));
        screener
            .screen_one(adc, rng)
            .as_dynamic()
            .expect("dynamic workload")
            .verdict
    }

    #[test]
    fn ideal_device_near_ideal_metrics() {
        let config = DynamicConfig::paper_default();
        let v = run_dynamic_bist(&ideal(), &config, &NoiseConfig::noiseless(), &mut rng(1));
        assert!(v.accepted(), "{v}");
        assert!(v.complete());
        assert_eq!(v.samples, 4096);
        // The overdriven stimulus clips a little, costing ~2 dB against
        // the textbook 6.02·n + 1.76.
        assert!((v.sinad_db - ideal_sinad_db(6)).abs() < 3.0, "{v}");
        // An ideal quantiser's noise power is q²/12 ≈ 0.083 LSB² (plus
        // a little of the clipped overdrive).
        assert!(v.noise_power_lsb2 < 0.2, "{v}");
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn mismatch_degrades_metrics_and_heavy_mismatch_rejects() {
        let config = DynamicConfig::paper_default();
        let good = run_dynamic_bist(&ideal(), &config, &NoiseConfig::noiseless(), &mut rng(2));
        let heavy = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_width_sigma_lsb(0.6)
            .sample(&mut rng(3));
        let bad = run_dynamic_bist(&heavy, &config, &NoiseConfig::noiseless(), &mut rng(4));
        assert!(bad.sinad_db < good.sinad_db);
        assert!(bad.noise_power_lsb2 > good.noise_power_lsb2);
        assert!(!bad.accepted(), "{bad}");
    }

    #[test]
    fn truncated_stream_is_incomplete() {
        let config = DynamicConfig::paper_default();
        let adc = ideal();
        let (sine, sampling) = plan_sine(&adc, &config);
        let mut scratch = DynScratch::new();
        let codes = CodeStream::noiseless(&adc, &sine, sampling).take(4000);
        let v = BehavioralBackend
            .judge_dyn(&config, None, codes, &mut scratch)
            .verdict;
        assert!(!v.complete());
        assert!(!v.accepted());
        assert_eq!(v.samples, 4000);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_and_survives_config_change() {
        let c_a = DynamicConfig::paper_default();
        let c_b = DynamicConfig::new(Resolution::SIX_BIT, 2048, 509).unwrap();
        let adc = FlashConfig::paper_device().sample(&mut rng(5));
        let mut scratch = DynScratch::new();
        let fresh = run_dynamic_bist(&adc, &c_a, &NoiseConfig::noiseless(), &mut rng(7));
        // One scratch across config changes, driven straight through
        // the backend seam the screener uses.
        for config in [&c_a, &c_b, &c_a] {
            let (sine, sampling) = plan_sine(&adc, config);
            let (noise, mut rng) = (NoiseConfig::noiseless(), rng(7));
            let codes = CodeStream::noisy(&adc, &sine, sampling, &noise, &mut rng);
            let v = BehavioralBackend
                .judge_dyn(config, None, codes, &mut scratch)
                .verdict;
            if config == &c_a {
                assert_eq!(v, fresh);
            } else {
                assert_eq!(v.expected_samples, 2048);
            }
        }
    }

    #[test]
    fn plan_sine_spans_range_with_overdrive() {
        let config = DynamicConfig::paper_default();
        let (sine, sampling) = plan_sine(&ideal(), &config);
        assert_eq!(sampling.samples, 4096);
        // Centred mid-range, with 1021 cycles in the record (coherent).
        let frequency = SineWave::coherent_frequency(1021, 4096, sampling.sample_rate);
        let amplitude = 3.2 * (1.0 + DEFAULT_OVERDRIVE);
        assert_eq!(sine, SineWave::new(amplitude, frequency, 0.0, Volts(3.2)));
    }

    #[test]
    fn bad_fundamental_is_planning_error() {
        assert!(DynamicConfig::new(Resolution::SIX_BIT, 4096, 0).is_err());
        assert!(DynamicConfig::new(Resolution::SIX_BIT, 4096, 2048).is_err());
        let err = DynamicConfig::new(Resolution::SIX_BIT, 64, 40).unwrap_err();
        assert!(err.to_string().contains("strictly between"));
    }

    #[test]
    fn nyquist_folding_harmonic_is_judged_by_both_backends() {
        // 1024 cycles in 4096 samples folds H2 exactly onto Nyquist —
        // a corner the register audit must bound polynomially (the
        // 1/sin ω envelope degenerates there), not reject or overflow.
        let config = DynamicConfig::new(Resolution::SIX_BIT, 4096, 1024)
            .expect("6-bit Nyquist-folding plan fits the fixed-point registers")
            .with_overdrive(0.0);
        let adc = ideal();
        let behavioral = run_dynamic_bist(&adc, &config, &NoiseConfig::noiseless(), &mut rng(9));
        let mut rtl_screener =
            Screener::new(Workload::dynamic_sine(config)).backend(RtlBackend::new());
        let rtl = rtl_screener
            .screen_one(&adc, &mut rng(9))
            .as_dynamic()
            .expect("dynamic workload")
            .verdict;
        assert_eq!(behavioral.checks, rtl.checks);
        assert!(behavioral.complete());
    }

    #[test]
    fn unrealisable_fixed_point_plan_is_rejected_for_both_backends() {
        // At 8 bits the same Nyquist fold exceeds the 64-bit register
        // budget — the plan is rejected up front, so the behavioural
        // path can never accept a config the RTL would panic on.
        let err = DynamicConfig::new(Resolution::new(8).unwrap(), 4096, 1024).unwrap_err();
        assert!(
            matches!(err, ConfigError::FixedPointUnrealisable(_)),
            "{err}"
        );
        assert!(err.to_string().contains("unrealisable"));
    }

    #[test]
    fn display_formats() {
        let config = DynamicConfig::paper_default();
        assert!(config.to_string().contains("4096 samples"));
        let v = run_dynamic_bist(&ideal(), &config, &NoiseConfig::noiseless(), &mut rng(1));
        assert!(v.to_string().contains("ACCEPTED"));
        assert!(config.limits().to_string().contains("SINAD"));
    }
}
