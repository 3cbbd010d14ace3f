//! The acquisition loop: stimulus → sampling instants → converter codes.
//!
//! The conversion itself is performed lazily by
//! [`crate::stream::CodeStream`]; this module holds the sampling plan
//! ([`SamplingConfig`]) and the materialised view ([`Capture`]) that
//! tests, plots and the conventional histogram baselines collect the
//! stream into. Production-path consumers (the BIST harness, the
//! Monte-Carlo engine) consume the stream directly and never allocate a
//! capture.

use crate::signal::Stimulus;
use crate::stream::CodeStream;
use crate::transfer::Adc;
use crate::types::Code;
use std::fmt;

/// Sampling parameters for one acquisition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Sample rate in hertz.
    pub sample_rate: f64,
    /// Number of samples to capture.
    pub samples: usize,
    /// Time of the first sample (seconds).
    pub start_time: f64,
}

impl SamplingConfig {
    /// Creates a config sampling `samples` points at `sample_rate` Hz
    /// starting at `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate <= 0` or `samples == 0`.
    pub fn new(sample_rate: f64, samples: usize) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        assert!(samples > 0, "sample count must be non-zero");
        SamplingConfig {
            sample_rate,
            samples,
            start_time: 0.0,
        }
    }

    /// The sampling interval `1/f_sample` in seconds.
    pub fn sample_period(&self) -> f64 {
        1.0 / self.sample_rate
    }

    /// The instant of sample `i`.
    pub fn sample_time(&self, i: usize) -> f64 {
        self.start_time + i as f64 * self.sample_period()
    }
}

/// A captured record of output codes plus capture metadata — the
/// materialised (`collect()`ed) view of a [`CodeStream`].
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    codes: Vec<Code>,
    sampling: SamplingConfig,
}

impl Capture {
    /// Assembles a capture from already-collected codes (crate-internal;
    /// use [`CodeStream::capture`] or [`acquire`]).
    pub(crate) fn from_parts(codes: Vec<Code>, sampling: SamplingConfig) -> Self {
        Capture { codes, sampling }
    }

    /// The captured codes.
    pub fn codes(&self) -> &[Code] {
        &self.codes
    }

    /// Iterates over bit `b` (0 = LSB) of every code — the signal the
    /// paper's on-chip LSB monitor watches. Allocation-free; `collect()`
    /// when a materialised stream is needed.
    pub fn bits(&self, b: u32) -> impl Iterator<Item = bool> + '_ {
        self.codes.iter().map(move |c| (c.0 >> b) & 1 == 1)
    }

    /// Iterates over the codes centred to `±0.5`-normalised values for
    /// spectral analysis: `(code + 0.5)/2ⁿ − 0.5`, given the resolution
    /// implied by `bits`.
    pub fn normalized(&self, bits: u32) -> impl Iterator<Item = f64> + '_ {
        let n = (1u64 << bits) as f64;
        self.codes.iter().map(move |c| (c.0 as f64 + 0.5) / n - 0.5)
    }
}

impl fmt::Display for Capture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples @ {} Hz",
            self.codes.len(),
            self.sampling.sample_rate
        )
    }
}

/// Samples `stimulus` through `adc` without noise (the deterministic
/// sampling process assumed by the §3 theory) and materialises the
/// result. Thin wrapper over [`CodeStream::noiseless`].
pub fn acquire<A: Adc, S: Stimulus>(adc: &A, stimulus: &S, sampling: SamplingConfig) -> Capture {
    CodeStream::noiseless(adc, stimulus, sampling).capture()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use crate::signal::{Ramp, SineWave};
    use crate::transfer::TransferFunction;
    use crate::types::{Resolution, Volts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn six_bit() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    /// A constant level: a sine of zero amplitude.
    fn dc(v: f64) -> SineWave {
        SineWave::new(0.0, 1.0, 0.0, Volts(v))
    }

    #[test]
    fn sampling_config_times() {
        let s = SamplingConfig {
            start_time: 1.0,
            ..SamplingConfig::new(1000.0, 5)
        };
        assert_eq!(s.sample_period(), 0.001);
        assert_eq!(s.sample_time(0), 1.0);
        assert!((s.sample_time(3) - 1.003).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn zero_rate_panics() {
        SamplingConfig::new(0.0, 10);
    }

    #[test]
    #[should_panic(expected = "sample count must be non-zero")]
    fn zero_samples_panics() {
        SamplingConfig::new(1.0, 0);
    }

    #[test]
    fn dc_acquisition_is_constant() {
        let adc = six_bit();
        let cap = acquire(&adc, &dc(3.25), SamplingConfig::new(1e3, 16));
        assert!(cap.codes().iter().all(|&c| c == Code(32)));
    }

    #[test]
    fn ramp_acquisition_walks_all_codes() {
        let adc = six_bit();
        // 1 V/s ramp, 1 kHz sampling: 6.4 s sweep = 6400 samples, 100/code.
        let ramp = Ramp::new(Volts(-0.05), 1.0);
        let cap = acquire(&adc, &ramp, SamplingConfig::new(1e3, 6600));
        let raw: Vec<u32> = cap.codes().iter().map(|c| c.0).collect();
        assert_eq!(raw[0], 0);
        assert_eq!(*raw.last().unwrap(), 63);
        // Monotone non-decreasing.
        assert!(raw.windows(2).all(|w| w[0] <= w[1]));
        // Every code visited ~100 times.
        let mut counts = [0u32; 64];
        for c in &raw {
            counts[*c as usize] += 1;
        }
        for (k, &c) in counts.iter().enumerate().take(63).skip(1) {
            assert!((95..=105).contains(&c), "code {k}: {c} samples");
        }
    }

    #[test]
    fn lsb_stream_alternates_on_ramp() {
        let adc = six_bit();
        let ramp = Ramp::new(Volts(0.05), 1.0);
        let cap = acquire(&adc, &ramp, SamplingConfig::new(1e3, 6300));
        let lsb: Vec<bool> = cap.bits(0).collect();
        // The LSB toggles once per code: count transitions ≈ codes crossed.
        let transitions = lsb.windows(2).filter(|w| w[0] != w[1]).count();
        let codes_crossed = cap.codes().last().unwrap().0 - cap.codes()[0].0;
        assert_eq!(transitions as u32, codes_crossed);
    }

    #[test]
    fn msb_stream_is_bit_five() {
        let adc = six_bit();
        let cap = acquire(&adc, &dc(5.0), SamplingConfig::new(1e3, 4));
        // 5.0 V → code 50 = 0b110010: bit 5 is 1.
        assert!(cap.bits(5).all(|b| b));
        assert!(cap.bits(0).all(|b| !b));
    }

    #[test]
    fn normalized_is_centered() {
        let adc = six_bit();
        let cap = acquire(&adc, &dc(3.25), SamplingConfig::new(1e3, 2));
        // code 32 → (32.5)/64 - 0.5 = 0.0078125
        let first = cap.normalized(6).next().unwrap();
        assert!((first - 0.0078125).abs() < 1e-12);
    }

    #[test]
    fn noiseless_noisy_acquisition_matches_pure() {
        let adc = six_bit();
        let ramp = Ramp::new(Volts(0.0), 1.0);
        let sampling = SamplingConfig::new(1e3, 100);
        let mut rng = StdRng::seed_from_u64(1);
        let a = acquire(&adc, &ramp, sampling);
        let b =
            CodeStream::noisy(&adc, &ramp, sampling, &NoiseConfig::noiseless(), &mut rng).capture();
        assert_eq!(a, b);
    }

    #[test]
    fn transition_noise_makes_lsb_toggle() {
        let adc = six_bit();
        // Park the input exactly on a transition: noiseless output is
        // constant, transition noise makes it flip between codes.
        let dc = dc(0.2);
        let sampling = SamplingConfig::new(1e3, 1000);
        let mut rng = StdRng::seed_from_u64(2);
        let clean = acquire(&adc, &dc, sampling);
        let toggles = |cap: &Capture| {
            let bits: Vec<bool> = cap.bits(0).collect();
            bits.windows(2).filter(|w| w[0] != w[1]).count()
        };
        assert_eq!(toggles(&clean), 0);
        let noise = NoiseConfig::noiseless().with_transition_noise(0.02);
        let noisy = CodeStream::noisy(&adc, &dc, sampling, &noise, &mut rng).capture();
        assert!(toggles(&noisy) > 100, "expected heavy LSB toggling");
    }

    #[test]
    fn jitter_blurs_code_boundaries() {
        let adc = six_bit();
        let ramp = Ramp::new(Volts(0.0), 100.0); // fast ramp: jitter matters
        let sampling = SamplingConfig::new(1e5, 1000);
        let mut rng = StdRng::seed_from_u64(3);
        let clean = acquire(&adc, &ramp, sampling);
        let noise = NoiseConfig::noiseless().with_jitter(2e-6);
        let jittered = CodeStream::noisy(&adc, &ramp, sampling, &noise, &mut rng).capture();
        assert_ne!(clean, jittered);
        // But the overall trajectory is still a ramp of the same span.
        assert_eq!(clean.codes().last(), jittered.codes().last());
    }

    #[test]
    fn capture_display() {
        let adc = six_bit();
        let cap = acquire(&adc, &dc(1.0), SamplingConfig::new(250.0, 8));
        assert_eq!(cap.to_string(), "8 samples @ 250 Hz");
    }
}
