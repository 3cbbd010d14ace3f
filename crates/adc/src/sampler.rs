//! The acquisition loop: stimulus → sampling instants → converter codes.
//!
//! The conversion itself is performed lazily by
//! [`crate::stream::CodeStream`]; this module holds the sampling plan
//! ([`SamplingConfig`]). Tests and plots that need a whole record
//! `collect()` the stream; production-path consumers (the BIST harness,
//! the Monte-Carlo engine) consume it directly and never materialise
//! one.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use crate::signal::{Ramp, SineWave, Stimulus};
    use crate::stream::CodeStream;
    use crate::transfer::TransferFunction;
    use crate::types::{Code, Resolution, Volts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn six_bit() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    /// The noiseless record of `stimulus` through `adc`.
    fn acquire(
        adc: &TransferFunction,
        stimulus: &impl Stimulus,
        sampling: SamplingConfig,
    ) -> Vec<Code> {
        CodeStream::noiseless(adc, stimulus, sampling).collect()
    }

    /// Bit `b` (0 = LSB) of every code.
    fn bits(codes: &[Code], b: u32) -> impl Iterator<Item = bool> + '_ {
        codes.iter().map(move |c| (c.0 >> b) & 1 == 1)
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
        assert!(cap.iter().all(|&c| c == Code(32)));
    }

    #[test]
    fn ramp_acquisition_walks_all_codes() {
        let adc = six_bit();
        // 1 V/s ramp, 1 kHz sampling: 6.4 s sweep = 6400 samples, 100/code.
        let ramp = Ramp::new(Volts(-0.05), 1.0);
        let cap = acquire(&adc, &ramp, SamplingConfig::new(1e3, 6600));
        let raw: Vec<u32> = cap.iter().map(|c| c.0).collect();
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
        let lsb: Vec<bool> = bits(&cap, 0).collect();
        // The LSB toggles once per code: count transitions ≈ codes crossed.
        let transitions = lsb.windows(2).filter(|w| w[0] != w[1]).count();
        let codes_crossed = cap.last().unwrap().0 - cap[0].0;
        assert_eq!(transitions as u32, codes_crossed);
    }

    #[test]
    fn msb_stream_is_bit_five() {
        let adc = six_bit();
        let cap = acquire(&adc, &dc(5.0), SamplingConfig::new(1e3, 4));
        // 5.0 V → code 50 = 0b110010: bit 5 is 1.
        assert!(bits(&cap, 5).all(|b| b));
        assert!(bits(&cap, 0).all(|b| !b));
    }

    #[test]
    fn noiseless_noisy_acquisition_matches_pure() {
        let adc = six_bit();
        let ramp = Ramp::new(Volts(0.0), 1.0);
        let sampling = SamplingConfig::new(1e3, 100);
        let mut rng = StdRng::seed_from_u64(1);
        let a = acquire(&adc, &ramp, sampling);
        let noiseless = NoiseConfig::noiseless();
        let b: Vec<Code> = CodeStream::noisy(&adc, &ramp, sampling, &noiseless, &mut rng).collect();
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
        let toggles = |cap: &[Code]| {
            let lsb: Vec<bool> = bits(cap, 0).collect();
            lsb.windows(2).filter(|w| w[0] != w[1]).count()
        };
        assert_eq!(toggles(&clean), 0);
        let noise = NoiseConfig::noiseless().with_transition_noise(0.02);
        let noisy: Vec<Code> = CodeStream::noisy(&adc, &dc, sampling, &noise, &mut rng).collect();
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
        let jittered: Vec<Code> =
            CodeStream::noisy(&adc, &ramp, sampling, &noise, &mut rng).collect();
        assert_ne!(clean, jittered);
        // But the overall trajectory is still a ramp of the same span.
        assert_eq!(clean.last(), jittered.last());
    }
}
