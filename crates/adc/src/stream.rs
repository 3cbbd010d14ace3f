//! Lazy, single-pass acquisition: stimulus → noise → converter codes.
//!
//! The paper's BIST is a *streaming* design — the on-chip LSB monitor
//! and counters consume the ramp capture code by code, with no sample
//! memory. [`CodeStream`] is the simulation equivalent: an iterator that
//! fuses stimulus evaluation, noise injection and conversion, producing
//! one [`Code`] per sample instant without materialising the capture.
//! [`crate::sampler::Capture`] is now just a `collect()`ed view of this
//! stream, kept for tests and plotting.
//!
//! The per-sample operation is identical to the historical two-pass
//! path (perturb the instant, perturb the voltage, convert), and noise
//! draws happen in sample order — so streaming consumers observe
//! bit-for-bit the same codes as a materialised capture from the same
//! RNG state.

use crate::noise::NoiseConfig;
use crate::sampler::{Capture, SamplingConfig};
use crate::signal::Stimulus;
use crate::transfer::Adc;
use crate::types::{Code, Volts};
use rand::RngCore;
use std::iter::FusedIterator;

/// The RNG type of noiseless streams. [`NoiseConfig::noiseless`] never
/// draws, so this generator is never sampled.
///
/// # Panics
///
/// Panics if a draw is attempted — which would indicate a noise source
/// was configured without supplying a real generator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRng;

impl RngCore for NullRng {
    fn next_u64(&mut self) -> u64 {
        panic!("noiseless code stream must not draw randomness");
    }
}

/// A lazy acquisition: yields the converter's output codes one sample at
/// a time, evaluating the stimulus, injecting noise and converting on
/// demand.
///
/// # Examples
///
/// ```
/// use bist_adc::sampler::SamplingConfig;
/// use bist_adc::signal::Ramp;
/// use bist_adc::stream::CodeStream;
/// use bist_adc::transfer::TransferFunction;
/// use bist_adc::types::{Resolution, Volts};
///
/// let adc = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
/// let ramp = Ramp::new(Volts(0.0), 1.0);
/// let stream = CodeStream::noiseless(&adc, &ramp, SamplingConfig::new(1e3, 6400));
/// // Single pass, no sample memory: fold the codes directly.
/// let distinct = stream
///     .fold((0u32, None), |(n, prev), c| {
///         (n + u32::from(prev != Some(c)), Some(c))
///     })
///     .0;
/// assert_eq!(distinct, 64); // the ramp walks every code once
/// ```
#[derive(Debug)]
pub struct CodeStream<'a, A: ?Sized, S: ?Sized, R> {
    adc: &'a A,
    stimulus: &'a S,
    sampling: SamplingConfig,
    noise: NoiseConfig,
    rng: R,
    next: usize,
}

impl<'a, A: Adc + ?Sized, S: Stimulus + ?Sized> CodeStream<'a, A, S, NullRng> {
    /// A noiseless stream: the deterministic sampling process assumed by
    /// the §3 theory.
    pub fn noiseless(adc: &'a A, stimulus: &'a S, sampling: SamplingConfig) -> Self {
        CodeStream {
            adc,
            stimulus,
            sampling,
            noise: NoiseConfig::noiseless(),
            rng: NullRng,
            next: 0,
        }
    }
}

impl<'a, A: Adc + ?Sized, S: Stimulus + ?Sized, R: RngCore + ?Sized>
    CodeStream<'a, A, S, &'a mut R>
{
    /// A stream with the given noise sources: jitter perturbs each
    /// sample instant, input and transition noise perturb the sampled
    /// voltage. With [`NoiseConfig::noiseless`] this is identical to
    /// [`CodeStream::noiseless`] (and draws nothing from `rng`).
    pub fn noisy(
        adc: &'a A,
        stimulus: &'a S,
        sampling: SamplingConfig,
        noise: &NoiseConfig,
        rng: &'a mut R,
    ) -> Self {
        CodeStream {
            adc,
            stimulus,
            sampling,
            noise: *noise,
            rng,
            next: 0,
        }
    }
}

impl<A: Adc + ?Sized, S: Stimulus + ?Sized, R: RngCore> CodeStream<'_, A, S, R> {
    /// Materialises the remaining codes into a [`Capture`] — the view
    /// used by tests, plots and the conventional histogram baselines.
    ///
    /// On a partially consumed stream the capture's sampling metadata
    /// is adjusted to cover only the remaining samples (start time and
    /// count), so `codes()[i]` always corresponds to the capture's
    /// `i`-th sample time.
    pub fn capture(self) -> Capture {
        let mut sampling = self.sampling;
        sampling.start_time = self.sampling.sample_time(self.next);
        sampling.samples -= self.next;
        Capture::from_parts(self.collect(), sampling)
    }
}

impl<A: Adc + ?Sized, S: Stimulus + ?Sized, R: RngCore> Iterator for CodeStream<'_, A, S, R> {
    type Item = Code;

    fn next(&mut self) -> Option<Code> {
        if self.next >= self.sampling.samples {
            return None;
        }
        let t = self
            .noise
            .perturb_time(self.sampling.sample_time(self.next), &mut self.rng);
        let v = self
            .noise
            .perturb_voltage(self.stimulus.value(t).0, &mut self.rng);
        self.next += 1;
        Some(self.adc.convert(Volts(v)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.sampling.samples - self.next;
        (left, Some(left))
    }
}

impl<A: Adc + ?Sized, S: Stimulus + ?Sized, R: RngCore> ExactSizeIterator
    for CodeStream<'_, A, S, R>
{
}

impl<A: Adc + ?Sized, S: Stimulus + ?Sized, R: RngCore> FusedIterator for CodeStream<'_, A, S, R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::acquire;
    use crate::signal::Ramp;
    use crate::transfer::TransferFunction;
    use crate::types::Resolution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn six_bit() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    #[test]
    fn stream_matches_materialized_capture() {
        let adc = six_bit();
        let ramp = Ramp::new(Volts(-0.1), 1.0);
        let sampling = SamplingConfig::new(1e3, 7000);
        let cap = acquire(&adc, &ramp, sampling);
        let streamed: Vec<Code> = CodeStream::noiseless(&adc, &ramp, sampling).collect();
        assert_eq!(cap.codes(), &streamed[..]);
    }

    #[test]
    fn noisy_stream_matches_noisy_capture_from_same_seed() {
        let adc = six_bit();
        let ramp = Ramp::new(Volts(0.0), 2.0);
        let sampling = SamplingConfig::new(1e4, 5000);
        let noise = NoiseConfig::noiseless()
            .with_transition_noise(0.01)
            .with_jitter(1e-6);
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let cap = CodeStream::noisy(&adc, &ramp, sampling, &noise, &mut rng_a).capture();
        let streamed: Vec<Code> =
            CodeStream::noisy(&adc, &ramp, sampling, &noise, &mut rng_b).collect();
        assert_eq!(cap.codes(), &streamed[..]);
    }

    #[test]
    fn stream_is_exact_size() {
        let adc = six_bit();
        let ramp = Ramp::new(Volts(0.0), 1.0);
        let mut s = CodeStream::noiseless(&adc, &ramp, SamplingConfig::new(1e3, 10));
        assert_eq!(s.len(), 10);
        s.next();
        s.next();
        assert_eq!(s.len(), 8);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn capture_view_keeps_sampling_metadata() {
        let adc = six_bit();
        let ramp = Ramp::new(Volts(0.0), 1.0);
        let sampling = SamplingConfig::new(250.0, 8);
        let cap = CodeStream::noiseless(&adc, &ramp, sampling).capture();
        assert_eq!(cap, Capture::from_parts(cap.codes().to_vec(), sampling));
        assert_eq!(cap.codes().len(), 8);
    }

    #[test]
    fn capture_after_partial_consumption_keeps_consistent_metadata() {
        let adc = six_bit();
        let ramp = Ramp::new(Volts(0.0), 1.0);
        let sampling = SamplingConfig::new(1e3, 10);
        let mut s = CodeStream::noiseless(&adc, &ramp, sampling);
        let head: Vec<Code> = s.by_ref().take(4).collect();
        let cap = s.capture();
        assert_eq!(cap.codes().len(), 6);
        let rest = SamplingConfig {
            start_time: sampling.sample_time(4),
            samples: 6,
            ..sampling
        };
        assert_eq!(cap, Capture::from_parts(cap.codes().to_vec(), rest));
        // codes()[i] still pairs with the rest's sample_time(i).
        let full = acquire(&adc, &ramp, sampling);
        assert_eq!(&full.codes()[..4], &head[..]);
        assert_eq!(&full.codes()[4..], cap.codes());
    }

    #[test]
    #[should_panic(expected = "must not draw")]
    fn null_rng_refuses_draws() {
        use rand::Rng;
        let mut r = NullRng;
        let _: u64 = r.gen_range(0u64..10);
    }
}
