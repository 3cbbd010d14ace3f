//! Test stimuli: a linear ramp and a sine.
//!
//! The paper's static BIST drives the converter with a slow voltage ramp
//! whose slope `U` sets the voltage step between samples,
//! `Δs = U/f_sample` (Eq. 5). On-chip ramp generation is out of the
//! paper's scope (it cites DeWitt and Roberts for that), so the ramp here
//! is ideal apart from a configurable slope error, which reproduces the
//! paper's observation that the measured ramp was "slightly too steep"
//! (Δs ≈ 0.002 LSB smaller than intended).

use crate::types::Volts;
use std::f64::consts::TAU;
use std::fmt;

/// A deterministic voltage stimulus evaluated at absolute time `t`
/// (seconds). Noise is added by the acquisition layer, not here, so
/// stimuli stay pure.
pub trait Stimulus {
    /// The stimulus voltage at time `t`.
    fn value(&self, t: f64) -> Volts;
}

impl<S: Stimulus + ?Sized> Stimulus for &S {
    fn value(&self, t: f64) -> Volts {
        (**self).value(t)
    }
}

/// A single linear ramp `v(t) = start + slope·t`, with an optional
/// relative slope error.
///
/// # Examples
///
/// ```
/// use bist_adc::signal::{Ramp, Stimulus};
/// use bist_adc::types::Volts;
///
/// let ramp = Ramp::new(Volts(0.0), 2.0); // 2 V/s
/// assert_eq!(ramp.value(1.5), Volts(3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ramp {
    start: Volts,
    slope: f64,
    slope_error_rel: f64,
}

impl Ramp {
    /// Creates an ideal ramp starting at `start` with `slope` volts per
    /// second.
    ///
    /// # Panics
    ///
    /// Panics if `slope` is not finite or is zero.
    pub fn new(start: Volts, slope: f64) -> Self {
        assert!(
            slope.is_finite() && slope != 0.0,
            "slope must be finite and non-zero"
        );
        Ramp {
            start,
            slope,
            slope_error_rel: 0.0,
        }
    }

    /// Adds a relative slope error: the effective slope becomes
    /// `slope·(1 + err)`. The paper's measurement discrepancy corresponds
    /// to a small positive `err` (ramp slightly too steep).
    pub fn with_slope_error(mut self, err: f64) -> Self {
        self.slope_error_rel = err;
        self
    }

    /// The effective slope including the slope error, volts/second.
    pub fn effective_slope(&self) -> f64 {
        self.slope * (1.0 + self.slope_error_rel)
    }
}

impl Stimulus for Ramp {
    fn value(&self, t: f64) -> Volts {
        Volts(self.start.0 + self.effective_slope() * t)
    }
}

/// A sine `offset + amplitude·sin(2πft + φ)` — the stimulus for dynamic
/// (THD/SINAD) tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SineWave {
    amplitude: f64,
    frequency: f64,
    phase: f64,
    offset: Volts,
}

impl SineWave {
    /// Creates a sine with amplitude (volts), frequency (Hz), phase
    /// (radians) and offset.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude < 0` or `frequency <= 0`.
    pub fn new(amplitude: f64, frequency: f64, phase: f64, offset: Volts) -> Self {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        assert!(frequency > 0.0, "frequency must be positive");
        SineWave {
            amplitude,
            frequency,
            phase,
            offset,
        }
    }

    /// Chooses a coherent frequency for `n` samples at rate `fs` with
    /// `cycles` full periods in the record (`cycles` should be odd and
    /// coprime with `n` for best code coverage).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `fs <= 0`.
    pub fn coherent_frequency(cycles: u32, n: usize, fs: f64) -> f64 {
        assert!(n > 0, "record length must be non-zero");
        assert!(fs > 0.0, "sample rate must be positive");
        cycles as f64 * fs / n as f64
    }
}

impl Stimulus for SineWave {
    fn value(&self, t: f64) -> Volts {
        Volts(self.offset.0 + self.amplitude * (TAU * self.frequency * t + self.phase).sin())
    }
}

impl fmt::Display for SineWave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sine {} Vpk @ {} Hz offset {}",
            self.amplitude, self.frequency, self.offset
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_is_linear() {
        let r = Ramp::new(Volts(-1.0), 0.5);
        assert_eq!(r.value(0.0), Volts(-1.0));
        assert_eq!(r.value(2.0), Volts(0.0));
        assert_eq!(r.value(4.0), Volts(1.0));
    }

    #[test]
    fn ramp_slope_error_scales_slope() {
        let r = Ramp::new(Volts(0.0), 1.0).with_slope_error(0.1);
        assert!((r.effective_slope() - 1.1).abs() < 1e-15);
        assert!((r.value(1.0).0 - 1.1).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "slope must be finite and non-zero")]
    fn ramp_zero_slope_panics() {
        Ramp::new(Volts(0.0), 0.0);
    }

    #[test]
    fn sine_hits_extremes() {
        let s = SineWave::new(1.0, 1.0, 0.0, Volts(0.5));
        assert!((s.value(0.25).0 - 1.5).abs() < 1e-12);
        assert!((s.value(0.75).0 + 0.5).abs() < 1e-12);
    }

    #[test]
    fn coherent_frequency_gives_integer_cycles() {
        let fs = 1e6;
        let n = 4096;
        let f = SineWave::coherent_frequency(1021, n, fs);
        let cycles = f * n as f64 / fs;
        assert!((cycles - 1021.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "amplitude must be non-negative")]
    fn sine_negative_amplitude_panics() {
        SineWave::new(-1.0, 1.0, 0.0, Volts(0.0));
    }

    #[test]
    fn stimulus_by_reference() {
        fn takes_stim<S: Stimulus>(s: S) -> Volts {
            s.value(0.0)
        }
        let r = Ramp::new(Volts(1.0), 1.0);
        assert_eq!(takes_stim(r), Volts(1.0));
    }
}
