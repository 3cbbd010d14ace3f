//! Test stimuli: ramps, sawtooths, sines, triangles and DC.
//!
//! The paper's static BIST drives the converter with a slow voltage ramp
//! whose slope `U` sets the voltage step between samples,
//! `Δs = U/f_sample` (Eq. 5). On-chip ramp generation is out of the
//! paper's scope (it cites DeWitt and Roberts for that), so the ramp here
//! is ideal-with-impairments: a configurable slope error reproduces the
//! paper's observation that the measured ramp was "slightly too steep"
//! (Δs ≈ 0.002 LSB smaller than intended), and a bow term models
//! generator non-linearity.

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

/// A constant (DC) level.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dc(pub Volts);

impl Stimulus for Dc {
    fn value(&self, _t: f64) -> Volts {
        self.0
    }
}

/// A single linear ramp `v(t) = start + slope·t`, with optional relative
/// slope error and quadratic bow.
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
    /// Peak bow (volts) applied as a parabola over `bow_span` seconds.
    bow: f64,
    bow_span: f64,
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
            bow: 0.0,
            bow_span: 1.0,
        }
    }

    /// Adds a relative slope error: the effective slope becomes
    /// `slope·(1 + err)`. The paper's measurement discrepancy corresponds
    /// to a small positive `err` (ramp slightly too steep).
    pub fn with_slope_error(mut self, err: f64) -> Self {
        self.slope_error_rel = err;
        self
    }

    /// Adds a parabolic bow: the deviation is zero at `t = 0` and
    /// `t = span`, peaking at `bow` volts in the middle — a simple model
    /// of ramp-generator non-linearity.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not positive.
    // bist-lint: allow(dead-pub) — deletion queued on ROADMAP item 4; its own tests go with it
    pub fn with_bow(mut self, bow: Volts, span: f64) -> Self {
        assert!(span > 0.0, "bow span must be positive");
        self.bow = bow.0;
        self.bow_span = span;
        self
    }

    /// The effective slope including the slope error, volts/second.
    pub fn effective_slope(&self) -> f64 {
        self.slope * (1.0 + self.slope_error_rel)
    }

    /// Time at which the ideal ramp crosses voltage `v`.
    // bist-lint: allow(dead-pub) — deletion queued on ROADMAP item 4; its own tests go with it
    pub fn time_of(&self, v: Volts) -> f64 {
        (v.0 - self.start.0) / self.effective_slope()
    }
}

impl Stimulus for Ramp {
    fn value(&self, t: f64) -> Volts {
        let x = t / self.bow_span;
        let bow = 4.0 * self.bow * x * (1.0 - x);
        Volts(self.start.0 + self.effective_slope() * t + bow)
    }
}

/// A periodic sawtooth sweeping `[low, high)` with period `period`.
#[derive(Debug, Clone, Copy, PartialEq)]
// bist-lint: allow(dead-pub) — deletion queued on ROADMAP item 4; its own tests go with it
pub struct Sawtooth {
    low: Volts,
    high: Volts,
    period: f64,
}

impl Sawtooth {
    /// Creates a sawtooth between `low` and `high` with the given period
    /// in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `period <= 0`.
    pub fn new(low: Volts, high: Volts, period: f64) -> Self {
        assert!(low.0 < high.0, "low must be below high");
        assert!(period > 0.0, "period must be positive");
        Sawtooth { low, high, period }
    }

    /// The sweep rate in volts per second.
    pub fn slope(&self) -> f64 {
        (self.high.0 - self.low.0) / self.period
    }
}

impl Stimulus for Sawtooth {
    fn value(&self, t: f64) -> Volts {
        let phase = (t / self.period).rem_euclid(1.0);
        Volts(self.low.0 + (self.high.0 - self.low.0) * phase)
    }
}

/// A symmetric triangle wave between `low` and `high`.
#[derive(Debug, Clone, Copy, PartialEq)]
// bist-lint: allow(dead-pub) — deletion queued on ROADMAP item 4; its own tests go with it
pub struct Triangle {
    low: Volts,
    high: Volts,
    period: f64,
}

impl Triangle {
    /// Creates a triangle wave with the given period in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `period <= 0`.
    pub fn new(low: Volts, high: Volts, period: f64) -> Self {
        assert!(low.0 < high.0, "low must be below high");
        assert!(period > 0.0, "period must be positive");
        Triangle { low, high, period }
    }
}

impl Stimulus for Triangle {
    fn value(&self, t: f64) -> Volts {
        let phase = (t / self.period).rem_euclid(1.0);
        let frac = if phase < 0.5 {
            2.0 * phase
        } else {
            2.0 * (1.0 - phase)
        };
        Volts(self.low.0 + (self.high.0 - self.low.0) * frac)
    }
}

/// A sine `offset + amplitude·sin(2πft + φ)` — the stimulus for dynamic
/// (THD/SINAD) tests and the sine-histogram baseline.
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

    /// A sine that exactly spans the range `[low, high]` (full-scale
    /// stimulus for histogram and FFT tests), centred mid-range.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `frequency <= 0`.
    pub fn full_scale(low: Volts, high: Volts, frequency: f64) -> Self {
        assert!(low.0 < high.0, "low must be below high");
        SineWave::new(
            (high.0 - low.0) / 2.0,
            frequency,
            0.0,
            Volts((low.0 + high.0) / 2.0),
        )
    }

    /// The amplitude in volts.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// The frequency in hertz.
    pub fn frequency(&self) -> f64 {
        self.frequency
    }

    /// The DC offset.
    pub fn offset(&self) -> Volts {
        self.offset
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
    fn dc_is_constant() {
        let s = Dc(Volts(1.2));
        assert_eq!(s.value(0.0), Volts(1.2));
        assert_eq!(s.value(1e9), Volts(1.2));
    }

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
    fn ramp_time_of_inverts_value() {
        let r = Ramp::new(Volts(0.5), 2.0).with_slope_error(-0.05);
        let t = r.time_of(Volts(3.0));
        assert!((r.value(t).0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ramp_bow_zero_at_ends_peak_mid() {
        let r = Ramp::new(Volts(0.0), 1.0).with_bow(Volts(0.1), 10.0);
        assert!((r.value(0.0).0 - 0.0).abs() < 1e-12);
        assert!((r.value(10.0).0 - 10.0).abs() < 1e-12);
        // At mid-span the bow adds its full 0.1 V.
        assert!((r.value(5.0).0 - 5.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "slope must be finite and non-zero")]
    fn ramp_zero_slope_panics() {
        Ramp::new(Volts(0.0), 0.0);
    }

    #[test]
    fn sawtooth_wraps() {
        let s = Sawtooth::new(Volts(0.0), Volts(1.0), 2.0);
        assert_eq!(s.value(0.0), Volts(0.0));
        assert_eq!(s.value(1.0), Volts(0.5));
        assert_eq!(s.value(2.0), Volts(0.0)); // wrapped
        assert!((s.slope() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn sawtooth_negative_time() {
        let s = Sawtooth::new(Volts(0.0), Volts(1.0), 1.0);
        // rem_euclid keeps the phase in [0, 1).
        assert!((s.value(-0.25).0 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn triangle_up_then_down() {
        let s = Triangle::new(Volts(0.0), Volts(2.0), 4.0);
        assert_eq!(s.value(0.0), Volts(0.0));
        assert_eq!(s.value(1.0), Volts(1.0));
        assert_eq!(s.value(2.0), Volts(2.0));
        assert_eq!(s.value(3.0), Volts(1.0));
        assert_eq!(s.value(4.0), Volts(0.0));
    }

    #[test]
    fn sine_hits_extremes() {
        let s = SineWave::new(1.0, 1.0, 0.0, Volts(0.5));
        assert!((s.value(0.25).0 - 1.5).abs() < 1e-12);
        assert!((s.value(0.75).0 + 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_scale_sine_spans_range() {
        let s = SineWave::full_scale(Volts(0.0), Volts(6.4), 10.0);
        assert!((s.amplitude() - 3.2).abs() < 1e-12);
        assert!((s.offset().0 - 3.2).abs() < 1e-12);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..1000 {
            let v = s.value(i as f64 * 1e-4).0;
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!((-1e-9..0.05).contains(&lo));
        assert!(hi <= 6.4 + 1e-9 && hi > 6.35);
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
