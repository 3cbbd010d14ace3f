#![allow(clippy::needless_range_loop)] // index loops mirror the maths/netlists
//! Code-density (histogram) tests — the conventional production test the
//! paper's BIST is benchmarked against.
//!
//! §4: *"The quality of the conventional test, where 4096 samples are
//! taken for the test of all the codes, can be compared to the BIST with
//! a 7-bit counter."* The ramp histogram here is that conventional test;
//! the sine histogram (Doernberg) is included as the other standard
//! flavour.

use crate::sampler::Capture;
use crate::types::{Code, Lsb, Resolution};
use std::error::Error;
use std::fmt;

/// Per-code occurrence counts for an `n`-bit capture.
///
/// # Examples
///
/// ```
/// use bist_adc::histogram::CodeHistogram;
/// use bist_adc::types::{Code, Resolution};
///
/// let mut h = CodeHistogram::new(Resolution::SIX_BIT);
/// h.record(Code(3));
/// h.record(Code(3));
/// assert_eq!(h.count(Code(3)), 2);
/// assert_eq!(h.total(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeHistogram {
    resolution: Resolution,
    counts: Vec<u64>,
}

impl CodeHistogram {
    /// Creates an empty histogram for the given resolution.
    pub fn new(resolution: Resolution) -> Self {
        CodeHistogram {
            resolution,
            counts: vec![0; resolution.code_count() as usize],
        }
    }

    /// Builds a histogram by draining a code stream — the single-pass
    /// accumulation used by the streaming harnesses (no capture is
    /// materialised).
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds the resolution's maximum code.
    pub fn from_codes<I: IntoIterator<Item = Code>>(resolution: Resolution, codes: I) -> Self {
        let mut h = CodeHistogram::new(resolution);
        for c in codes {
            h.record(c);
        }
        h
    }

    /// Builds a histogram from a materialised capture.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds the resolution's maximum code.
    pub fn from_capture(resolution: Resolution, capture: &Capture) -> Self {
        CodeHistogram::from_codes(resolution, capture.codes().iter().copied())
    }

    /// Records one code occurrence.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds the maximum code.
    pub fn record(&mut self, code: Code) {
        assert!(
            code.0 <= self.resolution.max_code().0,
            "code {code} exceeds {}",
            self.resolution.max_code()
        );
        self.counts[code.0 as usize] += 1;
    }

    /// The resolution this histogram was built for.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Occurrences of `code`.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds the maximum code.
    pub fn count(&self, code: Code) -> u64 {
        self.counts[code.0 as usize]
    }

    /// All counts, indexed by code.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total samples on inner codes only.
    pub fn inner_total(&self) -> u64 {
        let n = self.counts.len();
        if n <= 2 {
            0
        } else {
            self.counts[1..n - 1].iter().sum()
        }
    }
}

/// Error from a histogram linearity estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HistogramTestError {
    /// An inner code received no hits, so DNL is undefined (the stimulus
    /// did not cover the range or too few samples were taken). Carries
    /// the first empty code.
    EmptyInnerCode(Code),
    /// The capture had no inner-code samples at all.
    NoInnerSamples,
}

impl fmt::Display for HistogramTestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramTestError::EmptyInnerCode(c) => {
                write!(f, "inner code {c} received no samples")
            }
            HistogramTestError::NoInnerSamples => {
                f.write_str("capture contains no inner-code samples")
            }
        }
    }
}

impl Error for HistogramTestError {}

/// Result of a histogram linearity test.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramLinearity {
    /// DNL per inner code, in LSB.
    pub dnl: Vec<Lsb>,
    /// INL per inner-code boundary (accumulated DNL), in LSB.
    pub inl: Vec<Lsb>,
    /// Average samples per inner code — the measurement resolution
    /// driver (more samples → finer width quantisation).
    pub samples_per_code: f64,
}

impl HistogramLinearity {
    /// Worst-case |DNL| in LSB.
    pub fn peak_dnl(&self) -> Lsb {
        Lsb(self.dnl.iter().map(|d| d.0.abs()).fold(0.0, f64::max))
    }

    /// Worst-case |INL| in LSB.
    pub fn peak_inl(&self) -> Lsb {
        Lsb(self.inl.iter().map(|d| d.0.abs()).fold(0.0, f64::max))
    }
}

/// Ramp (uniform-density) histogram linearity estimate.
///
/// With a linear ramp every code ideally collects the same number of
/// samples; `DNL[k] = count[k]/mean_count − 1`. End codes are excluded
/// (their width is unbounded). Missing codes (zero hits) are reported as
/// DNL −1 rather than an error, matching production practice, as long as
/// at least one of their neighbours was hit; a fully empty histogram is
/// an error.
///
/// # Errors
///
/// Returns [`HistogramTestError::NoInnerSamples`] when no inner code was
/// hit at all.
pub fn ramp_linearity(hist: &CodeHistogram) -> Result<HistogramLinearity, HistogramTestError> {
    let inner_total = hist.inner_total();
    if inner_total == 0 {
        return Err(HistogramTestError::NoInnerSamples);
    }
    let n = hist.counts().len();
    let inner = &hist.counts()[1..n - 1];
    let mean = inner_total as f64 / inner.len() as f64;
    let dnl: Vec<Lsb> = inner.iter().map(|&c| Lsb(c as f64 / mean - 1.0)).collect();
    let inl = crate::metrics::inl_from_dnl(&dnl);
    Ok(HistogramLinearity {
        dnl,
        inl,
        samples_per_code: mean,
    })
}

/// Sine (arcsine-density) histogram linearity estimate, after Doernberg.
///
/// The expected density under a full-scale sine of amplitude `A` and
/// offset `O` is arcsine-shaped; each code's expected probability is
/// `p[k] = (asin(u[k+1]) − asin(u[k]))/π` with
/// `u = (edge − O)/A`. The stimulus amplitude/offset are estimated from
/// the end-code counts, then `DNL[k] = count[k]/(total·p[k]) − 1`.
///
/// # Errors
///
/// Returns [`HistogramTestError::NoInnerSamples`] for an empty inner
/// histogram or [`HistogramTestError::EmptyInnerCode`] if the estimated
/// stimulus leaves an inner code with zero expected probability.
// bist-lint: allow(dead-pub) — deletion queued on ROADMAP item 4; its own tests go with it
pub fn sine_linearity(
    hist: &CodeHistogram,
    full_scale_low: f64,
    full_scale_high: f64,
) -> Result<HistogramLinearity, HistogramTestError> {
    let counts = hist.counts();
    let n = counts.len();
    let total: u64 = hist.total();
    if hist.inner_total() == 0 {
        return Err(HistogramTestError::NoInnerSamples);
    }
    let q = (full_scale_high - full_scale_low) / n as f64;

    // Estimate amplitude and offset from the cumulative end-code
    // probabilities (Doernberg's method): the fraction of samples at or
    // below code 0 pins where the sine spends time below T[1].
    let p_low = counts[0] as f64 / total as f64;
    let p_high = counts[n - 1] as f64 / total as f64;
    let t1 = full_scale_low + q; // first transition
    let t_last = full_scale_high - q; // last transition
    let c_low = (std::f64::consts::PI * p_low).cos();
    let c_high = (std::f64::consts::PI * p_high).cos();
    // t1 = O - A·c_low ; t_last = O + A·c_high
    let amplitude = (t_last - t1) / (c_low + c_high);
    let offset = t1 + amplitude * c_low;

    let edge = |k: usize| full_scale_low + (k as f64 + 1.0) * q;
    let asin_clamped = |x: f64| x.clamp(-1.0, 1.0).asin();
    let mut dnl = Vec::with_capacity(n - 2);
    for k in 1..n - 1 {
        let u_lo = (edge(k - 1) - offset) / amplitude;
        let u_hi = (edge(k) - offset) / amplitude;
        let p = (asin_clamped(u_hi) - asin_clamped(u_lo)) / std::f64::consts::PI;
        if p <= 0.0 {
            return Err(HistogramTestError::EmptyInnerCode(Code(k as u32)));
        }
        dnl.push(Lsb(counts[k] as f64 / (total as f64 * p) - 1.0));
    }
    let inl = crate::metrics::inl_from_dnl(&dnl);
    let samples_per_code = hist.inner_total() as f64 / (n - 2) as f64;
    Ok(HistogramLinearity {
        dnl,
        inl,
        samples_per_code,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{acquire, SamplingConfig};
    use crate::signal::{Ramp, SineWave};
    use crate::transfer::TransferFunction;
    use crate::types::{Resolution, Volts};

    fn ideal() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    fn skewed() -> TransferFunction {
        // Code 10 is 1.5 LSB wide, code 11 is 0.5 LSB wide.
        let mut t: Vec<f64> = (1..=63).map(|k| k as f64 * 0.1).collect();
        t[10] += 0.05; // T[11] moves up: widens code 10, narrows code 11
        TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t)
    }

    #[test]
    fn histogram_records_and_counts() {
        let mut h = CodeHistogram::new(Resolution::SIX_BIT);
        h.record(Code(0));
        h.record(Code(63));
        h.record(Code(5));
        assert_eq!(h.total(), 3);
        assert_eq!(h.inner_total(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn histogram_rejects_oversized_code() {
        let mut h = CodeHistogram::new(Resolution::SIX_BIT);
        h.record(Code(64));
    }

    #[test]
    fn ramp_histogram_ideal_dnl_near_zero() {
        let adc = ideal();
        // 1000 samples/code on average.
        let ramp = Ramp::new(Volts(-0.05), 1.0);
        let cap = acquire(&adc, &ramp, SamplingConfig::new(1e4, 65_000));
        let h = CodeHistogram::from_capture(Resolution::SIX_BIT, &cap);
        let lin = ramp_linearity(&h).unwrap();
        assert!(lin.peak_dnl().0 < 0.01, "peak dnl {}", lin.peak_dnl().0);
        assert!((lin.samples_per_code - 1000.0).abs() < 30.0);
    }

    #[test]
    fn ramp_histogram_detects_skewed_widths() {
        let adc = skewed();
        let ramp = Ramp::new(Volts(-0.05), 1.0);
        let cap = acquire(&adc, &ramp, SamplingConfig::new(1e4, 65_000));
        let h = CodeHistogram::from_capture(Resolution::SIX_BIT, &cap);
        let lin = ramp_linearity(&h).unwrap();
        // Inner-code index 9 == code 10.
        assert!(
            (lin.dnl[9].0 - 0.5).abs() < 0.05,
            "dnl[10] {}",
            lin.dnl[9].0
        );
        assert!(
            (lin.dnl[10].0 + 0.5).abs() < 0.05,
            "dnl[11] {}",
            lin.dnl[10].0
        );
        // INL returns to ~0 after the compensating pair.
        assert!(lin.inl[11].0.abs() < 0.05);
    }

    #[test]
    fn ramp_histogram_missing_code_is_minus_one() {
        let mut t: Vec<f64> = (1..=63).map(|k| k as f64 * 0.1).collect();
        t[10] = t[9]; // code 10 has zero width
        let adc =
            TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t);
        let ramp = Ramp::new(Volts(-0.05), 1.0);
        let cap = acquire(&adc, &ramp, SamplingConfig::new(1e4, 65_000));
        let h = CodeHistogram::from_capture(Resolution::SIX_BIT, &cap);
        let lin = ramp_linearity(&h).unwrap();
        assert!((lin.dnl[9].0 + 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_is_error() {
        let h = CodeHistogram::new(Resolution::SIX_BIT);
        assert_eq!(
            ramp_linearity(&h).unwrap_err(),
            HistogramTestError::NoInnerSamples
        );
    }

    #[test]
    fn sine_histogram_ideal_dnl_near_zero() {
        let adc = ideal();
        // Slight over-range sine, non-coherent frequency, many samples.
        let sine = SineWave::new(3.3, 101.0 / 65536.0 * 1e4, 0.1, Volts(3.2));
        let cap = acquire(&adc, &sine, SamplingConfig::new(1e4, 262_144));
        let h = CodeHistogram::from_capture(Resolution::SIX_BIT, &cap);
        let lin = sine_linearity(&h, 0.0, 6.4).unwrap();
        assert!(lin.peak_dnl().0 < 0.08, "peak dnl {}", lin.peak_dnl().0);
    }

    #[test]
    fn sine_histogram_detects_wide_code() {
        let adc = skewed();
        let sine = SineWave::new(3.3, 101.0 / 65536.0 * 1e4, 0.1, Volts(3.2));
        let cap = acquire(&adc, &sine, SamplingConfig::new(1e4, 262_144));
        let h = CodeHistogram::from_capture(Resolution::SIX_BIT, &cap);
        let lin = sine_linearity(&h, 0.0, 6.4).unwrap();
        assert!((lin.dnl[9].0 - 0.5).abs() < 0.1, "dnl[10] {}", lin.dnl[9].0);
    }

    #[test]
    fn sine_histogram_empty_is_error() {
        let h = CodeHistogram::new(Resolution::SIX_BIT);
        assert!(sine_linearity(&h, 0.0, 6.4).is_err());
    }

    #[test]
    fn histogram_linearity_peaks() {
        let lin = HistogramLinearity {
            dnl: vec![Lsb(0.2), Lsb(-0.6)],
            inl: vec![Lsb(0.2), Lsb(-0.4)],
            samples_per_code: 10.0,
        };
        assert_eq!(lin.peak_dnl().0, 0.6);
        assert_eq!(lin.peak_inl().0, 0.4);
    }

    #[test]
    fn error_display() {
        assert!(HistogramTestError::EmptyInnerCode(Code(3))
            .to_string()
            .contains("3"));
        assert!(HistogramTestError::NoInnerSamples
            .to_string()
            .contains("no inner"));
    }
}
