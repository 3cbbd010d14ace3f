#![allow(clippy::needless_range_loop)] // index loops mirror the maths/netlists
//! Code-density (histogram) tests — the conventional production test the
//! paper's BIST is benchmarked against.
//!
//! §4: *"The quality of the conventional test, where 4096 samples are
//! taken for the test of all the codes, can be compared to the BIST with
//! a 7-bit counter."* The ramp histogram here is that conventional test.

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
    /// The capture had no inner-code samples at all.
    NoInnerSamples,
}

impl fmt::Display for HistogramTestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SamplingConfig;
    use crate::signal::Ramp;
    use crate::stream::CodeStream;
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
        let codes = CodeStream::noiseless(&adc, &ramp, SamplingConfig::new(1e4, 65_000));
        let h = CodeHistogram::from_codes(Resolution::SIX_BIT, codes);
        let lin = ramp_linearity(&h).unwrap();
        assert!(lin.peak_dnl().0 < 0.01, "peak dnl {}", lin.peak_dnl().0);
        assert!((lin.samples_per_code - 1000.0).abs() < 30.0);
    }

    #[test]
    fn ramp_histogram_detects_skewed_widths() {
        let adc = skewed();
        let ramp = Ramp::new(Volts(-0.05), 1.0);
        let codes = CodeStream::noiseless(&adc, &ramp, SamplingConfig::new(1e4, 65_000));
        let h = CodeHistogram::from_codes(Resolution::SIX_BIT, codes);
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
        let codes = CodeStream::noiseless(&adc, &ramp, SamplingConfig::new(1e4, 65_000));
        let h = CodeHistogram::from_codes(Resolution::SIX_BIT, codes);
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
        assert!(HistogramTestError::NoInnerSamples
            .to_string()
            .contains("no inner"));
    }
}
