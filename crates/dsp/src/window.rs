//! Window functions for spectral analysis of non-coherently sampled
//! signals.
//!
//! Dynamic ADC tests (THD, SINAD — see §2 of the paper and Mahoney's
//! DSP-based testing book it references) require windowing whenever the
//! stimulus is not exactly coherent with the sample clock. Each window
//! exposes its *coherent gain* (DC gain) and *equivalent noise bandwidth*
//! (ENBW) so spectral power estimates can be corrected.

use std::f64::consts::TAU;
use std::fmt;

/// Supported window shapes.
///
/// # Examples
///
/// ```
/// use bist_dsp::window::Window;
///
/// assert!(Window::Hann.value(0, 8) < 1e-12); // Hann is zero at the edges
/// assert!((Window::Hann.value(4, 8) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Window {
    /// No weighting (all ones). Best for coherent sampling.
    #[default]
    Rectangular,
    /// Hann (raised cosine); −31.5 dB first sidelobe.
    Hann,
    /// Hamming; −42.7 dB first sidelobe, non-zero edges.
    Hamming,
    /// Blackman (3-term); −58 dB first sidelobe.
    Blackman,
    /// Blackman–Harris 4-term; −92 dB sidelobes, the usual choice for
    /// ADC spectral testing.
    BlackmanHarris,
    /// Flat-top (5-term); very low scalloping loss, used for accurate
    /// amplitude measurement.
    FlatTop,
}

impl Window {
    /// All window variants, for sweeps and tests.
    pub const ALL: [Window; 6] = [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::Blackman,
        Window::BlackmanHarris,
        Window::FlatTop,
    ];

    /// Cosine-series coefficients `a₀ − a₁cos + a₂cos − …` for this
    /// window.
    fn terms(self) -> &'static [f64] {
        match self {
            Window::Rectangular => &[1.0],
            Window::Hann => &[0.5, 0.5],
            Window::Hamming => &[0.54, 0.46],
            Window::Blackman => &[0.42, 0.5, 0.08],
            Window::BlackmanHarris => &[0.35875, 0.48829, 0.14128, 0.01168],
            Window::FlatTop => &[
                0.21557895,
                0.41663158,
                0.277263158,
                0.083578947,
                0.006947368,
            ],
        }
    }

    /// Evaluates the window at sample `i` of `n` (periodic form, suitable
    /// for FFT analysis).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `i >= n`.
    pub fn value(self, i: usize, n: usize) -> f64 {
        assert!(n > 0, "window length must be non-zero");
        assert!(i < n, "sample index {i} out of range for window length {n}");
        let x = TAU * i as f64 / n as f64;
        self.terms()
            .iter()
            .enumerate()
            .map(|(k, &a)| {
                if k % 2 == 0 {
                    a * (k as f64 * x).cos()
                } else {
                    -a * (k as f64 * x).cos()
                }
            })
            .sum()
    }

    /// The coherent gain: mean of the window coefficients. Amplitude
    /// estimates must be divided by this.
    pub fn coherent_gain(self) -> f64 {
        // For the cosine-series form the mean over a period is a₀.
        self.terms()[0]
    }

    /// Number of bins on each side of a tone that carry significant
    /// window leakage; used when excluding a carrier from noise power.
    pub fn leakage_bins(self) -> usize {
        match self {
            Window::Rectangular => 0,
            Window::Hann | Window::Hamming => 1,
            Window::Blackman => 2,
            Window::BlackmanHarris => 3,
            Window::FlatTop => 4,
        }
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Window::Rectangular => "rectangular",
            Window::Hann => "hann",
            Window::Hamming => "hamming",
            Window::Blackman => "blackman",
            Window::BlackmanHarris => "blackman-harris",
            Window::FlatTop => "flat-top",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `n`-point window.
    fn window_values(win: Window, n: usize) -> Vec<f64> {
        (0..n).map(|i| win.value(i, n)).collect()
    }

    #[test]
    fn rectangular_is_all_ones() {
        assert!(window_values(Window::Rectangular, 16)
            .iter()
            .all(|&w| (w - 1.0).abs() < 1e-15));
    }

    #[test]
    fn hann_zero_at_edges_unity_at_centre() {
        let w = window_values(Window::Hann, 64);
        assert!(w[0].abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_bounded() {
        for win in Window::ALL {
            for &w in &window_values(win, 128) {
                assert!(
                    (-0.1..=1.100001).contains(&w),
                    "{win} coefficient {w} out of expected range"
                );
            }
        }
    }

    #[test]
    fn windows_are_symmetric_periodically() {
        // Periodic windows satisfy w[i] == w[n-i] for i >= 1.
        for win in Window::ALL {
            let w = window_values(win, 64);
            for i in 1..64 {
                assert!((w[i] - w[64 - i]).abs() < 1e-12, "{win} asymmetric at {i}");
            }
        }
    }

    #[test]
    fn coherent_gain_matches_mean() {
        for win in Window::ALL {
            let w = window_values(win, 4096);
            let mean = w.iter().sum::<f64>() / w.len() as f64;
            assert!(
                (mean - win.coherent_gain()).abs() < 1e-6,
                "{win}: mean {mean} vs gain {}",
                win.coherent_gain()
            );
        }
    }

    /// Equivalent noise bandwidth in bins from the cosine-series terms:
    /// `N·Σw² / (Σw)²` in the limit of long windows.
    fn series_enbw(win: Window) -> f64 {
        let t = win.terms();
        let sum_sq: f64 = t[0] * t[0] + t[1..].iter().map(|&a| a * a / 2.0).sum::<f64>();
        sum_sq / (t[0] * t[0])
    }

    #[test]
    fn enbw_matches_direct_computation() {
        for win in Window::ALL {
            let w = window_values(win, 4096);
            let n = w.len() as f64;
            let sum: f64 = w.iter().sum();
            let sum_sq: f64 = w.iter().map(|x| x * x).sum();
            let direct = n * sum_sq / (sum * sum);
            assert!(
                (direct - series_enbw(win)).abs() < 1e-3,
                "{win}: direct {direct} vs formula {}",
                series_enbw(win)
            );
        }
    }

    #[test]
    fn known_enbw_values() {
        assert!((series_enbw(Window::Rectangular) - 1.0).abs() < 1e-12);
        assert!((series_enbw(Window::Hann) - 1.5).abs() < 1e-12);
        // Blackman-Harris 4-term ENBW ≈ 2.0044
        assert!((series_enbw(Window::BlackmanHarris) - 2.0044).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "window length must be non-zero")]
    fn zero_length_panics() {
        Window::Hann.value(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        Window::Hann.value(8, 8);
    }

    #[test]
    fn display_names() {
        assert_eq!(Window::FlatTop.to_string(), "flat-top");
        assert_eq!(Window::default(), Window::Rectangular);
    }
}
