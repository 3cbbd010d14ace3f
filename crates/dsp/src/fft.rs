#![allow(clippy::needless_range_loop)] // index loops mirror the DFT definition
//! Iterative radix-2 fast Fourier transform.
//!
//! Implements the decimation-in-time Cooley–Tukey algorithm for
//! power-of-two lengths. The transform computes
//! `X[k] = Σ x[n]·e^{-2πi·kn/N}` (no normalisation).

use crate::complex::Complex64;
use std::error::Error;
use std::fmt;

/// Error returned when an FFT is requested for an unsupported length.
///
/// The radix-2 algorithm requires a power-of-two number of points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftLengthError {
    len: usize,
}

impl fmt::Display for FftLengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fft length {} is not a power of two greater than zero",
            self.len
        )
    }
}

impl Error for FftLengthError {}

/// Returns `true` when `n` is a power of two (and non-zero).
///
/// # Examples
///
/// ```
/// assert!(bist_dsp::fft::is_power_of_two(1024));
/// assert!(!bist_dsp::fft::is_power_of_two(1000));
/// ```
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Permutes `data` into bit-reversed order in place.
fn bit_reverse_permute(data: &mut [Complex64]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            data.swap(i, j);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
}

/// Core butterfly pass of the forward transform.
fn transform_in_place(data: &mut [Complex64]) {
    let n = data.len();
    bit_reverse_permute(data);
    let mut len = 2;
    while len <= n {
        let ang = -std::f64::consts::TAU / len as f64;
        let wlen = Complex64::cis(ang);
        let half = len / 2;
        let mut start = 0;
        while start < n {
            let mut w = Complex64::ONE;
            for k in 0..half {
                let even = data[start + k];
                let odd = data[start + k + half] * w;
                data[start + k] = even + odd;
                data[start + k + half] = even - odd;
                w *= wlen;
            }
            start += len;
        }
        len <<= 1;
    }
}

/// Computes the forward FFT of `data` in place.
///
/// # Errors
///
/// Returns [`FftLengthError`] if `data.len()` is not a power of two.
///
/// # Examples
///
/// ```
/// use bist_dsp::complex::Complex64;
/// use bist_dsp::fft::fft_in_place;
///
/// # fn main() -> Result<(), bist_dsp::fft::FftLengthError> {
/// let mut x = vec![Complex64::ONE; 4];
/// fft_in_place(&mut x)?;
/// // A constant signal concentrates in bin 0.
/// assert!((x[0].re - 4.0).abs() < 1e-12);
/// assert!(x[1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fft_in_place(data: &mut [Complex64]) -> Result<(), FftLengthError> {
    if !is_power_of_two(data.len()) {
        return Err(FftLengthError { len: data.len() });
    }
    transform_in_place(data);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full complex spectrum of a real-valued signal.
    fn real_spectrum(signal: &[f64]) -> Vec<Complex64> {
        let mut data: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_re(x)).collect();
        fft_in_place(&mut data).unwrap();
        data
    }

    fn assert_close(a: Complex64, b: Complex64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut data = vec![Complex64::ZERO; 12];
        let err = fft_in_place(&mut data).unwrap_err();
        assert_eq!(err.len, 12);
        assert!(err.to_string().contains("12"));
    }

    #[test]
    fn rejects_empty() {
        let mut data: Vec<Complex64> = vec![];
        assert!(fft_in_place(&mut data).is_err());
    }

    #[test]
    fn single_point_is_identity() {
        let mut data = vec![Complex64::new(2.0, -1.0)];
        fft_in_place(&mut data).unwrap();
        assert_eq!(data[0], Complex64::new(2.0, -1.0));
    }

    #[test]
    fn impulse_becomes_flat_spectrum() {
        let mut data = vec![Complex64::ZERO; 8];
        data[0] = Complex64::ONE;
        fft_in_place(&mut data).unwrap();
        for bin in &data {
            assert_close(*bin, Complex64::ONE, 1e-12);
        }
    }

    #[test]
    fn dc_concentrates_in_bin_zero() {
        let mut data = vec![Complex64::from_re(3.0); 16];
        fft_in_place(&mut data).unwrap();
        assert_close(data[0], Complex64::from_re(48.0), 1e-9);
        for bin in &data[1..] {
            assert!(bin.abs() < 1e-9);
        }
    }

    #[test]
    fn matches_naive_dft() {
        let n = 32;
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut fast = signal.clone();
        fft_in_place(&mut fast).unwrap();
        for k in 0..n {
            let slow: Complex64 = (0..n)
                .map(|t| {
                    signal[t] * Complex64::cis(-std::f64::consts::TAU * (k * t) as f64 / n as f64)
                })
                .sum();
            assert_close(fast[k], slow, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 256;
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.1).sin(), 0.0))
            .collect();
        let time_energy: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
        let mut data = signal;
        fft_in_place(&mut data).unwrap();
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn coherent_tone_lands_in_one_bin() {
        let n = 512;
        let cycles = 17.0;
        let amp = 0.8;
        let tone: Vec<f64> = (0..n)
            .map(|i| amp * (std::f64::consts::TAU * cycles * i as f64 / n as f64).sin())
            .collect();
        // One-sided amplitudes |X[k]|·2/N: a coherent tone shows its
        // amplitude in its bin.
        let mags: Vec<f64> = real_spectrum(&tone)[..=n / 2]
            .iter()
            .map(|x| x.abs() * 2.0 / n as f64)
            .collect();
        assert!((mags[17] - amp).abs() < 1e-9);
        let leakage: f64 = mags
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != 17)
            .map(|(_, &m)| m)
            .sum();
        assert!(leakage < 1e-6, "leakage {leakage}");
    }

    #[test]
    fn linearity_of_transform() {
        let n = 64;
        let a: Vec<Complex64> = (0..n)
            .map(|i| Complex64::from_re((i as f64).cos()))
            .collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::from_re((i as f64).sin()))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();

        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        fft_in_place(&mut fa).unwrap();
        fft_in_place(&mut fb).unwrap();
        fft_in_place(&mut fs).unwrap();
        for k in 0..n {
            assert_close(fs[k], fa[k] + fb[k], 1e-9);
        }
    }

    #[test]
    fn real_signal_spectrum_is_conjugate_symmetric() {
        let n = 64;
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin() + 0.2).collect();
        let spec = real_spectrum(&signal);
        for k in 1..n / 2 {
            assert_close(spec[k], spec[n - k].conj(), 1e-9);
        }
    }
}
