#![allow(clippy::needless_range_loop)] // index loops mirror the maths/netlists
//! IEEE-Std-1057 sine-wave fitting for dynamic ADC tests.
//!
//! The three-parameter fit recovers amplitude/phase/offset at a known
//! frequency; the four-parameter fit also refines the frequency by
//! Gauss–Newton iteration. The residual of the fit is the
//! noise-plus-distortion record from which SINAD/ENOB can be computed
//! without coherent sampling — the standard alternative to the FFT test.

use std::error::Error;
use std::fmt;

/// A fitted sine `A·cos(ωt) + B·sin(ωt) + C`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SineFit {
    /// Cosine coefficient.
    pub a: f64,
    /// Sine coefficient.
    pub b: f64,
    /// DC offset.
    pub c: f64,
    /// Angular frequency in radians per sample.
    pub omega: f64,
    /// Root-mean-square residual of the fit.
    pub rms_residual: f64,
}

impl SineFit {
    /// The amplitude `√(A²+B²)`.
    pub fn amplitude(&self) -> f64 {
        self.a.hypot(self.b)
    }

    /// The phase in radians such that the fit equals
    /// `amplitude·cos(ωt + φ) + C`.
    pub fn phase(&self) -> f64 {
        (-self.b).atan2(self.a)
    }

    /// Effective number of bits from the fit residual, given the
    /// full-scale range of the converter.
    ///
    /// `ENOB = n` when the residual equals ideal quantisation noise
    /// `q/√12` of an `n`-bit converter with full scale `full_scale`.
    ///
    /// # Panics
    ///
    /// Panics if `full_scale <= 0`.
    pub fn enob(&self, full_scale: f64) -> f64 {
        assert!(full_scale > 0.0, "full scale must be positive");
        if self.rms_residual <= 0.0 {
            return f64::INFINITY;
        }
        (full_scale / (self.rms_residual * 12f64.sqrt())).log2()
    }
}

impl fmt::Display for SineFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "amp {:.5} phase {:.4} rad offset {:.5} omega {:.6} rms-res {:.3e}",
            self.amplitude(),
            self.phase(),
            self.c,
            self.omega,
            self.rms_residual
        )
    }
}

/// Error returned when a sine fit cannot be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FitSineError {
    /// Fewer samples than model parameters.
    TooFewSamples {
        /// Samples provided.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// The normal-equation matrix was singular (e.g. ω = 0 aliasing).
    Singular,
    /// The four-parameter iteration failed to converge.
    NoConvergence,
}

impl fmt::Display for FitSineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitSineError::TooFewSamples { have, need } => {
                write!(f, "sine fit needs at least {need} samples, got {have}")
            }
            FitSineError::Singular => f.write_str("sine fit normal equations are singular"),
            FitSineError::NoConvergence => f.write_str("four-parameter sine fit did not converge"),
        }
    }
}

impl Error for FitSineError {}

/// Solves a small dense symmetric positive system by Gaussian elimination
/// with partial pivoting. Returns `None` if singular.
fn solve(mut m: Vec<Vec<f64>>, mut rhs: Vec<f64>) -> Option<Vec<f64>> {
    let n = rhs.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&a, &b| {
            m[a][col]
                .abs()
                .partial_cmp(&m[b][col].abs())
                .expect("finite")
        })?;
        if m[pivot][col].abs() < 1e-300 {
            return None;
        }
        m.swap(col, pivot);
        rhs.swap(col, pivot);
        for row in (col + 1)..n {
            let k = m[row][col] / m[col][col];
            for c in col..n {
                m[row][c] -= k * m[col][c];
            }
            rhs[row] -= k * rhs[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for c in (row + 1)..n {
            acc -= m[row][c] * x[c];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

/// Three-parameter sine fit at a known angular frequency `omega`
/// (radians/sample), per IEEE Std 1057.
///
/// # Errors
///
/// Returns [`FitSineError::TooFewSamples`] for fewer than 3 samples and
/// [`FitSineError::Singular`] if the normal equations are singular.
///
/// # Examples
///
/// ```
/// use bist_dsp::sinefit::fit_sine_3param;
///
/// # fn main() -> Result<(), bist_dsp::sinefit::FitSineError> {
/// let omega = 0.31;
/// let data: Vec<f64> = (0..256)
///     .map(|t| 1.4 * (omega * t as f64).sin() + 0.2)
///     .collect();
/// let fit = fit_sine_3param(&data, omega)?;
/// assert!((fit.amplitude() - 1.4).abs() < 1e-9);
/// assert!((fit.c - 0.2).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn fit_sine_3param(data: &[f64], omega: f64) -> Result<SineFit, FitSineError> {
    let n = data.len();
    if n < 3 {
        return Err(FitSineError::TooFewSamples { have: n, need: 3 });
    }
    // Least squares on columns [cos(ωt), sin(ωt), 1].
    let mut ata = vec![vec![0.0; 3]; 3];
    let mut atb = vec![0.0; 3];
    for (t, &y) in data.iter().enumerate() {
        let wt = omega * t as f64;
        let row = [wt.cos(), wt.sin(), 1.0];
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += row[i] * row[j];
            }
            atb[i] += row[i] * y;
        }
    }
    let sol = solve(ata, atb).ok_or(FitSineError::Singular)?;
    let (a, b, c) = (sol[0], sol[1], sol[2]);
    let mut ss = 0.0;
    for (t, &y) in data.iter().enumerate() {
        let wt = omega * t as f64;
        let r = y - (a * wt.cos() + b * wt.sin() + c);
        ss += r * r;
    }
    Ok(SineFit {
        a,
        b,
        c,
        omega,
        rms_residual: (ss / n as f64).sqrt(),
    })
}

/// Four-parameter sine fit: refines `omega_guess` by Gauss–Newton
/// iteration, per IEEE Std 1057.
///
/// # Errors
///
/// Returns [`FitSineError::TooFewSamples`] for fewer than 4 samples,
/// [`FitSineError::Singular`] for a singular system, or
/// [`FitSineError::NoConvergence`] if 100 iterations do not converge.
///
/// # Examples
///
/// ```
/// use bist_dsp::sinefit::fit_sine_4param;
///
/// # fn main() -> Result<(), bist_dsp::sinefit::FitSineError> {
/// let omega = 0.3123;
/// let data: Vec<f64> = (0..512)
///     .map(|t| 0.9 * (omega * t as f64 + 0.5).cos())
///     .collect();
/// // Start from a small frequency error (e.g. an FFT-peak estimate,
/// // which is within half a bin: |Δω| ≤ π/N).
/// let fit = fit_sine_4param(&data, omega + 0.002)?;
/// assert!((fit.omega - omega).abs() < 1e-9);
/// assert!((fit.amplitude() - 0.9).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn fit_sine_4param(data: &[f64], omega_guess: f64) -> Result<SineFit, FitSineError> {
    let n = data.len();
    if n < 4 {
        return Err(FitSineError::TooFewSamples { have: n, need: 4 });
    }
    let mut omega = omega_guess;
    let mut last = fit_sine_3param(data, omega)?;
    for _ in 0..100 {
        // Columns [cosωt, sinωt, 1, t·(-A sinωt + B cosωt)]
        let (a0, b0) = (last.a, last.b);
        let mut ata = vec![vec![0.0; 4]; 4];
        let mut atb = vec![0.0; 4];
        for (t, &y) in data.iter().enumerate() {
            let tf = t as f64;
            let wt = omega * tf;
            let (s, c) = wt.sin_cos();
            let row = [c, s, 1.0, tf * (-a0 * s + b0 * c)];
            for i in 0..4 {
                for j in 0..4 {
                    ata[i][j] += row[i] * row[j];
                }
                atb[i] += row[i] * y;
            }
        }
        let sol = solve(ata, atb).ok_or(FitSineError::Singular)?;
        let d_omega = sol[3];
        omega += d_omega;
        if !(omega.is_finite()) || omega <= 0.0 {
            return Err(FitSineError::NoConvergence);
        }
        last = fit_sine_3param(data, omega)?;
        if d_omega.abs() < 1e-12 * omega.abs().max(1e-12) {
            return Ok(last);
        }
    }
    Err(FitSineError::NoConvergence)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(n: usize, amp: f64, omega: f64, phase: f64, dc: f64) -> Vec<f64> {
        (0..n)
            .map(|t| amp * (omega * t as f64 + phase).cos() + dc)
            .collect()
    }

    #[test]
    fn three_param_exact_recovery() {
        let data = synth(200, 2.5, 0.17, 1.0, -0.4);
        let fit = fit_sine_3param(&data, 0.17).unwrap();
        assert!((fit.amplitude() - 2.5).abs() < 1e-10);
        assert!((fit.phase() - 1.0).abs() < 1e-10);
        assert!((fit.c + 0.4).abs() < 1e-10);
        assert!(fit.rms_residual < 1e-10);
    }

    #[test]
    fn three_param_too_few_samples() {
        let err = fit_sine_3param(&[1.0, 2.0], 0.5).unwrap_err();
        assert_eq!(err, FitSineError::TooFewSamples { have: 2, need: 3 });
        assert!(err.to_string().contains("3"));
    }

    #[test]
    fn three_param_singular_at_zero_omega() {
        // cos(0·t)=1 duplicates the DC column → singular.
        let data = synth(64, 1.0, 0.3, 0.0, 0.0);
        assert_eq!(
            fit_sine_3param(&data, 0.0).unwrap_err(),
            FitSineError::Singular
        );
    }

    #[test]
    fn four_param_refines_frequency() {
        // Initial guess within an FFT half-bin (π/N ≈ 0.003 for N=1024).
        let data = synth(1024, 1.0, 0.2345, 0.3, 0.1);
        let fit = fit_sine_4param(&data, 0.2345 + 0.002).unwrap();
        assert!((fit.omega - 0.2345).abs() < 1e-10, "omega {}", fit.omega);
        assert!(fit.rms_residual < 1e-9);
    }

    #[test]
    fn four_param_with_noise_still_converges() {
        // Deterministic "noise" from a chaotic map.
        let mut z = 0.37f64;
        let data: Vec<f64> = (0..2048)
            .map(|t| {
                z = (4.0 * z * (1.0 - z)).clamp(1e-9, 1.0 - 1e-9);
                (0.3 * t as f64).sin() + (z - 0.5) * 0.01
            })
            .collect();
        let fit = fit_sine_4param(&data, 0.3004).unwrap();
        assert!((fit.omega - 0.3).abs() < 1e-4);
        assert!((fit.amplitude() - 1.0).abs() < 1e-3);
        // Residual should be on the scale of the injected ±0.005 noise.
        assert!(fit.rms_residual > 1e-4 && fit.rms_residual < 0.01);
    }

    #[test]
    fn enob_of_quantized_sine() {
        // Quantize to 8 bits over [-1, 1]; ENOB ≈ 8.
        let bits = 8;
        let q = 2.0 / (1 << bits) as f64;
        let data: Vec<f64> = synth(4096, 0.999, 0.2347, 0.0, 0.0)
            .into_iter()
            .map(|v| ((v + 1.0) / q).floor() * q - 1.0 + q / 2.0)
            .collect();
        let fit = fit_sine_4param(&data, 0.2347).unwrap();
        let enob = fit.enob(2.0);
        assert!((enob - 8.0).abs() < 0.2, "enob {enob}");
    }

    #[test]
    fn eval_reproduces_samples() {
        let data = synth(50, 1.0, 0.5, 0.2, 0.0);
        let fit = fit_sine_3param(&data, 0.5).unwrap();
        for (t, &y) in data.iter().enumerate() {
            let wt = fit.omega * t as f64;
            let model = fit.a * wt.cos() + fit.b * wt.sin() + fit.c;
            assert!((model - y).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "full scale must be positive")]
    fn enob_rejects_bad_full_scale() {
        let data = synth(64, 1.0, 0.5, 0.0, 0.0);
        let fit = fit_sine_3param(&data, 0.5).unwrap();
        let _ = fit.enob(0.0);
    }

    #[test]
    fn display_mentions_amplitude() {
        let data = synth(64, 1.0, 0.5, 0.0, 0.0);
        let fit = fit_sine_3param(&data, 0.5).unwrap();
        assert!(fit.to_string().contains("amp"));
    }
}
