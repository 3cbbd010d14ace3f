//! Special functions for the statistical error analysis of §3: the
//! complementary error function, the standard normal distribution and
//! its quantile.

/// The complementary error function `erfc(x) = 1 − erf(x)`, accurate for
/// large `x` where direct subtraction would cancel.
///
/// # Examples
///
/// ```
/// // Tail survival: erfc(3) ≈ 2.209e-5
/// let c = bist_dsp::special::erfc(3.0);
/// assert!((c - 2.2090496998585445e-5).abs() < 1e-12);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    } else if x < 0.5 {
        1.0 - erf_series(x)
    } else {
        erfc_continued_fraction_scaled(x) * (-x * x).exp()
    }
}

/// Maclaurin series for erf, converges fast for small |x|.
fn erf_series(x: f64) -> f64 {
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 0u32;
    loop {
        n += 1;
        term *= -x2 / n as f64;
        let add = term / (2 * n + 1) as f64;
        sum += add;
        if add.abs() < 1e-17 * sum.abs().max(1e-300) || n > 200 {
            break;
        }
    }
    two_over_sqrt_pi * sum
}

/// erfc(x)·e^{x²} via Lentz's continued fraction, valid for x ≥ 0.5.
fn erfc_continued_fraction_scaled(x: f64) -> f64 {
    // erfc(x) = e^{-x²}/√π · 1/(x + 1/(2x + 2/(x + 3/(2x + ...))))
    // Evaluate the continued fraction with the modified Lentz method.
    let tiny = 1e-300;
    let mut f = x.max(tiny);
    let mut c = f;
    let mut d = 0.0;
    // CF: erfc(x)·e^{x²}·√π = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + …)))),
    // i.e. partial numerators a_k = k/2 and denominators b_k = x.
    for k in 1..300 {
        d = x + (k as f64 / 2.0) * d;
        if d.abs() < tiny {
            d = tiny;
        }
        d = 1.0 / d;
        c = x + (k as f64 / 2.0) / c;
        if c.abs() < tiny {
            c = tiny;
        }
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    1.0 / (f * std::f64::consts::PI.sqrt())
}

/// Standard normal probability density `φ(z)`.
///
/// # Examples
///
/// ```
/// let p = bist_dsp::special::normal_pdf(0.0);
/// assert!((p - 0.3989422804014327).abs() < 1e-15);
/// ```
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (std::f64::consts::TAU).sqrt()
}

/// Standard normal cumulative distribution `Φ(z)`.
///
/// # Examples
///
/// ```
/// let p = bist_dsp::special::normal_cdf(1.959963984540054);
/// assert!((p - 0.975).abs() < 1e-9);
/// ```
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Gaussian PDF with mean `mu` and standard deviation `sigma`.
///
/// # Panics
///
/// Panics if `sigma <= 0`.
pub fn gaussian_pdf(x: f64, mu: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    normal_pdf((x - mu) / sigma) / sigma
}

/// Gaussian CDF with mean `mu` and standard deviation `sigma`.
///
/// # Panics
///
/// Panics if `sigma <= 0`.
pub fn gaussian_cdf(x: f64, mu: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    normal_cdf((x - mu) / sigma)
}

/// Inverse of the standard normal CDF (the quantile function), using the
/// Acklam rational approximation refined by one Halley step.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// # Examples
///
/// ```
/// let z = bist_dsp::special::normal_quantile(0.975);
/// assert!((z - 1.959963984540054).abs() < 1e-9);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
    // Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    };
    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * std::f64::consts::TAU.sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
        ];
        for (x, want) in cases {
            assert!((1.0 - erfc(x) - want).abs() < 1e-10, "erf({x})");
            assert!((erfc(-x) - 1.0 - want).abs() < 1e-10, "erf(-{x})");
        }
    }

    #[test]
    fn erfc_deep_tail() {
        // erfc(5) = 1.5374597944280349e-12
        assert!((erfc(5.0) - 1.537_459_794_428_035e-12).abs() < 1e-20);
        // erfc(10) ≈ 2.088e-45: relative accuracy matters here.
        let v = erfc(10.0);
        assert!((v - 2.0884875837625447e-45).abs() / 2.09e-45 < 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for i in 0..50 {
            let z = i as f64 * 0.1;
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_cdf_known_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((normal_cdf(1.0) - 0.8413447460685429).abs() < 1e-10);
        assert!((0.5 * erfc(2.0 / std::f64::consts::SQRT_2) - 0.022750131948179195).abs() < 1e-10);
    }

    #[test]
    fn paper_yield_checks() {
        // ±0.5 LSB spec, σ = 0.21 LSB: P(one code good) = Φ(z)-Φ(-z),
        // z = 0.5/0.21; P(all 64 good) ≈ 0.33 (paper says ~30 %).
        let z = 0.5 / 0.21;
        let p_one = 1.0 - erfc(z / std::f64::consts::SQRT_2);
        let p_all = p_one.powi(64);
        assert!((0.28..0.38).contains(&p_all), "p_all = {p_all}");

        // ±1 LSB: P(device faulty) ≈ 1.4e-4 per the paper.
        let z = 1.0 / 0.21;
        let p_one_bad = erfc(z / std::f64::consts::SQRT_2);
        let p_dev_bad = -((-p_one_bad).ln_1p() * 64.0).exp_m1();
        assert!(
            (0.7e-4..2.5e-4).contains(&p_dev_bad),
            "p_dev_bad = {p_dev_bad}"
        );
    }

    #[test]
    fn quantile_inverts_cdf() {
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn quantile_tails() {
        let z = normal_quantile(1e-9);
        assert!((normal_cdf(z) - 1e-9).abs() / 1e-9 < 1e-6);
    }

    #[test]
    #[should_panic(expected = "p must be in (0,1)")]
    fn quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn gaussian_wrappers() {
        assert!((gaussian_pdf(1.0, 1.0, 0.21) - normal_pdf(0.0) / 0.21).abs() < 1e-15);
        assert!((gaussian_cdf(1.0, 1.0, 0.21) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn gaussian_pdf_rejects_bad_sigma() {
        gaussian_pdf(0.0, 0.0, 0.0);
    }
}
