//! Numerical quadrature used by the measurement-error theory (Eqs. 6–7
//! of the paper integrate the product of a Gaussian code-width density and
//! the trapezoidal acceptance function).
//!
//! The method is adaptive Simpson, robust for piecewise-smooth integrands
//! such as `h(ΔV)·f(ΔV)`, which has corner points at the trapezoid knees;
//! [`integrate_with_knots`] splits the range at those corners first.

/// Result limit guard: adaptive subdivision never goes deeper than this.
const MAX_DEPTH: u32 = 60;

/// Integrates `f` over `[a, b]` with the adaptive Simpson rule.
///
/// `tol` is the absolute error target. The interval may be reversed
/// (`a > b`), in which case the sign follows the usual convention.
///
/// # Examples
///
/// ```
/// let area = bist_dsp::integrate::adaptive_simpson(|x| x * x, 0.0, 3.0, 1e-12);
/// assert!((area - 9.0).abs() < 1e-10);
/// ```
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    if a > b {
        return -adaptive_simpson(f, b, a, tol);
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    simpson_recurse(
        &f,
        a,
        b,
        fa,
        fb,
        fm,
        simpson_estimate(a, b, fa, fm, fb),
        tol,
        MAX_DEPTH,
    )
}

fn simpson_estimate(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn simpson_recurse<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fb: f64,
    fm: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson_estimate(a, m, fa, flm, fm);
    let right = simpson_estimate(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        simpson_recurse(f, a, m, fa, fm, flm, left, tol / 2.0, depth - 1)
            + simpson_recurse(f, m, b, fm, fb, frm, right, tol / 2.0, depth - 1)
    }
}

/// Integrates `f` over `[a, b]` splitting first at the supplied interior
/// `knots` (points where the integrand has corners), then applying
/// adaptive Simpson on each smooth piece.
///
/// Knots outside `(a, b)` are ignored; they need not be sorted.
///
/// This is the right tool for Eq. 6/7: the acceptance trapezoid
/// `h(ΔV, Δs)` has corners at `(i_min−1)Δs`, `i_min·Δs`, `i_max·Δs` and
/// `(i_max+1)Δs`.
pub fn integrate_with_knots<F: Fn(f64) -> f64>(
    f: F,
    a: f64,
    b: f64,
    knots: &[f64],
    tol: f64,
) -> f64 {
    if a == b {
        return 0.0;
    }
    if a > b {
        return -integrate_with_knots(f, b, a, knots, tol);
    }
    let mut pts: Vec<f64> = knots.iter().copied().filter(|&k| k > a && k < b).collect();
    pts.sort_by(|x, y| x.partial_cmp(y).expect("knots must not be NaN"));
    pts.dedup();
    let mut total = 0.0;
    let mut lo = a;
    let piece_tol = tol / (pts.len() + 1) as f64;
    for &k in &pts {
        total += adaptive_simpson(&f, lo, k, piece_tol);
        lo = k;
    }
    total + adaptive_simpson(&f, lo, b, piece_tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::{gaussian_pdf, normal_cdf};

    #[test]
    fn simpson_polynomial_exact() {
        let v = adaptive_simpson(|x| 3.0 * x * x - 2.0 * x + 1.0, -1.0, 2.0, 1e-12);
        // antiderivative x³ - x² + x: (8-4+2) - (-1-1-1) = 9
        assert!((v - 9.0).abs() < 1e-9);
    }

    #[test]
    fn simpson_reversed_interval_flips_sign() {
        let fwd = adaptive_simpson(|x| x.sin(), 0.0, 1.0, 1e-12);
        let rev = adaptive_simpson(|x| x.sin(), 1.0, 0.0, 1e-12);
        assert!((fwd + rev).abs() < 1e-14);
    }

    #[test]
    fn simpson_degenerate_interval() {
        assert_eq!(adaptive_simpson(|x| x, 2.0, 2.0, 1e-12), 0.0);
    }

    #[test]
    fn simpson_gaussian_mass() {
        let v = adaptive_simpson(|x| gaussian_pdf(x, 0.0, 1.0), -8.0, 8.0, 1e-13);
        assert!((v - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gaussian_partial_mass_matches_cdf() {
        let v = adaptive_simpson(|x| gaussian_pdf(x, 1.0, 0.21), 0.5, 1.5, 1e-13);
        let want = normal_cdf(0.5 / 0.21) - normal_cdf(-0.5 / 0.21);
        assert!((v - want).abs() < 1e-10);
    }

    #[test]
    fn knots_handle_corner_integrand() {
        // |x| has a corner at 0; exact integral over [-1, 2] is 2.5.
        let v = integrate_with_knots(|x: f64| x.abs(), -1.0, 2.0, &[0.0], 1e-12);
        assert!((v - 2.5).abs() < 1e-10);
    }

    #[test]
    fn knots_outside_range_are_ignored() {
        let v = integrate_with_knots(|x| x, 0.0, 1.0, &[-5.0, 9.0], 1e-12);
        assert!((v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn knots_unsorted_and_duplicated() {
        let f = |x: f64| if x < 0.5 { 1.0 } else { 2.0 };
        let v = integrate_with_knots(f, 0.0, 1.0, &[0.7, 0.5, 0.5, 0.2], 1e-12);
        assert!((v - 1.5).abs() < 1e-9);
    }

    #[test]
    fn simpson_agrees_with_gauss() {
        // Closed form: ∫ e^{ax}·cos(bx) dx = e^{ax}(a·cos bx + b·sin bx)/(a² + b²).
        let (a, b) = (-0.2_f64, 1.3_f64);
        let antiderivative =
            |x: f64| (a * x).exp() * (a * (b * x).cos() + b * (b * x).sin()) / (a * a + b * b);
        let want = antiderivative(4.0) - antiderivative(0.0);
        let f = |x: f64| (x * b).cos() * (a * x).exp();
        let s = adaptive_simpson(f, 0.0, 4.0, 1e-12);
        assert!((s - want).abs() < 1e-10, "{s} vs {want}");
    }
}
