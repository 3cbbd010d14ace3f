//! The measurement-error theory of §3: Eqs. 6–12.
//!
//! The sampling process quantises each code width `ΔV` with step `Δs`.
//! Because the sample phase is uniform relative to the transition
//! (Figure 5), the count is `i = ⌊ΔV/Δs + u⌋`, `u ~ U(0,1)`, and the
//! probability that a code of width `ΔV` is *accepted*
//! (`i_min ≤ i ≤ i_max`) is the trapezoid `h(ΔV, Δs)` of Figure 6b:
//! it rises linearly on `((i_min−1)Δs, i_min·Δs)`, is 1 on
//! `(i_min·Δs, i_max·Δs)` and falls on `(i_max·Δs, (i_max+1)Δs)`.
//!
//! Code widths are Gaussian, `f(ΔV) = N(1 LSB, σ²)` (Figure 6a, with
//! σ ≈ 0.16–0.21 LSB from circuit simulation). Integrating `h·f` over
//! the good/faulty width regions gives the per-code type I and type II
//! error probabilities (Eqs. 6–7); raising the per-code acceptance to the
//! number of codes `N` gives the device-level probabilities (Eqs. 8–12 —
//! valid because the inter-width correlation `ρ = −1/(N−1)` of Eq. 10 is
//! negligible for a 6-bit flash).

use crate::limits::CountLimits;
use bist_adc::spec::LinearitySpec;
use bist_dsp::integrate::integrate_with_knots;
use bist_dsp::special::{gaussian_cdf, gaussian_pdf};
use std::fmt;

/// The Gaussian code-width distribution `f(ΔV)` of Figure 6a.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidthDistribution {
    mean_lsb: f64,
    sigma_lsb: f64,
}

impl WidthDistribution {
    /// A width distribution with the given mean and standard deviation
    /// (both in LSB). The paper's devices have mean 1, σ = 0.16–0.21.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_lsb` is not positive or `mean_lsb` is not finite.
    pub fn new(mean_lsb: f64, sigma_lsb: f64) -> Self {
        assert!(mean_lsb.is_finite(), "mean must be finite");
        assert!(sigma_lsb > 0.0, "sigma must be positive");
        WidthDistribution {
            mean_lsb,
            sigma_lsb,
        }
    }

    /// The paper's worst-case distribution: mean 1 LSB, σ = 0.21 LSB.
    pub fn paper_worst_case() -> Self {
        WidthDistribution::new(1.0, 0.21)
    }

    /// The distribution mean in LSB.
    pub fn mean(&self) -> f64 {
        self.mean_lsb
    }

    /// The distribution σ in LSB.
    pub fn sigma(&self) -> f64 {
        self.sigma_lsb
    }

    /// The density `f(ΔV)`.
    pub fn pdf(&self, dv: f64) -> f64 {
        gaussian_pdf(dv, self.mean_lsb, self.sigma_lsb)
    }

    /// `P(ΔV ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        gaussian_cdf(x, self.mean_lsb, self.sigma_lsb)
    }

    /// The probability that one code is within the spec window
    /// (its true width inside `[ΔV_min, ΔV_max]`).
    pub fn p_code_good(&self, spec: &LinearitySpec) -> f64 {
        let (lo, hi) = spec.width_window_lsb();
        self.cdf(hi.0) - self.cdf(lo.0)
    }
}

/// The acceptance probability `h(ΔV, Δs)` of Figure 6b for the window
/// `i_min..=i_max`.
///
/// # Panics
///
/// Panics if `delta_s` is not positive.
///
/// # Examples
///
/// ```
/// use bist_core::analytic::acceptance_probability;
///
/// // Window 6..=16 at Δs = 0.1: certain acceptance for ΔV = 1 LSB,
/// // certain rejection for a zero-width code.
/// assert_eq!(acceptance_probability(1.0, 0.1, 6, 16), 1.0);
/// assert_eq!(acceptance_probability(0.0, 0.1, 6, 16), 0.0);
/// // Half-way up the rising edge at ΔV = 0.55:
/// let h = acceptance_probability(0.55, 0.1, 6, 16);
/// assert!((h - 0.5).abs() < 1e-12);
/// ```
pub fn acceptance_probability(dv: f64, delta_s: f64, i_min: u64, i_max: u64) -> f64 {
    assert!(delta_s > 0.0, "delta_s must be positive");
    if dv < 0.0 {
        return 0.0;
    }
    let x = dv / delta_s;
    // P(i >= i_min) = clamp(x - (i_min - 1), 0, 1) and
    // P(i <= i_max) = clamp(i_max + 1 - x, 0, 1) share the same phase u,
    // giving the joint expression below.
    let upper = (i_max as f64 + 1.0 - x).min(1.0);
    let lower = (i_min as f64 - x).max(0.0);
    (upper - lower).clamp(0.0, 1.0)
}

/// The ΔV values (LSB) where `h` has corners — the integration knots for
/// Eqs. 6–7.
pub fn acceptance_knots(delta_s: f64, i_min: u64, i_max: u64) -> [f64; 4] {
    [
        (i_min.saturating_sub(1)) as f64 * delta_s,
        i_min as f64 * delta_s,
        i_max as f64 * delta_s,
        (i_max + 1) as f64 * delta_s,
    ]
}

/// Per-code probabilities from Eqs. 6–7 (all joint with the width
/// region, i.e. unconditional).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeProbabilities {
    /// `P(good)` — width within the spec window.
    pub p_good: f64,
    /// `P(accept ∧ good)` — within spec and counted in-window.
    pub p_accept_and_good: f64,
    /// `P(accept ∧ faulty)` — out of spec but counted in-window
    /// (the type II mass of Eq. 7).
    pub p_accept_and_faulty: f64,
}

impl CodeProbabilities {
    /// `P(reject ∧ good)` — the type I mass of Eq. 6.
    pub fn p_reject_and_good(&self) -> f64 {
        (self.p_good - self.p_accept_and_good).max(0.0)
    }

    /// `P(accept)` regardless of the true width.
    pub fn p_accept(&self) -> f64 {
        self.p_accept_and_good + self.p_accept_and_faulty
    }

    /// Conditional per-code type I probability `P(reject | good)`.
    pub fn type_i_conditional(&self) -> f64 {
        if self.p_good > 0.0 {
            self.p_reject_and_good() / self.p_good
        } else {
            0.0
        }
    }
}

/// Evaluates Eqs. 6–7 for one code: integrates `h·f` over the good and
/// faulty width regions.
///
/// `INTEGRATION_TOL` bounds the absolute quadrature error; the integrand
/// corners (trapezoid knees and spec boundaries) are passed as knots so
/// the adaptive rule converges fast.
pub fn code_probabilities(
    dist: &WidthDistribution,
    spec: &LinearitySpec,
    delta_s: f64,
    limits: &CountLimits,
) -> CodeProbabilities {
    const INTEGRATION_TOL: f64 = 1e-13;
    let (lo, hi) = spec.width_window_lsb();
    let (i_min, i_max) = (limits.i_min(), limits.i_max());
    let h = |dv: f64| acceptance_probability(dv, delta_s, i_min, i_max);
    let f = |dv: f64| dist.pdf(dv);
    let knots = acceptance_knots(delta_s, i_min, i_max);

    // Integration support: the width can't be negative; beyond ±10σ the
    // Gaussian mass is negligible.
    let support_lo = (dist.mean() - 10.0 * dist.sigma()).max(0.0);
    let support_hi = dist.mean() + 10.0 * dist.sigma();

    let p_good = dist.cdf(hi.0) - dist.cdf(lo.0);
    let good_lo = lo.0.max(support_lo);
    let good_hi = hi.0.min(support_hi.max(hi.0));
    let p_accept_and_good = if good_lo < good_hi {
        integrate_with_knots(|v| h(v) * f(v), good_lo, good_hi, &knots, INTEGRATION_TOL)
    } else {
        0.0
    };

    // Faulty region: below ΔV_min and above ΔV_max, clipped to where h
    // is non-zero (the trapezoid support).
    let trap_lo = knots[0];
    let trap_hi = knots[3];
    let mut p_accept_and_faulty = 0.0;
    let below_lo = trap_lo.max(support_lo);
    let below_hi = lo.0.min(trap_hi);
    if below_lo < below_hi {
        p_accept_and_faulty +=
            integrate_with_knots(|v| h(v) * f(v), below_lo, below_hi, &knots, INTEGRATION_TOL);
    }
    let above_lo = hi.0.max(trap_lo);
    let above_hi = trap_hi.min(support_hi.max(trap_hi));
    if above_lo < above_hi {
        p_accept_and_faulty +=
            integrate_with_knots(|v| h(v) * f(v), above_lo, above_hi, &knots, INTEGRATION_TOL);
    }

    CodeProbabilities {
        p_good,
        p_accept_and_good,
        p_accept_and_faulty,
    }
}

/// Device-level probabilities (Eqs. 8–12) for `codes` independent codes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProbabilities {
    /// Number of codes judged.
    pub codes: u64,
    /// `P(device good)` = `p_good^N` (Eq. 9).
    pub p_good: f64,
    /// `P(device accepted)`.
    pub p_accept: f64,
    /// Conditional type I: `P(rejected | good)`.
    pub type_i: f64,
    /// Conditional type II: `P(accepted | faulty)`.
    pub type_ii: f64,
    /// Joint type I: `P(rejected ∧ good)`.
    pub type_i_joint: f64,
    /// Joint type II: `P(accepted ∧ faulty)`.
    pub type_ii_joint: f64,
}

/// Lifts per-code probabilities to the device level assuming
/// independent, identically distributed code widths (Eq. 9; the paper
/// shows via Eq. 10 that the flash correlation `−1/(N−1)` is negligible
/// at 6 bits).
///
/// # Panics
///
/// Panics if `codes == 0`.
pub fn device_probabilities(code: &CodeProbabilities, codes: u64) -> DeviceProbabilities {
    assert!(codes > 0, "device must have at least one judged code");
    let n = codes as i32;
    let p_good_dev = code.p_good.powi(n);
    let p_accept_dev = code.p_accept().powi(n);
    let p_accept_and_good_dev = code.p_accept_and_good.powi(n);
    let type_i_joint = (p_good_dev - p_accept_and_good_dev).max(0.0);
    let type_ii_joint = (p_accept_dev - p_accept_and_good_dev).max(0.0);
    let p_faulty_dev = 1.0 - p_good_dev;
    DeviceProbabilities {
        codes,
        p_good: p_good_dev,
        p_accept: p_accept_dev,
        type_i: if p_good_dev > 0.0 {
            type_i_joint / p_good_dev
        } else {
            0.0
        },
        type_ii: if p_faulty_dev > 0.0 {
            type_ii_joint / p_faulty_dev
        } else {
            0.0
        },
        type_i_joint,
        type_ii_joint,
    }
}

impl fmt::Display for DeviceProbabilities {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N={}: P(good) {:.4}, type I {:.4}, type II {:.4}",
            self.codes, self.p_good, self.type_i, self.type_ii
        )
    }
}

/// One point of the Figure 6 data: the width density, the acceptance
/// trapezoid and their product at a given ΔV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure6Point {
    /// Code width ΔV in LSB.
    pub dv: f64,
    /// `f(ΔV)` — Figure 6a.
    pub density: f64,
    /// `h(ΔV, Δs)` — Figure 6b.
    pub acceptance: f64,
    /// The integrand `h·f` of Eqs. 6–7.
    pub product: f64,
}

/// Generates the Figure 6 series over `[dv_lo, dv_hi]` with `points`
/// samples.
///
/// # Panics
///
/// Panics if `points < 2` or the range is not increasing.
pub fn figure6_series(
    dist: &WidthDistribution,
    delta_s: f64,
    limits: &CountLimits,
    dv_lo: f64,
    dv_hi: f64,
    points: usize,
) -> Vec<Figure6Point> {
    assert!(points >= 2, "need at least two points");
    assert!(dv_lo < dv_hi, "range must be increasing");
    (0..points)
        .map(|i| {
            let dv = dv_lo + (dv_hi - dv_lo) * i as f64 / (points - 1) as f64;
            let density = dist.pdf(dv);
            let acceptance = acceptance_probability(dv, delta_s, limits.i_min(), limits.i_max());
            Figure6Point {
                dv,
                density,
                acceptance,
                product: density * acceptance,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_dsp::integrate::adaptive_simpson;

    fn paper_setup(delta_s: f64) -> (WidthDistribution, LinearitySpec, CountLimits) {
        let spec = LinearitySpec::paper_stringent();
        let limits = CountLimits::from_spec(&spec, delta_s).unwrap();
        (WidthDistribution::paper_worst_case(), spec, limits)
    }

    #[test]
    fn trapezoid_shape_is_exact() {
        // Window 6..=16 at Δs = 0.091 (the paper's point).
        let ds = 0.091;
        let h = |dv: f64| acceptance_probability(dv, ds, 6, 16);
        // Flat top between i_min·Δs and i_max·Δs.
        assert_eq!(h(6.0 * ds), 1.0);
        assert_eq!(h(16.0 * ds), 1.0);
        assert_eq!(h(1.0), 1.0);
        // Zero outside the support.
        assert_eq!(h(5.0 * ds - 1e-12), 0.0);
        assert_eq!(h(17.0 * ds + 1e-12), 0.0);
        // Linear mid-points of the edges.
        assert!((h(5.5 * ds) - 0.5).abs() < 1e-12);
        assert!((h(16.5 * ds) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trapezoid_matches_monte_carlo_counting() {
        // h must equal the empirical acceptance of the floor(x+u) count.
        let ds = 0.093;
        let (i_min, i_max) = (6u64, 16u64);
        for &dv in &[0.5, 0.55, 0.9, 1.45, 1.52, 1.58] {
            let x = dv / ds;
            let trials = 200_000;
            let mut accepted = 0u64;
            for t in 0..trials {
                let u = (t as f64 + 0.5) / trials as f64; // stratified phase
                let i = (x + u).floor() as u64;
                if (i_min..=i_max).contains(&i) {
                    accepted += 1;
                }
            }
            let emp = accepted as f64 / trials as f64;
            let ana = acceptance_probability(dv, ds, i_min, i_max);
            assert!((emp - ana).abs() < 1e-4, "dv {dv}: emp {emp} vs {ana}");
        }
    }

    #[test]
    fn probabilities_are_consistent() {
        let (dist, spec, limits) = paper_setup(0.091);
        let c = code_probabilities(&dist, &spec, 0.091, &limits);
        assert!(c.p_good > 0.97 && c.p_good < 0.99, "p_good {}", c.p_good);
        assert!(c.p_accept_and_good <= c.p_good + 1e-12);
        assert!(c.p_accept() <= 1.0);
        assert!(c.p_reject_and_good() >= 0.0);
        // All four joint masses partition probability space.
        let p_reject_and_faulty = 1.0 - c.p_good - c.p_accept_and_faulty - c.p_reject_and_good();
        assert!(p_reject_and_faulty > 0.0);
    }

    #[test]
    fn paper_yield_reproduced() {
        // ~30 % of devices good under the stringent spec (§4).
        let (dist, spec, limits) = paper_setup(0.091);
        let c = code_probabilities(&dist, &spec, 0.091, &limits);
        let d = device_probabilities(&c, 64);
        assert!((0.28..0.38).contains(&d.p_good), "p_good {}", d.p_good);
        // And P(faulty) ≈ 1.4e-4 under the actual spec.
        let actual = LinearitySpec::paper_actual();
        let lim = CountLimits::from_spec(&actual, 0.125).unwrap();
        let c2 = code_probabilities(&dist, &actual, 0.125, &lim);
        let d2 = device_probabilities(&c2, 64);
        let p_faulty = 1.0 - d2.p_good;
        assert!((0.7e-4..2.5e-4).contains(&p_faulty), "p_faulty {p_faulty}");
    }

    #[test]
    fn type_i_halves_per_counter_bit() {
        // The paper's headline: "The probability of the type I errors is
        // approximately halved if the size of the counter is increased by
        // one bit." In its own Table 1 the per-bit ratios range 0.38–1.0
        // (the window edges can't be perfectly balanced at every counter
        // size), so we assert the robust form: monotone decrease and an
        // overall 4–16× reduction from 4 to 7 bits (ideal halving: 8×,
        // the paper's simulated column: 4.3×).
        let spec = LinearitySpec::paper_stringent();
        let dist = WidthDistribution::paper_worst_case();
        let mut series = Vec::new();
        for bits in 4..=7 {
            let ds = crate::limits::plan_delta_s(&spec, bits).0;
            let limits = CountLimits::from_spec(&spec, ds).unwrap();
            let c = code_probabilities(&dist, &spec, ds, &limits);
            series.push(device_probabilities(&c, 64).type_i);
        }
        for w in series.windows(2) {
            assert!(w[1] <= w[0] * 1.05, "non-monotone: {series:?}");
        }
        let reduction = series[0] / series[3];
        assert!(
            (3.0..20.0).contains(&reduction),
            "overall reduction {reduction} ({series:?})"
        );
    }

    #[test]
    fn smaller_delta_s_reduces_both_errors() {
        let spec = LinearitySpec::paper_stringent();
        let dist = WidthDistribution::paper_worst_case();
        let coarse = {
            let ds = 0.09375;
            let l = CountLimits::from_spec(&spec, ds).unwrap();
            device_probabilities(&code_probabilities(&dist, &spec, ds, &l), 64)
        };
        let fine = {
            let ds = 0.01171875; // 7-bit plan
            let l = CountLimits::from_spec(&spec, ds).unwrap();
            device_probabilities(&code_probabilities(&dist, &spec, ds, &l), 64)
        };
        assert!(fine.type_i < coarse.type_i);
        assert!(fine.type_ii < coarse.type_ii);
    }

    #[test]
    fn integration_agrees_with_direct_simpson() {
        // Cross-check the knotted integral against brute-force Simpson.
        let (dist, spec, limits) = paper_setup(0.091);
        let c = code_probabilities(&dist, &spec, 0.091, &limits);
        let brute = adaptive_simpson(
            |dv| acceptance_probability(dv, 0.091, limits.i_min(), limits.i_max()) * dist.pdf(dv),
            0.5,
            1.5,
            1e-13,
        );
        assert!((c.p_accept_and_good - brute).abs() < 1e-9);
    }

    #[test]
    fn joint_conditional_relation() {
        let (dist, spec, limits) = paper_setup(0.0915);
        let c = code_probabilities(&dist, &spec, 0.0915, &limits);
        let d = device_probabilities(&c, 64);
        assert!((d.type_i_joint - d.type_i * d.p_good).abs() < 1e-12);
        assert!((d.type_ii_joint - d.type_ii * (1.0 - d.p_good)).abs() < 1e-12);
    }

    #[test]
    fn figure6_series_shape() {
        let (dist, _, limits) = paper_setup(0.091);
        let pts = figure6_series(&dist, 0.091, &limits, 0.2, 1.8, 161);
        // Density peaks at the mean (1 LSB).
        let peak = pts
            .iter()
            .max_by(|a, b| a.density.partial_cmp(&b.density).unwrap())
            .unwrap();
        assert!((peak.dv - 1.0).abs() < 0.02);
        // Acceptance is 1 at the mean and 0 at the extremes.
        assert_eq!(peak.acceptance, 1.0);
        assert_eq!(pts[0].acceptance, 0.0);
        assert_eq!(pts.last().unwrap().acceptance, 0.0);
        // Product is bounded by density.
        assert!(pts.iter().all(|p| p.product <= p.density + 1e-15));
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn bad_sigma_panics() {
        WidthDistribution::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one judged code")]
    fn zero_codes_panics() {
        let (dist, spec, limits) = paper_setup(0.091);
        let c = code_probabilities(&dist, &spec, 0.091, &limits);
        device_probabilities(&c, 0);
    }

    #[test]
    fn display_device_probabilities() {
        let (dist, spec, limits) = paper_setup(0.091);
        let c = code_probabilities(&dist, &spec, 0.091, &limits);
        let d = device_probabilities(&c, 64);
        assert!(d.to_string().contains("N=64"));
    }
}
