//! Parametric yield under a linearity spec.
//!
//! §4 reports two yield figures that anchor the whole evaluation: under
//! the increased (stringent) ±0.5 LSB DNL spec only ~30 % of the 6-bit
//! flash devices are good, while under the actual ±1 LSB spec the fault
//! probability is only ≈ 1.4×10⁻⁴. Both follow from the Gaussian
//! code-width model: `P(good) = [Φ(z_hi) − Φ(z_lo)]^N`.

use crate::analytic::WidthDistribution;
use bist_adc::spec::LinearitySpec;
use std::fmt;

/// Yield model for a device with `codes` independent Gaussian code
/// widths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldModel {
    dist: WidthDistribution,
    codes: u64,
}

impl YieldModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `codes == 0`.
    pub fn new(dist: WidthDistribution, codes: u64) -> Self {
        assert!(codes > 0, "device must have at least one code");
        YieldModel { dist, codes }
    }

    /// The paper's device: 64 codes, σ = 0.21 LSB.
    pub fn paper_device() -> Self {
        YieldModel::new(WidthDistribution::paper_worst_case(), 64)
    }

    /// `P(one code within spec)`.
    pub fn p_code_good(&self, spec: &LinearitySpec) -> f64 {
        self.dist.p_code_good(spec)
    }

    /// `P(device good)` = `p_code_good^N` (Eq. 9).
    pub fn p_device_good(&self, spec: &LinearitySpec) -> f64 {
        self.p_code_good(spec).powi(self.codes as i32)
    }

    /// `P(device faulty)` = `1 − P(device good)`, computed stably for
    /// high-yield specs.
    pub fn p_device_faulty(&self, spec: &LinearitySpec) -> f64 {
        let p = self.p_code_good(spec);
        // 1 - p^N = -expm1(N ln p)
        -(self.codes as f64 * p.ln()).exp_m1()
    }

    /// Sweeps yield over a range of symmetric DNL limits, returning
    /// `(limit, p_good)` rows.
    pub fn yield_curve(&self, limits_lsb: &[f64]) -> Vec<(f64, f64)> {
        limits_lsb
            .iter()
            .map(|&l| (l, self.p_device_good(&LinearitySpec::dnl_only(l))))
            .collect()
    }
}

impl fmt::Display for YieldModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "yield model: {} codes, width σ {} LSB",
            self.codes,
            self.dist.sigma()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stringent_yield_is_about_30_percent() {
        let y = YieldModel::paper_device().p_device_good(&LinearitySpec::paper_stringent());
        assert!((0.28..0.38).contains(&y), "yield {y}");
    }

    #[test]
    fn paper_actual_fault_rate_is_about_1e_minus_4() {
        let p = YieldModel::paper_device().p_device_faulty(&LinearitySpec::paper_actual());
        assert!((0.7e-4..2.5e-4).contains(&p), "p_faulty {p}");
    }

    #[test]
    fn good_and_faulty_sum_to_one() {
        let m = YieldModel::paper_device();
        for limit in [0.3, 0.5, 0.8, 1.0, 1.5] {
            let spec = LinearitySpec::dnl_only(limit);
            let s = m.p_device_good(&spec) + m.p_device_faulty(&spec);
            assert!((s - 1.0).abs() < 1e-12, "limit {limit}");
        }
    }

    #[test]
    fn yield_monotone_in_spec() {
        let m = YieldModel::paper_device();
        let curve = m.yield_curve(&[0.3, 0.5, 0.7, 1.0, 1.5]);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "{curve:?}");
        }
    }

    #[test]
    fn more_codes_lower_yield() {
        let dist = WidthDistribution::paper_worst_case();
        let spec = LinearitySpec::paper_stringent();
        let small = YieldModel::new(dist, 16).p_device_good(&spec);
        let large = YieldModel::new(dist, 256).p_device_good(&spec);
        assert!(large < small);
    }

    #[test]
    fn tighter_process_higher_yield() {
        let spec = LinearitySpec::paper_stringent();
        let loose = YieldModel::new(WidthDistribution::new(1.0, 0.21), 64);
        let tight = YieldModel::new(WidthDistribution::new(1.0, 0.16), 64);
        assert!(tight.p_device_good(&spec) > loose.p_device_good(&spec));
        // At the paper's best-case σ = 0.16 the stringent yield rises
        // dramatically.
        assert!(tight.p_device_good(&spec) > 0.7);
    }

    #[test]
    fn stable_for_very_high_yield() {
        // A huge spec: p_faulty must not round to exactly zero. The
        // residual is dominated by the Gaussian tail below zero width
        // (the width window clamps at 0): 64·Φ(−1/0.21) ≈ 6×10⁻⁵.
        let m = YieldModel::paper_device();
        let p = m.p_device_faulty(&LinearitySpec::dnl_only(1.8));
        assert!(p > 1e-6 && p < 1e-4, "p {p}");
    }

    #[test]
    #[should_panic(expected = "at least one code")]
    fn zero_codes_panics() {
        YieldModel::new(WidthDistribution::paper_worst_case(), 0);
    }

    #[test]
    fn display_mentions_sigma() {
        assert!(YieldModel::paper_device().to_string().contains("0.21"));
    }
}
