//! Behavioural two-stage pipeline A/D converter.
//!
//! A third architecture for the reproduction (the paper's method only
//! watches output bits, so it must work unchanged): a coarse flash
//! stage, a residue amplifier, and a fine flash stage. Pipeline-specific
//! mismatch — inter-stage gain error and coarse-threshold offsets —
//! produces the characteristic DNL signature at every coarse-code
//! boundary, different again from the flash ladder's iid widths and the
//! SAR's binary-weighted steps.

use crate::dist::Normal;
use crate::transfer::{Adc, TransferFunction};
use crate::types::{Code, Resolution, Volts};
use rand::Rng;
use std::fmt;

/// Mismatch parameters of a two-stage pipeline converter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    resolution: Resolution,
    coarse_bits: u32,
    low: Volts,
    high: Volts,
    /// Relative σ of the inter-stage (residue) gain.
    sigma_gain_rel: f64,
    /// σ of each coarse comparator threshold, in fine LSB.
    sigma_coarse_lsb: f64,
}

impl PipelineConfig {
    /// Creates a mismatch-free pipeline with `coarse_bits` in the first
    /// stage and `resolution.bits() − coarse_bits` in the second.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `coarse_bits` is not strictly between
    /// 0 and the total resolution.
    pub fn new(resolution: Resolution, coarse_bits: u32, low: Volts, high: Volts) -> Self {
        assert!(low.0 < high.0, "low must be below high");
        assert!(
            coarse_bits >= 1 && coarse_bits < resolution.bits(),
            "coarse stage must resolve 1..n-1 bits"
        );
        PipelineConfig {
            resolution,
            coarse_bits,
            low,
            high,
            sigma_gain_rel: 0.0,
            sigma_coarse_lsb: 0.0,
        }
    }

    /// Sets the inter-stage gain mismatch (relative σ).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_gain_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        self.sigma_gain_rel = sigma;
        self
    }

    /// Sets the coarse-comparator threshold σ in (fine) LSB.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_coarse_sigma_lsb(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        self.sigma_coarse_lsb = sigma;
        self
    }

    /// The converter resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Coarse-stage bit count.
    pub fn coarse_bits(&self) -> u32 {
        self.coarse_bits
    }

    /// The inter-stage gain relative mismatch σ.
    pub fn gain_sigma(&self) -> f64 {
        self.sigma_gain_rel
    }

    /// A paper-scale pipeline device: 6 bits (3 coarse + 3 fine) over
    /// 0–6.4 V with gain and coarse-threshold mismatch sized so the
    /// coarse-boundary DNL lands in the same decision-relevant band as
    /// the flash batch's σ_w = 0.21 LSB — yield under the stringent spec
    /// is mid-range, so screening exercises both accept and reject
    /// paths.
    pub fn paper_device() -> Self {
        PipelineConfig::new(Resolution::SIX_BIT, 3, Volts(0.0), Volts(6.4))
            .with_gain_sigma(0.08)
            .with_coarse_sigma_lsb(0.4)
    }

    /// Draws one converter instance.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> PipelineAdc {
        let n_coarse = (1u32 << self.coarse_bits) - 1;
        let span = self.high.0 - self.low.0;
        let q = span / self.resolution.code_count() as f64;
        let seg = span / (1u64 << self.coarse_bits) as f64;
        let coarse_dist = Normal::new(0.0, self.sigma_coarse_lsb * q);
        let coarse_thresholds: Vec<f64> = (1..=n_coarse)
            .map(|k| self.low.0 + k as f64 * seg + coarse_dist.sample(rng))
            .collect();
        let gain = Normal::new(1.0, self.sigma_gain_rel).sample(rng).max(0.1);
        PipelineAdc {
            config: *self,
            coarse_thresholds,
            residue_gain: gain,
        }
    }
}

/// One pipeline converter instance.
///
/// # Examples
///
/// ```
/// use bist_adc::pipeline::PipelineConfig;
/// use bist_adc::transfer::Adc;
/// use bist_adc::types::{Resolution, Volts};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let adc = PipelineConfig::new(Resolution::SIX_BIT, 3, Volts(0.0), Volts(6.4))
///     .with_gain_sigma(0.01)
///     .sample(&mut rng);
/// assert!((30..=34).contains(&adc.convert(Volts(3.2)).0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineAdc {
    config: PipelineConfig,
    /// Coarse comparator thresholds (volts), nominally segment edges.
    coarse_thresholds: Vec<f64>,
    /// Realised inter-stage gain relative to nominal.
    residue_gain: f64,
}

impl PipelineAdc {
    /// The configuration this instance was drawn from.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The realised residue gain (1.0 nominal).
    pub fn residue_gain(&self) -> f64 {
        self.residue_gain
    }
}

impl Adc for PipelineAdc {
    fn resolution(&self) -> Resolution {
        self.config.resolution
    }

    fn convert(&self, v: Volts) -> Code {
        let fine_bits = self.config.resolution.bits() - self.config.coarse_bits;
        let fine_codes = 1u32 << fine_bits;
        let span = self.config.high.0 - self.config.low.0;
        let seg = span / (1u64 << self.config.coarse_bits) as f64;

        // Stage 1: coarse decision against (mismatched) thresholds.
        let coarse = self.coarse_thresholds.partition_point(|&t| t <= v.0) as u32;

        // Stage 2: residue = (v − segment base) amplified by the
        // (mismatched) inter-stage gain, quantised by an ideal fine
        // stage with one bit of over-range to absorb coarse offsets.
        let base = self.config.low.0 + f64::from(coarse) * seg;
        let residue = (v.0 - base) * self.residue_gain;
        let fine_raw = (residue / seg * f64::from(fine_codes)).floor() as i64;
        // Over-range correction: the fine stage sees ±half a segment
        // beyond its nominal range and the digital correction folds it
        // into the neighbouring coarse code.
        let total = i64::from(coarse) * i64::from(fine_codes) + fine_raw;
        let max = i64::from(self.config.resolution.max_code().0);
        Code(total.clamp(0, max) as u32)
    }

    fn input_range(&self) -> (Volts, Volts) {
        (self.config.low, self.config.high)
    }

    fn transfer(&self) -> Option<TransferFunction> {
        let q =
            (self.config.high.0 - self.config.low.0) / self.config.resolution.code_count() as f64;
        Some(crate::transfer::characterize(self, Volts(q / 256.0)))
    }
}

impl fmt::Display for PipelineAdc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pipeline ADC ({}+{} bits, residue gain {:.4})",
            self.config.resolution,
            self.config.coarse_bits,
            self.config.resolution.bits() - self.config.coarse_bits,
            self.residue_gain
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::dnl;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn ideal() -> PipelineAdc {
        PipelineConfig::new(Resolution::SIX_BIT, 3, Volts(0.0), Volts(6.4)).sample(&mut rng(1))
    }

    #[test]
    fn ideal_pipeline_matches_ideal_transfer() {
        let pipe = ideal();
        let reference = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        let mut v = 0.003;
        while v < 6.4 {
            assert_eq!(
                pipe.convert(Volts(v)),
                reference.convert(Volts(v)),
                "at {v} V"
            );
            v += 0.0137;
        }
    }

    #[test]
    fn ideal_pipeline_dnl_is_flat() {
        let tf = ideal().transfer().expect("pipeline characterises");
        for d in dnl(&tf) {
            assert!(d.0.abs() < 0.02, "dnl {d}");
        }
    }

    #[test]
    fn gain_error_concentrates_at_coarse_boundaries() {
        // Low residue gain leaves gaps at every coarse boundary; the
        // worst DNL must sit on multiples of the fine code count.
        let cfg = PipelineConfig::new(Resolution::SIX_BIT, 3, Volts(0.0), Volts(6.4))
            .with_gain_sigma(0.03);
        let mut boundary_hits = 0;
        let trials = 20;
        for seed in 0..trials {
            let pipe = cfg.sample(&mut rng(seed + 10));
            let tf = pipe.transfer().expect("pipeline characterises");
            let d = dnl(&tf);
            let (argmax, _) = d
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .0.abs().partial_cmp(&b.1 .0.abs()).expect("finite"))
                .expect("non-empty");
            // Inner-code index k is code k+1; boundaries at codes 8,16,…
            if (argmax as u32 + 1).is_multiple_of(8) || (argmax as u32 + 2).is_multiple_of(8) {
                boundary_hits += 1;
            }
        }
        assert!(
            boundary_hits >= trials * 3 / 4,
            "worst DNL at a coarse boundary in only {boundary_hits}/{trials}"
        );
    }

    #[test]
    fn conversion_is_monotone_with_small_mismatch() {
        let cfg = PipelineConfig::new(Resolution::SIX_BIT, 3, Volts(0.0), Volts(6.4))
            .with_gain_sigma(0.01)
            .with_coarse_sigma_lsb(0.2);
        for seed in 0..10 {
            let pipe = cfg.sample(&mut rng(seed));
            let mut last = 0;
            let mut v = -0.05;
            while v < 6.5 {
                let c = pipe.convert(Volts(v)).0;
                assert!(c >= last, "seed {seed}: non-monotone at {v}");
                last = c;
                v += 0.004;
            }
        }
    }

    #[test]
    fn seeded_reproducibility() {
        let cfg = PipelineConfig::new(Resolution::SIX_BIT, 2, Volts(0.0), Volts(6.4))
            .with_gain_sigma(0.02);
        let a = cfg.sample(&mut rng(9));
        let b = cfg.sample(&mut rng(9));
        assert_eq!(a.residue_gain(), b.residue_gain());
    }

    #[test]
    #[should_panic(expected = "coarse stage must resolve")]
    fn zero_coarse_bits_panics() {
        PipelineConfig::new(Resolution::SIX_BIT, 0, Volts(0.0), Volts(6.4));
    }

    #[test]
    #[should_panic(expected = "coarse stage must resolve")]
    fn all_coarse_bits_panics() {
        PipelineConfig::new(Resolution::SIX_BIT, 6, Volts(0.0), Volts(6.4));
    }

    #[test]
    fn display_mentions_pipeline() {
        assert!(ideal().to_string().contains("pipeline"));
    }
}
