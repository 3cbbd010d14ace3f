//! Behavioural flash A/D converter with process mismatch.
//!
//! The paper's §4: *"A flash A/D converter consists of a resistor string
//! which determines the transition voltages and comparators which compare
//! the input with these transition voltages. The standard deviation of a
//! code width is determined by the standard deviation of the resistors
//! and the standard deviation of the offset voltages of the
//! comparators."* This module models exactly that: a ladder of `2ⁿ`
//! resistors with relative mismatch and `2ⁿ − 1` comparators with input
//! offset, producing the Gaussian code widths (σ ≈ 0.16–0.21 LSB) and the
//! `ρ ≈ −1/(N−1)` inter-width correlation (Eq. 10) that the §3 theory
//! assumes.

use crate::dist::Normal;
use crate::transfer::{Adc, TransferFunction};
use crate::types::{Code, Resolution, Volts};
use rand::Rng;
use std::fmt;

/// Process/mismatch parameters of a flash converter.
///
/// # Examples
///
/// ```
/// use bist_adc::flash::FlashConfig;
/// use bist_adc::types::{Resolution, Volts};
///
/// let cfg = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
///     .with_width_sigma_lsb(0.21);
/// // The configured mismatch reproduces the paper's worst-case width σ.
/// assert!((cfg.code_width_sigma_lsb() - 0.21).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashConfig {
    resolution: Resolution,
    low: Volts,
    high: Volts,
    /// Relative standard deviation of each ladder resistor (σ_R/R).
    sigma_resistor_rel: f64,
    /// Comparator input-offset standard deviation, in LSB units.
    sigma_offset_lsb: f64,
}

impl FlashConfig {
    /// Creates a mismatch-free configuration over `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn new(resolution: Resolution, low: Volts, high: Volts) -> Self {
        assert!(low.0 < high.0, "low must be below high");
        FlashConfig {
            resolution,
            low,
            high,
            sigma_resistor_rel: 0.0,
            sigma_offset_lsb: 0.0,
        }
    }

    /// The paper's evaluation device: 6-bit flash over a unit-per-LSB
    /// range with the worst-case code-width σ of 0.21 LSB, split between
    /// ladder and comparator contributions.
    pub fn paper_device() -> Self {
        FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).with_width_sigma_lsb(0.21)
    }

    /// Sets the relative resistor mismatch σ_R/R.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_resistor_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        self.sigma_resistor_rel = sigma;
        self
    }

    /// Sets the comparator offset σ in LSB.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_offset_sigma_lsb(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        self.sigma_offset_lsb = sigma;
        self
    }

    /// Chooses ladder and comparator mismatch so the *code width*
    /// standard deviation equals `sigma_lsb`, split evenly between the
    /// two mechanisms (`σ_w² = σ_R² + 2σ_os²`).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_lsb` is negative.
    pub fn with_width_sigma_lsb(mut self, sigma_lsb: f64) -> Self {
        assert!(sigma_lsb >= 0.0, "sigma must be non-negative");
        // Half the width variance from the ladder, half from offsets:
        // σ_R² = σ_w²/2 and 2σ_os² = σ_w²/2.
        self.sigma_resistor_rel = sigma_lsb / 2f64.sqrt();
        self.sigma_offset_lsb = sigma_lsb / 2.0;
        self
    }

    /// The converter resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The nominal input range.
    pub fn input_range(&self) -> (Volts, Volts) {
        (self.low, self.high)
    }

    /// Comparator offset σ in LSB.
    pub fn offset_sigma_lsb(&self) -> f64 {
        self.sigma_offset_lsb
    }

    /// The predicted code-width standard deviation in LSB:
    /// `σ_w = √(σ_R² + 2·σ_os²)`.
    ///
    /// A code width is `w_k = q·(1+ε_k) + (os_{k+1} − os_k)` where `ε_k`
    /// is the resistor error and `os` the comparator offsets, so its
    /// variance is the resistor variance plus twice the offset variance.
    pub fn code_width_sigma_lsb(&self) -> f64 {
        (self.sigma_resistor_rel.powi(2) + 2.0 * self.sigma_offset_lsb.powi(2)).sqrt()
    }

    /// Draws one converter instance using `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> FlashAdc {
        FlashAdc::sample(*self, rng)
    }
}

/// One flash converter instance: a drawn resistor ladder and comparator
/// offsets.
///
/// Conversion uses a ones-counting (Wallace) thermometer decoder, which
/// is tolerant of bubble errors: the output code equals the number of
/// comparators asserting "input above my threshold". Sweeping the input
/// therefore steps the code at the *sorted* effective thresholds.
///
/// # Examples
///
/// ```
/// use bist_adc::flash::FlashConfig;
/// use bist_adc::transfer::Adc;
/// use bist_adc::types::Volts;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let adc = FlashConfig::paper_device().sample(&mut rng);
/// let code = adc.convert(Volts(3.2));
/// assert!((30..=34).contains(&code.0)); // near mid-scale, mismatch-limited
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlashAdc {
    config: FlashConfig,
    /// Effective comparator thresholds (ladder tap + offset), unsorted —
    /// i.e. per-comparator physical thresholds.
    thresholds: Vec<f64>,
    /// The same thresholds sorted, defining the effective transfer.
    sorted: Vec<f64>,
}

impl FlashAdc {
    /// Draws a converter instance from `config` using `rng`.
    pub fn sample<R: Rng + ?Sized>(config: FlashConfig, rng: &mut R) -> Self {
        let n_res = config.resolution.code_count() as usize;
        let n_cmp = config.resolution.transition_count() as usize;
        let res_dist = Normal::new(1.0, config.sigma_resistor_rel);
        // Draw resistors; clamp at a small positive floor so a wildly
        // unlucky draw cannot produce a negative resistance.
        let resistors: Vec<f64> = (0..n_res).map(|_| res_dist.sample(rng).max(1e-6)).collect();
        let total: f64 = resistors.iter().sum();
        let span = config.high.0 - config.low.0;
        let q = span / config.resolution.code_count() as f64;
        let os_dist = Normal::new(0.0, config.sigma_offset_lsb * q);
        let mut acc = 0.0;
        let mut thresholds = Vec::with_capacity(n_cmp);
        for r in &resistors[..n_cmp] {
            acc += r;
            let tap = config.low.0 + span * acc / total;
            thresholds.push(tap + os_dist.sample(rng));
        }
        let mut sorted = thresholds.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
        FlashAdc {
            config,
            thresholds,
            sorted,
        }
    }

    /// Builds an instance from explicit comparator thresholds (volts),
    /// e.g. for targeted fault studies.
    ///
    /// # Panics
    ///
    /// Panics if the threshold count is not `2ⁿ − 1` or any threshold is
    /// not finite.
    pub fn from_thresholds(config: FlashConfig, thresholds: Vec<f64>) -> Self {
        assert_eq!(
            thresholds.len(),
            config.resolution.transition_count() as usize,
            "expected {} thresholds",
            config.resolution.transition_count()
        );
        assert!(thresholds.iter().all(|t| t.is_finite()));
        let mut sorted = thresholds.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
        FlashAdc {
            config,
            thresholds,
            sorted,
        }
    }

    /// The configuration this instance was drawn from.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Physical (unsorted) comparator thresholds.
    pub fn comparator_thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The raw thermometer code for input `v`: bit `k` set when
    /// comparator `k` (ordered along the ladder) asserts.
    pub fn thermometer(&self, v: Volts) -> Vec<bool> {
        self.thresholds.iter().map(|&t| v.0 >= t).collect()
    }

    /// Whether the thermometer code for `v` contains a bubble (a 0 below
    /// a 1), which happens when comparator offsets reorder thresholds.
    pub fn has_bubble_at(&self, v: Volts) -> bool {
        let code = self.thermometer(v);
        let first_zero = code.iter().position(|&b| !b).unwrap_or(code.len());
        code[first_zero..].iter().any(|&b| b)
    }

    /// Applies a short-circuit fault to ladder segment `k` (the resistor
    /// between taps `k` and `k+1`): its resistance collapses, merging two
    /// thresholds. Returns a new faulty instance.
    ///
    /// # Panics
    ///
    /// Panics if `k + 1` is not a valid threshold index (`1..2ⁿ−1`).
    pub fn with_ladder_short(&self, k: usize) -> FlashAdc {
        assert!(
            k + 1 < self.thresholds.len() + 1 && k >= 1,
            "segment index {k} out of range"
        );
        let mut thresholds = self.thresholds.clone();
        // Tap k+1 collapses onto tap k.
        thresholds[k] = thresholds[k - 1];
        FlashAdc::from_thresholds(self.config, thresholds)
    }

    /// Applies a stuck comparator fault: comparator `k` (0-based) always
    /// outputs `stuck_high`. With ones-count decoding this biases every
    /// code above/below the fault. Returns a new faulty instance.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn with_stuck_comparator(&self, k: usize, stuck_high: bool) -> FlashAdc {
        assert!(k < self.thresholds.len(), "comparator index out of range");
        let mut thresholds = self.thresholds.clone();
        // A comparator stuck high always counts: threshold −∞ (well below
        // range); stuck low never counts: +∞ (well above range).
        let span = self.config.high.0 - self.config.low.0;
        thresholds[k] = if stuck_high {
            self.config.low.0 - 1e3 * span
        } else {
            self.config.high.0 + 1e3 * span
        };
        FlashAdc::from_thresholds(self.config, thresholds)
    }
}

impl Adc for FlashAdc {
    fn resolution(&self) -> Resolution {
        self.config.resolution
    }

    fn convert(&self, v: Volts) -> Code {
        // Ones-counting decode == rank of v among sorted thresholds.
        Code(self.sorted.partition_point(|&t| t <= v.0) as u32)
    }

    fn input_range(&self) -> (Volts, Volts) {
        (self.config.low, self.config.high)
    }

    fn transfer(&self) -> Option<TransferFunction> {
        Some(TransferFunction::from_transitions(
            self.config.resolution,
            self.config.low,
            self.config.high,
            self.sorted.clone(),
        ))
    }

    fn transition_levels(&self) -> Option<&[f64]> {
        Some(&self.sorted)
    }
}

impl fmt::Display for FlashAdc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} flash ADC (σ_R {:.4}, σ_os {:.4} LSB)",
            self.config.resolution, self.config.sigma_resistor_rel, self.config.sigma_offset_lsb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_dsp::stats::{mean_pairwise_correlation, Running};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn mismatch_free_device_is_ideal() {
        let cfg = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        let adc = cfg.sample(&mut rng(1));
        let tf = adc.transfer().unwrap();
        for (k, w) in tf.code_widths_lsb().iter().enumerate() {
            assert!((w.0 - 1.0).abs() < 1e-9, "code {}: {w:?}", k + 1);
        }
        assert_eq!(adc.convert(Volts(3.25)), Code(32));
    }

    #[test]
    fn width_sigma_matches_prediction() {
        let cfg = FlashConfig::paper_device();
        let mut widths = Running::new();
        let mut r = rng(42);
        for _ in 0..200 {
            let adc = cfg.sample(&mut r);
            let tf = adc.transfer().unwrap();
            for w in tf.code_widths_lsb() {
                widths.push(w.0);
            }
        }
        let sd = widths.std_dev();
        let predicted = cfg.code_width_sigma_lsb();
        assert!(
            (sd - predicted).abs() < 0.01,
            "measured σ {sd}, predicted {predicted}"
        );
        assert!((widths.mean() - 1.0).abs() < 0.01);
    }

    #[test]
    fn width_correlation_matches_eq10() {
        // Ladder-only mismatch: the fixed-sum constraint gives
        // ρ = −1/(N−1) with N = 2^n codes (Eq. 10). Use a small device so
        // the effect is visible above estimation noise.
        let res = Resolution::new(4).unwrap();
        let cfg = FlashConfig::new(res, Volts(0.0), Volts(1.6)).with_resistor_sigma(0.1);
        let mut samples = Vec::new();
        let mut r = rng(7);
        for _ in 0..4000 {
            let adc = cfg.sample(&mut r);
            let tf = adc.transfer().unwrap();
            samples.push(tf.code_widths_lsb().iter().map(|w| w.0).collect());
        }
        let rho = mean_pairwise_correlation(&samples);
        let expected = -1.0 / (res.code_count() as f64 - 1.0);
        assert!(
            (rho - expected).abs() < 0.015,
            "rho {rho}, expected {expected}"
        );
    }

    #[test]
    fn instances_differ_across_draws() {
        let cfg = FlashConfig::paper_device();
        let mut r = rng(3);
        let a = cfg.sample(&mut r);
        let b = cfg.sample(&mut r);
        assert_ne!(a.comparator_thresholds(), b.comparator_thresholds());
    }

    #[test]
    fn same_seed_reproduces_instance() {
        let cfg = FlashConfig::paper_device();
        let a = cfg.sample(&mut rng(11));
        let b = cfg.sample(&mut rng(11));
        assert_eq!(a.comparator_thresholds(), b.comparator_thresholds());
    }

    #[test]
    fn conversion_is_monotone_in_input() {
        let cfg = FlashConfig::paper_device();
        let adc = cfg.sample(&mut rng(5));
        let mut last = 0;
        let mut v = -0.1;
        while v < 6.5 {
            let c = adc.convert(Volts(v)).0;
            assert!(c >= last, "non-monotone at {v}");
            last = c;
            v += 0.003;
        }
        assert_eq!(last, 63);
    }

    #[test]
    fn bubble_detection_with_large_offsets() {
        // Huge comparator offsets guarantee reordered thresholds.
        let cfg = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_offset_sigma_lsb(3.0);
        let adc = cfg.sample(&mut rng(2));
        let mut any_bubble = false;
        let mut v = 0.0;
        while v < 6.4 {
            any_bubble |= adc.has_bubble_at(Volts(v));
            v += 0.01;
        }
        assert!(any_bubble, "expected at least one thermometer bubble");
    }

    #[test]
    fn no_bubbles_without_offsets() {
        let cfg =
            FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).with_resistor_sigma(0.2);
        let adc = cfg.sample(&mut rng(2));
        let mut v = 0.0;
        while v < 6.4 {
            assert!(!adc.has_bubble_at(Volts(v)));
            v += 0.01;
        }
    }

    #[test]
    fn ladder_short_merges_codes() {
        let cfg = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        let adc = cfg.sample(&mut rng(1)).with_ladder_short(10);
        let tf = adc.transfer().unwrap();
        // Code 10's width collapses to zero.
        assert!(tf.code_width(10).0.abs() < 1e-12);
    }

    #[test]
    fn stuck_high_comparator_skips_code_zero() {
        let cfg = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        let adc = cfg.sample(&mut rng(1)).with_stuck_comparator(0, true);
        // Even far below range one comparator asserts.
        assert_eq!(adc.convert(Volts(-1.0)), Code(1));
    }

    #[test]
    fn stuck_low_comparator_caps_top_code() {
        let cfg = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        let adc = cfg.sample(&mut rng(1)).with_stuck_comparator(5, false);
        assert_eq!(adc.convert(Volts(100.0)), Code(62));
    }

    #[test]
    fn thermometer_count_matches_code() {
        let cfg = FlashConfig::paper_device();
        let adc = cfg.sample(&mut rng(9));
        for i in 0..64 {
            let v = Volts(i as f64 * 0.1 + 0.05);
            let ones = adc.thermometer(v).iter().filter(|&&b| b).count() as u32;
            assert_eq!(adc.convert(v).0, ones);
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn negative_sigma_panics() {
        FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(1.0)).with_resistor_sigma(-0.1);
    }

    #[test]
    fn display_mentions_flash() {
        let adc = FlashConfig::paper_device().sample(&mut rng(1));
        assert!(adc.to_string().contains("flash"));
    }
}
