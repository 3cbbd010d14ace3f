//! Seeded device-batch generation over the `bist_core::source` seam.
//!
//! A [`Batch`] is a thin, `Copy` builder over one [`SourceSpec`] —
//! `Batch::of(source).seed(s).size(n)` — so every architecture the seam
//! knows (flash, iid widths, SAR, pipeline) screens through the same
//! fleet machinery. The paper's sim/measurement split is two presets:
//!
//! * [`Batch::paper_simulation`] — code widths drawn iid from the §3
//!   Gaussian (the *simulation* model behind Tables 1–2).
//! * [`Batch::paper_measurement`] — the resistor-ladder + comparator
//!   flash of `bist-adc` (the stand-in for the paper's 364 measured
//!   devices; its widths acquire the Eq. 10 correlation naturally).
//!
//! Devices are generated from `(seed, index)` so batches are
//! reproducible and independent of threading. The canonical stream
//! derivations ([`stream_rng`], [`splitmix_finalize`],
//! [`iid_width_transfer`]) live in [`bist_core::source`] and are
//! re-exported here bit-identically.

use crate::estimate::Proportion;
use bist_adc::flash::FlashConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use bist_core::analytic::WidthDistribution;
use bist_core::pool;
use bist_core::source::{DeviceSource, IidWidthSource, SourceSpec};
use bist_dsp::special::normal_quantile;
use rand::rngs::StdRng;
use rand::Rng;

pub use bist_core::source::{iid_width_transfer, splitmix_finalize, stream_rng};

/// A reproducible batch descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Batch {
    /// Device source.
    pub source: SourceSpec,
    /// Master seed; device `i` derives its RNG from `(seed, i)`.
    pub seed: u64,
    /// Number of devices.
    pub size: usize,
}

impl Batch {
    /// A batch over any seam source: `Batch::of(source).seed(s).size(n)`.
    pub fn of(source: impl Into<SourceSpec>) -> Self {
        Batch {
            source: source.into(),
            seed: 0,
            size: 0,
        }
    }

    /// Sets the master seed (builder-style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the device count (builder-style).
    pub fn size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// The paper's measured batch: 364 physical flash devices at the
    /// worst-case mismatch.
    pub fn paper_measurement(seed: u64) -> Self {
        Batch {
            source: SourceSpec::Flash(FlashConfig::paper_device()),
            seed,
            size: 364,
        }
    }

    /// A theory batch of iid-width devices at σ = 0.21 LSB.
    pub fn paper_simulation(seed: u64, size: usize) -> Self {
        Batch {
            source: SourceSpec::IidWidths(IidWidthSource::paper()),
            seed,
            size,
        }
    }

    /// The RNG for device `index` (stable mixing of seed and index;
    /// the canonical [`bist_core::source::device_rng`] stream).
    pub fn device_rng(&self, index: usize) -> StdRng {
        bist_core::source::device_rng(self.seed, index)
    }

    /// Generates device `index`'s transfer function through the seam.
    pub fn device(&self, index: usize) -> TransferFunction {
        let mut rng = self.device_rng(index);
        self.source.sample_transfer(&mut rng)
    }

    /// Classifies every device against `spec` across `workers` threads
    /// (0 = available parallelism), returning the good-device
    /// proportion — the ground-truth yield sweep used by the
    /// yield-anchor experiments. Independent of the worker count.
    pub fn classify(&self, spec: &LinearitySpec, workers: usize) -> Proportion {
        let goods = pool::map_ranges(
            self.size,
            workers,
            || (),
            |_, from, to| {
                (from..to)
                    .filter(|&i| spec.classify(&self.device(i)).good)
                    .count() as u64
            },
        );
        Proportion::new(goods.iter().sum(), self.size as u64)
    }
}

/// Draws from a Gaussian truncated to `[lo, hi]` by inverse-CDF.
///
/// # Panics
///
/// Panics if the interval has negligible probability mass or `lo >= hi`.
pub fn truncated_normal<R: Rng + ?Sized>(
    mean: f64,
    sigma: f64,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> f64 {
    assert!(lo < hi, "lo must be below hi");
    let a = bist_dsp::special::gaussian_cdf(lo, mean, sigma);
    let b = bist_dsp::special::gaussian_cdf(hi, mean, sigma);
    assert!(b - a > 1e-300, "truncation interval has no mass");
    let u = rng.gen_range(a..b);
    mean + sigma * normal_quantile(u)
}

/// A conditioned "faulty" width vector: exactly one randomly-placed
/// width drawn from the out-of-spec region, the rest truncated in-spec.
///
/// Supports the rare-event check of Table 2: at the actual ±1 LSB spec,
/// `P(faulty) ≈ 1.4×10⁻⁴` and a faulty device almost surely has exactly
/// one bad code, so sampling that conditional law directly estimates
/// `P(accept | faulty)` without 10⁷ rejection draws.
///
/// # Panics
///
/// Panics when the spec window has no realisable out-of-spec tail mass
/// (both Gaussian tails numerically zero), since the conditional law is
/// then undefined.
pub fn conditional_faulty_widths<R: Rng + ?Sized>(
    dist: &WidthDistribution,
    spec: &bist_adc::spec::LinearitySpec,
    codes: usize,
    rng: &mut R,
) -> Vec<f64> {
    let (lo, hi) = spec.width_window_lsb();
    let mean = dist.mean();
    let sigma = dist.sigma();
    // With the window floored at zero a below-spec width cannot be
    // realised: widths clamp at 0, and a zero width is DNL = −1 exactly,
    // which sits *on* the inclusive spec limit and classifies good. All
    // conditional mass is then in the above tail.
    let p_below = if lo.0 > 0.0 {
        bist_dsp::special::gaussian_cdf(lo.0, mean, sigma)
    } else {
        0.0
    };
    let p_above = 1.0 - bist_dsp::special::gaussian_cdf(hi.0, mean, sigma);
    assert!(
        p_below + p_above > 0.0,
        "spec window ({}, {}) has no realisable tail mass at mean {mean}, sigma {sigma}: \
         the conditional faulty law is undefined",
        lo.0,
        hi.0
    );
    let bad_index = rng.gen_range(0..codes);
    (0..codes)
        .map(|i| {
            if i == bad_index {
                // Pick the tail side proportionally to its mass.
                let side_below = rng.gen_range(0.0..(p_below + p_above)) < p_below;
                let w = if side_below {
                    truncated_normal(mean, sigma, mean - 12.0 * sigma, lo.0, rng)
                } else {
                    truncated_normal(mean, sigma, hi.0, mean + 12.0 * sigma, rng)
                };
                w.max(0.0)
            } else {
                truncated_normal(mean, sigma, lo.0.max(0.0), hi.0, rng)
            }
        })
        .collect()
}

/// Builds a transfer function from explicit inner-code widths in LSB
/// (first transition ideal).
pub fn transfer_from_widths(resolution: Resolution, widths_lsb: &[f64]) -> TransferFunction {
    assert_eq!(
        widths_lsb.len() as u32,
        resolution.inner_code_count(),
        "need one width per inner code"
    );
    let q = 0.1;
    let mut t = Vec::with_capacity(resolution.transition_count() as usize);
    t.push(q);
    for &w in widths_lsb {
        let prev = *t.last().expect("non-empty");
        t.push(prev + w.max(0.0) * q);
    }
    let high = q * resolution.code_count() as f64;
    TransferFunction::from_transitions(resolution, Volts(0.0), Volts(high), t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_adc::metrics::dnl;
    use bist_dsp::stats::Running;
    use rand::SeedableRng;

    #[test]
    fn builder_form_is_bit_identical_to_paper_presets() {
        // `Batch::of(source)` must reproduce the historical device
        // streams exactly — the paper-repro output depends on it.
        let via_seam = Batch::of(SourceSpec::paper_flash()).seed(11).size(364);
        let preset = Batch::paper_measurement(11);
        assert_eq!(via_seam, preset);
        for i in [0, 1, 100, 363] {
            assert_eq!(
                via_seam.device(i).transitions(),
                preset.device(i).transitions()
            );
        }
        let via_seam = Batch::of(SourceSpec::paper_iid()).seed(5).size(40);
        let preset = Batch::paper_simulation(5, 40);
        assert_eq!(via_seam, preset);
        assert_eq!(
            via_seam.device(17).transitions(),
            preset.device(17).transitions()
        );
    }

    #[test]
    fn sar_and_pipeline_batches_run_through_the_same_seam() {
        for src in [SourceSpec::paper_sar(), SourceSpec::paper_pipeline()] {
            let b = Batch::of(src).seed(3).size(8);
            assert_eq!(b.source.resolution(), Resolution::SIX_BIT);
            assert_eq!(b.source.architecture(), src.architecture());
            assert_eq!(b.device(2).transitions(), b.device(2).transitions());
            assert_ne!(b.device(2).transitions(), b.device(3).transitions());
            assert_eq!(b.source, src);
        }
    }

    #[test]
    fn batches_are_reproducible() {
        let b = Batch::paper_simulation(42, 10);
        let a1 = b.device(3);
        let a2 = b.device(3);
        assert_eq!(a1.transitions(), a2.transitions());
        // Different indices differ.
        assert_ne!(b.device(3).transitions(), b.device(4).transitions());
        // Different seeds differ.
        let c = Batch::paper_simulation(43, 10);
        assert_ne!(b.device(3).transitions(), c.device(3).transitions());
    }

    #[test]
    fn iid_width_statistics_match() {
        let b = Batch::paper_simulation(7, 300);
        let mut acc = Running::new();
        for tf in (0..b.size).map(|i| b.device(i)) {
            for w in tf.code_widths_lsb() {
                acc.push(w.0);
            }
        }
        assert!((acc.mean() - 1.0).abs() < 0.01, "mean {}", acc.mean());
        assert!((acc.std_dev() - 0.21).abs() < 0.01, "sd {}", acc.std_dev());
    }

    #[test]
    fn paper_measurement_batch_size() {
        let b = Batch::paper_measurement(1);
        assert_eq!(b.size, 364);
        assert!(matches!(b.source, SourceSpec::Flash(_)));
        // Yield under the stringent spec lands near the paper's 30 %.
        let spec = LinearitySpec::paper_stringent();
        let good = (0..b.size)
            .filter(|&i| spec.classify(&b.device(i)).good)
            .count();
        let yield_frac = good as f64 / b.size as f64;
        assert!(
            (0.2..0.45).contains(&yield_frac),
            "yield {yield_frac} ({good}/364)"
        );
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2000 {
            let w = truncated_normal(1.0, 0.21, 0.5, 1.5, &mut rng);
            assert!((0.5..=1.5).contains(&w), "w {w}");
        }
    }

    #[test]
    #[should_panic(expected = "no mass")]
    fn truncated_normal_empty_region_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        truncated_normal(0.0, 0.01, 50.0, 51.0, &mut rng);
    }

    #[test]
    fn conditional_faulty_has_exactly_one_bad_width() {
        let mut rng = StdRng::seed_from_u64(9);
        let spec = LinearitySpec::paper_actual();
        let dist = WidthDistribution::paper_worst_case();
        for _ in 0..100 {
            let w = conditional_faulty_widths(&dist, &spec, 62, &mut rng);
            assert_eq!(w.len(), 62);
            let bad = w.iter().filter(|&&x| !(0.0..=2.0).contains(&x)).count()
                + w.iter().filter(|&&x| x == 0.0).count();
            // Exactly one width outside (0, 2): the planted one (clamped
            // zero widths count as bad too).
            assert_eq!(bad, 1, "{w:?}");
        }
    }

    #[test]
    fn conditional_faulty_device_classifies_faulty() {
        let mut rng = StdRng::seed_from_u64(11);
        let spec = LinearitySpec::paper_actual();
        let dist = WidthDistribution::paper_worst_case();
        let w = conditional_faulty_widths(&dist, &spec, 62, &mut rng);
        let tf = transfer_from_widths(Resolution::SIX_BIT, &w);
        assert!(!spec.classify(&tf).good);
    }

    #[test]
    fn transfer_from_widths_round_trips() {
        let widths = vec![1.0; 62];
        let tf = transfer_from_widths(Resolution::SIX_BIT, &widths);
        for d in dnl(&tf) {
            assert!(d.0.abs() < 1e-9);
        }
    }
}
