//! Behavioural successive-approximation (SAR) A/D converter.
//!
//! The paper's method is architecture-agnostic — it only watches output
//! bits — so the reproduction includes a second converter architecture to
//! demonstrate that. A SAR converter resolves one bit per step against a
//! binary-weighted capacitor DAC; capacitor mismatch produces the
//! characteristic DNL signature at major code boundaries (largest at the
//! MSB transition), a very different error profile from the flash
//! ladder's iid widths. [`SarAdc::transfer`] reports the transitions a
//! q/256 characterisation sweep would record, without sweeping: a
//! device's DAC levels are fixed, so it computes them once, and its code
//! can only change where the comparator input crosses one of them, so it
//! binary-searches the sweep grid for those crossings and converts only
//! there.

use crate::dist::Normal;
use crate::transfer::{Adc, TransferFunction};
use crate::types::{Code, Resolution, Volts};
use rand::Rng;
use std::fmt;

/// Mismatch parameters for a SAR converter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SarConfig {
    resolution: Resolution,
    low: Volts,
    high: Volts,
    /// Relative standard deviation of the *unit* capacitor. Bit `i`'s
    /// weight is the sum of `2^i` unit capacitors, so its relative σ is
    /// `sigma_unit/√(2^i)` — the standard matching model.
    sigma_unit_cap: f64,
    /// Comparator offset σ in LSB (shifts the whole transfer).
    sigma_offset_lsb: f64,
}

impl SarConfig {
    /// Creates a mismatch-free SAR configuration.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn new(resolution: Resolution, low: Volts, high: Volts) -> Self {
        assert!(low.0 < high.0, "low must be below high");
        SarConfig {
            resolution,
            low,
            high,
            sigma_unit_cap: 0.0,
            sigma_offset_lsb: 0.0,
        }
    }

    /// Sets the unit-capacitor relative mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_unit_cap_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        self.sigma_unit_cap = sigma;
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

    /// The converter resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The unit-capacitor relative mismatch σ.
    pub fn unit_cap_sigma(&self) -> f64 {
        self.sigma_unit_cap
    }

    /// A paper-scale SAR device: 6 bits over 0–6.4 V with a
    /// unit-capacitor mismatch sized so the MSB major-carry DNL lands in
    /// the same decision-relevant band as the flash batch's σ_w = 0.21
    /// LSB — yield under the stringent spec is mid-range, so screening
    /// exercises both accept and reject paths.
    pub fn paper_device() -> Self {
        SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_unit_cap_sigma(0.05)
            .with_offset_sigma_lsb(0.1)
    }

    /// Draws one converter instance.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SarAdc {
        let bits = self.resolution.bits();
        let q = (self.high.0 - self.low.0) / self.resolution.code_count() as f64;
        // Bit weight i nominally 2^i LSB; mismatch σ = σ_unit·√(2^i)
        // (absolute, in unit-capacitor counts).
        let weights: Vec<f64> = (0..bits)
            .map(|i| {
                let units = (1u64 << i) as f64;
                let sigma_abs = self.sigma_unit_cap * units.sqrt();
                (units + Normal::new(0.0, sigma_abs).sample(rng)).max(0.0) * q
            })
            .collect();
        let offset = Normal::new(0.0, self.sigma_offset_lsb * q).sample(rng);
        SarAdc {
            config: *self,
            weights,
            offset,
        }
    }
}

/// One SAR converter instance.
///
/// # Examples
///
/// ```
/// use bist_adc::sar::SarConfig;
/// use bist_adc::transfer::Adc;
/// use bist_adc::types::{Resolution, Volts};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let adc = SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
///     .with_unit_cap_sigma(0.02)
///     .sample(&mut rng);
/// let mid = adc.convert(Volts(3.2));
/// assert!((30..=34).contains(&mid.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SarAdc {
    config: SarConfig,
    /// DAC weight of each bit in volts (index 0 = LSB).
    weights: Vec<f64>,
    /// Comparator offset in volts.
    offset: f64,
}

impl SarAdc {
    /// The DAC output voltage for a code.
    pub fn dac(&self, code: Code) -> Volts {
        let mut v = self.config.low.0;
        for (i, w) in self.weights.iter().enumerate() {
            if (code.0 >> i) & 1 == 1 {
                v += w;
            }
        }
        Volts(v)
    }

    /// Successive approximation: trial each bit from MSB down. The
    /// comparator decides `v` (−offset) against `level(trial)`, the DAC
    /// level of the trial code; with ideal weights the transition into
    /// code k sits at `low + k·q`, matching `TransferFunction::ideal`.
    /// [`SarAdc::transfer`]'s grid search relies on this exact
    /// comparison, `v + offset >= level`, and on code 0 when none holds.
    fn approximate(&self, v: Volts, level: impl Fn(u32) -> f64) -> Code {
        let bits = self.config.resolution.bits();
        let vin = v.0 + self.offset;
        let mut code = 0u32;
        for i in (0..bits).rev() {
            let trial = code | (1 << i);
            if vin >= level(trial) {
                code = trial;
            }
        }
        Code(code)
    }
}

/// A [`SarAdc`] converting against its DAC levels computed once: entry
/// `c` of `levels` is `dac(Code(c))`, so every conversion matches
/// [`SarAdc::convert`] bit for bit.
struct LevelTable<'a> {
    adc: &'a SarAdc,
    levels: Vec<f64>,
}

impl<'a> LevelTable<'a> {
    fn new(adc: &'a SarAdc) -> Self {
        let levels = (0..adc.config.resolution.code_count())
            .map(|c| adc.dac(Code(c)).0)
            .collect();
        LevelTable { adc, levels }
    }
}

impl Adc for LevelTable<'_> {
    fn resolution(&self) -> Resolution {
        self.adc.resolution()
    }

    fn convert(&self, v: Volts) -> Code {
        self.adc.approximate(v, |c| self.levels[c as usize])
    }

    fn input_range(&self) -> (Volts, Volts) {
        self.adc.input_range()
    }
}

impl Adc for SarAdc {
    fn resolution(&self) -> Resolution {
        self.config.resolution
    }

    fn convert(&self, v: Volts) -> Code {
        self.approximate(v, |c| self.dac(Code(c)).0)
    }

    fn input_range(&self) -> (Volts, Volts) {
        (self.config.low, self.config.high)
    }

    fn transfer(&self) -> Option<TransferFunction> {
        // DAC non-monotonicity can reorder the transitions, so they are
        // what a q/256 characterisation sweep would record. The code only
        // changes where `v + offset` crosses the DAC level of a trial code
        // (1..2ⁿ), so search the sweep grid for those crossings and
        // convert only there, against the device's levels computed once.
        let q =
            (self.config.high.0 - self.config.low.0) / self.config.resolution.code_count() as f64;
        let table = LevelTable::new(self);
        Some(crate::transfer::characterize_crossings(
            &table,
            Volts(q / 256.0),
            self.offset,
            &table.levels[1..],
        ))
    }
}

impl fmt::Display for SarAdc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} SAR ADC (σ_unit {:.4})",
            self.config.resolution, self.config.sigma_unit_cap
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

    fn ideal_sar() -> SarAdc {
        SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).sample(&mut rng(1))
    }

    #[test]
    fn ideal_sar_matches_ideal_transfer() {
        let sar = ideal_sar();
        let ideal = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        for k in 0..640 {
            let v = Volts(k as f64 * 0.01 + 0.003);
            assert_eq!(sar.convert(v), ideal.convert(v), "at {v}");
        }
    }

    #[test]
    fn ideal_sar_dnl_is_zero() {
        let tf = ideal_sar().transfer().unwrap();
        for d in dnl(&tf) {
            assert!(d.0.abs() < 0.02, "dnl {d}"); // characterisation step limit
        }
    }

    #[test]
    fn dac_superposes_weights() {
        let sar = ideal_sar();
        let v = sar.dac(Code(0b101));
        assert!((v.0 - 0.5).abs() < 1e-12); // 5 LSB · 0.1 V
    }

    #[test]
    fn mismatch_creates_msb_dnl_signature() {
        // With unit-cap mismatch, the DNL variance at the MSB major
        // transition (code 31→32, where all weights swap) is far larger
        // than at a typical code: compare the population-average |DNL|.
        let cfg =
            SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).with_unit_cap_sigma(0.05);
        let mut r = rng(3);
        let trials = 40;
        let mut msb_abs = 0.0;
        let mut typical_abs = 0.0;
        for _ in 0..trials {
            let sar = cfg.sample(&mut r);
            let tf = sar.transfer().unwrap();
            let d = dnl(&tf);
            // Code 31's upper edge is the 31→32 major transition where
            // every DAC weight swaps (DNL index 30 == code 31).
            msb_abs += d[30].0.abs();
            // Code 20's width is a single-unit step (20→21 toggles only
            // the LSB weight) — the quiet baseline.
            typical_abs += d[19].0.abs();
        }
        assert!(
            msb_abs > 2.0 * typical_abs,
            "MSB mean |DNL| {:.4} not dominant over typical {:.4}",
            msb_abs / trials as f64,
            typical_abs / trials as f64
        );
    }

    #[test]
    fn conversion_is_monotone() {
        let cfg = SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_unit_cap_sigma(0.03)
            .with_offset_sigma_lsb(0.3);
        let sar = cfg.sample(&mut rng(9));
        let mut last = 0;
        let mut v = -0.1;
        while v < 6.6 {
            let c = sar.convert(Volts(v)).0;
            assert!(c >= last, "non-monotone at {v}: {c} < {last}");
            last = c;
            v += 0.002;
        }
    }

    #[test]
    fn offset_shifts_transfer() {
        let cfg =
            SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).with_offset_sigma_lsb(2.0);
        let mut r = rng(4);
        let a = cfg.sample(&mut r);
        // Positive comparator offset makes codes trip earlier (higher
        // code at the same voltage) and vice versa.
        let ideal = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        let v = Volts(3.2);
        let diff = a.convert(v).0 as i64 - ideal.convert(v).0 as i64;
        assert!(diff.abs() <= 4, "offset moved code by {diff}");
        assert!(a.weights.len() == 6);
    }

    #[test]
    fn seeded_reproducibility() {
        let cfg =
            SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).with_unit_cap_sigma(0.02);
        let a = cfg.sample(&mut rng(7));
        let b = cfg.sample(&mut rng(7));
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(1.0)).with_unit_cap_sigma(-0.1);
    }

    #[test]
    fn level_table_matches_convert_at_every_comparator_boundary() {
        // The comparator trips at `v + offset >= dac(trial)`: probe each
        // DAC level minus the offset, and one ULP either side of it.
        let cfg = SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_unit_cap_sigma(0.3)
            .with_offset_sigma_lsb(2.0);
        let mut r = rng(11);
        for _ in 0..20 {
            let sar = cfg.sample(&mut r);
            let table = LevelTable::new(&sar);
            for c in 0..64 {
                let at = sar.dac(Code(c)).0 - sar.offset;
                for v in [at.next_down(), at, at.next_up()] {
                    assert_eq!(sar.convert(Volts(v)), table.convert(Volts(v)), "at {v} V");
                }
            }
        }
        // With ideal weights and no offset, a DAC level itself converts
        // to its own code and one ULP below it does not (`>=`, not `>`).
        let sar = ideal_sar();
        let table = LevelTable::new(&sar);
        for c in 1..64 {
            let at = sar.dac(Code(c)).0;
            for adc in [&sar as &dyn Adc, &table] {
                assert_eq!(adc.convert(Volts(at)), Code(c));
                assert_eq!(adc.convert(Volts(at.next_down())), Code(c - 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot advance")]
    fn transfer_panics_when_sweep_step_is_below_one_ulp() {
        // q/256 ≈ 6e-8 V, but one ULP at 1e10 V is about 2e-6 V: the
        // stalled grid cannot be searched, and the sweep it falls back
        // to panics.
        let cfg = SarConfig::new(Resolution::SIX_BIT, Volts(1e10), Volts(1e10 + 1e-3));
        cfg.sample(&mut rng(1)).transfer();
    }

    /// Asserts that `sar.transfer()` is, bit for bit, the q/256 sweep of
    /// its direct `convert`.
    fn assert_transfer_matches_sweep(sar: &SarAdc) {
        let (low, high) = sar.input_range();
        let q = (high.0 - low.0) / sar.resolution().code_count() as f64;
        let swept = crate::transfer::characterize(sar, Volts(q / 256.0));
        let searched = sar.transfer().unwrap();
        for (k, (a, b)) in searched
            .transitions()
            .iter()
            .zip(swept.transitions())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{sar}, transition {}: {a} vs {b}",
                k + 1
            );
        }
    }

    /// The paper device, a stressed 10-bit device over −1…+1 V, and a
    /// 1-bit device whose offset (σ 8 LSB) mostly puts its one transition
    /// before the sweep start or past its end.
    fn three_ranges() -> [SarConfig; 3] {
        [
            SarConfig::paper_device(),
            SarConfig::new(Resolution::new(10).unwrap(), Volts(-1.0), Volts(1.0))
                .with_unit_cap_sigma(0.3)
                .with_offset_sigma_lsb(2.0),
            SarConfig::new(Resolution::new(1).unwrap(), Volts(0.0), Volts(1.0))
                .with_offset_sigma_lsb(8.0),
        ]
    }

    #[test]
    fn search_matches_sweep_as_ranges_interleave_on_one_thread() {
        // A, B, A, C, A: each change of range must rebuild the thread's
        // stored sweep grid, or the next search reads the wrong points.
        let [a, b, c] = three_ranges();
        let mut r = rng(21);
        for cfg in [a, b, a, c, a] {
            for _ in 0..3 {
                assert_transfer_matches_sweep(&cfg.sample(&mut r));
            }
        }
    }

    #[test]
    fn search_matches_sweep_on_two_threads() {
        let configs = three_ranges();
        std::thread::scope(|s| {
            for seed in [31, 32] {
                s.spawn(move || {
                    let mut r = rng(seed);
                    for cfg in configs.iter().chain(configs.iter().rev()) {
                        assert_transfer_matches_sweep(&cfg.sample(&mut r));
                    }
                });
            }
        });
    }

    #[test]
    fn search_trips_on_the_sweep_point_equal_to_a_dac_level() {
        // Over 0–64 V every DAC level and every sweep point (steps of
        // 1/256 V from −1/256) is exact in binary, so the point equal to
        // each level trips the comparator (`>=`, not `>`).
        let sar = SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(64.0)).sample(&mut rng(1));
        let tf = sar.transfer().unwrap();
        for (k, &t) in (1..=63).zip(tf.transitions()) {
            assert_eq!(t, f64::from(k));
        }
        assert_transfer_matches_sweep(&sar);
    }

    #[test]
    fn display_mentions_sar() {
        assert!(ideal_sar().to_string().contains("SAR"));
    }
}
