//! The Goertzel algorithm: single-bin DFT evaluation, and the streaming
//! Goertzel *bank* behind the dynamic-test subsystem.
//!
//! For on-chip test processing a full FFT is expensive; Goertzel evaluates
//! the spectral power at one frequency with two multipliers and an adder —
//! exactly the kind of "simple digital function" the paper advocates
//! moving on-chip. [`Goertzel`] is the single resonator;
//! [`GoertzelBank`] runs one resonator on the fundamental and each
//! (aliased) harmonic plus Welford total-power moments, so a full
//! SINAD/THD/ENOB/noise-power analysis of a coherent record falls out at
//! end of sweep with **no sample memory** — the streaming counterpart of
//! [`crate::spectrum::analyze_tone`].

use crate::complex::Complex64;
use crate::spectrum::fold_bin;
use std::f64::consts::TAU;

/// Streaming Goertzel evaluator for one DFT bin.
///
/// Feed samples with [`push`](Self::push) and read the complex DFT value
/// with [`dft`](Self::dft) (equivalent to bin `k` of an `n`-point DFT once
/// exactly `n` samples have been pushed).
///
/// # Examples
///
/// ```
/// use bist_dsp::goertzel::Goertzel;
///
/// let n = 128;
/// let k = 5;
/// let mut g = Goertzel::for_bin(k, n);
/// for i in 0..n {
///     g.push((std::f64::consts::TAU * k as f64 * i as f64 / n as f64).cos());
/// }
/// // A unit cosine at bin k has DFT magnitude n/2.
/// assert!((g.dft().abs() - n as f64 / 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Goertzel {
    omega: f64,
    coeff: f64,
    s1: f64,
    s2: f64,
    count: usize,
}

impl Goertzel {
    /// Creates an evaluator for normalised angular frequency
    /// `omega = 2πf/fs` (radians per sample).
    pub fn new(omega: f64) -> Self {
        Goertzel {
            omega,
            coeff: 2.0 * omega.cos(),
            s1: 0.0,
            s2: 0.0,
            count: 0,
        }
    }

    /// Creates an evaluator for bin `k` of an `n`-point DFT.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn for_bin(k: usize, n: usize) -> Self {
        assert!(n > 0, "dft length must be non-zero");
        Goertzel::new(TAU * k as f64 / n as f64)
    }

    /// Processes one sample.
    // bist-lint: hot-path — the resonator recurrence
    #[inline]
    pub fn push(&mut self, x: f64) {
        // Fused multiply-add: one rounding for `coeff·s1 − s2`, which
        // halves the per-step error of the marginally-stable recurrence
        // (the Goertzel-bank-vs-FFT property test leans on this).
        let s0 = x + self.coeff.mul_add(self.s1, -self.s2);
        self.s2 = self.s1;
        self.s1 = s0;
        self.count += 1;
    }

    /// The recurrence coefficient `2·cos ω` that [`push`](Self::push)
    /// multiplies by.
    pub fn coeff(&self) -> f64 {
        self.coeff
    }

    /// The complex DFT value at the configured frequency for the samples
    /// pushed so far.
    pub fn dft(&self) -> Complex64 {
        // X = e^{iω(N-1)}·(s1 - s2·e^{-iω}) — but the common phase factor
        // does not affect magnitude; we return the standard phase-correct
        // form X = s1·e^{-iω(N-1)} ... Using the well-known finalisation:
        let w = Complex64::cis(self.omega);
        let x = Complex64::from_re(self.s1) - Complex64::from_re(self.s2) * w.conj();
        // Phase reference to sample 0:
        x * Complex64::cis(-self.omega * (self.count.saturating_sub(1)) as f64)
    }

    /// Power `|X|²` at the configured frequency.
    pub fn power(&self) -> f64 {
        // Magnitude can be computed without the phase factor; fused
        // multiply-adds keep the cancellation between the three terms
        // as sharp as the representation allows.
        let sq = self.s1.mul_add(self.s1, self.s2 * self.s2);
        (self.coeff * self.s1).mul_add(-self.s2, sq)
    }

    /// Resets the internal state, keeping the frequency.
    pub fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
        self.count = 0;
    }
}

/// One-sided power scaling for bin `k` of an `n`-point real DFT: interior
/// bins carry the mirrored negative-frequency energy (×2), DC and (for
/// even `n`) Nyquist do not.
pub fn one_sided_factor(k: usize, n: usize) -> f64 {
    if k == 0 || (n.is_multiple_of(2) && k == n / 2) {
        1.0
    } else {
        2.0
    }
}

/// The tone-bin plan shared by every harmonic-bank estimator: which
/// distinct DFT bins need a resonator, and which of them each harmonic
/// order reads.
///
/// Both [`GoertzelBank`] and the fixed-point RTL datapath
/// (`bist_rtl::dyn_top`) build their resonator banks from this one
/// function, so the behavioural and gate-accurate dynamic paths can
/// never disagree about aliasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarmonicPlan {
    /// Distinct tone bins; index 0 is always the fundamental.
    pub bins: Vec<usize>,
    /// Per harmonic order `h = 2..=harmonics+1`: index into `bins`, or
    /// `None` when that order folds onto DC or the carrier (skipped,
    /// mirroring [`crate::spectrum::analyze_tone`] with a rectangular
    /// window).
    pub slots: Vec<Option<usize>>,
}

/// Plans the distinct tone bins for a fundamental at `fundamental_bin`
/// of an `n`-point record with harmonic orders `2..=harmonics+1`,
/// folding aliases into the first Nyquist zone.
///
/// # Panics
///
/// Panics if `fundamental_bin` is zero or at/above Nyquist (`2·bin >= n`).
pub fn harmonic_plan(fundamental_bin: usize, n: usize, harmonics: usize) -> HarmonicPlan {
    assert!(
        fundamental_bin >= 1 && 2 * fundamental_bin < n,
        "fundamental bin {fundamental_bin} must lie strictly between DC and Nyquist of {n}"
    );
    let mut bins = vec![fundamental_bin];
    let mut slots = Vec::with_capacity(harmonics);
    for h in 2..=(harmonics + 1) {
        let bin = fold_bin(fundamental_bin * h, n);
        if bin == 0 || bin == fundamental_bin {
            slots.push(None);
            continue;
        }
        let slot = match bins.iter().position(|&b| b == bin) {
            Some(i) => i,
            None => {
                bins.push(bin);
                bins.len() - 1
            }
        };
        slots.push(Some(slot));
    }
    HarmonicPlan { bins, slots }
}

/// One-sided power decomposition of a coherent single-tone record, in the
/// squared units of the input samples.
///
/// Produced by [`GoertzelBank::powers`] (streaming) or assembled from any
/// other estimator that can supply the same five numbers (the fixed-point
/// RTL datapath does); [`TonePowers::metrics`] derives the §2 dynamic
/// test parameters from it with the exact arithmetic of
/// [`crate::spectrum::analyze_tone`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TonePowers {
    /// Record length the powers are normalised to.
    pub n: usize,
    /// Carrier-bin power.
    pub carrier: f64,
    /// Harmonic power summed per harmonic *order* (orders folding onto
    /// the same alias bin are counted once each, mirroring
    /// `analyze_tone`); feeds THD and SINAD.
    pub harmonics_by_order: f64,
    /// Harmonic power summed per *distinct* alias bin; this is what the
    /// noise estimate must exclude (each spectral bin exists once).
    pub harmonics_distinct: f64,
    /// DC power (squared mean).
    pub dc: f64,
    /// Total one-sided power = the record's mean square (Parseval).
    pub total: f64,
}

impl TonePowers {
    /// Derives the dynamic-test metrics. Noise is everything that is not
    /// DC, carrier or a harmonic bin; conventions (dB signs, infinities
    /// on empty bands, ENOB from SINAD) match
    /// [`crate::spectrum::analyze_tone`].
    pub fn metrics(&self) -> ToneMetrics {
        let db = |num: f64, den: f64| 10.0 * (num / den).log10();
        let noise = (self.total - self.dc - self.carrier - self.harmonics_distinct).max(0.0);
        let thd_db = if self.harmonics_by_order > 0.0 {
            db(self.harmonics_by_order, self.carrier)
        } else {
            f64::NEG_INFINITY
        };
        let snr_db = if noise > 0.0 {
            db(self.carrier, noise)
        } else {
            f64::INFINITY
        };
        let nad = noise + self.harmonics_by_order;
        let sinad_db = if nad > 0.0 {
            db(self.carrier, nad)
        } else {
            f64::INFINITY
        };
        ToneMetrics {
            carrier_power: self.carrier,
            noise_power: noise,
            thd_db,
            snr_db,
            sinad_db,
            enob: (sinad_db - 1.76) / 6.02,
        }
    }
}

/// Dynamic test metrics derived from a [`TonePowers`] decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToneMetrics {
    /// Carrier power (input units squared).
    pub carrier_power: f64,
    /// Noise power — the §2 "introduced noise power" parameter — in
    /// input units squared (excludes DC, carrier and harmonics).
    pub noise_power: f64,
    /// Total harmonic distortion in dB relative to the carrier.
    pub thd_db: f64,
    /// Signal-to-noise ratio in dB (harmonics excluded).
    pub snr_db: f64,
    /// Signal to noise-and-distortion in dB.
    pub sinad_db: f64,
    /// Effective number of bits, `(SINAD − 1.76)/6.02`.
    pub enob: f64,
}

/// A streaming Goertzel bank for single-tone dynamic analysis: one
/// resonator on the fundamental bin, one per distinct harmonic alias
/// bin, and Welford moments for the total power — SINAD, THD, ENOB and
/// noise power of a coherent record with `2(H+1)` multiplies per sample
/// and no sample memory.
///
/// Harmonics that fold onto DC or the carrier bin are skipped, exactly
/// like [`crate::spectrum::analyze_tone`] with a rectangular window;
/// harmonic orders aliasing to the same bin share one resonator.
///
/// # Examples
///
/// ```
/// use bist_dsp::goertzel::GoertzelBank;
///
/// let n = 1024;
/// let mut bank = GoertzelBank::new(101, n, 5);
/// for i in 0..n {
///     bank.push((std::f64::consts::TAU * 101.0 * i as f64 / n as f64).sin());
/// }
/// let m = bank.powers().metrics();
/// assert!(m.sinad_db > 100.0); // pure tone: essentially no noise
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GoertzelBank {
    n: usize,
    fundamental_bin: usize,
    harmonics: usize,
    /// Distinct tone bins (index 0 = fundamental) and their resonators.
    bins: Vec<usize>,
    resonators: Vec<Goertzel>,
    /// Resonator index per harmonic order `h = 2..=harmonics+1`; `None`
    /// when that order folds onto DC or the carrier.
    harmonic_slots: Vec<Option<usize>>,
    count: usize,
    mean: f64,
    m2: f64,
}

impl GoertzelBank {
    /// Creates a bank for a coherent tone at `fundamental_bin` of an
    /// `n`-point record, tracking harmonic orders `2..=harmonics+1`.
    ///
    /// # Panics
    ///
    /// Panics if `fundamental_bin` is zero or at/above Nyquist
    /// (`2·bin >= n`).
    pub fn new(fundamental_bin: usize, n: usize, harmonics: usize) -> Self {
        let HarmonicPlan { bins, slots } = harmonic_plan(fundamental_bin, n, harmonics);
        let harmonic_slots = slots;
        let resonators = bins.iter().map(|&b| Goertzel::for_bin(b, n)).collect();
        GoertzelBank {
            n,
            fundamental_bin,
            harmonics,
            bins,
            resonators,
            harmonic_slots,
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Processes one sample: clocks every resonator and the Welford
    /// moments. Allocation-free.
    // bist-lint: hot-path — per-sample bank update
    pub fn push(&mut self, x: f64) {
        for g in &mut self.resonators {
            g.push(x);
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// The record length the bank was planned for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The fundamental bin.
    pub fn fundamental_bin(&self) -> usize {
        self.fundamental_bin
    }

    /// The number of harmonic orders tracked.
    pub fn harmonics(&self) -> usize {
        self.harmonics
    }

    /// Clears all state for a new record, keeping the frequency plan (no
    /// reconstruction, no allocation).
    pub fn reset(&mut self) {
        for g in &mut self.resonators {
            g.reset();
        }
        self.count = 0;
        self.mean = 0.0;
        self.m2 = 0.0;
    }

    /// The one-sided power decomposition of the record pushed so far.
    ///
    /// Meaningful once exactly [`Self::n`] samples have been pushed (the
    /// resonator frequencies and normalisation assume the planned
    /// record length — callers gate on their own completeness check).
    /// Every term — including DC and total — is normalised by the
    /// *planned* `n` even on a truncated record, matching the
    /// fixed-point RTL datapath's `Σv / n` register readout so the two
    /// estimators keep the same convention whatever the sample count.
    pub fn powers(&self) -> TonePowers {
        let n = self.n;
        let n2 = (n * n) as f64;
        let bin_power =
            |slot: usize| one_sided_factor(self.bins[slot], n) * self.resonators[slot].power() / n2;
        let carrier = bin_power(0);
        let mut by_order = 0.0;
        for slot in self.harmonic_slots.iter().flatten() {
            by_order += bin_power(*slot);
        }
        let mut distinct = 0.0;
        for slot in 1..self.bins.len() {
            distinct += bin_power(slot);
        }
        // Reconstruct Σx and Σx² from the Welford moments (exact
        // identities), then normalise by the planned length.
        let count = self.count as f64;
        let n_f = n as f64;
        let sum = self.mean * count;
        let sum_sq = self.m2 + count * self.mean * self.mean;
        let dc = (sum / n_f) * (sum / n_f);
        let total = sum_sq / n_f;
        TonePowers {
            n,
            carrier,
            harmonics_by_order: by_order,
            harmonics_distinct: distinct,
            dc,
            total,
        }
    }

    /// Loads the state [`push`](Self::push) reaches after `count`
    /// samples, for lane-parallel engines that run its arithmetic on
    /// their own arrays: `resonator(i)` is the `(s1, s2)` of the `i`-th
    /// planned bin, and `mean`/`m2` are the Welford moments.
    pub fn set_state(
        &mut self,
        count: usize,
        mean: f64,
        m2: f64,
        resonator: impl Fn(usize) -> (f64, f64),
    ) {
        for (i, g) in self.resonators.iter_mut().enumerate() {
            (g.s1, g.s2) = resonator(i);
            g.count = count;
        }
        self.count = count;
        self.mean = mean;
        self.m2 = m2;
    }
}

/// Convenience: evaluates DFT bin `k` of `signal` (length `n = signal.len()`).
///
/// # Panics
///
/// Panics if `signal` is empty.
pub fn goertzel_bin(signal: &[f64], k: usize) -> Complex64 {
    let mut g = Goertzel::for_bin(k, signal.len());
    for &x in signal {
        g.push(x);
    }
    g.dft()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft_in_place;

    #[test]
    fn matches_fft_bins() {
        let n = 256;
        let signal: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.21).sin() + 0.5 * (i as f64 * 0.77).cos())
            .collect();
        let mut spec: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_re(x)).collect();
        fft_in_place(&mut spec).unwrap();
        for k in [0, 1, 7, 63, 128] {
            let g = goertzel_bin(&signal, k);
            assert!(
                (g - spec[k]).abs() < 1e-6 * (1.0 + spec[k].abs()),
                "bin {k}: goertzel {g} vs fft {}",
                spec[k]
            );
        }
    }

    #[test]
    fn power_matches_dft_magnitude() {
        let n = 128;
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        for k in [3, 10, 40] {
            let mut g = Goertzel::for_bin(k, n);
            for &x in &signal {
                g.push(x);
            }
            assert!(
                (g.power() - g.dft().norm_sqr()).abs() < 1e-6 * (1.0 + g.power()),
                "bin {k}"
            );
        }
    }

    #[test]
    fn dc_bin_sums_signal() {
        let signal = [1.0, 2.0, 3.0, 4.0];
        let g = goertzel_bin(&signal, 0);
        assert!((g.re - 10.0).abs() < 1e-12);
        assert!(g.im.abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut g = Goertzel::for_bin(1, 8);
        g.push(1.0);
        g.push(-1.0);
        g.reset();
        assert_eq!(g.count, 0);
        assert_eq!(g.power(), 0.0);
    }

    #[test]
    #[should_panic(expected = "length must be non-zero")]
    fn zero_length_panics() {
        Goertzel::for_bin(0, 0);
    }

    #[test]
    fn bank_matches_analyze_tone_on_quantized_sine() {
        use crate::spectrum::{analyze_tone, ToneAnalysisConfig};
        let n = 4096;
        let bits = 6u32;
        let levels = (1u32 << bits) as f64;
        let k = 1021usize;
        let record: Vec<f64> = (0..n)
            .map(|i| {
                let v = (TAU * k as f64 * i as f64 / n as f64).sin() * 1.01;
                let code = ((v + 1.0) / 2.0 * levels).floor().clamp(0.0, levels - 1.0);
                (code + 0.5) / levels - 0.5
            })
            .collect();
        let mut bank = GoertzelBank::new(k, n, 5);
        for &x in &record {
            bank.push(x);
        }
        let m = bank.powers().metrics();
        let cfg = ToneAnalysisConfig {
            fundamental_bin: Some(k),
            ..Default::default()
        };
        let a = analyze_tone(&record, &cfg).unwrap();
        assert!(
            (m.sinad_db - a.sinad_db).abs() < 1e-9,
            "sinad {} vs {}",
            m.sinad_db,
            a.sinad_db
        );
        assert!(
            (m.thd_db - a.thd_db).abs() < 1e-9,
            "thd {} vs {}",
            m.thd_db,
            a.thd_db
        );
        assert!((m.snr_db - a.snr_db).abs() < 1e-9);
        assert!((m.enob - a.enob).abs() < 1e-10);
    }

    #[test]
    fn bank_skips_harmonics_folding_onto_carrier_and_dc() {
        // n = 64, fundamental 16: H2 → 32 (Nyquist), H3 → 48 folds to 16
        // (the carrier — skipped), H4 → 64 folds to 0 (DC — skipped).
        let bank = GoertzelBank::new(16, 64, 3);
        assert_eq!(bank.harmonic_slots.len(), 3);
        assert!(bank.harmonic_slots[0].is_some()); // H2 at Nyquist bin 32
        assert_eq!(bank.harmonic_slots[1], None); // H3 aliases the carrier
        assert_eq!(bank.harmonic_slots[2], None); // H4 aliases DC
        assert_eq!(bank.bins, vec![16, 32]);
    }

    #[test]
    fn bank_shares_resonator_for_duplicate_alias_bins() {
        // n = 60, fundamental 12: H2 → 24, H3 → 36 folds to 24 — the two
        // orders share one resonator but are counted twice for THD.
        let mut bank = GoertzelBank::new(12, 60, 2);
        assert_eq!(bank.bins, vec![12, 24]);
        assert_eq!(bank.harmonic_slots, vec![Some(1), Some(1)]);
        for i in 0..60 {
            bank.push(
                (TAU * 12.0 * i as f64 / 60.0).sin() + 0.1 * (TAU * 24.0 * i as f64 / 60.0).sin(),
            );
        }
        let p = bank.powers();
        assert!((p.harmonics_by_order - 2.0 * p.harmonics_distinct).abs() < 1e-15);
    }

    #[test]
    fn bank_total_power_matches_parseval() {
        let n = 256;
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
        let mut bank = GoertzelBank::new(15, n, 4);
        for &x in &signal {
            bank.push(x);
        }
        let p = bank.powers();
        let mean_square = signal.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((p.total - mean_square).abs() < 1e-12);
        let mean = signal.iter().sum::<f64>() / n as f64;
        assert!((p.dc - mean * mean).abs() < 1e-12);
    }

    #[test]
    fn bank_reset_reproduces_fresh_run() {
        let n = 128;
        let mut bank = GoertzelBank::new(9, n, 5);
        for i in 0..n {
            bank.push((i as f64 * 0.3).sin());
        }
        bank.reset();
        assert_eq!(bank.count, 0);
        for i in 0..n {
            bank.push((TAU * 9.0 * i as f64 / n as f64).cos());
        }
        let mut fresh = GoertzelBank::new(9, n, 5);
        for i in 0..n {
            fresh.push((TAU * 9.0 * i as f64 / n as f64).cos());
        }
        assert_eq!(bank.powers(), fresh.powers());
    }

    #[test]
    fn pure_tone_metrics_degenerate_bands() {
        // A noiseless on-bin tone: no harmonics, no noise — the dB
        // conventions must mirror analyze_tone's infinities.
        let n = 512;
        let mut bank = GoertzelBank::new(5, n, 0);
        for i in 0..n {
            bank.push((TAU * 5.0 * i as f64 / n as f64).sin());
        }
        let m = bank.powers().metrics();
        assert_eq!(m.thd_db, f64::NEG_INFINITY);
        assert!(m.sinad_db > 100.0);
    }

    #[test]
    #[should_panic(expected = "strictly between DC and Nyquist")]
    fn bank_rejects_dc_fundamental() {
        GoertzelBank::new(0, 64, 3);
    }

    #[test]
    #[should_panic(expected = "strictly between DC and Nyquist")]
    fn bank_rejects_nyquist_fundamental() {
        GoertzelBank::new(32, 64, 3);
    }

    #[test]
    fn tone_detection_selectivity() {
        // A bin-17 tone must show far more power in bin 17 than bin 18.
        let n = 512;
        let tone: Vec<f64> = (0..n)
            .map(|i| (TAU * 17.0 * i as f64 / n as f64).sin())
            .collect();
        let p17 = goertzel_bin(&tone, 17).norm_sqr();
        let p18 = goertzel_bin(&tone, 18).norm_sqr();
        assert!(p17 > 1e9 * p18.max(1e-30), "p17={p17} p18={p18}");
    }
}
