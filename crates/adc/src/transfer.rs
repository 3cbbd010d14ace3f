//! Transfer functions described by their transition levels.
//!
//! An `n`-bit converter has `2ⁿ − 1` transition levels `T[k]`
//! (`k = 1..=2ⁿ−1`): the input voltages at which the output code steps
//! from `k−1` to `k`. Code `k`'s width is `T[k+1] − T[k]` (defined for the
//! inner codes `1..=2ⁿ−2`). This representation is the common currency of
//! the whole reproduction: behavioural converters produce one, static
//! metrics are computed from one, and the BIST observes it through the
//! sampling process.

use crate::types::{Code, Lsb, Resolution, Volts};
use std::fmt;

/// A quantizer transfer function: monotone transition levels plus the
/// conversion operation.
///
/// # Examples
///
/// ```
/// use bist_adc::transfer::TransferFunction;
/// use bist_adc::types::{Code, Resolution, Volts};
///
/// let tf = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
/// assert_eq!(tf.convert(Volts(-1.0)), Code(0)); // clamps low
/// assert_eq!(tf.convert(Volts(0.15)), Code(1));
/// assert_eq!(tf.convert(Volts(99.0)), Code(63)); // clamps high
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    resolution: Resolution,
    low: Volts,
    high: Volts,
    /// Transition levels in volts, index 0 holds `T[1]`.
    transitions: Vec<f64>,
}

impl TransferFunction {
    /// Builds the ideal uniform transfer over `[low, high]`:
    /// `T[k] = low + k·q` with `q = (high−low)/2ⁿ`.
    ///
    /// The first transition is one full LSB above `low` (mid-rise
    /// convention used by the paper's Figure 3).
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn ideal(resolution: Resolution, low: Volts, high: Volts) -> Self {
        assert!(low.0 < high.0, "low must be below high");
        let q = (high.0 - low.0) / resolution.code_count() as f64;
        let transitions = (1..=resolution.transition_count())
            .map(|k| low.0 + k as f64 * q)
            .collect();
        TransferFunction {
            resolution,
            low,
            high,
            transitions,
        }
    }

    /// Builds a transfer function from explicit transition levels
    /// (volts). The levels need not be uniform but must be sorted
    /// (non-decreasing) — converters whose raw levels may be disordered
    /// should sort first (see `FlashAdc`).
    ///
    /// # Panics
    ///
    /// Panics if the number of levels is not `2ⁿ − 1`, if any level is
    /// not finite, or if the levels are not non-decreasing.
    pub fn from_transitions(
        resolution: Resolution,
        low: Volts,
        high: Volts,
        transitions: Vec<f64>,
    ) -> Self {
        assert_eq!(
            transitions.len(),
            resolution.transition_count() as usize,
            "expected {} transition levels",
            resolution.transition_count()
        );
        assert!(
            transitions.iter().all(|t| t.is_finite()),
            "transition levels must be finite"
        );
        assert!(
            transitions.windows(2).all(|w| w[0] <= w[1]),
            "transition levels must be non-decreasing"
        );
        assert!(low.0 < high.0, "low must be below high");
        TransferFunction {
            resolution,
            low,
            high,
            transitions,
        }
    }

    /// The converter resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Lower end of the nominal input range.
    pub fn low(&self) -> Volts {
        self.low
    }

    /// Upper end of the nominal input range.
    pub fn high(&self) -> Volts {
        self.high
    }

    /// The ideal LSB size `q = (high − low)/2ⁿ`.
    pub fn lsb_size(&self) -> Volts {
        Volts((self.high.0 - self.low.0) / self.resolution.code_count() as f64)
    }

    /// The transition level `T[k]` for `k` in `1..=2ⁿ−1`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn transition(&self, k: u32) -> Volts {
        assert!(
            (1..=self.resolution.transition_count()).contains(&k),
            "transition index {k} out of range 1..={}",
            self.resolution.transition_count()
        );
        Volts(self.transitions[(k - 1) as usize])
    }

    /// All transition levels in volts (`T[1]` first).
    pub fn transitions(&self) -> &[f64] {
        &self.transitions
    }

    /// Converts an input voltage to an output code (count of transition
    /// levels at or below `v`; clamps at the range ends by construction).
    pub fn convert(&self, v: Volts) -> Code {
        // Binary search for the partition point: number of transitions <= v.
        let count = self.transitions.partition_point(|&t| t <= v.0);
        Code(count as u32)
    }

    /// The width of inner code `k` (`1..=2ⁿ−2`) in volts:
    /// `T[k+1] − T[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not an inner code.
    pub fn code_width(&self, k: u32) -> Volts {
        assert!(
            (1..=self.resolution.inner_code_count()).contains(&k),
            "code {k} is not an inner code"
        );
        Volts(self.transitions[k as usize] - self.transitions[(k - 1) as usize])
    }

    /// Widths of all inner codes in LSB units (the `ΔV` of the paper's
    /// §3, ideally 1 LSB each).
    pub fn code_widths_lsb(&self) -> Vec<Lsb> {
        let q = self.lsb_size().0;
        self.transitions
            .windows(2)
            .map(|w| Lsb((w[1] - w[0]) / q))
            .collect()
    }

    /// Offsets every transition level by `delta` volts (models an input
    /// offset error).
    pub fn with_offset(mut self, delta: Volts) -> Self {
        for t in &mut self.transitions {
            *t += delta.0;
        }
        self
    }

    /// Scales every transition level about `low` by `gain` (models a gain
    /// error).
    ///
    /// # Panics
    ///
    /// Panics if `gain <= 0` (which would fold the transfer).
    pub fn with_gain(mut self, gain: f64) -> Self {
        assert!(gain > 0.0, "gain must be positive");
        let low = self.low.0;
        for t in &mut self.transitions {
            *t = low + (*t - low) * gain;
        }
        self
    }
}

impl fmt::Display for TransferFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} transfer over [{}, {}]",
            self.resolution, self.low, self.high
        )
    }
}

/// Anything that converts voltages to codes — behavioural converters and
/// fault-injection decorators implement this.
///
/// Implementations must be pure (no internal state mutation); noise is
/// injected by the acquisition layer so that experiments stay
/// reproducible under seeded RNGs.
pub trait Adc {
    /// The converter resolution.
    fn resolution(&self) -> Resolution;

    /// Converts an input voltage to an output code.
    fn convert(&self, v: Volts) -> Code;

    /// The nominal input range `(low, high)`.
    fn input_range(&self) -> (Volts, Volts);

    /// The converter's static transfer function, if it can be stated
    /// exactly. Behavioural models return `Some`; opaque/fault-wrapped
    /// models may return `None` and be characterised by sweeping.
    fn transfer(&self) -> Option<TransferFunction> {
        None
    }

    /// The sorted transition levels backing [`convert`](Self::convert),
    /// when the converter can expose them without materialising a new
    /// transfer function (i.e. without allocating).
    ///
    /// Whenever this returns `Some(levels)`, `convert(v)` must equal
    /// `Code(levels.partition_point(|&t| t <= v.0) as u32)` — batched
    /// engines rely on this to run an incremental cursor over the level
    /// array instead of a full binary search per sample. Converters whose
    /// conversion is not a pure threshold comparison (fault decorators,
    /// non-monotone models) keep the `None` default and are converted
    /// sample by sample.
    fn transition_levels(&self) -> Option<&[f64]> {
        None
    }
}

impl Adc for TransferFunction {
    fn resolution(&self) -> Resolution {
        self.resolution
    }

    fn convert(&self, v: Volts) -> Code {
        TransferFunction::convert(self, v)
    }

    fn input_range(&self) -> (Volts, Volts) {
        (self.low, self.high)
    }

    fn transfer(&self) -> Option<TransferFunction> {
        Some(self.clone())
    }

    fn transition_levels(&self) -> Option<&[f64]> {
        Some(&self.transitions)
    }
}

impl<T: Adc + ?Sized> Adc for &T {
    fn resolution(&self) -> Resolution {
        (**self).resolution()
    }

    fn convert(&self, v: Volts) -> Code {
        (**self).convert(v)
    }

    fn input_range(&self) -> (Volts, Volts) {
        (**self).input_range()
    }

    fn transfer(&self) -> Option<TransferFunction> {
        (**self).transfer()
    }

    fn transition_levels(&self) -> Option<&[f64]> {
        (**self).transition_levels()
    }
}

/// Characterises any [`Adc`] by a fine voltage sweep, recovering its
/// transition levels to within `step` volts.
///
/// Useful for models that cannot state their transfer analytically
/// (e.g. fault-wrapped converters). Non-monotonic converters are
/// linearised by the sweep: the recovered level for transition `k` is the
/// first voltage at which the output reaches code `k` — `low − step`
/// for codes already reached where the sweep starts.
///
/// # Panics
///
/// Panics if `step` is not positive, or if the sweep stalls: when
/// `v + step == v` (the step is below one ULP at the sweep voltage `v`)
/// while transitions are still missing.
pub fn characterize<A: Adc>(adc: &A, step: Volts) -> TransferFunction {
    assert!(step.0 > 0.0, "sweep step must be positive");
    let (low, high) = adc.input_range();
    let res = adc.resolution();
    let count = res.transition_count() as usize;
    let mut transitions = Vec::with_capacity(count);
    let mut v = low.0 - step.0;
    // The first sweep point records every code already reached there.
    let mut best = 0;
    let margin = (high.0 - low.0) * 0.1;
    while v <= high.0 + margin && transitions.len() < count {
        let code = adc.convert(Volts(v)).0;
        while best < code && transitions.len() < count {
            best += 1;
            transitions.push(v);
        }
        let next = v + step.0;
        assert!(
            next != v || transitions.len() == count,
            "sweep cannot advance: step {} V is below one ULP at {} V",
            step.0,
            v
        );
        v = next;
    }
    // Any transitions never reached (e.g. stuck top codes) sit above the
    // range. The nominal [low, high] is preserved so the LSB size (and
    // hence DNL/INL) of the recovered transfer matches the original.
    while transitions.len() < count {
        transitions.push(high.0 + margin);
    }
    TransferFunction::from_transitions(res, low, high, transitions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn six_bit() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    #[test]
    fn ideal_transitions_are_uniform() {
        let tf = six_bit();
        assert_eq!(tf.transitions().len(), 63);
        assert!((tf.transition(1).0 - 0.1).abs() < 1e-12);
        assert!((tf.transition(63).0 - 6.3).abs() < 1e-12);
        for w in tf.code_widths_lsb() {
            assert!((w.0 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn convert_steps_at_transitions() {
        let tf = six_bit();
        assert_eq!(tf.convert(Volts(0.0999)), Code(0));
        assert_eq!(tf.convert(Volts(0.1)), Code(1));
        assert_eq!(tf.convert(Volts(0.1999)), Code(1));
        assert_eq!(tf.convert(Volts(3.2)), Code(32));
    }

    #[test]
    fn convert_clamps_out_of_range() {
        let tf = six_bit();
        assert_eq!(tf.convert(Volts(-100.0)), Code(0));
        assert_eq!(tf.convert(Volts(100.0)), Code(63));
    }

    #[test]
    fn ramp_sweep_visits_every_code_once() {
        let tf = six_bit();
        let mut seen = [false; 64];
        let mut v = -0.05;
        while v < 6.5 {
            seen[tf.convert(Volts(v)).0 as usize] = true;
            v += 0.01;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn code_width_matches_transition_difference() {
        let tf = six_bit();
        for k in 1..=62 {
            let w = tf.code_width(k);
            assert!((w.0 - 0.1).abs() < 1e-12, "code {k}: {w}");
        }
    }

    #[test]
    #[should_panic(expected = "not an inner code")]
    fn code_width_of_end_code_panics() {
        six_bit().code_width(0);
    }

    #[test]
    #[should_panic(expected = "not an inner code")]
    fn code_width_of_top_code_panics() {
        six_bit().code_width(63);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn transition_index_zero_panics() {
        six_bit().transition(0);
    }

    #[test]
    fn from_transitions_validation() {
        let r = Resolution::new(2).unwrap();
        // 3 levels required.
        let tf = TransferFunction::from_transitions(r, Volts(0.0), Volts(4.0), vec![1.0, 2.0, 3.0]);
        assert_eq!(tf.convert(Volts(2.5)), Code(2));
    }

    #[test]
    #[should_panic(expected = "expected 3 transition levels")]
    fn from_transitions_wrong_count_panics() {
        let r = Resolution::new(2).unwrap();
        TransferFunction::from_transitions(r, Volts(0.0), Volts(4.0), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_transitions_unsorted_panics() {
        let r = Resolution::new(2).unwrap();
        TransferFunction::from_transitions(r, Volts(0.0), Volts(4.0), vec![2.0, 1.0, 3.0]);
    }

    #[test]
    fn equal_transitions_make_missing_code() {
        let r = Resolution::new(2).unwrap();
        let tf = TransferFunction::from_transitions(r, Volts(0.0), Volts(4.0), vec![1.0, 2.0, 2.0]);
        // Code 2 has zero width: input 2.0 jumps straight to code 3.
        assert_eq!(tf.convert(Volts(1.99)), Code(1));
        assert_eq!(tf.convert(Volts(2.0)), Code(3));
        assert_eq!(tf.code_width(2).0, 0.0);
    }

    #[test]
    fn offset_shifts_all_transitions() {
        let tf = six_bit().with_offset(Volts(0.05));
        assert!((tf.transition(1).0 - 0.15).abs() < 1e-12);
        assert_eq!(tf.convert(Volts(0.1)), Code(0)); // moved up
    }

    #[test]
    fn gain_scales_about_low() {
        let tf = six_bit().with_gain(2.0);
        assert!((tf.transition(1).0 - 0.2).abs() < 1e-12);
        assert!((tf.transition(2).0 - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gain must be positive")]
    fn gain_rejects_non_positive() {
        six_bit().with_gain(0.0);
    }

    #[test]
    fn adc_trait_on_transfer_function() {
        let tf = six_bit();
        let adc: &dyn Adc = &tf;
        assert_eq!(adc.resolution().bits(), 6);
        assert_eq!(adc.convert(Volts(3.2)), Code(32));
        assert!(adc.transfer().is_some());
    }

    #[test]
    fn characterize_recovers_ideal_transitions() {
        let tf = six_bit();
        let rec = characterize(&tf, Volts(0.0005));
        for k in 1..=63 {
            let err = (rec.transition(k).0 - tf.transition(k).0).abs();
            assert!(err <= 0.0006, "transition {k}: err {err}");
        }
    }

    #[test]
    fn display_mentions_range() {
        assert!(six_bit().to_string().contains("6-bit"));
    }
}
