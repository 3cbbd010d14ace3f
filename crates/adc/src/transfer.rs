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
use std::cell::RefCell;
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

    /// Widths of all inner codes in LSB units (the `ΔV` of the paper's
    /// §3, ideally 1 LSB each).
    pub fn code_widths_lsb(&self) -> Vec<Lsb> {
        let q = self.lsb_size().0;
        self.transitions
            .windows(2)
            .map(|w| Lsb((w[1] - w[0]) / q))
            .collect()
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
/// for codes already reached where the sweep starts. A converter whose
/// code changes only where its input crosses known levels (the SAR
/// model) gets the same transfer from `characterize_crossings`, which
/// searches this sweep's grid instead of converting at every point.
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
    let end = sweep_end(low, high);
    while v <= end && transitions.len() < count {
        record(&mut transitions, count, adc.convert(Volts(v)), v);
        let next = v + step.0;
        assert!(
            next != v || transitions.len() == count,
            "sweep cannot advance: step {} V is below one ULP at {} V",
            step.0,
            v
        );
        v = next;
    }
    finish(res, low, high, transitions)
}

/// The last point [`characterize`]'s sweep may reach: 10% of the span
/// above `high`. Transitions never reached are placed there.
fn sweep_end(low: Volts, high: Volts) -> f64 {
    high.0 + (high.0 - low.0) * 0.1
}

/// The sweep's running-maximum rule: a point `v` converting to `code`
/// records every transition up to `code` not yet recorded (the first
/// point records every code already reached there).
fn record(transitions: &mut Vec<f64>, count: usize, code: Code, v: f64) {
    let reached = (code.0 as usize).min(count);
    if reached > transitions.len() {
        transitions.resize(reached, v);
    }
}

/// Completes a sweep's transitions. Any never reached (e.g. stuck top
/// codes) sit above the range; the nominal `[low, high]` is kept so the
/// LSB size (and hence DNL/INL) matches the swept converter's.
fn finish(res: Resolution, low: Volts, high: Volts, mut transitions: Vec<f64>) -> TransferFunction {
    transitions.resize(res.transition_count() as usize, sweep_end(low, high));
    TransferFunction::from_transitions(res, low, high, transitions)
}

/// [`characterize`] for a converter whose code can change only where
/// `v + offset >= level` flips for one of `levels` (the SAR comparator
/// against its DAC levels): between two such flips every comparison,
/// and so the code, is constant. For each level this binary-searches the
/// sweep grid for the first point where the comparison holds, converts
/// only at those points, and applies the sweep's running-maximum rule,
/// so every transition is bit-identical to [`characterize`]'s at a
/// fraction of the conversions. `adc.convert` must compare exactly
/// `v + offset >= level`, in that float expression, and convert to code
/// 0 when every comparison fails.
///
/// The grid is the same for every converter with the same input range
/// and step; each thread keeps the last one it searched. A grid whose
/// step stalls falls back to [`characterize`].
///
/// # Panics
///
/// As [`characterize`].
pub(crate) fn characterize_crossings<A: Adc>(
    adc: &A,
    step: Volts,
    offset: f64,
    levels: &[f64],
) -> TransferFunction {
    assert!(step.0 > 0.0, "sweep step must be positive");
    let (low, high) = adc.input_range();
    let starts = SWEEP_GRID.with_borrow_mut(|grid| {
        grid.refresh(low, high, step.0);
        grid.segment_starts(offset, levels)
    });
    let Some(starts) = starts else {
        return characterize(adc, step);
    };
    let count = adc.resolution().transition_count() as usize;
    let mut transitions = Vec::with_capacity(count);
    for (_, v) in starts {
        record(&mut transitions, count, adc.convert(Volts(v)), v);
    }
    finish(adc.resolution(), low, high, transitions)
}

/// Every how many sweep points [`SweepGrid`] stores one.
const GRID_STRIDE: usize = 64;

thread_local! {
    /// The sweep grid this thread last searched.
    static SWEEP_GRID: RefCell<SweepGrid> = const {
        RefCell::new(SweepGrid {
            key: None,
            step: 0.0,
            len: 0,
            checkpoints: Vec::new(),
            stalls: false,
        })
    };
}

/// The points [`characterize`] converts at for one input range and step:
/// `v₀ = low − step`, then `vᵢ₊₁ = vᵢ + step` while `vᵢ` is at most
/// [`sweep_end`]. Only every [`GRID_STRIDE`]-th point is stored; the
/// others are re-walked from it by the same additions, so each point is
/// bit-identical to the sweep's.
struct SweepGrid {
    /// Bits of the `(low, high, step)` the grid was built for.
    key: Option<[u64; 3]>,
    step: f64,
    /// Number of sweep points.
    len: usize,
    /// `v₀, v₆₄, v₁₂₈, …`
    checkpoints: Vec<f64>,
    /// Whether the sweep stalls (`v + step == v`) within the grid.
    stalls: bool,
}

impl SweepGrid {
    /// Rebuilds the grid unless it already is the one for this range
    /// and step.
    fn refresh(&mut self, low: Volts, high: Volts, step: f64) {
        let key = [low.0.to_bits(), high.0.to_bits(), step.to_bits()];
        if self.key == Some(key) {
            return;
        }
        self.key = Some(key);
        self.step = step;
        self.checkpoints.clear();
        self.len = 0;
        self.stalls = false;
        let end = sweep_end(low, high);
        let mut v = low.0 - step;
        while v <= end {
            if self.len.is_multiple_of(GRID_STRIDE) {
                self.checkpoints.push(v);
            }
            self.len += 1;
            let next = v + step;
            if next == v {
                self.stalls = true;
                return;
            }
            v = next;
        }
    }

    /// The points where a converter comparing `v + offset >= level`
    /// against `levels` can change code, in sweep order: for each level
    /// reached, the first point where it holds. Before the first of them
    /// every comparison fails, so the code is 0 and records nothing.
    /// `None` if the grid stalls.
    fn segment_starts(&self, offset: f64, levels: &[f64]) -> Option<Vec<(usize, f64)>> {
        if self.stalls {
            return None;
        }
        // Sized up front: collecting the iterator instead, which grows
        // the Vec as it goes, measured 1.6x slower per paper device.
        let mut starts = Vec::with_capacity(levels.len());
        starts.extend(
            levels
                .iter()
                .filter_map(|&level| self.first(|v| v + offset >= level)),
        );
        starts.sort_unstable_by_key(|&(i, _)| i);
        starts.dedup_by_key(|&mut (i, _)| i);
        Some(starts)
    }

    /// The index and value of the first point where `holds` is true,
    /// given that it is false before that point and true from it on.
    fn first(&self, holds: impl Fn(f64) -> bool) -> Option<(usize, f64)> {
        let block = self.checkpoints.partition_point(|&v| !holds(v));
        if block == 0 {
            return self.checkpoints.first().map(|&v| (0, v));
        }
        // Point `base` fails and point `base + GRID_STRIDE` (if any)
        // holds: walk the points between.
        let base = (block - 1) * GRID_STRIDE;
        let mut v = self.checkpoints[block - 1];
        for i in base + 1..self.len.min(base + GRID_STRIDE) {
            v += self.step;
            if holds(v) {
                return Some((i, v));
            }
        }
        self.checkpoints
            .get(block)
            .map(|&v| (block * GRID_STRIDE, v))
    }
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
        assert!((tf.transitions()[0] - 0.1).abs() < 1e-12);
        assert!((tf.transitions()[62] - 6.3).abs() < 1e-12);
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
        let mut t: Vec<f64> = (1..=63).map(|k| f64::from(k) * 0.1).collect();
        t[20] += 0.03;
        let tf = TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t);
        let t = tf.transitions();
        for (k, w) in tf.code_widths_lsb().iter().enumerate() {
            let want = (t[k + 1] - t[k]) / 0.1;
            assert!((w.0 - want).abs() < 1e-12, "code {}: {}", k + 1, w.0);
        }
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
        assert_eq!(tf.code_widths_lsb()[1].0, 0.0);
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
        for (k, (r, t)) in rec.transitions().iter().zip(tf.transitions()).enumerate() {
            let err = (r - t).abs();
            assert!(err <= 0.0006, "transition {}: err {err}", k + 1);
        }
    }

    #[test]
    fn display_mentions_range() {
        assert!(six_bit().to_string().contains("6-bit"));
    }
}
