//! RTL deglitch filters for the monitored LSB and the full output code.
//!
//! §3: comparator transition noise *"can cause toggling of the LSB which
//! means that there is no exact transition. Toggles in the LSB can be
//! removed by means of a simple digital filter."* [`Deglitcher`] is that
//! filter as hardware: a 3-stage shift register and a majority gate.
//! Once the pipeline is primed, its output is bit-exact with a majority
//! vote over each sample and the two before it; a cross-check test
//! below enforces that.
//!
//! [`CodeMedianFilter`] is the multi-bit counterpart guarding the
//! Figure-2 upper-bit checker: a rank-order (median-of-3) filter over
//! whole output codes — two word registers plus a compare-select
//! network. It is bit-exact with the streaming median the behavioural
//! `FunctionalAcc` applies when deglitching is enabled.
//!
//! Both filters expose a `hold()` drain operation that recirculates the
//! filter's own output. Recirculation provably never creates a new
//! transition (see the unit properties below), so the BIST top level can
//! flush its synchroniser latency at the end of a sweep without judging
//! codes the behavioural reference — which stops dead at the last
//! sample — would not have judged.

use crate::logic::Bus;
use crate::registers::ShiftRegister;
use std::fmt;

/// Three-tap majority-vote filter.
///
/// # Examples
///
/// ```
/// use bist_rtl::deglitch::Deglitcher;
///
/// let mut d = Deglitcher::new();
/// // An isolated glitch is absorbed.
/// let out: Vec<bool> = [false, false, true, false, false]
///     .iter()
///     .map(|&b| d.tick(b))
///     .collect();
/// assert!(out.iter().all(|&b| !b));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deglitcher {
    taps: ShiftRegister,
}

impl Deglitcher {
    /// A deglitcher with cleared taps.
    pub fn new() -> Self {
        Deglitcher {
            taps: ShiftRegister::new(3),
        }
    }

    /// Clocks the filter with the raw bit; returns the voted output
    /// (2-of-3 majority over the window including this cycle's input).
    pub fn tick(&mut self, raw: bool) -> bool {
        self.taps.tick(raw);
        let ones = self.taps.bits().iter().filter(|&&b| b).count();
        ones >= 2
    }

    /// Drain cycle: clocks the filter with its *own current output*
    /// (the majority over the stored taps). Recirculation keeps the
    /// output constant — `vote(b₂, b₁, vote(b₃, b₂, b₁)) = vote(b₃, b₂,
    /// b₁)` for every tap pattern — so holding never invents an edge
    /// the input stream did not contain.
    pub fn hold(&mut self) -> bool {
        let ones = self.taps.bits().iter().filter(|&&b| b).count();
        self.tick(ones >= 2)
    }

    /// Clears the filter state.
    pub fn clear(&mut self) {
        self.taps.clear();
    }
}

impl Default for Deglitcher {
    fn default() -> Self {
        Deglitcher::new()
    }
}

impl fmt::Display for Deglitcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deglitcher [{}]",
            self.taps
                .bits()
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect::<String>()
        )
    }
}

/// Median-of-3 rank filter over whole output codes.
///
/// The first sample loads both word registers (reset-release capture),
/// so the filter's output sequence is the behavioural streaming median
/// with the first element duplicated once — duplication of consecutive
/// samples preserves every transition and the values at them, which is
/// all the downstream edge-triggered checker observes.
///
/// # Examples
///
/// ```
/// use bist_rtl::deglitch::CodeMedianFilter;
/// use bist_rtl::logic::Bus;
///
/// let mut f = CodeMedianFilter::new(6);
/// // An isolated outlier in a staircase is replaced by its neighbours.
/// let out: Vec<u64> = [3u64, 3, 60, 4, 4]
///     .iter()
///     .map(|&c| f.tick(Bus::new(6, c)).value())
///     .collect();
/// assert_eq!(out, vec![3, 3, 3, 4, 4]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeMedianFilter {
    prev2: Bus,
    prev1: Bus,
    last_out: Bus,
    primed: bool,
}

impl CodeMedianFilter {
    /// A filter for `width`-bit codes with cleared registers.
    pub fn new(width: u32) -> Self {
        CodeMedianFilter {
            prev2: Bus::zero(width),
            prev1: Bus::zero(width),
            last_out: Bus::zero(width),
            primed: false,
        }
    }

    /// Clocks the filter with this cycle's code; returns the median of
    /// the 3-sample window ending at this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `code` has a different width than configured.
    pub fn tick(&mut self, code: Bus) -> Bus {
        assert_eq!(code.width(), self.prev1.width(), "code width changed");
        if !self.primed {
            // First valid sample seeds the whole window.
            self.prev2 = code;
            self.prev1 = code;
            self.primed = true;
        }
        let (a, b, c) = (self.prev2.value(), self.prev1.value(), code.value());
        let m = a.max(b).min(a.max(c)).min(b.max(c));
        self.prev2 = self.prev1;
        self.prev1 = code;
        self.last_out = Bus::truncate(code.width(), m);
        self.last_out
    }

    /// Drain cycle: clocks the filter with its own last output. The
    /// median of a window's two stored samples and their own median is
    /// that median again, so holding keeps the output constant and
    /// never creates a transition.
    pub fn hold(&mut self) -> Bus {
        self.tick(self.last_out)
    }

    /// Clears the registers and re-arms the first-sample capture.
    pub fn clear(&mut self) {
        let w = self.prev1.width();
        self.prev2 = Bus::zero(w);
        self.prev1 = Bus::zero(w);
        self.last_out = Bus::zero(w);
        self.primed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(bits: &[bool]) -> Vec<bool> {
        let mut d = Deglitcher::new();
        bits.iter().map(|&b| d.tick(b)).collect()
    }

    #[test]
    fn suppresses_isolated_high_glitch() {
        let out = run(&[false, false, true, false, false, false]);
        assert!(out.iter().all(|&b| !b), "{out:?}");
    }

    #[test]
    fn suppresses_isolated_low_glitch() {
        let out = run(&[true, true, true, false, true, true]);
        // After priming (cycle 1), output stays high through the glitch.
        assert!(out[1..].iter().all(|&b| b), "{out:?}");
    }

    #[test]
    fn passes_clean_transition_with_one_cycle_latency() {
        let out = run(&[false, false, true, true, true]);
        assert_eq!(out, vec![false, false, false, true, true]);
    }

    #[test]
    fn bouncing_edge_single_transition() {
        let out = run(&[false, true, false, true, true, false, true, true, true]);
        let transitions = out.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 1, "{out:?}");
    }

    #[test]
    fn clear_resets() {
        let mut d = Deglitcher::new();
        d.tick(true);
        d.tick(true);
        assert!(d.tick(true));
        d.clear();
        assert!(!d.tick(false));
    }

    #[test]
    fn matches_behavioral_majority_vote() {
        // Bit-exact against a behavioural 3-sample majority vote for a
        // pseudo-random stream, after the 2-sample priming window (the
        // RTL taps reset to zero).
        let bits: Vec<bool> = (0..200).map(|i| (i * 7919 % 13) < 6).collect();
        let rtl = run(&bits);
        let reference: Vec<bool> = bits
            .windows(3)
            .map(|w| w.iter().filter(|&&b| b).count() >= 2)
            .collect();
        assert_eq!(rtl[2..], reference[..]);
    }

    #[test]
    fn display_shows_taps() {
        let mut d = Deglitcher::new();
        d.tick(true);
        assert!(d.to_string().contains('1'));
    }

    #[test]
    fn hold_never_flips_the_output() {
        // Every 3-bit tap pattern: recirculating keeps the output fixed
        // for arbitrarily many drain cycles.
        for pattern in 0..8u8 {
            let mut d = Deglitcher::new();
            for i in 0..3 {
                d.tick(pattern >> i & 1 == 1);
            }
            let settled = d.hold();
            for _ in 0..5 {
                assert_eq!(d.hold(), settled, "pattern {pattern:03b}");
            }
        }
    }

    #[test]
    fn code_median_suppresses_outlier_and_passes_staircase() {
        let mut f = CodeMedianFilter::new(6);
        let seq = [5u64, 5, 5, 40, 6, 6, 7, 7];
        let out: Vec<u64> = seq
            .iter()
            .map(|&c| f.tick(Bus::new(6, c)).value())
            .collect();
        assert_eq!(out, vec![5, 5, 5, 5, 6, 6, 6, 7]);
    }

    #[test]
    fn code_median_hold_is_constant() {
        // Any final window: holding repeats the last median forever.
        for (a, b, c) in [(1u64, 9, 5), (0, 9, 1), (7, 7, 0), (3, 3, 3)] {
            let mut f = CodeMedianFilter::new(4);
            f.tick(Bus::new(4, a));
            f.tick(Bus::new(4, b));
            let last = f.tick(Bus::new(4, c));
            for _ in 0..4 {
                assert_eq!(f.hold(), last, "window ({a},{b},{c})");
            }
        }
    }

    #[test]
    fn code_median_first_sample_passes_through() {
        let mut f = CodeMedianFilter::new(6);
        assert_eq!(f.tick(Bus::new(6, 42)).value(), 42);
        f.clear();
        assert_eq!(f.tick(Bus::new(6, 7)).value(), 7);
    }

    #[test]
    #[should_panic(expected = "code width changed")]
    fn code_median_width_mismatch_panics() {
        let mut f = CodeMedianFilter::new(6);
        f.tick(Bus::new(5, 1));
    }
}
