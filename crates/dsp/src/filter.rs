//! Simple digital filters.
//!
//! §3 of the paper notes that comparator *transition noise* makes the LSB
//! toggle around a code edge, and that "toggles in the LSB can be removed
//! by means of a simple digital filter". The [`MajorityVote`] filter here
//! is the behavioural reference the RTL deglitcher in `bist-rtl` is
//! tested against. The numeric filters have no caller; their deletion
//! is queued (ROADMAP item 4).

use std::collections::VecDeque;

/// Fixed-length moving-average filter.
///
/// # Examples
///
/// ```
/// use bist_dsp::filter::MovingAverage;
///
/// let mut f = MovingAverage::new(4);
/// let ys: Vec<f64> = [4.0, 4.0, 4.0, 4.0].iter().map(|&x| f.push(x)).collect();
/// assert_eq!(ys[3], 4.0); // fully primed
/// ```
#[derive(Debug, Clone, PartialEq)]
// bist-lint: allow(dead-pub) — deletion queued on ROADMAP item 4; its own tests go with it
pub struct MovingAverage {
    window: VecDeque<f64>,
    len: usize,
    sum: f64,
}

impl MovingAverage {
    /// Creates a filter averaging the last `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "moving average length must be non-zero");
        MovingAverage {
            window: VecDeque::with_capacity(len),
            len,
            sum: 0.0,
        }
    }

    /// Pushes a sample and returns the current average (over however many
    /// samples have been seen, up to the window length).
    pub fn push(&mut self, x: f64) -> f64 {
        if self.window.len() == self.len {
            if let Some(old) = self.window.pop_front() {
                self.sum -= old;
            }
        }
        self.window.push_back(x);
        self.sum += x;
        self.sum / self.window.len() as f64
    }

    /// Number of samples currently in the window.
    pub fn fill(&self) -> usize {
        self.window.len()
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.window.clear();
        self.sum = 0.0;
    }
}

/// Odd-length streaming median filter (useful against impulsive noise).
#[derive(Debug, Clone, PartialEq)]
// bist-lint: allow(dead-pub) — deletion queued on ROADMAP item 4; its own tests go with it
pub struct MedianFilter {
    window: VecDeque<f64>,
    len: usize,
}

impl MedianFilter {
    /// Creates a median filter over the last `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or even.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "median length must be non-zero");
        assert!(len % 2 == 1, "median length must be odd");
        MedianFilter {
            window: VecDeque::with_capacity(len),
            len,
        }
    }

    /// Pushes a sample and returns the median of the current window.
    pub fn push(&mut self, x: f64) -> f64 {
        if self.window.len() == self.len {
            self.window.pop_front();
        }
        self.window.push_back(x);
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("median input must not be NaN"));
        sorted[sorted.len() / 2]
    }
}

/// Single-pole IIR low-pass: `y += α(x − y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
// bist-lint: allow(dead-pub) — deletion queued on ROADMAP item 4; its own tests go with it
pub struct SinglePoleIir {
    alpha: f64,
    state: f64,
    primed: bool,
}

impl SinglePoleIir {
    /// Creates the filter with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        SinglePoleIir {
            alpha,
            state: 0.0,
            primed: false,
        }
    }

    /// Pushes a sample and returns the filtered output. The first sample
    /// initialises the state directly (no start-up transient).
    pub fn push(&mut self, x: f64) -> f64 {
        if !self.primed {
            self.state = x;
            self.primed = true;
        } else {
            self.state += self.alpha * (x - self.state);
        }
        self.state
    }

    /// Current filter state.
    pub fn state(&self) -> f64 {
        self.state
    }
}

/// Majority-vote deglitcher over a sliding window of bits.
///
/// The behavioural counterpart of the on-chip LSB deglitch filter: the
/// output is 1 when more than half the last `len` raw bits are 1. With
/// `len = 3` an isolated single-sample toggle (the transition-noise
/// glitch of §3) is suppressed while genuine transitions pass with one
/// sample of latency.
///
/// # Examples
///
/// ```
/// use bist_dsp::filter::MajorityVote;
///
/// let mut f = MajorityVote::new(3);
/// // A clean 0→1 transition passes (delayed), an isolated glitch does not.
/// let out: Vec<bool> = [false, false, true, false, false, true, true, true]
///     .iter()
///     .map(|&b| f.push(b))
///     .collect();
/// assert!(!out[3]); // glitch at index 2 suppressed
/// assert!(out[7]); // sustained high accepted
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MajorityVote {
    window: VecDeque<bool>,
    len: usize,
    ones: usize,
}

impl MajorityVote {
    /// Creates a voter over the last `len` bits (odd, non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or even.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "window length must be non-zero");
        assert!(len % 2 == 1, "window length must be odd");
        MajorityVote {
            window: VecDeque::with_capacity(len),
            len,
            ones: 0,
        }
    }

    /// Pushes a raw bit and returns the voted output. While the window is
    /// filling, the vote is taken over the bits seen so far (ties → false).
    pub fn push(&mut self, bit: bool) -> bool {
        if self.window.len() == self.len {
            if let Some(old) = self.window.pop_front() {
                if old {
                    self.ones -= 1;
                }
            }
        }
        self.window.push_back(bit);
        if bit {
            self.ones += 1;
        }
        2 * self.ones > self.window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Votes an entire bit sequence through a fresh `len`-bit filter.
    fn filter_sequence(len: usize, bits: &[bool]) -> Vec<bool> {
        let mut f = MajorityVote::new(len);
        bits.iter().map(|&b| f.push(b)).collect()
    }

    #[test]
    fn moving_average_ramps_up() {
        let mut f = MovingAverage::new(3);
        assert_eq!(f.push(3.0), 3.0);
        assert_eq!(f.push(6.0), 4.5);
        assert_eq!(f.push(9.0), 6.0);
        assert_eq!(f.push(12.0), 9.0); // window [6,9,12]
        assert_eq!(f.fill(), 3);
    }

    #[test]
    fn moving_average_reset() {
        let mut f = MovingAverage::new(2);
        f.push(10.0);
        f.reset();
        assert_eq!(f.fill(), 0);
        assert_eq!(f.push(4.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn moving_average_zero_len_panics() {
        MovingAverage::new(0);
    }

    #[test]
    fn median_rejects_impulse() {
        let mut f = MedianFilter::new(3);
        f.push(1.0);
        f.push(1.0);
        assert_eq!(f.push(100.0), 1.0); // impulse outvoted
        assert_eq!(f.push(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn median_even_len_panics() {
        MedianFilter::new(4);
    }

    #[test]
    fn iir_converges_to_dc() {
        let mut f = SinglePoleIir::new(0.25);
        let mut y = 0.0;
        for _ in 0..100 {
            y = f.push(2.0);
        }
        assert!((y - 2.0).abs() < 1e-9);
    }

    #[test]
    fn iir_first_sample_primes_state() {
        let mut f = SinglePoleIir::new(0.1);
        assert_eq!(f.push(5.0), 5.0);
        assert_eq!(f.state(), 5.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn iir_bad_alpha_panics() {
        SinglePoleIir::new(1.5);
    }

    #[test]
    fn majority_vote_suppresses_isolated_glitch() {
        // Steady low with one glitch high: output never goes high.
        let bits = [false, false, false, true, false, false, false];
        let out = filter_sequence(3, &bits);
        assert!(out.iter().all(|&b| !b), "{out:?}");
    }

    #[test]
    fn majority_vote_suppresses_glitch_low() {
        // Steady high with one glitch low: output stays high once primed.
        let bits = [true, true, true, false, true, true, true];
        let out = filter_sequence(3, &bits);
        assert!(out[2..].iter().all(|&b| b), "{out:?}");
    }

    #[test]
    fn majority_vote_passes_transition_with_latency() {
        let bits = [false, false, false, true, true, true, true];
        let out = filter_sequence(3, &bits);
        // Transition at raw index 3 appears at voted index 4 (latency 1).
        assert!(!out[3]);
        assert!(out[4]);
    }

    #[test]
    fn majority_vote_five_tap_needs_three_ones() {
        let mut f = MajorityVote::new(5);
        for _ in 0..5 {
            f.push(false);
        }
        assert!(!f.push(true));
        assert!(!f.push(true));
        assert!(f.push(true)); // 3 of last 5
    }

    #[test]
    fn majority_vote_bouncing_edge_resolves_cleanly() {
        // A noisy edge: 0 0 1 0 1 1 0 1 1 1 — the filter should emit a
        // single clean transition with no output glitches.
        let bits = [
            false, false, true, false, true, true, false, true, true, true,
        ];
        let out = filter_sequence(3, &bits);
        let transitions = out.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 1, "{out:?}");
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn majority_vote_even_panics() {
        MajorityVote::new(2);
    }
}
