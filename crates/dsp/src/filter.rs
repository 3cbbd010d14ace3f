//! The LSB deglitch filter.
//!
//! §3 of the paper notes that comparator *transition noise* makes the LSB
//! toggle around a code edge, and that "toggles in the LSB can be removed
//! by means of a simple digital filter". [`MajorityVote`] is that filter:
//! the behavioural reference the RTL deglitcher in `bist-rtl` is tested
//! against.

use std::collections::VecDeque;

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
