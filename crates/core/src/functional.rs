//! Behavioural reference of the Figure-2 upper-bit functional test.
//!
//! While the monitored bit is processed by the LSB monitor, the bits
//! above it must simply count: the code sequence of a ramp increments by
//! one, so the upper word increments exactly at each falling edge of the
//! monitored bit. Comparing the observed upper word against an internal
//! counter clocked by that edge verifies the converter's functionality —
//! stuck output bits, decoder miswires and skipped codes all break the
//! `+1` continuity.
//!
//! [`FunctionalState`] holds no buffer: [`FunctionalState::push`]
//! returns the check a code fires, and the caller keeps it or not. The
//! scalar judge ([`crate::backend::BehavioralBackend`]) records each
//! one in the per-worker `harness::Scratch` (cleared, not shrunk, so the
//! hot path is allocation-free after the first device); the batch
//! engine's run-skipping sweep records nothing.

use bist_adc::types::Code;
use std::fmt;

/// One functional check fired at a falling edge of the monitored bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalCheck {
    /// Sample index at which the check fired.
    pub sample: usize,
    /// The expected upper word (previous value + 1).
    pub expected: u64,
    /// The observed upper word.
    pub observed: u64,
    /// Whether they matched.
    pub ok: bool,
}

/// Result of the functional test over one sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalResult {
    /// All checks fired.
    pub checks: Vec<FunctionalCheck>,
    /// Number of mismatches.
    pub mismatches: u64,
}

impl FunctionalResult {
    /// Whether every check matched.
    pub fn all_pass(&self) -> bool {
        self.mismatches == 0
    }
}

impl fmt::Display for FunctionalResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "functional: {}/{} mismatches → {}",
            self.mismatches,
            self.checks.len(),
            if self.all_pass() { "PASS" } else { "FAIL" }
        )
    }
}

/// Runs the upper-bit functional test on a code stream.
///
/// `monitored_bit` is the bit index driving the edge detection (0 = LSB,
/// the paper's full-BIST case); the "upper word" is `code >> (monitored_bit + 1)`.
/// After the first falling edge seeds the expected value, every further
/// falling edge requires the upper word to have incremented by exactly
/// one. On a mismatch the expectation resynchronises so each defect is
/// counted once.
///
/// # Examples
///
/// ```
/// use bist_adc::types::Code;
/// use bist_core::functional::check_code_stream;
///
/// // A clean staircase 0,0,1,1,2,2,... passes.
/// let codes: Vec<Code> = (0u32..32).flat_map(|c| [Code(c), Code(c)]).collect();
/// let result = check_code_stream(&codes, 0);
/// assert!(result.all_pass());
/// assert!(result.checks.len() >= 14);
/// ```
pub fn check_code_stream(codes: &[Code], monitored_bit: u32) -> FunctionalResult {
    let mut state = FunctionalState::new(monitored_bit, false);
    let checks = codes.iter().filter_map(|&code| state.push(code)).collect();
    FunctionalResult {
        checks,
        mismatches: state.tally().mismatches,
    }
}

/// Compact (heap-free) summary returned by [`FunctionalState::tally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalTally {
    /// Number of checks fired.
    pub checks: u64,
    /// Number of mismatches.
    pub mismatches: u64,
}

/// The heap-free per-sweep state of the upper-bit functional checker:
/// edge detector, expectation counter, median window and mismatch
/// tally. Push codes one sample at a time.
///
/// Replicates [`check_code_stream`] exactly without materialising the
/// code stream. With `deglitch` enabled the codes are first passed
/// through a streaming median-of-3 filter (the first sample passes
/// through unchanged; the trailing in-flight window is never judged) —
/// the behavioural twin of the RTL `CodeMedianFilter` guarding
/// `bist_rtl`'s upper-bit checker, and bit-exact with it per the
/// backend-equivalence property tests. `Copy`, so every behavioural
/// sweep keeps one in a local and steps it with the *same* `push`.
#[derive(Debug, Clone, Copy)]
pub struct FunctionalState {
    monitored_bit: u32,
    fired: u64,
    mismatches: u64,
    expected: Option<u64>,
    prev_bit: Option<bool>,
    pos: usize,
    /// Median-of-3 window state: the last two raw codes and how many
    /// codes have been pushed (None = filter off).
    median: Option<(Code, Code, u64)>,
}

impl FunctionalState {
    /// Fresh state for one sweep.
    pub fn new(monitored_bit: u32, deglitch: bool) -> Self {
        FunctionalState {
            monitored_bit,
            fired: 0,
            mismatches: 0,
            expected: None,
            prev_bit: None,
            pos: 0,
            median: deglitch.then_some((Code(0), Code(0), 0)),
        }
    }

    /// Pushes one raw code sample, returning the check it fires, if
    /// any.
    pub fn push(&mut self, code: Code) -> Option<FunctionalCheck> {
        match &mut self.median {
            None => self.step(code),
            Some((c1, c2, n)) => {
                let emit = match *n {
                    // First sample passes through unfiltered.
                    0 => {
                        *c1 = code;
                        Some(code)
                    }
                    1 => {
                        *c2 = code;
                        None
                    }
                    _ => {
                        let (a, b, c) = (c1.0, c2.0, code.0);
                        let m = a.max(b).min(a.max(c)).min(b.max(c));
                        (*c1, *c2) = (*c2, code);
                        Some(Code(m))
                    }
                };
                *n += 1;
                emit.and_then(|c| self.step(c))
            }
        }
    }

    /// Advances the sweep by `k` repeats of the last pushed code
    /// without stepping the per-sample machinery — the run-skipping
    /// fast path of the batched engine.
    ///
    /// Contract: the caller must have pushed the same code at least
    /// twice in a row (once suffices with the median filter off), so
    /// every skipped push would provably emit that same code again with
    /// no edge: only the sample position and the median's push count
    /// advance.
    pub fn skip_run(&mut self, k: u64) {
        if let Some((c1, c2, n)) = &mut self.median {
            debug_assert!(c1 == c2 && *n >= 2, "skip_run before the median settled");
            *n += k;
        }
        self.pos += k as usize;
    }

    /// Processes one element of the (possibly filtered) code stream.
    fn step(&mut self, code: Code) -> Option<FunctionalCheck> {
        let bit = (code.0 >> self.monitored_bit) & 1 == 1;
        let upper = u64::from(code.0 >> (self.monitored_bit + 1));
        let mut check = None;
        if let Some(p) = self.prev_bit {
            if p && !bit {
                // Falling edge of the monitored bit.
                match self.expected {
                    None => self.expected = Some(upper),
                    Some(prev_val) => {
                        let want = prev_val.wrapping_add(1);
                        let ok = upper == want;
                        if !ok {
                            self.mismatches += 1;
                        }
                        self.fired += 1;
                        check = Some(FunctionalCheck {
                            sample: self.pos,
                            expected: want,
                            observed: upper,
                            ok,
                        });
                        self.expected = Some(upper);
                    }
                }
            }
        }
        self.prev_bit = Some(bit);
        self.pos += 1;
        check
    }

    /// The compact tally so far. The median filter's in-flight window
    /// is discarded — like the monitor path (and the hardware), the
    /// sweep stops dead at the last sample and judges nothing beyond
    /// it.
    pub fn tally(&self) -> FunctionalTally {
        FunctionalTally {
            checks: self.fired,
            mismatches: self.mismatches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase(codes: impl IntoIterator<Item = u32>, per_code: usize) -> Vec<Code> {
        codes
            .into_iter()
            .flat_map(|c| std::iter::repeat_n(Code(c), per_code))
            .collect()
    }

    #[test]
    fn clean_ramp_passes() {
        let codes = staircase(0..64, 5);
        let r = check_code_stream(&codes, 0);
        assert!(r.all_pass());
        // Falling LSB edges: 1→2, 3→4, …, 61→62 after the seeding edge.
        assert_eq!(r.checks.len(), 30);
    }

    #[test]
    fn stuck_bit_detected() {
        // Bit 3 stuck low: codes with bit 3 set read wrong.
        let codes: Vec<Code> = staircase(0..64, 5)
            .into_iter()
            .map(|c| Code(c.0 & !(1 << 3)))
            .collect();
        let r = check_code_stream(&codes, 0);
        assert!(!r.all_pass());
        assert!(r.mismatches >= 2, "mismatches {}", r.mismatches);
    }

    #[test]
    fn skipped_code_detected_once() {
        // 20 never appears: …18,19,21,22,… breaks one +1 check when the
        // upper word jumps (19→21 has upper 9→10 at the falling edge,
        // which is fine) — skip an even/odd pair instead: drop 20 and 21.
        let seq: Vec<u32> = (0..64).filter(|&c| c != 20 && c != 21).collect();
        let codes = staircase(seq, 5);
        let r = check_code_stream(&codes, 0);
        assert_eq!(r.mismatches, 1);
    }

    #[test]
    fn stuck_code_yields_no_edges() {
        let codes = staircase(std::iter::repeat_n(17, 50), 1);
        let r = check_code_stream(&codes, 0);
        assert!(r.checks.is_empty());
        assert!(r.all_pass(), "no evidence either way from a stuck code");
    }

    #[test]
    fn monitored_bit_one_partial_bist() {
        // Monitoring bit 1: falling edges of bit 1 occur every 4 codes;
        // upper word is code >> 2.
        let codes = staircase(0..64, 3);
        let r = check_code_stream(&codes, 1);
        assert!(r.all_pass());
        assert!(!r.checks.is_empty());
        // A fault in bit 5 (part of the upper word) is caught.
        let bad: Vec<Code> = codes.iter().map(|c| Code(c.0 | 1 << 5)).collect();
        let r = check_code_stream(&bad, 1);
        assert!(!r.all_pass());
    }

    #[test]
    fn mismatch_records_expected_and_observed() {
        let seq: Vec<u32> = (0..8).chain(16..24).collect();
        let codes = staircase(seq, 4);
        let r = check_code_stream(&codes, 0);
        assert_eq!(r.mismatches, 1);
        let bad = r.checks.iter().find(|c| !c.ok).unwrap();
        assert_eq!(bad.expected, 4); // after 7 (upper 3), expected 4
        assert_eq!(bad.observed, 8); // observed 16's upper word
    }

    #[test]
    fn empty_stream() {
        let r = check_code_stream(&[], 0);
        assert!(r.all_pass());
        assert!(r.checks.is_empty());
    }

    #[test]
    fn display_format() {
        let codes = staircase(0..8, 3);
        let r = check_code_stream(&codes, 0);
        assert!(r.to_string().contains("PASS"));
    }

    #[test]
    fn matches_rtl_checker() {
        use bist_rtl::datapath::UpperBitChecker;
        use bist_rtl::logic::Bus;
        // Same faulty stream through both implementations.
        let codes: Vec<Code> = staircase(0..64, 6)
            .into_iter()
            .map(|c| Code(c.0 & !(1 << 4)))
            .collect();
        let behavioural = check_code_stream(&codes, 0);
        let mut rtl = UpperBitChecker::new(5);
        for &c in &codes {
            rtl.tick(c.0 & 1 == 1, Bus::truncate(5, u64::from(c.0 >> 1)));
        }
        assert_eq!(behavioural.mismatches, rtl.mismatches());
        assert_eq!(behavioural.checks.len() as u64, rtl.checks());
    }
}
