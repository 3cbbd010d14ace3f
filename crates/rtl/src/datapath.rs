//! The complete on-chip BIST datapath, cycle-accurate.
//!
//! Two blocks from the paper:
//!
//! * [`LsbProcessor`] — Figure 4: deglitch → edge detect → sample counter
//!   → DNL window comparator → INL accumulator. At every LSB transition
//!   the counter value (the measured code width in samples) is judged
//!   against `i_min..=i_max` and folded into the INL running sum.
//! * [`UpperBitChecker`] — Figure 2: the remaining bits (`q+1..MSB`) are
//!   compared against an internal counter clocked by the falling edge of
//!   the monitored bit, verifying converter functionality with no
//!   external data.
//!
//! Both blocks tick once per ADC sample clock. Their behaviour is
//! cross-validated against the behavioural accumulators of `bist-core`
//! at three levels: unit/property tests on synthetic bit streams here
//! and in `bist-core`, the seam proptests in `crates/core/tests`, and —
//! at fleet scale — the `bist-mc` differential experiment (driven by
//! the `rtl_fleet` bench binary and the CI smoke step), which runs the
//! full `BistTop` as a drop-in verdict backend over thousands of random
//! devices and asserts bit-exact verdict agreement.

use crate::accumulator::Accumulator;
use crate::counter::Counter;
use crate::deglitch::Deglitcher;
use crate::edge::EdgeDetector;
use crate::logic::Bus;
use crate::window_compare::{WindowComparator, WindowVerdict};
use std::fmt;

/// One completed code-width measurement emitted at an LSB transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeMeasurement {
    /// Sequence number of the measurement (0 = first *complete* code).
    pub index: u64,
    /// Measured width in samples (`i` of the paper).
    pub count: u64,
    /// Whether the counter saturated during this code (width
    /// unmeasurable but certainly beyond the window).
    pub overflow: bool,
    /// DNL window verdict for this code.
    pub dnl_verdict: WindowVerdict,
    /// INL accumulator value after this code, in counter units.
    pub inl_counts: i64,
    /// Whether the INL value is within the configured INL window.
    pub inl_pass: bool,
}

/// Static configuration of the LSB-processing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsbProcessorConfig {
    /// Counter width in bits (the paper sweeps 4–7).
    pub counter_bits: u32,
    /// DNL window lower limit `i_min` (Eq. 3).
    pub i_min: u64,
    /// DNL window upper limit `i_max` (Eq. 4).
    pub i_max: u64,
    /// Nominal (ideal) counts per code, used as the DNL reference for
    /// INL accumulation.
    pub i_ideal: u64,
    /// INL window half-width in counter units; `None` disables the INL
    /// check.
    pub inl_limit_counts: Option<u64>,
    /// Whether the 3-tap majority deglitcher is in the LSB path.
    pub deglitch: bool,
}

impl LsbProcessorConfig {
    /// The largest count a `counter_bits`-bit counter can measure: the
    /// counter stores `count − 1` and saturates at `2^k − 1`, so counts
    /// up to `2^k` are representable.
    pub fn capacity(&self) -> u64 {
        1u64 << self.counter_bits
    }

    /// Validates and freezes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `i_min > i_max`, `counter_bits` is outside `1..=32`,
    /// or `i_max` exceeds the counter capacity `2^counter_bits` — an
    /// unreachable window ceiling would silently turn every saturated
    /// (certainly-too-wide) code into a false DNL failure of a window
    /// the hardware can never evaluate.
    pub fn validate(self) -> Self {
        assert!(
            (1..=32).contains(&self.counter_bits),
            "counter width must be 1..=32"
        );
        assert!(self.i_min <= self.i_max, "i_min must not exceed i_max");
        assert!(
            self.i_max <= self.capacity(),
            "i_max ({}) exceeds the {}-bit counter capacity ({})",
            self.i_max,
            self.counter_bits,
            self.capacity()
        );
        self
    }
}

/// The Figure-4 LSB-processing block.
///
/// Tick once per sample with the raw LSB level; a [`CodeMeasurement`] is
/// produced at each LSB transition after the first. The first transition
/// only aligns the counter (the preceding partial code is not judged —
/// the harness also drops end codes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsbProcessor {
    config: LsbProcessorConfig,
    deglitcher: Deglitcher,
    edges: EdgeDetector,
    counter: Counter,
    comparator: WindowComparator,
    inl: Accumulator,
    seen_first_edge: bool,
    measurements_emitted: u64,
    dnl_failures: u64,
    inl_failures: u64,
    /// Input hold register: the last raw sample, recirculated during
    /// drain cycles on the unfiltered path.
    last_raw: bool,
}

impl LsbProcessor {
    /// Builds the block from a validated configuration.
    pub fn new(config: LsbProcessorConfig) -> Self {
        let config = config.validate();
        LsbProcessor {
            config,
            deglitcher: Deglitcher::new(),
            edges: EdgeDetector::new(),
            counter: Counter::new(config.counter_bits),
            comparator: WindowComparator::new(config.i_min, config.i_max),
            // INL accumulator sized to cover the worst swing with margin:
            // 16-bit signed is beyond any counter the paper considers.
            inl: Accumulator::new(16),
            seen_first_edge: false,
            measurements_emitted: 0,
            dnl_failures: 0,
            inl_failures: 0,
            last_raw: false,
        }
    }

    /// Clocks the block with this sample's LSB level. Returns a
    /// measurement when a code completed this cycle.
    pub fn tick(&mut self, lsb: bool) -> Option<CodeMeasurement> {
        self.last_raw = lsb;
        let filtered = if self.config.deglitch {
            self.deglitcher.tick(lsb)
        } else {
            lsb
        };
        self.clock(filtered)
    }

    /// Drain cycle at the end of a sweep: clocks the block without new
    /// input, recirculating the deglitcher output (or the input hold
    /// register on the unfiltered path). Drain cycles let transitions
    /// already inside the synchroniser pipeline complete their
    /// measurement, but — because recirculation never flips the
    /// filtered level — can never judge a code the stream itself did
    /// not close.
    pub fn drain_tick(&mut self) -> Option<CodeMeasurement> {
        let filtered = if self.config.deglitch {
            self.deglitcher.hold()
        } else {
            self.last_raw
        };
        self.clock(filtered)
    }

    /// The post-filter datapath: edge detect → counter → window
    /// comparator → INL accumulation.
    fn clock(&mut self, filtered: bool) -> Option<CodeMeasurement> {
        let e = self.edges.tick(filtered);
        if !e.any() {
            // Mid-code sample: count it (the edge-cycle sample itself is
            // accounted for by reporting counter+1 at the next edge).
            if self.seen_first_edge {
                self.counter.tick(true, false);
            }
            return None;
        }
        // An LSB transition: the previous code is complete.
        if !self.seen_first_edge {
            self.seen_first_edge = true;
            self.counter.tick(false, true);
            return None;
        }
        let raw = self.counter.value().value();
        let overflow = self.counter.overflowed();
        // The sample *at* the transition cycle belongs to the new code;
        // the previous code spanned the edge-to-edge gap = counter + 1.
        let count = raw + 1;
        let dnl_verdict = self
            .comparator
            .compare_bus(Bus::truncate(64, count), overflow);
        if !dnl_verdict.is_pass() {
            self.dnl_failures += 1;
        }
        let inl_counts = self.inl.add(count as i64 - self.config.i_ideal as i64);
        let inl_pass = match self.config.inl_limit_counts {
            Some(limit) => !self.inl.saturated() && inl_counts.unsigned_abs() <= limit,
            None => true,
        };
        if !inl_pass {
            self.inl_failures += 1;
        }
        let m = CodeMeasurement {
            index: self.measurements_emitted,
            count,
            overflow,
            dnl_verdict,
            inl_counts,
            inl_pass,
        };
        self.measurements_emitted += 1;
        self.counter.tick(false, true);
        Some(m)
    }

    /// Number of completed code measurements so far.
    pub fn measurements(&self) -> u64 {
        self.measurements_emitted
    }

    /// Number of DNL window failures so far.
    pub fn dnl_failures(&self) -> u64 {
        self.dnl_failures
    }

    /// Number of INL window failures so far.
    pub fn inl_failures(&self) -> u64 {
        self.inl_failures
    }

    /// Resets all sequential state for a new run, in place — no
    /// component is reconstructed (the deglitcher's tap register keeps
    /// its storage), so a batch screener can reuse one processor across
    /// devices without per-device heap traffic.
    pub fn reset(&mut self) {
        self.deglitcher.clear();
        self.edges.clear();
        self.counter = Counter::new(self.config.counter_bits);
        self.inl.clear();
        self.seen_first_edge = false;
        self.measurements_emitted = 0;
        self.dnl_failures = 0;
        self.inl_failures = 0;
        self.last_raw = false;
    }
}

impl fmt::Display for LsbProcessor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LSB processor: {} codes, {} DNL fails, {} INL fails",
            self.measurements_emitted, self.dnl_failures, self.inl_failures
        )
    }
}

/// The Figure-2 upper-bit functional checker.
///
/// The bits above the monitored bit are registered through the same
/// two-stage synchroniser latency as the LSB path, then compared against
/// an expected value that increments at each falling LSB edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpperBitChecker {
    edges: EdgeDetector,
    /// Two alignment registers matching the LSB synchroniser latency.
    align0: Bus,
    align1: Bus,
    expected: Option<Bus>,
    mismatches: u64,
    checks: u64,
}

impl UpperBitChecker {
    /// Creates a checker for `width`-bit upper words.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 63.
    pub fn new(width: u32) -> Self {
        assert!((1..=63).contains(&width), "width must be 1..=63");
        UpperBitChecker {
            edges: EdgeDetector::new(),
            align0: Bus::zero(width),
            align1: Bus::zero(width),
            expected: None,
            mismatches: 0,
            checks: 0,
        }
    }

    /// Clocks the checker with this sample's monitored-bit level and
    /// upper word. Returns `Some(ok)` when a check fired this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `upper` has a different width than configured.
    pub fn tick(&mut self, monitored_bit: bool, upper: Bus) -> Option<bool> {
        assert_eq!(
            upper.width(),
            self.align0.width(),
            "upper word width changed"
        );
        let e = self.edges.tick(monitored_bit);
        // Align the upper word with the synchronised LSB (2 cycles).
        let aligned = self.align1;
        self.align1 = self.align0;
        self.align0 = upper;
        if !e.falling {
            return None;
        }
        match self.expected {
            None => {
                // First falling edge: adopt the current upper word.
                self.expected = Some(aligned);
                None
            }
            Some(prev) => {
                let want = prev.wrapping_add(1);
                self.checks += 1;
                let ok = aligned == want;
                if !ok {
                    self.mismatches += 1;
                }
                // Resynchronise so one error does not cascade.
                self.expected = Some(aligned);
                Some(ok)
            }
        }
    }

    /// Number of comparisons performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of mismatches observed.
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }
}

impl fmt::Display for UpperBitChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "upper-bit checker: {}/{} mismatches",
            self.mismatches, self.checks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(bits: u32, i_min: u64, i_max: u64, i_ideal: u64) -> LsbProcessorConfig {
        LsbProcessorConfig {
            counter_bits: bits,
            i_min,
            i_max,
            i_ideal,
            inl_limit_counts: None,
            deglitch: false,
        }
    }

    /// An LSB stream with the given run lengths (alternating levels,
    /// starting low).
    fn lsb_stream(runs: &[u64]) -> Vec<bool> {
        let mut out = Vec::new();
        let mut level = false;
        for &r in runs {
            for _ in 0..r {
                out.push(level);
            }
            level = !level;
        }
        out
    }

    fn run_processor(
        cfg: LsbProcessorConfig,
        bits: &[bool],
    ) -> (LsbProcessor, Vec<CodeMeasurement>) {
        let mut p = LsbProcessor::new(cfg);
        let mut out = Vec::new();
        for &b in bits {
            if let Some(m) = p.tick(b) {
                out.push(m);
            }
        }
        (p, out)
    }

    #[test]
    fn measures_run_lengths_exactly() {
        // Runs: 5 (partial, dropped), then 10, 11, 9 complete codes, then
        // 8 (unterminated, not emitted).
        let bits = lsb_stream(&[5, 10, 11, 9, 8]);
        let (p, ms) = run_processor(config(6, 1, 63, 10), &bits);
        let counts: Vec<u64> = ms.iter().map(|m| m.count).collect();
        assert_eq!(counts, vec![10, 11, 9]);
        assert_eq!(p.measurements(), 3);
    }

    #[test]
    fn dnl_window_flags_outliers() {
        let bits = lsb_stream(&[4, 10, 16, 5, 10, 3]);
        // Window 6..=15: 16 is too wide, 5 too narrow, 10s pass.
        let (p, ms) = run_processor(config(6, 6, 15, 10), &bits);
        let verdicts: Vec<WindowVerdict> = ms.iter().map(|m| m.dnl_verdict).collect();
        assert_eq!(
            verdicts,
            vec![
                WindowVerdict::Pass,
                WindowVerdict::TooWide,
                WindowVerdict::TooNarrow,
                WindowVerdict::Pass,
            ]
        );
        assert_eq!(p.dnl_failures(), 2);
        assert!(p.dnl_failures() + p.inl_failures() > 0);
    }

    #[test]
    fn counter_overflow_reports_too_wide() {
        // 4-bit counter saturates at 15; a 40-sample code overflows. The
        // final run must exceed the 2-cycle synchroniser latency for the
        // 10-run's closing edge to be observed.
        let bits = lsb_stream(&[3, 40, 10, 4]);
        let (_, ms) = run_processor(config(4, 1, 16, 10), &bits);
        assert!(ms[0].overflow);
        assert_eq!(ms[0].dnl_verdict, WindowVerdict::TooWide);
        // The next code is measured correctly after the overflow.
        assert_eq!(ms[1].count, 10);
        assert!(!ms[1].overflow);
    }

    #[test]
    fn inl_accumulates_dnl_residuals() {
        let bits = lsb_stream(&[4, 12, 8, 10, 11, 4]);
        let mut cfg = config(6, 1, 63, 10);
        cfg.inl_limit_counts = Some(3);
        let (_, ms) = run_processor(cfg, &bits);
        let inls: Vec<i64> = ms.iter().map(|m| m.inl_counts).collect();
        // Residuals vs ideal 10: +2, −2, 0, +1 → cumulative 2, 0, 0, 1.
        assert_eq!(inls, vec![2, 0, 0, 1]);
        assert!(ms.iter().all(|m| m.inl_pass));
    }

    #[test]
    fn inl_window_fails_on_drift() {
        // Codes persistently 12 wide vs ideal 10: INL drifts +2 per code.
        let bits = lsb_stream(&[4, 12, 12, 12, 12, 4]);
        let mut cfg = config(6, 1, 63, 10);
        cfg.inl_limit_counts = Some(5);
        let (p, ms) = run_processor(cfg, &bits);
        assert!(ms[0].inl_pass); // +2
        assert!(ms[1].inl_pass); // +4
        assert!(!ms[2].inl_pass); // +6 > 5
        assert_eq!(p.inl_failures(), 2); // codes 3 and 4
    }

    #[test]
    fn deglitcher_absorbs_transition_noise() {
        // A bouncing transition: without deglitch it yields spurious
        // short codes; with deglitch, one clean transition.
        let mut bits = lsb_stream(&[4, 10]);
        // Splice a bounce into the rising transition.
        bits.insert(4, true);
        bits.insert(5, false);
        let cfg_raw = config(6, 6, 15, 10);
        let (p_raw, _) = run_processor(cfg_raw, &bits);
        let mut cfg_filt = cfg_raw;
        cfg_filt.deglitch = true;
        let (p_filt, _) = run_processor(cfg_filt, &bits);
        assert!(p_raw.measurements() > p_filt.measurements());
        assert!(p_filt.dnl_failures() + p_filt.inl_failures() == 0 || p_filt.measurements() == 0);
    }

    #[test]
    fn reset_clears_state() {
        let bits = lsb_stream(&[4, 10, 10, 2]);
        let (mut p, _) = run_processor(config(6, 6, 15, 10), &bits);
        assert!(p.measurements() > 0);
        p.reset();
        assert_eq!(p.measurements(), 0);
        assert_eq!(p.dnl_failures(), 0);
        // In-place reset is indistinguishable from a fresh build.
        assert_eq!(p, LsbProcessor::new(config(6, 6, 15, 10)));
    }

    #[test]
    #[should_panic(expected = "i_min must not exceed i_max")]
    fn invalid_window_panics() {
        LsbProcessor::new(config(6, 10, 5, 7));
    }

    #[test]
    #[should_panic(expected = "exceeds the 4-bit counter capacity")]
    fn unreachable_window_ceiling_panics() {
        // A 4-bit counter measures counts up to 16; i_max = 17 could
        // never pass a code that wide (it saturates → "too wide").
        LsbProcessor::new(config(4, 1, 17, 10));
    }

    #[test]
    fn ceiling_at_exact_capacity_is_reachable() {
        // A run of exactly 2^k samples is the widest measurable code:
        // the counter tops out without raising overflow, and the window
        // may legally accept it.
        let bits = lsb_stream(&[3, 16, 10, 4]);
        let (_, ms) = run_processor(config(4, 1, 16, 10), &bits);
        assert_eq!(ms[0].count, 16);
        assert!(!ms[0].overflow);
        assert_eq!(ms[0].dnl_verdict, WindowVerdict::Pass);
    }

    #[test]
    fn drain_completes_pending_final_measurement() {
        // The stream ends exactly at the closing transition of the last
        // code: without drain cycles the 2-cycle synchroniser never
        // reports it.
        let bits = lsb_stream(&[4, 10, 12]);
        let mut with_drain = LsbProcessor::new(config(6, 1, 64, 10));
        let mut without = LsbProcessor::new(config(6, 1, 64, 10));
        let mut bits_plus_edge = bits.clone();
        bits_plus_edge.push(!*bits.last().unwrap()); // closing edge
        for &b in &bits_plus_edge {
            with_drain.tick(b);
            without.tick(b);
        }
        assert_eq!(without.measurements(), 1, "edge still in the pipeline");
        let mut drained = Vec::new();
        for _ in 0..3 {
            if let Some(m) = with_drain.drain_tick() {
                drained.push(m);
            }
        }
        assert_eq!(with_drain.measurements(), 2);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].count, 12);
        // Further drain cycles judge nothing: recirculation is inert.
        for _ in 0..10 {
            assert!(with_drain.drain_tick().is_none());
        }
    }

    // --- UpperBitChecker ---

    /// Builds (lsb, upper) sample pairs for a clean binary count through
    /// `codes`, `per_code` samples each.
    fn code_walk(codes: &[u32], per_code: usize, upper_width: u32) -> Vec<(bool, Bus)> {
        let mut out = Vec::new();
        for &c in codes {
            for _ in 0..per_code {
                out.push((c & 1 == 1, Bus::truncate(upper_width, (c >> 1) as u64)));
            }
        }
        out
    }

    #[test]
    fn clean_count_passes() {
        let codes: Vec<u32> = (0..32).collect();
        let mut chk = UpperBitChecker::new(5);
        for (lsb, upper) in code_walk(&codes, 8, 5) {
            chk.tick(lsb, upper);
        }
        assert!(chk.checks() > 10, "checks {}", chk.checks());
        assert_eq!(chk.mismatches(), 0, "{chk}");
    }

    #[test]
    fn stuck_upper_bit_detected() {
        let codes: Vec<u32> = (0..32).collect();
        let mut chk = UpperBitChecker::new(5);
        for (lsb, upper) in code_walk(&codes, 8, 5) {
            // Upper bit 2 stuck at 0 (i.e. code bit 3).
            let faulty = Bus::new(upper.width(), upper.value() & !0b100);
            chk.tick(lsb, faulty);
        }
        assert!(chk.mismatches() > 0);
        assert!(chk.mismatches() >= 2, "mismatches {}", chk.mismatches());
    }

    #[test]
    fn skipped_code_detected() {
        // The sequence jumps 4 → 6 (code 5's upper word never appears as
        // expected at the 5→6 boundary... the jump breaks +1 continuity).
        let codes = [0u32, 1, 2, 3, 4, 6, 7, 8, 9];
        let mut chk = UpperBitChecker::new(5);
        for (lsb, upper) in code_walk(&codes, 8, 5) {
            chk.tick(lsb, upper);
        }
        assert_eq!(chk.mismatches(), 1);
    }

    #[test]
    fn checker_resynchronises_after_error() {
        // One glitch then clean counting: exactly one mismatch.
        let codes = [0u32, 1, 2, 3, 12, 13, 14, 15, 16, 17];
        let mut chk = UpperBitChecker::new(5);
        for (lsb, upper) in code_walk(&codes, 8, 5) {
            chk.tick(lsb, upper);
        }
        assert_eq!(chk.mismatches(), 1, "{chk}");
    }

    #[test]
    #[should_panic(expected = "width changed")]
    fn width_mismatch_panics() {
        let mut chk = UpperBitChecker::new(5);
        chk.tick(false, Bus::zero(4));
    }

    #[test]
    fn displays() {
        let p = LsbProcessor::new(config(6, 1, 63, 10));
        assert!(p.to_string().contains("LSB processor"));
        let c = UpperBitChecker::new(3);
        assert!(c.to_string().contains("checker"));
    }
}
