//! The complete on-chip BIST top level — the paper's "ultimate goal …
//! a complete BIST solution where no expensive mixed-signal tester is
//! needed".
//!
//! [`BistTop`] wires the Figure-4 LSB processor and the Figure-2
//! upper-bit checker to a single clock, latches sticky pass/fail bits,
//! counts transitions for the completeness check, and compacts every
//! code measurement into a MISR signature so the *entire* test result
//! can be read out through one register scan — a single test pin, as §5
//! promises.
//!
//! ## Sweep protocol
//!
//! Tick once per ADC sample with the output code; when the stimulus
//! ends, run [`BistTop::DRAIN_TICKS`] calls of [`BistTop::drain_tick`]
//! before reading [`BistTop::report`]. Drain cycles recirculate the
//! deglitch filters' own outputs, which lets measurements already
//! inside the 2-cycle synchroniser complete without ever judging a code
//! the sample stream did not close — exactly the semantics of the
//! behavioural accumulators in `bist-core`, which stop dead at the last
//! sample. On-silicon this is simply the BIST clock running a few
//! cycles past the ramp generator.
//!
//! ## Completeness
//!
//! The report's `complete` bit requires the *exact* expected number of
//! measurements. A `≥` rule would accept glitchy sweeps that emit extra
//! transitions — a toggling LSB splitting codes could read "complete"
//! — so surplus measurements are as fatal as missing ones, matching the
//! behavioural harness's rule.

use crate::datapath::{CodeMeasurement, LsbProcessor, LsbProcessorConfig, UpperBitChecker};
use crate::deglitch::CodeMedianFilter;
use crate::logic::Bus;
use crate::registers::Misr;
use std::fmt;

/// Configuration of the full BIST top level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistTopConfig {
    /// LSB-processing block configuration.
    pub lsb: LsbProcessorConfig,
    /// Converter resolution in bits (upper word is `adc_bits − 1` wide).
    pub adc_bits: u32,
    /// Number of complete code measurements a healthy sweep produces
    /// (`2ⁿ − 2` for a full ramp at bit 0).
    pub expected_codes: u64,
}

/// The sticky result register of a finished self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistReport {
    /// Codes measured.
    pub codes_measured: u64,
    /// DNL window failures.
    pub dnl_failures: u64,
    /// INL window failures.
    pub inl_failures: u64,
    /// Upper-bit comparisons fired.
    pub functional_checks: u64,
    /// Upper-bit mismatches.
    pub functional_mismatches: u64,
    /// Whether the sweep produced *exactly* the expected number of
    /// measurements (missing and surplus transitions both fail).
    pub complete: bool,
    /// The MISR signature over all measurements (count ‖ verdict bits).
    pub signature: Bus,
}

impl BistReport {
    /// The single pass/fail bit the chip would expose.
    pub fn pass(&self) -> bool {
        self.complete
            && self.dnl_failures == 0
            && self.inl_failures == 0
            && self.functional_mismatches == 0
    }
}

impl fmt::Display for BistReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} codes, {} DNL / {} INL / {} functional failures, signature {:b}",
            if self.pass() { "PASS" } else { "FAIL" },
            self.codes_measured,
            self.dnl_failures,
            self.inl_failures,
            self.functional_mismatches,
            self.signature
        )
    }
}

/// The full on-chip BIST: tick once per ADC sample with the output code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BistTop {
    config: BistTopConfig,
    lsb: LsbProcessor,
    upper: UpperBitChecker,
    /// Rank filter guarding the upper-bit checker when deglitching is
    /// on: the Figure-2 comparison must see the same cleaned-up code
    /// the Figure-4 path sees a cleaned-up bit, or transition noise
    /// near an edge fires spurious `+1` mismatches.
    code_filter: CodeMedianFilter,
    misr: Misr,
    /// Input hold register for drain cycles on the unfiltered path.
    last_word: Bus,
}

impl BistTop {
    /// 16-bit MISR polynomial (x¹⁶+x¹⁵+x¹³+x⁴+1-ish taps — any dense
    /// polynomial works for compaction). For counters wider than 13
    /// bits the register is widened so the count field never truncates
    /// (see [`Self::misr_width`]).
    const MISR_TAPS: u64 = 0b1010_0000_0001_1001;

    /// Drain cycles needed after the last sample: two for the edge
    /// synchroniser plus one for the code median filter's window.
    pub const DRAIN_TICKS: u32 = 3;

    /// The signature register width for a given counter width: the
    /// count field needs `counter_bits + 1` bits (counts reach `2^k`)
    /// and the two verdict flags ride above it, with a 16-bit floor.
    /// Masking the count to a fixed 14 bits — the old behaviour — let
    /// distinct failing widths alias to identical signatures once
    /// `counter_bits > 13`.
    pub fn misr_width(counter_bits: u32) -> u32 {
        (counter_bits + 3).max(16)
    }

    /// Builds the top level.
    ///
    /// # Panics
    ///
    /// Panics if `adc_bits < 2` (there must be at least one upper bit)
    /// or the LSB configuration is invalid.
    pub fn new(config: BistTopConfig) -> Self {
        assert!(config.adc_bits >= 2, "need at least one upper bit");
        let width = Self::misr_width(config.lsb.counter_bits);
        let taps = if width > 16 {
            // Keep the dense taps in the top 16 stages and tap stage 0
            // so the polynomial spans the widened register.
            Self::MISR_TAPS << (width - 16) | 1
        } else {
            Self::MISR_TAPS
        };
        BistTop {
            config,
            lsb: LsbProcessor::new(config.lsb),
            upper: UpperBitChecker::new(config.adc_bits - 1),
            code_filter: CodeMedianFilter::new(config.adc_bits),
            misr: Misr::new(width, taps),
            last_word: Bus::zero(config.adc_bits),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BistTopConfig {
        &self.config
    }

    /// Clocks the BIST with this sample's output code. Returns the
    /// LSB-processor measurement when a code completed.
    ///
    /// # Panics
    ///
    /// Panics if `code` does not fit in `adc_bits`.
    pub fn tick(&mut self, code: u64) -> Option<CodeMeasurement> {
        let word = Bus::new(self.config.adc_bits, code);
        self.last_word = word;
        let checker_word = if self.config.lsb.deglitch {
            self.code_filter.tick(word)
        } else {
            word
        };
        self.clock_upper(checker_word);
        let m = self.lsb.tick(word.bit(0));
        self.compact(m.as_ref());
        m
    }

    /// Drain cycle after the last sample: recirculates the filters so
    /// in-flight measurements complete (see the module docs). Call
    /// [`Self::DRAIN_TICKS`] times before [`Self::report`].
    pub fn drain_tick(&mut self) -> Option<CodeMeasurement> {
        let checker_word = if self.config.lsb.deglitch {
            self.code_filter.hold()
        } else {
            self.last_word
        };
        self.clock_upper(checker_word);
        let m = self.lsb.drain_tick();
        self.compact(m.as_ref());
        m
    }

    /// Feeds the Figure-2 checker the (possibly filtered) code.
    fn clock_upper(&mut self, word: Bus) {
        let upper = word.slice(self.config.adc_bits - 1, 1);
        self.upper.tick(word.bit(0), upper);
    }

    /// Folds a completed measurement into the signature: the count in
    /// the low bits, the verdict flags in the top two.
    fn compact(&mut self, m: Option<&CodeMeasurement>) {
        if let Some(m) = m {
            let width = self.misr.signature().width();
            let verdict_bits = (u64::from(!m.dnl_verdict.is_pass()) << (width - 2))
                | (u64::from(!m.inl_pass) << (width - 1));
            self.misr.tick(m.count | verdict_bits);
        }
    }

    /// Live count of upper-bit comparisons fired.
    pub fn functional_checks(&self) -> u64 {
        self.upper.checks()
    }

    /// Live count of upper-bit mismatches.
    pub fn functional_mismatches(&self) -> u64 {
        self.upper.mismatches()
    }

    /// The report register as it stands now (read at end of sweep,
    /// after the drain cycles).
    pub fn report(&self) -> BistReport {
        BistReport {
            codes_measured: self.lsb.measurements(),
            dnl_failures: self.lsb.dnl_failures(),
            inl_failures: self.lsb.inl_failures(),
            functional_checks: self.upper.checks(),
            functional_mismatches: self.upper.mismatches(),
            complete: self.lsb.measurements() == self.config.expected_codes,
            signature: self.misr.signature(),
        }
    }

    /// Resets all state for a new self-test run, in place: every block
    /// clears its registers but nothing is reconstructed, so a backend
    /// caching one `BistTop` screens a whole batch without per-device
    /// heap allocations.
    pub fn reset(&mut self) {
        self.lsb.reset();
        self.upper = UpperBitChecker::new(self.config.adc_bits - 1);
        self.code_filter.clear();
        self.misr.clear();
        self.last_word = Bus::zero(self.config.adc_bits);
    }
}

impl fmt::Display for BistTop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BIST top: {}", self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window_compare::WindowVerdict;

    fn config() -> BistTopConfig {
        BistTopConfig {
            lsb: LsbProcessorConfig {
                counter_bits: 6,
                i_min: 6,
                i_max: 16,
                i_ideal: 11,
                inl_limit_counts: None,
                deglitch: false,
            },
            adc_bits: 6,
            expected_codes: 62,
        }
    }

    /// A clean staircase through all 64 codes, `per_code` samples each.
    fn staircase(per_code: usize) -> Vec<u64> {
        (0..64u64)
            .flat_map(|c| std::iter::repeat_n(c, per_code))
            .collect()
    }

    fn run(top: &mut BistTop, codes: &[u64]) -> Vec<CodeMeasurement> {
        let mut ms: Vec<CodeMeasurement> = codes.iter().filter_map(|&c| top.tick(c)).collect();
        for _ in 0..BistTop::DRAIN_TICKS {
            ms.extend(top.drain_tick());
        }
        ms
    }

    #[test]
    fn clean_sweep_passes() {
        let mut top = BistTop::new(config());
        let ms = run(&mut top, &staircase(11));
        assert_eq!(ms.len(), 62);
        assert!(ms.iter().all(|m| m.dnl_verdict == WindowVerdict::Pass));
        let report = top.report();
        assert!(report.pass(), "{report}");
        assert!(report.complete);
        assert!(report.functional_checks > 0);
        assert_ne!(report.signature.value(), 0);
    }

    #[test]
    fn signature_is_deterministic_and_sensitive() {
        let mut a = BistTop::new(config());
        let mut b = BistTop::new(config());
        run(&mut a, &staircase(11));
        run(&mut b, &staircase(11));
        assert_eq!(a.report().signature, b.report().signature);

        // One code slightly wider: same pass verdicts, different
        // signature — the signature carries the fine measurement data.
        let mut skewed = staircase(11);
        let insert_at = skewed.iter().position(|&c| c == 30).expect("code 30");
        skewed.insert(insert_at, 29);
        let mut c = BistTop::new(config());
        run(&mut c, &skewed);
        assert!(c.report().pass());
        assert_ne!(c.report().signature, a.report().signature);
    }

    #[test]
    fn wide_counter_signature_does_not_alias() {
        // Regression: the old compactor masked counts to 14 bits, so
        // widths differing by a multiple of 2^14 compacted identically.
        let lsb = LsbProcessorConfig {
            counter_bits: 15,
            i_min: 1,
            i_max: 1 << 15,
            i_ideal: 10,
            inl_limit_counts: None,
            deglitch: false,
        };
        let cfg = BistTopConfig {
            lsb,
            adc_bits: 6,
            expected_codes: 1,
        };
        let sig_for = |width: u64| {
            let mut top = BistTop::new(cfg);
            // One complete code of the given width between two edges.
            for _ in 0..3 {
                top.tick(0);
            }
            for _ in 0..width {
                top.tick(1);
            }
            for _ in 0..4 {
                top.tick(0);
            }
            for _ in 0..BistTop::DRAIN_TICKS {
                top.drain_tick();
            }
            let report = top.report();
            assert_eq!(report.codes_measured, 1);
            report.signature.value()
        };
        // 16386 ≡ 2 (mod 2^14): the old compactor could not tell these
        // apart.
        assert_ne!(sig_for(16386), sig_for(2));
        assert_eq!(BistTop::misr_width(15), 18);
    }

    #[test]
    fn surplus_transitions_break_completeness() {
        // A glitch splitting one code adds a 63rd measurement: under
        // the old `>=` rule this still read "complete".
        let mut codes = staircase(11);
        let pos = codes.iter().position(|&c| c == 20).expect("code 20");
        // Toggle the LSB mid-code: 20 → 21 → 20 splits the code-20 run.
        codes.insert(pos + 5, 21);
        codes.insert(pos + 6, 21);
        codes.insert(pos + 7, 21);
        let mut top = BistTop::new(config());
        run(&mut top, &codes);
        let report = top.report();
        assert!(report.codes_measured > 62, "{report}");
        assert!(!report.complete);
        assert!(!report.pass());
    }

    #[test]
    fn stuck_lsb_fails_via_completeness() {
        let mut top = BistTop::new(config());
        let stuck: Vec<u64> = staircase(11).iter().map(|c| c & !1).collect();
        run(&mut top, &stuck);
        let report = top.report();
        assert_eq!(report.codes_measured, 0);
        assert!(!report.complete);
        assert!(!report.pass());
    }

    #[test]
    fn stuck_upper_bit_fails_functionally() {
        let mut top = BistTop::new(config());
        let stuck: Vec<u64> = staircase(11).iter().map(|c| c & !(1 << 4)).collect();
        run(&mut top, &stuck);
        let report = top.report();
        assert!(report.functional_mismatches > 0);
        assert!(!report.pass());
    }

    #[test]
    fn wide_code_fails_dnl() {
        let mut codes = staircase(11);
        // Stretch code 20 to 30 samples (> i_max 16).
        let pos = codes.iter().position(|&c| c == 20).expect("code 20");
        for _ in 0..19 {
            codes.insert(pos, 20);
        }
        let mut top = BistTop::new(config());
        run(&mut top, &codes);
        let report = top.report();
        assert!(report.dnl_failures >= 1);
        assert!(!report.pass());
    }

    #[test]
    fn deglitched_upper_checker_ignores_transition_bounce() {
        // A bouncing LSB at a code boundary: the raw upper checker sees
        // repeated falling edges with non-incrementing upper words and
        // fires spurious mismatches; the median-filtered path is clean.
        let mut codes = staircase(11);
        let pos = codes.iter().position(|&c| c == 33).expect("code 33");
        // Bounce 32 ↔ 33 right at the boundary.
        codes.insert(pos, 33);
        codes.insert(pos + 1, 32);
        let raw_cfg = config();
        let mut deglitched_cfg = raw_cfg;
        deglitched_cfg.lsb.deglitch = true;
        let mut raw = BistTop::new(raw_cfg);
        run(&mut raw, &codes);
        let mut filtered = BistTop::new(deglitched_cfg);
        run(&mut filtered, &codes);
        assert!(raw.report().functional_mismatches > 0, "{}", raw.report());
        assert_eq!(
            filtered.report().functional_mismatches,
            0,
            "{}",
            filtered.report()
        );
        assert!(filtered.report().pass());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut top = BistTop::new(config());
        run(&mut top, &staircase(11));
        top.reset();
        let report = top.report();
        assert_eq!(report.codes_measured, 0);
        assert_eq!(report.signature.value(), 0);
        // In-place reset is indistinguishable from a fresh build (and
        // a reset top re-runs a sweep to the identical signature).
        assert_eq!(top, BistTop::new(config()));
        run(&mut top, &staircase(11));
        let mut fresh = BistTop::new(config());
        run(&mut fresh, &staircase(11));
        assert_eq!(top.report(), fresh.report());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_code_panics() {
        let mut top = BistTop::new(config());
        top.tick(64);
    }

    #[test]
    #[should_panic(expected = "at least one upper bit")]
    fn one_bit_adc_panics() {
        let mut cfg = config();
        cfg.adc_bits = 1;
        BistTop::new(cfg);
    }

    #[test]
    fn display_includes_verdict() {
        let top = BistTop::new(config());
        assert!(top.to_string().contains("FAIL")); // incomplete at start
    }
}
