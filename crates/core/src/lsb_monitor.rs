#![allow(clippy::needless_range_loop)] // index loops mirror the maths/netlists
//! Behavioural reference model of the Figure-4 LSB-processing block.
//!
//! [`MonitorState`] is the block's whole sweep state: it consumes the
//! monitored bit one sample at a time — exactly like the on-chip block,
//! which has no sample memory — extracting the run length of every
//! complete code (the gap between consecutive transitions), judging it
//! against the count window, and accumulating INL. Bit-exact with the
//! RTL [`bist_rtl::datapath::LsbProcessor`] — a cross-validation test
//! in this crate enforces it.
//!
//! ## Heap-free state
//!
//! The state holds no buffer: [`MonitorState::push`] returns the code
//! measurement a sample completes, and the caller keeps it or not. The
//! scalar judge ([`crate::backend::BehavioralBackend`]) records each
//! one in the per-worker `harness::Scratch`, whose buffers are cleared,
//! not shrunk, so after the first device the hot path is
//! allocation-free; the batch engine's run-skipping sweep records
//! nothing.

use crate::config::BistConfig;
use bist_adc::types::Lsb;
use bist_rtl::window_compare::{WindowComparator, WindowVerdict};
use std::fmt;

/// One judged code from the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeResult {
    /// Measurement sequence number (0 = first complete code).
    pub index: u64,
    /// Measured width in samples.
    pub count: u64,
    /// Whether a real counter of the configured width would have
    /// saturated (count > 2^bits).
    pub overflow: bool,
    /// DNL window verdict.
    pub dnl_verdict: WindowVerdict,
    /// Estimated code width in LSB (`count · Δs`) — the off-chip
    /// engineering view; the on-chip block only keeps the verdict.
    pub width_lsb: Lsb,
    /// Estimated DNL in LSB (`width − 1`).
    pub dnl_lsb: Lsb,
    /// INL after this code in counter units.
    pub inl_counts: i64,
    /// INL window verdict (true = pass; always true when INL checking is
    /// off).
    pub inl_pass: bool,
}

/// Aggregate result of monitoring one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorResult {
    /// Per-code results in sweep order.
    pub codes: Vec<CodeResult>,
    /// Number of DNL failures.
    pub dnl_failures: u64,
    /// Number of INL failures.
    pub inl_failures: u64,
}

impl MonitorResult {
    /// Whether every judged code passed both windows.
    pub fn all_pass(&self) -> bool {
        self.dnl_failures == 0 && self.inl_failures == 0
    }
}

impl fmt::Display for MonitorResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} codes judged: {} DNL fails, {} INL fails → {}",
            self.codes.len(),
            self.dnl_failures,
            self.inl_failures,
            if self.all_pass() { "PASS" } else { "FAIL" }
        )
    }
}

/// Compact (heap-free) summary returned by [`MonitorState::tally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorTally {
    /// Number of complete codes judged.
    pub codes_judged: u64,
    /// Number of DNL failures.
    pub dnl_failures: u64,
    /// Number of INL failures.
    pub inl_failures: u64,
}

/// The heap-free per-sweep state of the LSB monitor: the window
/// comparator, the deglitcher taps, the run tracker and the failure
/// tallies. Push the monitored bit one sample at a time.
///
/// Each pushed entry is the sampled level of the monitored bit (one per
/// ADC sample). The segment before the first transition and the segment
/// after the last transition are partial codes and are not judged,
/// mirroring the hardware. The optional 3-tap majority-vote deglitcher
/// is realised as two zero-initialised tap registers, matching the RTL.
/// `Copy`, so every behavioural sweep keeps one in a local and steps it
/// with the *same* `push`.
///
/// # Examples
///
/// ```
/// use bist_adc::spec::LinearitySpec;
/// use bist_adc::types::Resolution;
/// use bist_core::config::BistConfig;
/// use bist_core::lsb_monitor::MonitorState;
///
/// # fn main() -> Result<(), bist_core::limits::PlanLimitsError> {
/// let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
///     .counter_bits(4)
///     .build()?;
/// // Three complete codes of 11 samples each (in-window for i∈[6,16]).
/// let mut state = MonitorState::new(&cfg);
/// let mut judged = Vec::new();
/// for run in 0..5 {
///     for _ in 0..11 {
///         judged.extend(state.push(run % 2 == 1));
///     }
/// }
/// let tally = state.tally();
/// assert_eq!(tally.codes_judged, 3);
/// assert_eq!(judged.len(), 3);
/// assert_eq!(tally.dnl_failures + tally.inl_failures, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MonitorState {
    comparator: WindowComparator,
    capacity: u64,
    i_ideal: i64,
    delta_s: f64,
    inl_limit: Option<u64>,
    // Deglitcher taps (None = filter off): the last two raw bits, zero-
    // initialised like the RTL's flops.
    taps: Option<(bool, bool)>,
    pos: u64,
    level: bool,
    run_start: Option<u64>,
    index: u64,
    dnl_failures: u64,
    inl_failures: u64,
    inl_acc: i64,
}

impl MonitorState {
    /// Fresh state for one sweep under `config`.
    pub fn new(config: &BistConfig) -> Self {
        MonitorState {
            comparator: WindowComparator::new(config.limits().i_min(), config.limits().i_max()),
            capacity: 1u64 << config.counter_bits(),
            i_ideal: config.limits().i_ideal() as i64,
            delta_s: config.delta_s().0,
            inl_limit: config.inl_limit_counts(),
            taps: config.deglitch().then_some((false, false)),
            pos: 0,
            level: false,
            run_start: None,
            index: 0,
            dnl_failures: 0,
            inl_failures: 0,
            inl_acc: 0,
        }
    }

    /// Pushes one raw sample of the monitored bit, returning the code
    /// measurement it completes, if any.
    pub fn push(&mut self, raw: bool) -> Option<CodeResult> {
        let bit = match &mut self.taps {
            // Majority over the window [b_{i-2}, b_{i-1}, b_i].
            Some((t2, t1)) => {
                let vote = u8::from(*t2) + u8::from(*t1) + u8::from(raw) >= 2;
                (*t2, *t1) = (*t1, raw);
                vote
            }
            None => raw,
        };
        if self.pos == 0 {
            self.level = bit;
        }
        let mut completed = None;
        if bit != self.level {
            // Transition: the previous run is complete.
            if let Some(start) = self.run_start {
                completed = Some(self.record(self.pos - start));
            }
            self.run_start = Some(self.pos);
            self.level = bit;
        }
        self.pos += 1;
        completed
    }

    /// Advances the sweep by `k` repeats of the last pushed sample
    /// without stepping the per-sample machinery — the run-skipping
    /// fast path of the batched engine.
    ///
    /// Contract: the caller must have pushed the same raw value at
    /// least twice in a row (once suffices with the deglitcher off), so
    /// every skipped push would provably change nothing but `pos`: the
    /// deglitcher window is saturated at that value, the vote equals
    /// the held level, and no transition can fire.
    pub fn skip_run(&mut self, k: u64) {
        if let Some((t2, t1)) = self.taps {
            debug_assert!(
                t2 == t1 && t1 == self.level,
                "skip_run before the deglitcher settled"
            );
        }
        self.pos += k;
    }

    fn record(&mut self, raw_count: u64) -> CodeResult {
        // A k-bit counter stores count − 1 and saturates at 2^k − 1,
        // so counts above 2^k are unmeasurable.
        let overflow = raw_count > self.capacity;
        let count = raw_count.min(self.capacity);
        let dnl_verdict = if overflow {
            WindowVerdict::TooWide
        } else {
            self.comparator.compare(count)
        };
        if !dnl_verdict.is_pass() {
            self.dnl_failures += 1;
        }
        self.inl_acc += count as i64 - self.i_ideal;
        let inl_pass = match self.inl_limit {
            Some(limit) => self.inl_acc.unsigned_abs() <= limit,
            None => true,
        };
        if !inl_pass {
            self.inl_failures += 1;
        }
        let width_lsb = Lsb(raw_count as f64 * self.delta_s);
        let result = CodeResult {
            index: self.index,
            count,
            overflow,
            dnl_verdict,
            width_lsb,
            dnl_lsb: Lsb(width_lsb.0 - 1.0),
            inl_counts: self.inl_acc,
            inl_pass,
        };
        self.index += 1;
        result
    }

    /// The compact tally so far. The run in flight (after the last
    /// transition) is a partial code and is not counted, mirroring the
    /// hardware.
    pub fn tally(&self) -> MonitorTally {
        MonitorTally {
            codes_judged: self.index,
            dnl_failures: self.dnl_failures,
            inl_failures: self.inl_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::types::Resolution;

    fn cfg(counter_bits: u32) -> BistConfig {
        BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(counter_bits)
            .build()
            .unwrap()
    }

    fn stream(runs: &[u64]) -> Vec<bool> {
        let mut out = Vec::new();
        let mut level = false;
        for &r in runs {
            out.extend(std::iter::repeat_n(level, r as usize));
            level = !level;
        }
        out
    }

    /// Runs the monitor over a whole materialised bit stream.
    fn monitor(config: &BistConfig, stream: &[bool]) -> MonitorResult {
        let mut state = MonitorState::new(config);
        let codes = stream.iter().filter_map(|&b| state.push(b)).collect();
        let tally = state.tally();
        MonitorResult {
            codes,
            dnl_failures: tally.dnl_failures,
            inl_failures: tally.inl_failures,
        }
    }

    /// The measured counts in sweep order.
    fn counts(result: &MonitorResult) -> Vec<u64> {
        result.codes.iter().map(|c| c.count).collect()
    }

    #[test]
    fn drops_partial_first_and_last_runs() {
        let result = monitor(&cfg(4), &stream(&[7, 10, 12, 9, 100]));
        assert_eq!(counts(&result), vec![10, 12, 9]);
    }

    #[test]
    fn verdicts_follow_window() {
        // Window [6, 16] for the 4-bit planned config.
        let result = monitor(&cfg(4), &stream(&[3, 5, 10, 16, 3]));
        let verdicts: Vec<WindowVerdict> = result.codes.iter().map(|c| c.dnl_verdict).collect();
        assert_eq!(
            verdicts,
            vec![
                WindowVerdict::TooNarrow,
                WindowVerdict::Pass,
                WindowVerdict::Pass,
            ]
        );
        assert_eq!(result.dnl_failures, 1);
        assert!(!result.all_pass());
    }

    #[test]
    fn counter_saturation_flags_overflow() {
        // 4-bit counter capacity is 16 counts; a 30-sample run overflows.
        let result = monitor(&cfg(4), &stream(&[3, 30, 10, 3]));
        assert!(result.codes[0].overflow);
        assert_eq!(result.codes[0].count, 16);
        assert_eq!(result.codes[0].dnl_verdict, WindowVerdict::TooWide);
        assert!(!result.codes[1].overflow);
    }

    #[test]
    fn width_estimates_use_delta_s() {
        let config = cfg(4);
        let ds = config.delta_s().0;
        let result = monitor(&config, &stream(&[3, 11, 3]));
        assert!((result.codes[0].width_lsb.0 - 11.0 * ds).abs() < 1e-12);
        assert!((result.codes[0].dnl_lsb.0 - (11.0 * ds - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn inl_accumulates() {
        // Planned 4-bit config: i_ideal = round(1/0.09375) = 11.
        let config = cfg(4);
        assert_eq!(config.limits().i_ideal(), 11);
        let result = monitor(&config, &stream(&[3, 13, 9, 11, 3]));
        let inls: Vec<i64> = result.codes.iter().map(|c| c.inl_counts).collect();
        assert_eq!(inls, vec![2, 0, 0]);
    }

    #[test]
    fn empty_and_constant_streams() {
        let result = monitor(&cfg(4), &[]);
        assert!(result.codes.is_empty());
        let result = monitor(&cfg(4), &[true; 100]);
        assert!(result.codes.is_empty());
        assert!(result.all_pass());
    }

    #[test]
    fn single_transition_judges_nothing() {
        let result = monitor(&cfg(4), &stream(&[50, 50]));
        assert!(result.codes.is_empty());
    }

    #[test]
    fn deglitch_removes_toggle() {
        let mut s = stream(&[10, 12, 10]);
        // Inject an isolated toggle mid-run: without deglitching it
        // splits a code into two short (failing) runs.
        s[16] = !s[16];
        let raw_cfg = cfg(4);
        let raw = monitor(&raw_cfg, &s);
        assert!(raw.dnl_failures > 0);
        let deglitched_cfg =
            BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
                .counter_bits(4)
                .deglitch(true)
                .build()
                .unwrap();
        let filtered = monitor(&deglitched_cfg, &s);
        assert_eq!(filtered.dnl_failures, 0, "{filtered}");
    }

    #[test]
    fn dnl_profile_and_display() {
        let result = monitor(&cfg(4), &stream(&[3, 11, 11, 3]));
        assert_eq!(result.codes.len(), 2);
        assert!(result.to_string().contains("PASS"));
    }

    #[test]
    fn matches_rtl_datapath_exactly() {
        // The RTL processor and the behavioural monitor must agree on
        // every count and verdict for a representative stream.
        use bist_rtl::datapath::LsbProcessor;
        let config = cfg(4);
        let runs: Vec<u64> = (0..40).map(|i| 6 + (i * 7) % 12).collect();
        let s = stream(&runs);
        let behavioural = monitor(&config, &s);

        let mut rtl = LsbProcessor::new(config.to_rtl());
        let mut rtl_counts = Vec::new();
        let mut rtl_verdicts = Vec::new();
        for &b in &s {
            if let Some(m) = rtl.tick(b) {
                rtl_counts.push(m.count.min(1 << config.counter_bits()));
                rtl_verdicts.push(m.dnl_verdict);
            }
        }
        // The RTL's 2-cycle synchroniser may miss the very last edge;
        // compare the common prefix.
        let n = rtl_counts.len().min(behavioural.codes.len());
        assert!(n > 30, "too few common measurements: {n}");
        assert_eq!(counts(&behavioural)[..n], rtl_counts[..n], "count mismatch");
        for i in 0..n {
            assert_eq!(
                behavioural.codes[i].dnl_verdict, rtl_verdicts[i],
                "verdict mismatch at {i}"
            );
        }
    }
}
