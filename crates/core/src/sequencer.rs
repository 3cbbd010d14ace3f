//! Uncertainty-guided early-stop sequencing over both verdict paths.
//!
//! Today's engines consume the full ramp (static) or the full coherent
//! record (dynamic) before latching a verdict, yet the streaming
//! accumulators expose everything needed to decide sooner: the Schey et
//! al. line in PAPERS.md (arXiv:2511.11895 / 2511.11917) shows that an
//! incrementally-updated metric plus a running confidence estimate lets
//! a tester accept or reject long before the sweep completes. This
//! module is that decision layer:
//!
//! * [`SequencerConfig`] — the early-stop policy: type I/II *drift*
//!   budgets `alpha`/`beta` (how much the sequenced decision may
//!   disagree with the full-sweep decision), the earliest decision
//!   point `min_samples`, and the checkpoint spacing `check_interval`.
//! * [`StaticSequencer`] — watches the LSB-monitor measurement stream
//!   and the functional checks: Welford moments over the measured code
//!   widths drive Gaussian-tail predictions of the remaining codes'
//!   DNL/INL outcomes, with per-checkpoint (Bonferroni) budget
//!   spending. Observed failures reject immediately (zero drift —
//!   the full sweep would certainly reject); a judged-complete sweep
//!   accepts after a quiet dwell (the overshoot tail is skipped).
//! * [`DynSequencer`] — watches the centred code stream itself: an
//!   incremental fundamental quadrature plus per-block residual powers
//!   give a running noise-and-distortion estimate with a Welford
//!   confidence interval; the SINAD/ENOB/THD/noise limits are accepted
//!   or rejected as soon as the interval (plus a deterministic
//!   partial-record leakage guard) clears them.
//!
//! Each checkpoint emits a [`SeqDecision`]: `Continue`,
//! `AcceptEarly(at_sample)` or `RejectEarly(at_sample)`.
//!
//! ## Backend decision-exactness
//!
//! The sequencer is threaded through the backend seam
//! ([`crate::backend::Backend::judge`] /
//! [`crate::backend::Backend::judge_dyn`]) under a **visibility
//! protocol**, owned here, that makes the behavioural engine and the
//! gate-accurate RTL tops stop at the *same sample index*:
//!
//! * Static: every RTL measurement and functional check emerges exactly
//!   [`STATIC_DECISION_LATENCY`] ticks after the behavioural
//!   accumulators record it (the two-flop synchroniser; both deglitch
//!   filters vote over windows ending at the current sample, adding no
//!   lag). Engines stamp each event with its behavioural closing sample
//!   — the behavioural and batch engines as they record it, the RTL
//!   two ticks later as it emits it. A checkpoint falls due after
//!   consuming sample `s + 2` and sees exactly the events with closing
//!   sample `≤ s`, whichever order they arrived in. No tally is read between checkpoints, so an event that
//!   closes within the due checkpoint's horizon, with nothing waiting
//!   ahead of it, goes straight into the tallies on arrival; only the
//!   events of the last two samples before a checkpoint wait in a
//!   four-slot latch. A run-skipping batch sweep knows that no event
//!   closes in the skipped bulk of a constant-code run, so it takes the
//!   checkpoints falling due there without stopping at each: they see
//!   the same tallies they would at their own sample. Early verdict
//!   counters come from the sequencer's own visible tallies, so
//!   early-stopped verdicts are bit-exact across backends by
//!   construction; completed sweeps fall through to the bit-exact
//!   full-sweep verdict.
//! * Dynamic: the sequencer consumes the centred code values directly —
//!   the identical integer sequence both backends acquire — so its
//!   decisions cannot depend on the backend at all. On an early stop
//!   the RTL input pipeline is flushed (one drain tick) so both
//!   backends report the same consumed-sample count; the truncated
//!   record's raw dB metrics may still differ by the RTL's bounded
//!   fixed-point quantisation, exactly like the full-record contract.
//!
//! The `bist_mc::differential::run_seq_differential` fleet sweep (and
//! the `seq_fleet` binary gating CI) validates decision-exactness at
//! scale and measures the empirical type I/II drift and the
//! samples-to-decision saving against full-sweep ground truth.

use crate::config::{BistConfig, ConfigError};
use crate::dynamic::{DynamicConfig, DynamicVerdict};
use crate::harness::BistVerdict;
use crate::lsb_monitor::CodeResult;
use bist_adc::types::Code;
use bist_dsp::special::{normal_pdf, normal_quantile};
use bist_dsp::stats::Running;
use std::f64::consts::TAU;
use std::fmt;

/// Exact emission latency of the static RTL datapath relative to the
/// behavioural accumulators, in samples: the two-flop input
/// synchroniser. Both deglitch filters (3-tap majority, median-of-3)
/// vote over windows ending at the current sample and add no further
/// lag, so the latency is constant across configurations — the property
/// tests in `crates/core/tests/sequencer_equivalence.rs` pin it.
pub const STATIC_DECISION_LATENCY: u64 = 2;

/// Minimum judged codes before the static sequencer trusts its Welford
/// statistics.
const MIN_CODES_FOR_STATS: u64 = 8;

/// Minimum residual blocks before the dynamic sequencer trusts its
/// confidence interval.
const MIN_BLOCKS_FOR_STATS: u64 = 4;

/// The checkpoint-level early-stop decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqDecision {
    /// Not confident either way yet — keep sweeping.
    Continue,
    /// Accept the device now; the payload is the decision sample index
    /// (the visible horizon the decision was taken at).
    AcceptEarly(u64),
    /// Reject the device now; the payload is the decision sample index.
    RejectEarly(u64),
}

impl SeqDecision {
    /// Whether this decision stops the sweep.
    pub fn stops(&self) -> bool {
        !matches!(self, SeqDecision::Continue)
    }
}

impl fmt::Display for SeqDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqDecision::Continue => write!(f, "continue"),
            SeqDecision::AcceptEarly(s) => write!(f, "accept early @ {s}"),
            SeqDecision::RejectEarly(s) => write!(f, "reject early @ {s}"),
        }
    }
}

/// The early-stop policy: drift budgets and checkpoint cadence, checked
/// by [`validate`](SequencerConfig::validate).
///
/// # Examples
///
/// ```
/// use bist_core::sequencer::SequencerConfig;
///
/// let policy = SequencerConfig {
///     alpha: 1e-4,
///     min_samples: 512,
///     ..SequencerConfig::default()
/// };
/// assert!(policy.validate().is_ok());
/// let bad = SequencerConfig { alpha: 2.0, ..policy };
/// assert!(bad.validate().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequencerConfig {
    /// Type I drift budget: the allowed probability (per device) that
    /// the sequencer *rejects* a device the full sweep would accept.
    /// Spent Bonferroni-style across the sweep's checkpoints.
    pub alpha: f64,
    /// Type II drift budget: the allowed probability (per device) that
    /// the sequencer *accepts* a device the full sweep would reject.
    pub beta: f64,
    /// No decision before this many samples are visible — a floor on
    /// the evidence any early stop is based on.
    pub min_samples: u64,
    /// Checkpoint spacing in samples; also the residual block length of
    /// the dynamic statistic and the quiet dwell required before a
    /// judged-complete static sweep accepts.
    pub check_interval: u64,
}

impl Default for SequencerConfig {
    fn default() -> Self {
        SequencerConfig {
            alpha: 1e-3,
            beta: 1e-3,
            min_samples: 256,
            check_interval: 64,
        }
    }
}

impl SequencerConfig {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a knob is out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ConfigError::BadAlpha(self.alpha));
        }
        if !(self.beta > 0.0 && self.beta < 1.0) {
            return Err(ConfigError::BadBeta(self.beta));
        }
        if self.min_samples == 0 {
            return Err(ConfigError::BadMinSamples);
        }
        if self.check_interval == 0 {
            return Err(ConfigError::BadCheckInterval);
        }
        Ok(())
    }

    /// Per-checkpoint budget: the total budget split evenly over the
    /// worst-case number of looks (clamped into a numerically safe
    /// range for the normal quantile).
    fn per_look(total: f64, looks: u64) -> f64 {
        (total / looks.max(1) as f64).clamp(1e-12, 0.5)
    }
}

/// The per-checkpoint budgets of one policy over a sweep of known
/// length, and the thresholds the decision rules read from them.
///
/// Deriving them costs two `normal_quantile` calls, one `ln` and a
/// bisection, so a sequencer keeps them from sweep to sweep and derives
/// them again only when the worst-case look count changes — in a fleet,
/// once per configuration rather than once per device.
#[derive(Debug, Clone, Copy)]
struct LookBudget {
    /// The worst-case look count these were derived for (0: not yet).
    looks: u64,
    beta_look: f64,
    /// `ln(1/alpha_look)` — the early-reject evidence threshold, so the
    /// hot checkpoint avoids `powf`/`ln` entirely.
    ln_inv_alpha: f64,
    z_alpha: f64,
    z_beta: f64,
    /// A standardised distance at or below which one upper tail term
    /// alone exceeds `beta_look`: `gauss_tail_upper` is at least
    /// `1.01·beta_look` there, a margin far above the rounding of
    /// either side, so no count of remaining codes can accept.
    z_accept: f64,
}

impl LookBudget {
    const UNSET: LookBudget = LookBudget {
        looks: 0,
        beta_look: 0.5,
        ln_inv_alpha: 0.0,
        z_alpha: 0.0,
        z_beta: 0.0,
        z_accept: 0.0,
    };

    /// Brings the budgets up to date for a sweep of `samples` samples
    /// under `policy`: one look at `min_samples`, then one every
    /// `check_interval`.
    fn derive(&mut self, policy: &SequencerConfig, samples: u64) {
        let looks = samples
            .saturating_sub(policy.min_samples)
            .div_euclid(policy.check_interval)
            + 1;
        if looks == self.looks {
            return;
        }
        let alpha_look = SequencerConfig::per_look(policy.alpha, looks);
        let beta_look = SequencerConfig::per_look(policy.beta, looks);
        *self = LookBudget {
            looks,
            beta_look,
            ln_inv_alpha: -alpha_look.ln(),
            z_alpha: normal_quantile(1.0 - alpha_look),
            z_beta: normal_quantile(1.0 - beta_look),
            z_accept: accept_threshold(beta_look),
        };
    }
}

/// Bisects for the largest standardised distance whose upper tail term
/// is still at least `1.01·beta_look` (the tail falls monotonically;
/// the returned end always meets the bound).
fn accept_threshold(beta_look: f64) -> f64 {
    let target = 1.01 * beta_look;
    let (mut lo, mut hi) = (0.0, 40.0);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if gauss_tail_upper(mid) >= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A verdict type the sequencer can wrap: exposes the device decision
/// and the consumed-sample count.
pub trait SweptVerdict {
    /// The full-sweep device decision.
    fn accepted(&self) -> bool;
    /// ADC samples the sweep consumed.
    fn samples(&self) -> u64;
}

impl SweptVerdict for BistVerdict {
    fn accepted(&self) -> bool {
        BistVerdict::accepted(self)
    }

    fn samples(&self) -> u64 {
        self.samples
    }
}

impl SweptVerdict for DynamicVerdict {
    fn accepted(&self) -> bool {
        DynamicVerdict::accepted(self)
    }

    fn samples(&self) -> u64 {
        self.samples
    }
}

/// Outcome of one sequenced sweep: the early-stop decision (or
/// [`SeqDecision::Continue`] for a sweep that ran to completion) plus
/// the verdict latched at stop time.
///
/// For an early stop the verdict holds the sequencer-visible counters
/// (static) or the truncated-record metrics (dynamic); either way
/// [`SeqOutcome::accepted`] — not `verdict.accepted()` — is the device
/// decision the silicon latches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqOutcome<V> {
    /// The sequencer's decision for this sweep.
    pub decision: SeqDecision,
    /// The verdict at stop time (the full-sweep verdict when
    /// `decision` is `Continue`).
    pub verdict: V,
}

impl<V> SeqOutcome<V> {
    /// The outcome of a sweep that ran to completion.
    pub fn completed(verdict: V) -> Self {
        SeqOutcome {
            decision: SeqDecision::Continue,
            verdict,
        }
    }
}

impl<V: SweptVerdict> SeqOutcome<V> {
    /// The device-level decision the sequenced test latches.
    pub fn accepted(&self) -> bool {
        match self.decision {
            SeqDecision::AcceptEarly(_) => true,
            SeqDecision::RejectEarly(_) => false,
            SeqDecision::Continue => self.verdict.accepted(),
        }
    }

    /// Whether the sweep stopped before consuming its full stimulus.
    pub fn stopped_early(&self) -> bool {
        self.decision.stops()
    }

    /// ADC samples physically consumed by the sequenced sweep.
    pub fn samples_consumed(&self) -> u64 {
        self.verdict.samples()
    }
}

// ---------------------------------------------------------------------
// Static workload
// ---------------------------------------------------------------------

/// Mills-ratio upper bound on the standard normal upper tail:
/// `P(Z > z) ≤ φ(z)/z` for every `z > 0` (capped at 1 near/below
/// zero). Exp-only — the checkpoint hot path cannot afford the
/// continued-fraction `erfc`.
fn gauss_tail_upper(z: f64) -> f64 {
    if z <= 0.4 {
        1.0
    } else {
        normal_pdf(z) / z
    }
}

/// Matching lower bound: `P(Z > z) ≥ φ(z)·z/(1+z²)` for `z > 0`, and
/// `½` for `z ≤ 0` (the true tail is at least that there).
fn gauss_tail_lower(z: f64) -> f64 {
    if z <= 0.0 {
        0.5
    } else {
        normal_pdf(z) * z / (1.0 + z * z)
    }
}

/// A static event as the tallies read it: of a code measurement, only
/// its width, its DNL and INL verdicts and the running INL; of a
/// functional check, whether it matched.
#[derive(Debug, Clone, Copy)]
enum Event {
    Code {
        count: u64,
        dnl_pass: bool,
        inl_pass: bool,
        inl_counts: i64,
    },
    Functional(bool),
}

/// Latch capacity. An event goes straight into the tallies when nothing
/// waits ahead of it and it closes within the due checkpoint's horizon,
/// so only events of the [`STATIC_DECISION_LATENCY`] samples after that
/// horizon wait — at most one of each kind per sample.
const LATCH: usize = 2 * STATIC_DECISION_LATENCY as usize;

/// The early-stop decision layer for the static-linearity workload.
///
/// Owns the visibility protocol (see the module docs): engines feed
/// every event through the `observe_*` methods, and each
/// [`checkpoint`](StaticSequencer::checkpoint) is taken as it falls
/// due, [`STATIC_DECISION_LATENCY`] samples past its evidence horizon.
///
/// Reusable across sweeps: [`StaticSequencer::begin`] rederives the
/// per-config count window (the look budgets only when the look count
/// changes) and clears the tallies without touching the heap (the
/// struct is entirely inline state), so the sequenced device→verdict
/// hot path stays allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct StaticSequencer {
    policy: SequencerConfig,
    // Derived per sweep by `begin`.
    i_min: f64,
    i_max: f64,
    i_ideal: f64,
    inl_limit: Option<u64>,
    expected: u64,
    budget: LookBudget,
    // Visible tallies.
    codes: u64,
    dnl_failures: u64,
    inl_failures: u64,
    functional_checks: u64,
    functional_mismatches: u64,
    inl_last: i64,
    last_event_sample: u64,
    widths: Running,
    // Visibility protocol: the consumed-sample count the next
    // checkpoint falls due at, and the events not yet admitted, in
    // arrival order.
    next_due: u64,
    latched: [(u64, Event); LATCH],
    latched_len: usize,
}

impl StaticSequencer {
    /// Creates a sequencer with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails [`SequencerConfig::validate`].
    pub fn new(policy: SequencerConfig) -> Self {
        if let Err(e) = policy.validate() {
            panic!("invalid sequencer policy: {e}");
        }
        StaticSequencer {
            policy,
            i_min: 0.0,
            i_max: 0.0,
            i_ideal: 1.0,
            inl_limit: None,
            expected: 0,
            budget: LookBudget::UNSET,
            codes: 0,
            dnl_failures: 0,
            inl_failures: 0,
            functional_checks: 0,
            functional_mismatches: 0,
            inl_last: 0,
            last_event_sample: 0,
            widths: Running::new(),
            next_due: policy.min_samples + STATIC_DECISION_LATENCY,
            latched: [(0, Event::Functional(true)); LATCH],
            latched_len: 0,
        }
    }

    /// Arms the sequencer for one sweep under `config`: derives the
    /// count window, the expected measurement count and the per-look
    /// budgets, and clears every tally.
    pub fn begin(&mut self, config: &BistConfig) {
        let limits = config.limits();
        self.i_min = limits.i_min() as f64;
        self.i_max = limits.i_max() as f64;
        self.i_ideal = limits.i_ideal() as f64;
        self.inl_limit = config.inl_limit_counts();
        self.expected = config.expected_measurements();
        // Worst-case checkpoint count: the planned sweep is roughly
        // i_ideal samples per code over the expected codes plus the
        // 14-LSB lead-in/overshoot of the harness ramp.
        let horizon = limits.i_ideal() * (self.expected + 14);
        self.budget.derive(&self.policy, horizon);
        self.codes = 0;
        self.dnl_failures = 0;
        self.inl_failures = 0;
        self.functional_checks = 0;
        self.functional_mismatches = 0;
        self.inl_last = 0;
        self.last_event_sample = 0;
        self.widths = Running::new();
        self.next_due = self.next_checkpoint_after(0) + STATIC_DECISION_LATENCY;
        self.latched_len = 0;
    }

    /// Observes one code measurement, stamped with its behavioural
    /// closing sample `at`.
    #[inline]
    pub fn observe_code(&mut self, at: u64, code: &CodeResult) {
        self.observe(
            at,
            Event::Code {
                count: code.count,
                dnl_pass: code.dnl_verdict.is_pass(),
                inl_pass: code.inl_pass,
                inl_counts: code.inl_counts,
            },
        );
    }

    /// Observes one functional check, stamped with its behavioural
    /// closing sample `at`.
    #[inline]
    pub fn observe_functional(&mut self, at: u64, ok: bool) {
        self.observe(at, Event::Functional(ok));
    }

    /// Admits `event` on arrival when nothing is latched ahead of it and
    /// the due checkpoint's horizon covers it (no tallies are read
    /// before that checkpoint); latches it otherwise.
    #[inline]
    fn observe(&mut self, at: u64, event: Event) {
        if self.latched_len == 0 && at <= self.next_due - STATIC_DECISION_LATENCY {
            self.tally(at, event);
        } else {
            self.latch(at, event);
        }
    }

    /// Queues `event` behind the latched ones, then admits every latched
    /// event the due checkpoint's horizon covers.
    fn latch(&mut self, at: u64, event: Event) {
        assert!(self.latched_len < LATCH, "sequencer checkpoint missed");
        self.latched[self.latched_len] = (at, event);
        self.latched_len += 1;
        self.admit(self.next_due - STATIC_DECISION_LATENCY);
    }

    /// Moves the latched events with closing sample `≤ horizon` into
    /// the visible tallies, in arrival order.
    fn admit(&mut self, horizon: u64) {
        while self.latched_len > 0 && self.latched[0].0 <= horizon {
            let (at, event) = self.latched[0];
            self.tally(at, event);
            self.latched.copy_within(1..self.latched_len, 0);
            self.latched_len -= 1;
        }
    }

    /// Adds one event, closing at sample `at`, to the visible tallies.
    #[inline]
    fn tally(&mut self, at: u64, event: Event) {
        match event {
            Event::Code {
                count,
                dnl_pass,
                inl_pass,
                inl_counts,
            } => {
                self.codes += 1;
                self.dnl_failures += u64::from(!dnl_pass);
                self.inl_failures += u64::from(!inl_pass);
                self.inl_last = inl_counts;
                self.last_event_sample = at;
                self.widths.push(count as f64);
            }
            Event::Functional(ok) => {
                self.functional_checks += 1;
                self.functional_mismatches += u64::from(!ok);
            }
        }
    }

    /// The first checkpoint sample strictly after `visible` on the
    /// `min_samples + k·check_interval` lattice.
    fn next_checkpoint_after(&self, visible: u64) -> u64 {
        let min = self.policy.min_samples;
        if visible < min {
            min
        } else {
            min + ((visible - min) / self.policy.check_interval + 1) * self.policy.check_interval
        }
    }

    /// The compact verdict as visible at stop time: the sequencer's own
    /// tallies (identical across backends by construction) with the
    /// physically consumed sample count.
    pub fn verdict(&self, samples_consumed: u64) -> BistVerdict {
        BistVerdict {
            codes_judged: self.codes,
            dnl_failures: self.dnl_failures,
            inl_failures: self.inl_failures,
            functional_checks: self.functional_checks,
            functional_mismatches: self.functional_mismatches,
            expected_codes: self.expected,
            samples: samples_consumed,
        }
    }

    /// Upper bound on the Gaussian mass outside the count window — the
    /// accept-side estimate (overestimating can only delay an accept).
    /// Uses the `φ(z)/z` tail bound: exp-only arithmetic, no `erfc` on
    /// the hot checkpoint path.
    fn tail_outside_upper(&self, mean: f64, sd: f64) -> f64 {
        let sd = sd.max(1e-6);
        let below = gauss_tail_upper((mean - self.i_min) / sd);
        let above = gauss_tail_upper((self.i_max - mean) / sd);
        (below + above).min(1.0)
    }

    /// Lower bound on the Gaussian mass outside the (continuity-
    /// corrected) count window — the reject-side estimate
    /// (underestimating can only delay a reject).
    fn tail_outside_lower(&self, mean: f64, sd: f64) -> f64 {
        let sd = sd.max(1e-6);
        let below = gauss_tail_lower((mean - (self.i_min - 0.5)) / sd);
        let above = gauss_tail_lower(((self.i_max + 0.5) - mean) / sd);
        (below + above).min(1.0)
    }

    /// Takes the checkpoint due after `consumed` samples: admits the
    /// events closing at or before `consumed −` [`STATIC_DECISION_LATENCY`],
    /// schedules the next checkpoint and decides on that evidence.
    // bist-lint: hot-path — static checkpoint decision
    pub fn checkpoint(&mut self, consumed: u64) -> SeqDecision {
        let visible = consumed.saturating_sub(STATIC_DECISION_LATENCY);
        self.admit(visible);
        self.next_due = self.next_checkpoint_after(visible) + STATIC_DECISION_LATENCY;
        self.decide(visible)
    }

    /// Takes the checkpoint when one is due after `consumed` samples;
    /// the early-stop outcome when it stops the sweep.
    #[inline]
    pub(crate) fn stop_if_due(&mut self, consumed: u64) -> Option<SeqOutcome<BistVerdict>> {
        if consumed != self.next_due {
            return None;
        }
        let decision = self.checkpoint(consumed);
        decision.stops().then(|| SeqOutcome {
            decision,
            verdict: self.verdict(consumed),
        })
    }

    /// Takes every checkpoint falling due at or before `end`, for an
    /// engine that has consumed up to a quiet stretch: samples, ending at
    /// `end`, in which no event closes. Each checkpoint sees exactly the
    /// tallies it would see at its own sample, so this is
    /// [`stop_if_due`](StaticSequencer::stop_if_due) at every sample of
    /// the stretch. The early-stop outcome of the first that stops.
    #[inline]
    pub(crate) fn stop_in_quiet(&mut self, end: u64) -> Option<SeqOutcome<BistVerdict>> {
        while self.next_due <= end {
            if let Some(stop) = self.stop_if_due(self.next_due) {
                return Some(stop);
            }
        }
        None
    }

    /// The decision rule on the tallies visible at sample `visible`.
    fn decide(&self, visible: u64) -> SeqDecision {
        // Observed failure: the full sweep rejects with certainty.
        if self.dnl_failures + self.inl_failures + self.functional_mismatches > 0 {
            return SeqDecision::RejectEarly(visible);
        }
        // Surplus measurements: exact-count completeness already broken.
        if self.codes > self.expected {
            return SeqDecision::RejectEarly(visible);
        }
        // Judged complete and clean: accept once the tail has been
        // quiet for a full checkpoint interval (a toggle still in
        // flight right after the last transition would add a surplus
        // measurement the full sweep would see).
        if self.codes == self.expected {
            return if visible - self.last_event_sample >= self.policy.check_interval {
                SeqDecision::AcceptEarly(visible)
            } else {
                SeqDecision::Continue
            };
        }
        // Beyond this point the rules are *statistical*: they predict
        // the codes not yet swept from the Welford moments of the codes
        // already measured, i.e. they are calibrated against the
        // process model (exchangeable code widths — the §3 Gaussian
        // law both fleet populations follow). A localized defect
        // parked beyond the decision horizon is invisible to any early
        // decision by construction; the drift it causes is what the
        // `beta` budget prices, and what the sequenced differential
        // fleet sweep measures empirically.
        let k = self.codes;
        if k < MIN_CODES_FOR_STATS {
            return SeqDecision::Continue;
        }
        let LookBudget {
            beta_look,
            ln_inv_alpha,
            z_alpha,
            z_beta,
            z_accept,
            ..
        } = self.budget;
        let remaining = (self.expected - k) as f64;
        let mean = self.widths.mean();
        let sd = self.widths.std_dev().max(1e-6);
        let se = sd / (k as f64).sqrt();
        let drift = mean - self.i_ideal;

        // --- Early accept (spends beta): every remaining code is
        // predicted to pass both windows with confidence.
        // `P(any fail) ≤ r·p_hi` (Bonferroni), so gating `r·p_hi` is
        // conservative and avoids `powf` on the hot path. `p_hi` is at
        // least each of its four tail terms and `r ≥ 1`, so an inner
        // term whose distance is at most `z_accept` already fails the
        // rule: those two distances are compared first (the usual
        // failure early in a sweep), with no `exp` and the same outcome.
        let sd_hi = sd * (1.0 + z_beta / (2.0 * (k - 1) as f64).sqrt());
        let (lo, hi) = (mean - z_beta * se, mean + z_beta * se);
        let accept = (lo - self.i_min) / sd_hi > z_accept
            && (self.i_max - hi) / sd_hi > z_accept
            && remaining
                * self
                    .tail_outside_upper(lo, sd_hi)
                    .max(self.tail_outside_upper(hi, sd_hi))
                <= beta_look
            && match self.inl_limit {
                None => true,
                Some(limit) => {
                    let end = (self.inl_last as f64 + drift * remaining).abs();
                    let spread = z_beta * (2.0 * sd_hi * remaining.sqrt() + se * remaining);
                    end + spread <= limit as f64
                }
            };
        if accept {
            return SeqDecision::AcceptEarly(visible);
        }

        // --- Early reject (spends alpha): the device is predicted to
        // fail somewhere ahead with confidence, under the *optimistic*
        // reading of the statistics. `(1−p)^r ≤ e^{−r·p}`, so demanding
        // `r·p_lo ≥ ln(1/alpha_look)` is conservative.
        // With both standardised distances at least 2, each tail term
        // is below `φ(2)·2/5 < 0.0217`, so `r·p_lo < 0.05·r`: when that
        // is short of the threshold the rule cannot fire, and its two
        // `exp`s are skipped with the same outcome.
        let center = (self.i_min + self.i_max) / 2.0;
        let mean_opt = center.clamp(mean - z_alpha * se, mean + z_alpha * se);
        let near = (mean_opt - (self.i_min - 0.5)).min((self.i_max + 0.5) - mean_opt);
        let settled = near >= 2.0 * sd && 0.05 * remaining < ln_inv_alpha;
        if !settled && remaining * self.tail_outside_lower(mean_opt, sd) >= ln_inv_alpha {
            return SeqDecision::RejectEarly(visible);
        }
        if let Some(limit) = self.inl_limit {
            let end = (self.inl_last as f64 + drift * remaining).abs();
            let spread = z_alpha * (2.0 * sd * remaining.sqrt() + se * remaining);
            if end - spread > limit as f64 {
                return SeqDecision::RejectEarly(visible);
            }
        }
        SeqDecision::Continue
    }
}

// ---------------------------------------------------------------------
// Dynamic workload
// ---------------------------------------------------------------------

/// Per-block partial sums of the dynamic residual statistic. The trig
/// moments are data-independent but cheapest to accumulate in stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BlockSums {
    sv: f64,
    svv: f64,
    svc: f64,
    svs: f64,
    c: f64,
    s: f64,
    cc: f64,
    ss: f64,
    cs: f64,
}

/// The early-stop decision layer for the dynamic workload.
///
/// Consumes the centred half-LSB code values directly — the identical
/// integer sequence both backends acquire — so its decisions are
/// backend-independent by construction. The statistic: an incremental
/// quadrature estimate of the fundamental (amplitude + DC) and, per
/// [`SequencerConfig::check_interval`]-sample block, the residual power
/// after subtracting that model. The residual is exactly the
/// noise-and-distortion (NAD) band of the SINAD definition; Welford
/// moments over the blocks give a confidence interval, and a
/// deterministic partial-record leakage guard covers the model bias.
/// Harmonic distortion is bounded through the NAD (each distinct alias
/// bin's power is part of the residual), so no per-harmonic state is
/// needed.
///
/// Reusable across sweeps and configurations: the block buffer is
/// cleared, never shrunk, so the sequenced dynamic hot path is
/// allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct DynSequencer {
    policy: SequencerConfig,
    // Plan cache key.
    n: usize,
    bin: usize,
    harmonics: usize,
    // Derived thresholds (`full_scale` centres codes: 2ⁿ).
    full_scale: i64,
    sinad_ratio_min: f64,
    thd_ratio_max: f64,
    noise_max_half: f64,
    order_multiplicity: f64,
    guard_scale: f64,
    budget: LookBudget,
    // Quadrature recurrence at the fundamental.
    rot_cos: f64,
    rot_sin: f64,
    cur_cos: f64,
    cur_sin: f64,
    qc: f64,
    qs: f64,
    // Exact integer side sums.
    sum: i64,
    sum_sq: u64,
    // Residual blocks.
    blocks: Vec<BlockSums>,
    cur: BlockSums,
    /// Samples left in the current block (countdown — no hot-path
    /// modulo).
    block_left: u64,
    /// The consumed-sample count the next checkpoint falls due at.
    next_due: u64,
}

impl DynSequencer {
    /// Creates a sequencer with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails [`SequencerConfig::validate`].
    pub fn new(policy: SequencerConfig) -> Self {
        if let Err(e) = policy.validate() {
            panic!("invalid sequencer policy: {e}");
        }
        DynSequencer {
            policy,
            n: 0,
            bin: 0,
            harmonics: 0,
            full_scale: 0,
            sinad_ratio_min: 1.0,
            thd_ratio_max: 1.0,
            noise_max_half: 0.0,
            order_multiplicity: 1.0,
            guard_scale: 0.0,
            budget: LookBudget::UNSET,
            rot_cos: 1.0,
            rot_sin: 0.0,
            cur_cos: 1.0,
            cur_sin: 0.0,
            qc: 0.0,
            qs: 0.0,
            sum: 0,
            sum_sq: 0,
            blocks: Vec::new(),
            cur: BlockSums::default(),
            block_left: policy.check_interval,
            next_due: u64::MAX,
        }
    }

    /// Arms the sequencer for one record under `config`: derives the
    /// limit thresholds (in half-LSB² units), the leakage guard and the
    /// per-look budgets, and clears all accumulation. The block buffer
    /// keeps its capacity.
    pub fn begin(&mut self, config: &DynamicConfig) {
        let n = config.record_len();
        let bin = config.cycles() as usize;
        if self.n != n || self.bin != bin || self.harmonics != config.harmonics() {
            self.n = n;
            self.bin = bin;
            self.harmonics = config.harmonics();
            let omega = TAU * bin as f64 / n as f64;
            self.rot_cos = omega.cos();
            self.rot_sin = omega.sin();
            // Worst orders-per-alias-bin multiplicity of the plan: the
            // THD band is bounded by `multiplicity × NAD`.
            let plan = bist_dsp::goertzel::harmonic_plan(bin, n, config.harmonics());
            let mut mult = 1u32;
            for slot in 0..plan.bins.len() {
                let shares = plan.slots.iter().flatten().filter(|&&x| x == slot).count() as u32;
                mult = mult.max(shares);
            }
            self.order_multiplicity = mult as f64;
            // Partial-record model bias: the quadrature estimates of
            // the fundamental and the DC over m samples carry Dirichlet
            // leakage O(1/(m sin ω)) and O(1/(m sin ω/2)); the induced
            // residual-power bias is covered by guard_scale·carrier/m².
            let s1 = omega.sin().abs().max(1e-6);
            let s2 = (omega / 2.0).sin().abs().max(1e-6);
            self.guard_scale = 8.0 / (s1 * s1) + 4.0 / (s2 * s2);
        }
        self.full_scale = config.resolution().code_count() as i64;
        let limits = config.limits();
        let sinad_eff = limits.min_sinad_db.max(limits.min_enob * 6.02 + 1.76);
        self.sinad_ratio_min = 10f64.powf(sinad_eff / 10.0);
        self.thd_ratio_max = 10f64.powf(limits.max_thd_db / 10.0);
        // Limits are in LSB²; the sequencer works in half-LSB² (×4).
        self.noise_max_half = limits.max_noise_power_lsb2 * 4.0;
        self.budget.derive(&self.policy, n as u64);
        self.cur_cos = 1.0;
        self.cur_sin = 0.0;
        self.qc = 0.0;
        self.qs = 0.0;
        self.sum = 0;
        self.sum_sq = 0;
        self.blocks.clear();
        self.blocks
            .reserve(n / self.policy.check_interval as usize + 1);
        self.cur = BlockSums::default();
        self.block_left = self.policy.check_interval;
        self.next_due = self.next_checkpoint_after(0);
    }

    /// Feeds one acquired code as its centred half-LSB value
    /// `v = 2·code + 1 − 2ⁿ` — the identical integer for both backends.
    // bist-lint: hot-path — per-sample dynamic sequencer update
    pub fn push(&mut self, code: Code) {
        let v = 2 * i64::from(code.0) + 1 - self.full_scale;
        let x = v as f64;
        let (c, s) = (self.cur_cos, self.cur_sin);
        self.qc += x * c;
        self.qs += x * s;
        // Rotate the quadrature phasor by ω.
        self.cur_cos = c * self.rot_cos - s * self.rot_sin;
        self.cur_sin = s * self.rot_cos + c * self.rot_sin;
        self.sum += v;
        self.sum_sq += (v * v) as u64;
        self.cur.sv += x;
        self.cur.svv += x * x;
        self.cur.svc += x * c;
        self.cur.svs += x * s;
        self.cur.c += c;
        self.cur.s += s;
        self.cur.cc += c * c;
        self.cur.ss += s * s;
        self.cur.cs += c * s;
        self.block_left -= 1;
        if self.block_left == 0 {
            self.blocks.push(self.cur);
            self.cur = BlockSums::default();
            self.block_left = self.policy.check_interval;
        }
    }

    /// The consumed-sample count at which the next checkpoint falls
    /// due — on a block boundary at or after `min_samples` (no pipeline
    /// latency) — or `u64::MAX` once none falls strictly inside the
    /// record.
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// The first checkpoint strictly after `consumed` that lies
    /// strictly inside the record, or `u64::MAX`.
    fn next_checkpoint_after(&self, consumed: u64) -> u64 {
        let interval = self.policy.check_interval;
        let next = ((consumed / interval + 1) * interval)
            .max(self.policy.min_samples.div_ceil(interval) * interval);
        if next < self.n as u64 {
            next
        } else {
            u64::MAX
        }
    }

    /// Takes the checkpoint due after `consumed` samples
    /// ([`next_due`](DynSequencer::next_due)): schedules the next one
    /// and evaluates the decision rule.
    // bist-lint: hot-path — dynamic checkpoint decision
    pub fn checkpoint(&mut self, consumed: u64) -> SeqDecision {
        self.next_due = self.next_checkpoint_after(consumed);
        let blocks = self.blocks.len() as u64;
        if blocks < MIN_BLOCKS_FOR_STATS {
            return SeqDecision::Continue;
        }
        let m = consumed as f64;
        let dc = self.sum as f64 / m;
        let ac = 2.0 * self.qc / m;
        let asn = 2.0 * self.qs / m;
        let carrier = (ac * ac + asn * asn) / 2.0;
        let block_len = self.policy.check_interval as f64;
        let mut resid = Running::new();
        for b in &self.blocks {
            let model_energy = ac * ac * b.cc
                + asn * asn * b.ss
                + 2.0 * ac * asn * b.cs
                + 2.0 * dc * (ac * b.c + asn * b.s)
                + block_len * dc * dc;
            let r = b.svv - 2.0 * (ac * b.svc + asn * b.svs + dc * b.sv) + model_energy;
            resid.push(r / block_len);
        }
        let nad = resid.mean().max(0.0);
        let se = resid.std_dev() / (blocks as f64).sqrt();
        let guard = self.guard_scale * carrier / (m * m);
        let LookBudget {
            z_alpha, z_beta, ..
        } = self.budget;
        let nad_hi = nad + z_beta * se + guard;
        let nad_lo = (nad - z_alpha * se - guard).max(0.0);
        // Carrier estimation uncertainty: noise-driven variance plus
        // the same relative leakage bound.
        let car_se = 2.0 * (carrier * nad / m).max(0.0).sqrt() + 4.0 * carrier / m;
        let car_lo = carrier - z_beta * car_se;
        let car_hi = carrier + z_alpha * car_se;

        // Accept: every limit confidently met. SINAD/ENOB share the
        // carrier/NAD ratio; THD is bounded by multiplicity × NAD;
        // noise is bounded by NAD.
        let sinad_ok = car_lo > 0.0 && nad_hi * self.sinad_ratio_min <= car_lo;
        let thd_ok = self.order_multiplicity * nad_hi <= self.thd_ratio_max * car_lo;
        let noise_ok = nad_hi <= self.noise_max_half;
        if sinad_ok && thd_ok && noise_ok {
            return SeqDecision::AcceptEarly(consumed);
        }
        // Reject: the SINAD/ENOB band confidently fails even under the
        // optimistic reading (a failed noise or THD limit implies a
        // large NAD, so this rule dominates in practice; devices
        // failing only a looser custom limit fall through to the full
        // record — zero drift).
        if nad_lo > 0.0 && nad_lo * self.sinad_ratio_min > car_hi {
            return SeqDecision::RejectEarly(consumed);
        }
        SeqDecision::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BehavioralBackend, RtlBackend};
    use crate::harness::plan_ramp;
    use crate::screener::{Screener, Workload};
    use bist_adc::noise::NoiseConfig;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::transfer::{Adc, TransferFunction};
    use bist_adc::types::{Resolution, Volts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(bits: u32) -> BistConfig {
        BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(bits)
            .build()
            .unwrap()
    }

    fn ideal() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    /// Sequenced static sweep through the screener front door.
    fn seq_static<B: Backend, A: Adc + ?Sized>(
        backend: B,
        adc: &A,
        config: &BistConfig,
        policy: SequencerConfig,
        noise: &NoiseConfig,
        seed: u64,
    ) -> SeqOutcome<BistVerdict> {
        let mut screener = Screener::new(Workload::static_ramp(*config).with_noise(*noise))
            .backend(backend)
            .sequencer(policy);
        *screener
            .screen_one(adc, &mut StdRng::seed_from_u64(seed))
            .as_static()
            .expect("static workload")
    }

    /// Unsequenced full static sweep — the drift reference.
    fn full_static<A: Adc + ?Sized>(
        adc: &A,
        config: &BistConfig,
        noise: &NoiseConfig,
        seed: u64,
    ) -> BistVerdict {
        let mut screener = Screener::new(Workload::static_ramp(*config).with_noise(*noise));
        screener
            .screen_one(adc, &mut StdRng::seed_from_u64(seed))
            .as_static()
            .expect("static workload")
            .verdict
    }

    /// Sequenced dynamic sweep through the screener front door.
    fn seq_dyn<B: Backend, A: Adc + ?Sized>(
        backend: B,
        adc: &A,
        config: &DynamicConfig,
        policy: SequencerConfig,
        seed: u64,
    ) -> SeqOutcome<DynamicVerdict> {
        let mut screener = Screener::new(Workload::dynamic_sine(*config))
            .backend(backend)
            .sequencer(policy);
        *screener
            .screen_one(adc, &mut StdRng::seed_from_u64(seed))
            .as_dynamic()
            .expect("dynamic workload")
    }

    #[test]
    fn policy_validation() {
        assert!(SequencerConfig::default().validate().is_ok());
        for bad in [
            SequencerConfig {
                alpha: 0.0,
                ..Default::default()
            },
            SequencerConfig {
                beta: 1.0,
                ..Default::default()
            },
            SequencerConfig {
                min_samples: 0,
                ..Default::default()
            },
            SequencerConfig {
                check_interval: 0,
                ..Default::default()
            },
        ] {
            let err = bad.validate().unwrap_err();
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "invalid sequencer policy")]
    fn static_sequencer_rejects_bad_policy() {
        StaticSequencer::new(SequencerConfig {
            alpha: -1.0,
            ..Default::default()
        });
    }

    #[test]
    fn checkpoint_schedule() {
        let p = SequencerConfig {
            min_samples: 100,
            check_interval: 50,
            ..Default::default()
        };
        // Static checkpoints sit on the `min_samples + k·check_interval`
        // evidence lattice and fall due the decision latency later.
        let mut seq = StaticSequencer::new(p);
        seq.begin(&cfg(5));
        assert_eq!(seq.next_due, 100 + STATIC_DECISION_LATENCY);
        assert_eq!(seq.checkpoint(seq.next_due), SeqDecision::Continue);
        assert_eq!(seq.next_due, 150 + STATIC_DECISION_LATENCY);
        // Dynamic checkpoints sit on block boundaries from
        // `min_samples` on, strictly inside the record.
        let mut dyn_seq = DynSequencer::new(p);
        dyn_seq.begin(&DynamicConfig::paper_default());
        assert_eq!(dyn_seq.next_due(), 100);
        dyn_seq.checkpoint(100);
        assert_eq!(dyn_seq.next_due(), 150);
        dyn_seq.checkpoint(4050);
        assert_eq!(dyn_seq.next_due(), u64::MAX, "4100 lies past the record");
    }

    /// The code measurement closing a `count`-sample run under `cfg(5)`.
    fn code(count: u64) -> CodeResult {
        let mut monitor = crate::lsb_monitor::MonitorState::new(&cfg(5));
        let run = std::iter::repeat_n(true, count as usize);
        let bits = std::iter::once(false).chain(run).chain([false]);
        bits.filter_map(|b| monitor.push(b))
            .last()
            .expect("one closed run")
    }

    #[test]
    fn latch_admits_only_events_inside_the_horizon_in_either_arrival_order() {
        let policy = SequencerConfig {
            min_samples: 100,
            check_interval: 50,
            ..Default::default()
        };
        let config = cfg(5);
        let limits = config.limits();
        // Five clean codes (too few for the statistical rules), the
        // last closing exactly on the first horizon (sample 100), then a
        // too-wide code and a functional mismatch closing just past it.
        let mut codes: Vec<_> = (1..=5).map(|k| (20 * k, code(limits.i_ideal()))).collect();
        codes.push((101, code(limits.i_max() + 1)));
        // `lag` 0 feeds each event at its closing sample (behavioural
        // and batch order), `lag` 2 as the RTL emits it.
        let run = |lag: u64| {
            let mut seq = StaticSequencer::new(policy);
            seq.begin(&config);
            let mut checkpoints = Vec::new();
            for consumed in 1..=200 {
                for (at, c) in codes.iter().filter(|(at, _)| at + lag == consumed) {
                    seq.observe_code(*at, c);
                }
                if consumed == 102 + lag {
                    seq.observe_functional(102, false);
                }
                if consumed == seq.next_due {
                    let decision = seq.checkpoint(consumed);
                    checkpoints.push((decision, seq.verdict(consumed)));
                    if decision.stops() {
                        break;
                    }
                }
            }
            checkpoints
        };
        let emitted = run(0);
        assert_eq!(emitted, run(STATIC_DECISION_LATENCY));
        let [(first, at_first), (second, at_second)] = emitted[..] else {
            panic!("expected two checkpoints, got {emitted:?}");
        };
        assert_eq!(first, SeqDecision::Continue);
        assert_eq!(
            at_first.codes_judged, 5,
            "the code closing at 100 is visible"
        );
        assert_eq!(at_first.dnl_failures + at_first.functional_mismatches, 0);
        assert_eq!(second, SeqDecision::RejectEarly(150));
        assert_eq!((at_second.codes_judged, at_second.dnl_failures), (6, 1));
        assert_eq!(at_second.functional_mismatches, 1);
        assert_eq!(at_second.samples, 152);
    }

    /// A static event for [`drive_per_sample`] and [`drive_quiet`].
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Code(CodeResult),
        Check(bool),
    }

    /// The verdict a checkpoint at `visible` must report: the tallies
    /// of exactly the events closing at or before `visible`.
    fn tallies_through(events: &[(u64, Ev)], visible: u64, expected: u64) -> BistVerdict {
        let mut want = BistVerdict {
            codes_judged: 0,
            dnl_failures: 0,
            inl_failures: 0,
            functional_checks: 0,
            functional_mismatches: 0,
            expected_codes: expected,
            samples: visible + STATIC_DECISION_LATENCY,
        };
        for (_, e) in events.iter().filter(|(at, _)| *at <= visible) {
            match e {
                Ev::Code(c) => {
                    want.codes_judged += 1;
                    want.dnl_failures += u64::from(!c.dnl_verdict.is_pass());
                    want.inl_failures += u64::from(!c.inl_pass);
                }
                Ev::Check(ok) => {
                    want.functional_checks += 1;
                    want.functional_mismatches += u64::from(!ok);
                }
            }
        }
        want
    }

    fn observe_at(seq: &mut StaticSequencer, events: &[(u64, Ev)], sample: u64) {
        for (at, e) in events.iter().filter(|(at, _)| *at == sample) {
            match e {
                Ev::Code(c) => seq.observe_code(*at, c),
                Ev::Check(ok) => seq.observe_functional(*at, *ok),
            }
        }
    }

    /// Feeds `events` sample by sample, taking every checkpoint as it
    /// falls due, until one stops; each checkpoint's decision and
    /// verdict.
    fn drive_per_sample(
        seq: &mut StaticSequencer,
        events: &[(u64, Ev)],
        end: u64,
    ) -> Vec<SeqOutcome<BistVerdict>> {
        let mut taken = Vec::new();
        for consumed in 1..=end {
            observe_at(seq, events, consumed);
            if consumed == seq.next_due {
                let decision = seq.checkpoint(consumed);
                taken.push(SeqOutcome {
                    decision,
                    verdict: seq.verdict(consumed),
                });
                if decision.stops() {
                    break;
                }
            }
        }
        taken
    }

    /// Feeds `events` as a run-skipping batch sweep does: each stretch
    /// between event samples is quiet, so its checkpoints are taken
    /// through `stop_in_quiet`.
    fn drive_quiet(
        seq: &mut StaticSequencer,
        events: &[(u64, Ev)],
        end: u64,
    ) -> Option<SeqOutcome<BistVerdict>> {
        let mut samples: Vec<u64> = events.iter().map(|(at, _)| *at).collect();
        samples.dedup();
        for sample in samples {
            if let Some(stop) = seq.stop_in_quiet(sample - 1) {
                return Some(stop);
            }
            observe_at(seq, events, sample);
            if let Some(stop) = seq.stop_if_due(sample) {
                return Some(stop);
            }
        }
        seq.stop_in_quiet(end)
    }

    #[test]
    fn checkpoints_see_exactly_the_events_closing_by_their_horizon_on_either_drive() {
        let policy = SequencerConfig {
            min_samples: 100,
            check_interval: 50,
            ..Default::default()
        };
        let config = cfg(5);
        let limits = config.limits();
        let (good, wide) = (code(limits.i_ideal()), code(limits.i_max() + 1));
        // Events on both sides of the horizons (100, 150): on one, and
        // one or two samples past it, where they wait for the next
        // checkpoint. Too few codes for the statistical rules, so only
        // an admitted failure can stop the sweep.
        let late_failure = [
            (40, Ev::Code(good)),
            (60, Ev::Check(true)),
            (99, Ev::Code(good)),
            (100, Ev::Code(good)),
            (100, Ev::Check(true)),
            (101, Ev::Code(wide)),
            (102, Ev::Check(false)),
            (130, Ev::Code(good)),
        ];
        // A failure admitted long before the first checkpoint, with no
        // event near it: the first checkpoint must reject.
        let early_failure = [
            (20, Ev::Code(good)),
            (40, Ev::Code(wide)),
            (60, Ev::Code(good)),
        ];
        for (events, first_stop) in [
            (&late_failure[..], SeqDecision::RejectEarly(150)),
            (&early_failure[..], SeqDecision::RejectEarly(100)),
        ] {
            let mut seq = StaticSequencer::new(policy);
            seq.begin(&config);
            let taken = drive_per_sample(&mut seq, events, 400);
            for outcome in &taken {
                let visible = outcome.verdict.samples - STATIC_DECISION_LATENCY;
                let want = tallies_through(events, visible, seq.expected);
                assert_eq!(outcome.verdict, want, "checkpoint at {visible}");
            }
            let stop = *taken.last().expect("a checkpoint");
            assert_eq!(stop.decision, first_stop);
            seq.begin(&config);
            assert_eq!(drive_quiet(&mut seq, events, 400), Some(stop));
        }
    }

    #[test]
    fn ideal_static_device_accepts_early_and_no_earlier_than_min_samples() {
        let config = cfg(5);
        let policy = SequencerConfig::default();
        let out = seq_static(
            BehavioralBackend,
            &ideal(),
            &config,
            policy,
            &NoiseConfig::noiseless(),
            1,
        );
        assert!(out.accepted());
        assert!(out.stopped_early(), "{:?}", out.decision);
        let SeqDecision::AcceptEarly(at) = out.decision else {
            panic!("{:?}", out.decision)
        };
        assert!(at >= policy.min_samples);
        assert_eq!((at - policy.min_samples) % policy.check_interval, 0);
        // The ideal staircase is zero-variance: the statistical accept
        // fires long before the ramp completes.
        let (_, sampling) = plan_ramp(&ideal(), &config);
        assert!(out.samples_consumed() < sampling.samples as u64 / 2);
    }

    #[test]
    fn grossly_nonlinear_device_rejects_early() {
        let mut t: Vec<f64> = (1..=63).map(|k| k as f64 * 0.1).collect();
        t[5] += 0.1; // code 5 twice as wide — fails within the first checkpoint horizon
        let adc =
            TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t);
        let config = cfg(4);
        let out = seq_static(
            BehavioralBackend,
            &adc,
            &config,
            SequencerConfig::default(),
            &NoiseConfig::noiseless(),
            1,
        );
        assert!(!out.accepted());
        assert!(matches!(out.decision, SeqDecision::RejectEarly(_)));
        let (_, sampling) = plan_ramp(&adc, &config);
        assert!(out.samples_consumed() < sampling.samples as u64);
    }

    #[test]
    fn sequenced_static_decision_matches_full_sweep_on_ideal_and_faulty() {
        // Early stops must agree with what the full sweep would say
        // when the defect lies inside the observable prefix (a defect
        // parked beyond the horizon is the priced beta drift — see the
        // checkpoint rule comments).
        for (label, adc) in [
            ("ideal", ideal()),
            ("bad", {
                let mut t: Vec<f64> = (1..=63).map(|k| k as f64 * 0.1).collect();
                t[8] += 0.09;
                TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t)
            }),
        ] {
            let config = cfg(5);
            let full = full_static(&adc, &config, &NoiseConfig::noiseless(), 2);
            let out = seq_static(
                BehavioralBackend,
                &adc,
                &config,
                SequencerConfig::default(),
                &NoiseConfig::noiseless(),
                2,
            );
            assert_eq!(out.accepted(), full.accepted(), "{label}");
        }
    }

    #[test]
    fn rtl_and_behavioral_stop_at_the_same_sample_static() {
        use bist_adc::flash::FlashConfig;
        for seed in 0..8u64 {
            let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(seed));
            for (bits, deglitch) in [(4u32, false), (6, true)] {
                let config =
                    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
                        .counter_bits(bits)
                        .deglitch(deglitch)
                        .build()
                        .unwrap();
                let noise = NoiseConfig::noiseless().with_transition_noise(0.004);
                let policy = SequencerConfig::default();
                let b = seq_static(BehavioralBackend, &adc, &config, policy, &noise, 100 + seed);
                let r = seq_static(RtlBackend::new(), &adc, &config, policy, &noise, 100 + seed);
                assert_eq!(b.decision, r.decision, "seed {seed} bits {bits}");
                assert_eq!(b.verdict, r.verdict, "seed {seed} bits {bits}");
            }
        }
    }

    #[test]
    fn dynamic_ideal_accepts_early_and_matches_across_backends() {
        let config = DynamicConfig::paper_default();
        let policy = SequencerConfig {
            min_samples: 512,
            ..Default::default()
        };
        let adc = ideal();
        let b = seq_dyn(BehavioralBackend, &adc, &config, policy, 3);
        assert!(b.accepted());
        assert!(b.stopped_early());
        assert!(b.samples_consumed() < config.record_len() as u64 / 2);
        let r = seq_dyn(RtlBackend::new(), &adc, &config, policy, 3);
        assert_eq!(b.decision, r.decision);
        assert_eq!(b.samples_consumed(), r.samples_consumed());
    }

    #[test]
    fn dynamic_heavy_mismatch_rejects_early() {
        use bist_adc::flash::FlashConfig;
        let config = DynamicConfig::paper_default();
        let adc = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_width_sigma_lsb(0.6)
            .sample(&mut StdRng::seed_from_u64(4));
        let policy = SequencerConfig {
            min_samples: 512,
            ..Default::default()
        };
        let out = seq_dyn(BehavioralBackend, &adc, &config, policy, 5);
        assert!(!out.accepted());
        assert!(matches!(out.decision, SeqDecision::RejectEarly(_)));
    }

    #[test]
    fn completed_sweep_reports_continue_and_full_verdict() {
        // An absurdly late min_samples forces the full sweep.
        let config = cfg(5);
        let policy = SequencerConfig {
            min_samples: 1_000_000,
            ..Default::default()
        };
        let out = seq_static(
            BehavioralBackend,
            &ideal(),
            &config,
            policy,
            &NoiseConfig::noiseless(),
            1,
        );
        assert_eq!(out.decision, SeqDecision::Continue);
        assert!(!out.stopped_early());
        assert!(out.accepted());
        let full = full_static(&ideal(), &config, &NoiseConfig::noiseless(), 1);
        assert_eq!(out.verdict, full);
    }

    #[test]
    fn decision_display_and_helpers() {
        assert_eq!(SeqDecision::Continue.to_string(), "continue");
        assert!(SeqDecision::AcceptEarly(7).to_string().contains("7"));
        assert!(SeqDecision::RejectEarly(9).stops());
    }
}
