//! Pluggable verdict backends: one acquisition, two judges.
//!
//! The streaming engine fixes *what* is measured (the fused
//! stimulus→code pass of [`crate::harness`]); a [`Backend`] decides
//! *who* judges it. Each backend has one judge per workload —
//! [`Backend::judge`] for the static sweep, [`Backend::judge_dyn`] for
//! the dynamic record — with one sample loop in which an optional
//! early-stop sequencer is a single branch:
//!
//! * [`BehavioralBackend`] — the reference state machines
//!   ([`MonitorState`] + [`FunctionalState`], stepped by one shared
//!   static sample step) and the streaming Goertzel bank of
//!   [`crate::dynamic`]. Zero-size, zero-cost: this is exactly the
//!   allocation-free hot path the Monte-Carlo fleet runs. It also
//!   overrides the batch hook with the behavioural engine of
//!   [`crate::batch`], whose devices that neither run-skip nor code go
//!   through these same judges.
//! * [`RtlBackend`] — the gate-accurate `bist_rtl::top::BistTop` (and
//!   fixed-point [`bist_rtl::dyn_top::DynBistTop`]), clocked one code
//!   per tick and drained through its synchroniser latency at end of
//!   sweep, with its [`bist_rtl::top::BistReport`] mapped onto the same
//!   [`BistVerdict`]. Its batch hook keeps the scalar per-device loop,
//!   so gate-accuracy stays provable one device at a time.
//!
//! On the static workload the two backends are **bit-exact** on every
//! verdict field for any sweep that dwells ≥
//! [`bist_rtl::top::BistTop::DRAIN_TICKS`] samples after its last
//! transition — which every harness ramp does by construction (10-LSB
//! overshoot past full scale). Property tests in `crates/core/tests`
//! pin the equivalence on adversarial synthetic streams; the `bist-mc`
//! differential harness pins it fleet-wide on random devices, noise
//! configurations and counter widths, each device screened through
//! both backends' batch hooks — the behavioural engine's run-skip
//! sweeps and stimulus table against the RTL's scalar loop. On the
//! dynamic workload the contract is decision-exactness — see the trait
//! docs.

use crate::batch::BatchDevice;
use crate::config::BistConfig;
use crate::dynamic::{DynScratch, DynamicConfig, DynamicVerdict};
use crate::functional::FunctionalState;
use crate::harness::{BistVerdict, Scratch};
use crate::lsb_monitor::{CodeResult, MonitorState};
use crate::screener::{ScreenReport, Screener};
use crate::sequencer::{
    DynSequencer, SeqDecision, SeqOutcome, StaticSequencer, STATIC_DECISION_LATENCY,
};
use bist_adc::types::{Code, Lsb};
use bist_adc::Adc;
use bist_dsp::goertzel::TonePowers;
use bist_rtl::dyn_top::{DynBistReport, DynBistTop};
use bist_rtl::top::{BistTop, BistTopConfig};
use rand::RngCore;

/// The one verdict seam: a backend judges every workload the screener
/// can dispatch — static sweeps and dynamic records, with or without an
/// early-stop sequencer (which may stop the stream at any checkpoint it
/// schedules), and whole batches of devices.
///
/// **Static contract** (`judge`): both implementors are bit-exact on
/// every verdict field; under a sequencer, the visibility protocol in
/// [`crate::sequencer`] makes the decision independent of the backend's
/// pipeline latency, so for the same code stream and the same
/// sequencer every backend reaches the identical [`SeqDecision`] and
/// identical verdict.
///
/// **Dynamic contract** (`judge_dyn`): the raw dB metrics may differ by
/// the RTL's bounded fixed-point quantisation, but
/// [`DynamicVerdict::checks`], `samples` and `expected_samples` must
/// agree — which the dynamic differential fleet sweep
/// (`bist_mc::differential`) enforces at scale. The sequencer watches
/// the centred code stream itself, so its decisions are
/// backend-independent by construction; on an early stop both backends
/// report the same consumed-sample count (the RTL flushes its input
/// pipeline).
///
/// **Batch contract** (`process_batch`): the hook screens a device
/// stream on a [`Screener`] judged by this backend, and the reports it
/// yields are device-for-device identical to running each device
/// through the corresponding judge — the default body literally does
/// that. [`BehavioralBackend`] overrides it with the screener's
/// behavioural engine of [`crate::batch`], which the batch-equivalence
/// property tests pin bit-exact to the scalar path.
pub trait Backend {
    /// Judges one static sweep (re-`begin`-ing `seq`), leaving per-code
    /// detail in `detail` when one is given (as much as the backend
    /// models — see the implementors). An early-stopped verdict holds
    /// the sequencer-visible tallies.
    fn judge<I: IntoIterator<Item = Code>>(
        &mut self,
        config: &BistConfig,
        seq: Option<&mut StaticSequencer>,
        codes: I,
        detail: Option<&mut Scratch>,
    ) -> SeqOutcome<BistVerdict>;

    /// Judges one coherent record. `scratch` holds the behavioural bank
    /// (unused by hardware-state backends). An early-stopped verdict
    /// holds the truncated record's metrics, whose raw values keep the
    /// full-record quantisation contract.
    fn judge_dyn<I: IntoIterator<Item = Code>>(
        &mut self,
        config: &DynamicConfig,
        seq: Option<&mut DynSequencer>,
        codes: I,
        scratch: &mut DynScratch,
    ) -> SeqOutcome<DynamicVerdict>;

    /// Screens `devices` on `screener`, appending one report per device
    /// to `reports` in any order ([`Screener::screen`], the caller,
    /// sorts them). The default judges the devices one at a time
    /// through the screener's backend's judges above.
    fn process_batch<A: Adc, R: RngCore>(
        screener: &mut Screener<Self>,
        devices: impl IntoIterator<Item = BatchDevice<A, R>>,
        reports: &mut Vec<ScreenReport>,
    ) where
        Self: Sized,
    {
        screener.run_scalar(devices, reports);
    }
}

/// The behavioural reference backend — zero-size: the heap-free
/// [`MonitorState`] and [`FunctionalState`], with per-code detail
/// recorded in the caller's [`Scratch`] when one is given, and the
/// streaming Goertzel bank, so a [`crate::screener::Screener`] sweep
/// compiled through it is the allocation-free hot path (the
/// counting-allocator test keeps it honest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BehavioralBackend;

impl Backend for BehavioralBackend {
    // bist-lint: hot-path — the scalar static judge
    fn judge<I: IntoIterator<Item = Code>>(
        &mut self,
        config: &BistConfig,
        mut seq: Option<&mut StaticSequencer>,
        codes: I,
        mut detail: Option<&mut Scratch>,
    ) -> SeqOutcome<BistVerdict> {
        let bit = config.monitored_bit();
        let mut mon = MonitorState::new(config);
        let mut func = FunctionalState::new(bit, config.deglitch());
        if let Some(detail) = detail.as_deref_mut() {
            detail.clear();
        }
        if let Some(seq) = seq.as_deref_mut() {
            seq.begin(config);
        }
        let mut consumed = 0u64;
        for code in codes {
            consumed += 1;
            let (seq, detail) = (seq.as_deref_mut(), detail.as_deref_mut());
            if let Some(stop) = push_sample(&mut mon, &mut func, seq, detail, consumed, bit, code) {
                return stop;
            }
        }
        SeqOutcome::completed(BistVerdict::from_tallies(
            config,
            mon.tally(),
            func.tally(),
            consumed,
        ))
    }

    // bist-lint: hot-path — the scalar dynamic judge
    fn judge_dyn<I: IntoIterator<Item = Code>>(
        &mut self,
        config: &DynamicConfig,
        seq: Option<&mut DynSequencer>,
        codes: I,
        scratch: &mut DynScratch,
    ) -> SeqOutcome<DynamicVerdict> {
        let bank = scratch.bank_for(config);
        let half_fs = (config.resolution().code_count() / 2) as f64;
        let (decision, consumed) = drive_dyn(config, seq, codes, |code| {
            bank.push(f64::from(code.0) + 0.5 - half_fs);
        });
        SeqOutcome {
            decision,
            verdict: config.judge_powers(&bank.powers(), consumed),
        }
    }

    /// The behavioural batch engine: run-skipping static sweeps and
    /// coded Goertzel groups over a shared stimulus table, every other
    /// device through the judges above — bit-exact to the scalar path
    /// (see [`crate::batch`]).
    fn process_batch<A: Adc, R: RngCore>(
        screener: &mut Screener<Self>,
        devices: impl IntoIterator<Item = BatchDevice<A, R>>,
        reports: &mut Vec<ScreenReport>,
    ) {
        screener.run_batched(devices, reports);
    }
}

/// The gate-accurate backend: feeds `bist_rtl::BistTop` one code per
/// tick.
///
/// The constructed top level is cached and reused while the
/// configuration is unchanged — between devices it is *reset in place*
/// (no component reconstructed), so after its first sweep this path is
/// allocation-free too (covered by the counting-allocator test).
/// Codes are pre-shifted by the monitored bit (the on-chip
/// block always watches its own bit 0 — a partial BIST simply taps the
/// bus higher up), and after the stream ends the top is drained for
/// [`BistTop::DRAIN_TICKS`] cycles so measurements inside the
/// synchroniser pipeline complete.
///
/// Detail, when a [`Scratch`] is given: per-code monitor results are
/// recorded (with the hardware's view — a saturated code reports the
/// clamped width, since the chip cannot know more); per-check
/// functional detail is not (the silicon latches only the counters), so
/// the functional checks of [`Scratch::take_outcome`] are empty after
/// an RTL sweep.
#[derive(Debug, Default)]
pub struct RtlBackend {
    top: Option<BistTop>,
    /// Cached dynamic-test datapath (see [`Backend::judge_dyn`]).
    dyn_top: Option<DynBistTop>,
}

impl RtlBackend {
    /// A backend with no cached datapath (built on first sweep).
    pub fn new() -> Self {
        RtlBackend::default()
    }

    /// The top-level configuration equivalent to a harness config.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two bits remain above the monitored bit —
    /// the Figure-2 checker needs at least one upper bit.
    fn top_config(config: &BistConfig) -> BistTopConfig {
        let bits = config.resolution().bits();
        assert!(
            config.monitored_bit() + 2 <= bits,
            "RTL backend needs at least one bit above the monitored bit \
             (monitored {} of {bits})",
            config.monitored_bit()
        );
        BistTopConfig {
            lsb: config.to_rtl(),
            adc_bits: bits - config.monitored_bit(),
            expected_codes: config.expected_measurements(),
        }
    }

    /// The cached static top for `want`: reset in place on a hit,
    /// rebuilt on a configuration change.
    fn top_for(&mut self, want: BistTopConfig) -> &mut BistTop {
        match &mut self.top {
            Some(top) if *top.config() == want => top.reset(),
            slot => *slot = Some(BistTop::new(want)),
        }
        self.top.as_mut().expect("installed above")
    }

    /// The cached dynamic top for `want`: reset in place on a hit,
    /// rebuilt on a configuration change.
    fn dyn_top_for(&mut self, want: bist_rtl::dyn_top::DynBistTopConfig) -> &mut DynBistTop {
        match &mut self.dyn_top {
            Some(top) if *top.config() == want => top.reset(),
            slot => *slot = Some(DynBistTop::new(want)),
        }
        self.dyn_top.as_mut().expect("installed above")
    }
}

impl Backend for RtlBackend {
    fn judge<I: IntoIterator<Item = Code>>(
        &mut self,
        config: &BistConfig,
        mut seq: Option<&mut StaticSequencer>,
        codes: I,
        mut detail: Option<&mut Scratch>,
    ) -> SeqOutcome<BistVerdict> {
        let want = Self::top_config(config);
        let top = self.top_for(want);
        if let Some(detail) = detail.as_deref_mut() {
            detail.clear();
        }
        if let Some(seq) = seq.as_deref_mut() {
            seq.begin(config);
        }
        let bit = config.monitored_bit();
        let delta_s = config.delta_s().0;
        let mut consumed = 0u64;
        for code in codes {
            consumed += 1;
            let (checks, mismatches) = (top.functional_checks(), top.functional_mismatches());
            let measured = top
                .tick(u64::from(code.0) >> bit)
                .map(|m| rtl_code_result(delta_s, &m));
            if let Some(detail) = detail.as_deref_mut() {
                detail.monitor_codes.extend(measured);
            }
            if let Some(seq) = seq.as_deref_mut() {
                // Emission trails the behavioural accumulators by
                // exactly STATIC_DECISION_LATENCY ticks: stamp each
                // event with its behavioural closing sample.
                let at = consumed.saturating_sub(STATIC_DECISION_LATENCY);
                if let Some(m) = &measured {
                    seq.observe_code(at, m);
                }
                if top.functional_checks() > checks {
                    seq.observe_functional(at, top.functional_mismatches() == mismatches);
                }
                // Stop dead: measurements still inside the synchroniser
                // belong to samples beyond the decision horizon, so no
                // drain — the verdict is the sequencer's visible tally,
                // bit-exact with the behavioural backend's.
                if let Some(stop) = seq.stop_if_due(consumed) {
                    return stop;
                }
            }
        }
        for _ in 0..BistTop::DRAIN_TICKS {
            let drained = top.drain_tick();
            if let (Some(detail), Some(m)) = (detail.as_deref_mut(), drained) {
                detail.monitor_codes.push(rtl_code_result(delta_s, &m));
            }
        }
        let report = top.report();
        SeqOutcome::completed(BistVerdict {
            codes_judged: report.codes_measured,
            dnl_failures: report.dnl_failures,
            inl_failures: report.inl_failures,
            functional_checks: report.functional_checks,
            functional_mismatches: report.functional_mismatches,
            expected_codes: want.expected_codes,
            samples: consumed,
        })
    }

    /// Feeds `bist_rtl::DynBistTop` one code per tick and drains its
    /// input pipeline at end of record — or on an early stop, where the
    /// single drain tick completes the last consumed sample's MAC, so
    /// both backends report the identical consumed-sample count.
    ///
    /// Like the static path, the constructed top level is cached and
    /// *reset in place* between devices while the configuration is
    /// unchanged, so after its first sweep this path is allocation-free
    /// too (covered by the counting-allocator test). The report's
    /// register contents — fixed-point bin powers in half-LSB², exact
    /// Σv and Σv² — are mapped onto a [`TonePowers`] in LSB² and judged
    /// by the *same* [`DynamicConfig::judge_powers`] the behavioural
    /// bank uses, so the only possible behavioural↔RTL difference is
    /// the bounded fixed-point quantisation of the Goertzel
    /// accumulation.
    fn judge_dyn<I: IntoIterator<Item = Code>>(
        &mut self,
        config: &DynamicConfig,
        seq: Option<&mut DynSequencer>,
        codes: I,
        _scratch: &mut DynScratch,
    ) -> SeqOutcome<DynamicVerdict> {
        let top = self.dyn_top_for(config.to_rtl());
        let (decision, _) = drive_dyn(config, seq, codes, |code| top.tick(u64::from(code.0)));
        for _ in 0..DynBistTop::DRAIN_TICKS {
            top.drain_tick();
        }
        SeqOutcome {
            decision,
            verdict: rtl_dyn_verdict(config, &top.report()),
        }
    }
}

/// One sample of a static sweep, the step every behavioural static
/// path shares — the scalar judge and the batch engine's run-skip
/// heads: pushes sample `at` (code `code`, monitored bit `bit`) through
/// the sweep's accumulators, records the code measurement and check it
/// closes in `detail` when one is given, and feeds them to the sweep's
/// sequencer, which takes its checkpoint if one falls due at `at`. The
/// early-stop outcome when that checkpoint stops the sweep.
// bist-lint: hot-path — the one static sample step
#[inline(always)]
pub(crate) fn push_sample(
    mon: &mut MonitorState,
    func: &mut FunctionalState,
    seq: Option<&mut StaticSequencer>,
    detail: Option<&mut Scratch>,
    at: u64,
    bit: u32,
    code: Code,
) -> Option<SeqOutcome<BistVerdict>> {
    let measured = mon.push((code.0 >> bit) & 1 == 1);
    let checked = func.push(code);
    if let Some(detail) = detail {
        detail.monitor_codes.extend(measured);
        detail.checks.extend(checked);
    }
    let seq = seq?;
    if let Some(m) = measured {
        seq.observe_code(at, &m);
    }
    if let Some(c) = checked {
        seq.observe_functional(at, c.ok);
    }
    seq.stop_if_due(at)
}

/// The one dynamic sample loop both backends' `judge_dyn` share:
/// (re-)begins `seq`, hands each code to the backend's `sink` and then
/// to the sequencer, whose checkpoints may stop the record. The last
/// decision and the number of codes consumed.
// bist-lint: hot-path — the shared dynamic sequencer drive
#[inline(always)]
fn drive_dyn<I: IntoIterator<Item = Code>>(
    config: &DynamicConfig,
    mut seq: Option<&mut DynSequencer>,
    codes: I,
    mut sink: impl FnMut(Code),
) -> (SeqDecision, u64) {
    if let Some(seq) = seq.as_deref_mut() {
        seq.begin(config);
    }
    let mut decision = SeqDecision::Continue;
    let mut consumed = 0u64;
    for code in codes {
        consumed += 1;
        sink(code);
        if let Some(seq) = seq.as_deref_mut() {
            seq.push(code);
            if consumed == seq.next_due() {
                decision = seq.checkpoint(consumed);
                if decision.stops() {
                    break;
                }
            }
        }
    }
    (decision, consumed)
}

/// Maps one RTL code measurement onto the scratch's per-code view (the
/// hardware's view: a saturated code reports the clamped width).
fn rtl_code_result(delta_s: f64, m: &bist_rtl::datapath::CodeMeasurement) -> CodeResult {
    let width_lsb = Lsb(m.count as f64 * delta_s);
    CodeResult {
        index: m.index,
        count: m.count,
        overflow: m.overflow,
        dnl_verdict: m.dnl_verdict,
        width_lsb,
        dnl_lsb: Lsb(width_lsb.0 - 1.0),
        inl_counts: m.inl_counts,
        inl_pass: m.inl_pass,
    }
}

/// Maps the RTL result registers onto the shared verdict arithmetic.
/// Half-LSB² → LSB² (÷4); the integer side channels convert exactly
/// (Σv and Σv² are lossless in f64 for every supported record length).
fn rtl_dyn_verdict(config: &DynamicConfig, report: &DynBistReport) -> DynamicVerdict {
    let n = config.record_len() as f64;
    let mean_half = report.sum_half_lsb as f64 / n;
    let powers = TonePowers {
        n: config.record_len(),
        carrier: report.carrier_power / 4.0,
        harmonics_by_order: report.harmonic_power_by_order / 4.0,
        harmonics_distinct: report.harmonic_power_distinct / 4.0,
        dc: mean_half * mean_half / 4.0,
        total: report.sum_sq_half_lsb2 as f64 / n / 4.0,
    };
    config.judge_powers(&powers, report.samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::plan_sine;
    use crate::harness::plan_ramp;
    use crate::sequencer::SequencerConfig;
    use bist_adc::flash::FlashConfig;
    use bist_adc::noise::NoiseConfig;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::stream::CodeStream;
    use bist_adc::transfer::TransferFunction;
    use bist_adc::types::{Resolution, Volts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(bits: u32, deglitch: bool) -> BistConfig {
        BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(bits)
            .deglitch(deglitch)
            .build()
            .unwrap()
    }

    fn ideal() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    /// One full static sweep through an explicit backend — the
    /// acquisition [`crate::screener::Screener::screen_one`] performs,
    /// spelled out so these tests exercise the backend seam directly.
    fn static_sweep<B: Backend>(
        backend: &mut B,
        adc: &impl Adc,
        config: &BistConfig,
        noise: &NoiseConfig,
        rng: &mut StdRng,
        scratch: &mut Scratch,
    ) -> BistVerdict {
        let (ramp, sampling) = plan_ramp(adc, config);
        let codes = CodeStream::noisy(adc, &ramp, sampling, noise, rng);
        backend.judge(config, None, codes, Some(scratch)).verdict
    }

    /// [`static_sweep`]'s dynamic-record counterpart.
    fn dyn_sweep<B: Backend>(
        backend: &mut B,
        adc: &impl Adc,
        config: &DynamicConfig,
        noise: &NoiseConfig,
        rng: &mut StdRng,
        scratch: &mut DynScratch,
    ) -> DynamicVerdict {
        let (sine, sampling) = plan_sine(adc, config);
        let codes = CodeStream::noisy(adc, &sine, sampling, noise, rng);
        backend.judge_dyn(config, None, codes, scratch).verdict
    }

    #[test]
    fn behavioral_backend_is_the_streaming_engine() {
        let config = cfg(5, false);
        let adc = ideal();
        let (ramp, sampling) = plan_ramp(&adc, &config);
        let mut s1 = Scratch::default();
        let mut s2 = Scratch::default();
        // A sequencer whose first checkpoint lies past the stream
        // watches the whole sweep without ever taking a decision.
        let mut seq = StaticSequencer::new(SequencerConfig {
            min_samples: sampling.samples as u64,
            ..SequencerConfig::default()
        });
        let plain = BehavioralBackend.judge(
            &config,
            None,
            CodeStream::noiseless(&adc, &ramp, sampling),
            Some(&mut s1),
        );
        let watched = BehavioralBackend.judge(
            &config,
            Some(&mut seq),
            CodeStream::noiseless(&adc, &ramp, sampling),
            Some(&mut s2),
        );
        assert_eq!(plain, watched);
        assert_eq!(plain.decision, SeqDecision::Continue);
        assert!(plain.verdict.accepted());
        assert_eq!(s1.monitor_codes, s2.monitor_codes);
        assert_eq!(s1.checks, s2.checks);
    }

    #[test]
    fn rtl_backend_accepts_ideal_device_all_counters() {
        let adc = ideal();
        let mut backend = RtlBackend::new();
        let mut scratch = Scratch::default();
        for bits in 4..=7 {
            let config = cfg(bits, false);
            let verdict = static_sweep(
                &mut backend,
                &adc,
                &config,
                &NoiseConfig::noiseless(),
                &mut StdRng::seed_from_u64(1),
                &mut scratch,
            );
            assert!(verdict.accepted(), "counter {bits}: {verdict:?}");
            assert_eq!(verdict.codes_judged, 62);
            assert_eq!(scratch.monitor_codes.len(), 62);
            assert!(scratch.checks.is_empty(), "RTL keeps only counters");
        }
    }

    #[test]
    fn rtl_matches_behavioral_on_flash_devices() {
        // The tentpole seam, in miniature: same device, same RNG
        // stream, both backends — every verdict field identical.
        for seed in 0..12 {
            for (bits, deglitch, noise) in [
                (4u32, false, NoiseConfig::noiseless()),
                (
                    6,
                    false,
                    NoiseConfig::noiseless().with_transition_noise(0.004),
                ),
                (
                    5,
                    true,
                    NoiseConfig::noiseless().with_transition_noise(0.006),
                ),
                (7, true, NoiseConfig::noiseless().with_input_noise(0.003)),
            ] {
                let config = cfg(bits, deglitch);
                let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(seed));
                let mut scratch = Scratch::default();
                let behavioral = static_sweep(
                    &mut BehavioralBackend,
                    &adc,
                    &config,
                    &noise,
                    &mut StdRng::seed_from_u64(900 + seed),
                    &mut scratch,
                );
                let rtl = static_sweep(
                    &mut RtlBackend::new(),
                    &adc,
                    &config,
                    &noise,
                    &mut StdRng::seed_from_u64(900 + seed),
                    &mut scratch,
                );
                assert_eq!(
                    behavioral, rtl,
                    "seed {seed} bits {bits} deglitch {deglitch}"
                );
            }
        }
    }

    #[test]
    fn rtl_backend_reuses_top_across_devices_and_rebuilds_on_config_change() {
        let mut backend = RtlBackend::new();
        let mut scratch = Scratch::default();
        let adc = ideal();
        let c4 = cfg(4, false);
        let c6 = cfg(6, true);
        for config in [&c4, &c4, &c6, &c4] {
            let v = static_sweep(
                &mut backend,
                &adc,
                config,
                &NoiseConfig::noiseless(),
                &mut StdRng::seed_from_u64(3),
                &mut scratch,
            );
            assert!(v.accepted(), "{config}: {v:?}");
        }
    }

    #[test]
    fn rtl_backend_monitored_bit_one() {
        // Partial BIST: bit 1 monitored, upper word = code >> 2.
        let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .monitored_bit(1)
            .build()
            .unwrap();
        let adc = ideal();
        let mut scratch = Scratch::default();
        let behavioral = static_sweep(
            &mut BehavioralBackend,
            &adc,
            &config,
            &NoiseConfig::noiseless(),
            &mut StdRng::seed_from_u64(5),
            &mut scratch,
        );
        let rtl = static_sweep(
            &mut RtlBackend::new(),
            &adc,
            &config,
            &NoiseConfig::noiseless(),
            &mut StdRng::seed_from_u64(5),
            &mut scratch,
        );
        // (Acceptance is immaterial here — the paper-planned window
        // assumes 1-LSB codes, and bit-1 runs are ~2 LSB — the point is
        // that both backends read the tapped-up bus identically.)
        assert_eq!(behavioral, rtl);
        assert_eq!(rtl.expected_codes, 30);
    }

    #[test]
    fn dyn_behavioral_backend_is_the_streaming_engine() {
        let config = DynamicConfig::paper_default();
        let adc = ideal();
        let (sine, sampling) = plan_sine(&adc, &config);
        let mut s1 = DynScratch::new();
        let mut s2 = DynScratch::new();
        // No checkpoint falls strictly inside the record.
        let mut seq = DynSequencer::new(SequencerConfig {
            min_samples: config.record_len() as u64,
            ..SequencerConfig::default()
        });
        let plain = BehavioralBackend.judge_dyn(
            &config,
            None,
            CodeStream::noiseless(&adc, &sine, sampling),
            &mut s1,
        );
        let watched = BehavioralBackend.judge_dyn(
            &config,
            Some(&mut seq),
            CodeStream::noiseless(&adc, &sine, sampling),
            &mut s2,
        );
        assert_eq!(plain, watched);
        assert_eq!(plain.decision, SeqDecision::Continue);
        assert!(plain.verdict.accepted());
    }

    #[test]
    fn dyn_rtl_decisions_match_behavioral_on_flash_devices() {
        let config = DynamicConfig::paper_default();
        let mut rtl = RtlBackend::new();
        let mut scratch = DynScratch::new();
        for seed in 0..12 {
            let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(seed));
            let noise = NoiseConfig::noiseless().with_input_noise(0.002);
            let behavioral = dyn_sweep(
                &mut BehavioralBackend,
                &adc,
                &config,
                &noise,
                &mut StdRng::seed_from_u64(700 + seed),
                &mut scratch,
            );
            let rtl_v = dyn_sweep(
                &mut rtl,
                &adc,
                &config,
                &noise,
                &mut StdRng::seed_from_u64(700 + seed),
                &mut scratch,
            );
            // Decisions bit-exact; metrics within the fixed-point
            // quantisation budget.
            assert_eq!(behavioral.checks, rtl_v.checks, "seed {seed}");
            assert_eq!(behavioral.samples, rtl_v.samples);
            assert_eq!(behavioral.expected_samples, rtl_v.expected_samples);
            assert!(
                (behavioral.sinad_db - rtl_v.sinad_db).abs() < 1e-4,
                "seed {seed}: sinad {} vs {}",
                behavioral.sinad_db,
                rtl_v.sinad_db
            );
            assert!((behavioral.noise_power_lsb2 - rtl_v.noise_power_lsb2).abs() < 1e-5);
        }
    }

    #[test]
    fn dyn_rtl_backend_reuses_top_and_rebuilds_on_config_change() {
        use bist_adc::types::Resolution;
        let c_a = DynamicConfig::paper_default();
        let c_b = DynamicConfig::new(Resolution::SIX_BIT, 2048, 509).unwrap();
        let mut backend = RtlBackend::new();
        let mut scratch = DynScratch::new();
        let adc = ideal();
        for config in [&c_a, &c_a, &c_b, &c_a] {
            let v = dyn_sweep(
                &mut backend,
                &adc,
                config,
                &NoiseConfig::noiseless(),
                &mut StdRng::seed_from_u64(3),
                &mut scratch,
            );
            assert!(v.accepted(), "{config}: {v}");
        }
    }

    #[test]
    fn one_backend_value_serves_both_workloads() {
        // A fleet screener holds one RtlBackend and runs static and
        // dynamic sweeps through it; the two cached tops coexist.
        let mut backend = RtlBackend::new();
        let mut scratch = Scratch::default();
        let mut dyn_scratch = DynScratch::new();
        let adc = ideal();
        let static_v = static_sweep(
            &mut backend,
            &adc,
            &cfg(5, false),
            &NoiseConfig::noiseless(),
            &mut StdRng::seed_from_u64(1),
            &mut scratch,
        );
        let dyn_v = dyn_sweep(
            &mut backend,
            &adc,
            &DynamicConfig::paper_default(),
            &NoiseConfig::noiseless(),
            &mut StdRng::seed_from_u64(2),
            &mut dyn_scratch,
        );
        assert!(static_v.accepted());
        assert!(dyn_v.accepted());
    }

    #[test]
    #[should_panic(expected = "at least one bit above the monitored bit")]
    fn rtl_backend_rejects_msb_monitoring() {
        let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .monitored_bit(5)
            .build()
            .unwrap();
        let adc = ideal();
        let mut scratch = Scratch::default();
        static_sweep(
            &mut RtlBackend::new(),
            &adc,
            &config,
            &NoiseConfig::noiseless(),
            &mut StdRng::seed_from_u64(1),
            &mut scratch,
        );
    }
}
