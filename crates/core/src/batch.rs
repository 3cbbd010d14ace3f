//! The screening engine of a [`crate::screener::Screener`]: devices
//! streamed through one warm engine, each screened to completion on its
//! own code stream.
//!
//! A screener owns one engine, built from its [`Workload`] and optional
//! early-stop sequencer, which holds no devices: the screener takes
//! them as an iterator of [`BatchDevice`]s and appends one report per
//! device to the caller's `Vec`. The backend's batch hook
//! ([`Backend::process_batch`]) chooses how: its default screens one
//! device at a time through the backend's judge for the workload (the
//! reference, and the path hardware-model backends take), and
//! [`crate::backend::BehavioralBackend`] runs the behavioural engine of
//! this module. That engine also takes one device at a time and screens
//! it from its first sample to its verdict, as the on-chip monitor
//! does; what it saves over the scalar path it saves by knowing the
//! stimulus:
//!
//! * static — on the dominant noiseless-ramp workload the sweep
//!   *run-skips*: the ramp is monotone and the transition levels are
//!   known ([`Adc::transition_levels`]), so the next code flip is found
//!   by a galloping search over the closed-form ramp instead of
//!   sample-by-sample conversion, and the accumulators advance over the
//!   constant run in O(1) ([`MonitorState::skip_run`]). The replayed
//!   head of each run goes through the scalar judge's own sample step,
//!   which keeps the deglitcher and median-filter state machines
//!   bit-exact with the scalar path; it records no per-code detail.
//!   Other sweeps (noisy, or converters that state no levels) run the
//!   scalar judge itself on [`CodeStream::noisy`].
//! * dynamic — the coherent sine stimulus is evaluated **once** per
//!   engine into a table, planned by the engine's first zero-jitter
//!   device (at zero jitter the stimulus is device-independent), and
//!   sorted once by value. A noiseless, unsequenced device that states
//!   at most 255 transition levels is *coded*: one walk of the table in
//!   value order against the sorted levels yields its whole record, one
//!   byte per sample, in the next column of a pending group of eight
//!   `[u8; 8]` rows. The group crosses the record in one kernel pass
//!   when its eighth column fills and when the device stream ends,
//!   holding the Goertzel state as `[bin][device]` rows and the Welford
//!   moments as `[device]` rows: the Welford divide is one vector
//!   operation across the group, and each sample's resonator updates
//!   are eight independent chains per bin instead of one (AVX2+FMA when
//!   the host has it). Each column is then loaded into the scalar
//!   judge's bank for its verdict. Other devices — noisy, sequenced, or
//!   converters that state no levels — run the scalar judge: on the
//!   table's values through the voltage noise when their plan matches
//!   the table's, on [`CodeStream::noisy`] otherwise.
//!
//! A sequenced engine keeps one sequencer, built from its policy, and
//! feeds it exactly as the scalar judges do: each event is stamped with
//! its closing sample, the sequencer admits it under its own visibility
//! protocol (see [`crate::sequencer`]), and the sweep takes each
//! checkpoint as it falls due. A run-skipping sweep takes the
//! checkpoints that fall inside a run's skipped bulk, where no event
//! closes, without splitting the run.
//!
//! **Bit-exactness.** Every verdict the engine reports is identical to
//! running the same device, with the same RNG, through the scalar
//! judge — by construction wherever the engine *is* that judge, which
//! is every device it neither run-skips nor codes. Run-skipping
//! evaluates the *same* ramp expression on the *same* sample indices
//! and steps the judge's own sample step; the table path feeds the
//! judge the values [`CodeStream::noisy`] would evaluate, with the
//! device's own RNG in its draw order; the group kernel applies
//! [`bist_dsp::goertzel::GoertzelBank::push`]'s per-(device, bin)
//! operation sequence, then loads its result into the judge's bank. The
//! `batch_equivalence` property tests pin this for any fleet size, mix
//! and split of the fleet across calls. The `bist_mc::differential`
//! harness also screens every grid device through this engine against a
//! [`crate::backend::RtlBackend`] screener, so the run-skip sweep, its
//! quiet-run checkpoints and the stimulus table answer to the
//! gate-accurate oracle with no scalar path in between; no grid cell is
//! coded, and `dyn_fleet`'s fleet part checks the group kernel against
//! the oracle instead.

use crate::backend::{push_sample, Backend, BehavioralBackend};
use crate::config::BistConfig;
use crate::dynamic::{plan_sine, DynScratch, DynamicConfig, DynamicVerdict};
use crate::functional::FunctionalState;
use crate::harness::{plan_ramp, BistVerdict, Scratch};
use crate::lsb_monitor::MonitorState;
use crate::screener::{ScreenReport, ScreenVerdict, Workload};
use crate::sequencer::{DynSequencer, SeqOutcome, SequencerConfig, StaticSequencer};
use bist_adc::noise::NoiseConfig;
use bist_adc::signal::{Ramp, SineWave, Stimulus};
use bist_adc::stream::CodeStream;
use bist_adc::types::{Code, Volts};
use bist_adc::{Adc, SamplingConfig};
use bist_dsp::goertzel::{harmonic_plan, Goertzel};
use rand::RngCore;

/// One device to screen: a stable report index, its transfer function
/// and its private noise RNG (the device's draw order is its own, so
/// verdicts are independent of the order devices arrive in).
#[derive(Debug, Clone)]
pub struct BatchDevice<A, R> {
    /// Caller-chosen identifier carried into the report (unique per
    /// [`Screener::screen`](crate::screener::Screener::screen) call;
    /// reports are ordered by it).
    pub index: usize,
    /// The device under test.
    pub adc: A,
    /// The device's noise RNG.
    pub rng: R,
}

impl<A, R> BatchDevice<A, R> {
    /// Bundles one device for screening.
    pub fn new(index: usize, adc: A, rng: R) -> Self {
        BatchDevice { index, adc, rng }
    }
}

/// The dynamic stimulus: one coherent-sine plan and its evaluated
/// sample table.
///
/// A dynamic engine plans its table lazily, on its first
/// zero-jitter device. Devices whose plan differs from the table's (or
/// any jittered noise model) go through the scalar judge on their own
/// stimulus, so the table never changes a verdict.
#[derive(Debug, Default)]
struct StimulusTable {
    plan: Option<(SineWave, SamplingConfig)>,
    values: Vec<f64>,
    /// Sample indices in ascending value order — empty when a value is
    /// not finite, which keeps every device off the coded path.
    order: Vec<u32>,
}

impl StimulusTable {
    /// (Re)plans the table in place: evaluates every sample and sorts
    /// the value order coded devices walk.
    fn plan(&mut self, sine: SineWave, sampling: SamplingConfig) {
        self.values.clear();
        self.values
            .extend((0..sampling.samples).map(|i| sine.value(sampling.sample_time(i)).0));
        self.order.clear();
        if self.values.iter().all(|v| v.is_finite()) {
            self.order.extend(0..self.values.len() as u32);
            let values = &self.values;
            self.order
                .sort_unstable_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
        }
        self.plan = Some((sine, sampling));
    }
}

/// The behavioural engine of a [`crate::screener::Screener`]: one per
/// workload. It owns all working state (sequencer, stimulus table,
/// coded rows) and no devices or reports, so a warm engine screens
/// without allocating.
#[derive(Debug)]
pub(crate) enum BatchEngine {
    Static(Box<StaticEngine>),
    Dynamic(Box<DynEngine>),
}

impl BatchEngine {
    /// An engine screening `workload`, under the early-stop `sequencer`
    /// policy when one is given.
    pub(crate) fn new(workload: Workload, sequencer: Option<SequencerConfig>) -> Self {
        match workload {
            Workload::Static {
                config,
                noise,
                slope_error,
            } => BatchEngine::Static(Box::new(StaticEngine {
                config,
                noise,
                slope_error,
                seq: sequencer.map(StaticSequencer::new),
            })),
            Workload::Dynamic { config, noise } => {
                BatchEngine::Dynamic(Box::new(DynEngine::new(config, noise, sequencer)))
            }
        }
    }

    /// Screens `devices` through the behavioural engine: each device to
    /// completion, coded dynamic devices in groups of eight through the
    /// group kernel, every verdict bit-exact to the scalar judge of
    /// [`crate::backend::BehavioralBackend`].
    pub(crate) fn run<A: Adc, R: RngCore>(
        &mut self,
        devices: impl IntoIterator<Item = BatchDevice<A, R>>,
        reports: &mut Vec<ScreenReport>,
        dyn_scratch: &mut DynScratch,
    ) {
        match self {
            BatchEngine::Static(engine) => engine.run(devices, reports),
            BatchEngine::Dynamic(engine) => engine.run(devices, reports, dyn_scratch),
        }
    }

    /// The scalar per-device path: plans the stimulus, streams the noisy
    /// codes and judges them through `backend`'s judge for the workload,
    /// under the engine's sequencer, static per-code detail into
    /// `detail` when one is given.
    pub(crate) fn judge<B: Backend, A: Adc + ?Sized, R: RngCore + ?Sized>(
        &mut self,
        backend: &mut B,
        adc: &A,
        rng: &mut R,
        detail: Option<&mut Scratch>,
        dyn_scratch: &mut DynScratch,
    ) -> ScreenVerdict {
        match self {
            BatchEngine::Static(e) => ScreenVerdict::Static(e.judge(backend, adc, rng, detail)),
            BatchEngine::Dynamic(e) => {
                ScreenVerdict::Dynamic(e.judge(backend, adc, rng, dyn_scratch))
            }
        }
    }
}

/// The static (ramp/linearity) engine: the plan every device shares
/// and the sequencer each sequenced sweep reuses.
#[derive(Debug)]
pub(crate) struct StaticEngine {
    config: BistConfig,
    noise: NoiseConfig,
    slope_error: f64,
    seq: Option<StaticSequencer>,
}

impl StaticEngine {
    /// Plans `adc`'s ramp and judges its noisy code stream through
    /// `backend`'s judge, under the engine's sequencer.
    fn judge<B: Backend, A: Adc + ?Sized, R: RngCore + ?Sized>(
        &mut self,
        backend: &mut B,
        adc: &A,
        rng: &mut R,
        detail: Option<&mut Scratch>,
    ) -> SeqOutcome<BistVerdict> {
        let (ramp, sampling) = plan_ramp(adc, &self.config);
        let ramp = ramp.with_slope_error(self.slope_error);
        let codes = CodeStream::noisy(adc, &ramp, sampling, &self.noise, rng);
        backend.judge(&self.config, self.seq.as_mut(), codes, detail)
    }

    /// Sweeps each device from its first sample until a checkpoint
    /// stops the sweep or the sweep ends, one report each: run-skipping
    /// when it can, through the scalar judge otherwise. Neither records
    /// per-code detail.
    // bist-lint: hot-path — the static device loop
    fn run<A: Adc, R: RngCore>(
        &mut self,
        devices: impl IntoIterator<Item = BatchDevice<A, R>>,
        reports: &mut Vec<ScreenReport>,
    ) {
        for mut dev in devices {
            let (ramp, sampling) = plan_ramp(&dev.adc, &self.config);
            let ramp = ramp.with_slope_error(self.slope_error);
            // Run-skipping needs a device-independent, strictly
            // advancing stimulus (noiseless, positive effective slope;
            // harness ramps have no bow) and known transition levels to
            // search against.
            let run_skip = self.noise.is_noiseless() && ramp.effective_slope() > 0.0;
            let outcome = match dev.adc.transition_levels().filter(|_| run_skip) {
                Some(levels) => self.run_skip(levels, &ramp, &sampling),
                None => self.judge(&mut BehavioralBackend, &dev.adc, &mut dev.rng, None),
            };
            reports.push(ScreenReport {
                device: dev.index,
                verdict: ScreenVerdict::Static(outcome),
            });
        }
    }

    /// Sweeps one noiseless device with transition levels `levels`
    /// run by run: each constant-code run's head through
    /// [`push_sample`], which records nothing, and the rest in O(1).
    // bist-lint: hot-path — the run-skipping sweep
    fn run_skip(
        &mut self,
        levels: &[f64],
        ramp: &Ramp,
        sampling: &SamplingConfig,
    ) -> SeqOutcome<BistVerdict> {
        // Replayed head of each constant-code run: the deglitcher taps
        // / median window saturate after two identical samples, after
        // which `skip_run` covers the remainder in O(1).
        let head_n: u64 = if self.config.deglitch() { 2 } else { 1 };
        let bit = self.config.monitored_bit();
        let total = sampling.samples as u64;
        let mut mon = MonitorState::new(&self.config);
        let mut func = FunctionalState::new(bit, self.config.deglitch());
        let mut seq = self.seq.as_mut();
        if let Some(seq) = seq.as_deref_mut() {
            seq.begin(&self.config);
        }
        let (mut consumed, mut cur_code, mut run_end, mut head_left) = (0u64, 0u32, 0u64, 0u64);
        while consumed < total {
            if run_end <= consumed {
                // Open a run: settle the level cursor to the exact
                // partition point at this sample, then gallop to the
                // first sample at or above the next transition level.
                let v = ramp.value(sampling.sample_time(consumed as usize)).0;
                let m = levels.len();
                let mut c = cur_code as usize;
                while c < m && levels[c] <= v {
                    c += 1;
                }
                while c > 0 && levels[c - 1] > v {
                    c -= 1;
                }
                cur_code = c as u32;
                run_end = if c < m {
                    first_at_or_above(ramp, sampling, levels[c], consumed + 1, total)
                } else {
                    total
                };
                head_left = head_n;
            }
            let code = Code(cur_code);
            let head = head_left.min(run_end - consumed);
            head_left -= head;
            for _ in 0..head {
                consumed += 1;
                let seq = seq.as_deref_mut();
                if let Some(stop) = push_sample(&mut mon, &mut func, seq, None, consumed, bit, code)
                {
                    return stop;
                }
            }
            // No event closes in the rest of the run, so each checkpoint
            // falling due in it is taken now, on the tallies it would
            // see at its own sample, and a checkpoint that continues
            // does not split the run.
            if let Some(stop) = seq.as_deref_mut().and_then(|s| s.stop_in_quiet(run_end)) {
                return stop;
            }
            let bulk = run_end - consumed;
            if bulk > 0 {
                mon.skip_run(bulk);
                func.skip_run(bulk);
                consumed = run_end;
            }
        }
        SeqOutcome::completed(BistVerdict::from_tallies(
            &self.config,
            mon.tally(),
            func.tally(),
            consumed,
        ))
    }
}

/// First sample index in `[from, total)` whose ramp voltage reaches
/// `level`, or `total`. Gallop-then-bisect over the monotone predicate
/// `ramp(t_j) ≥ level`, evaluating the *same* closed-form expression
/// the scalar judge's code stream would, so the crossing sample is
/// exact.
fn first_at_or_above(
    ramp: &Ramp,
    sampling: &SamplingConfig,
    level: f64,
    from: u64,
    total: u64,
) -> u64 {
    let above = |j: u64| ramp.value(sampling.sample_time(j as usize)).0 >= level;
    let mut lo = from;
    let mut probe = from;
    let mut step = 1u64;
    let mut hi = loop {
        if probe >= total {
            break total;
        }
        if above(probe) {
            break probe;
        }
        lo = probe + 1;
        probe += step;
        step *= 2;
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if above(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Devices per coded group: each sample of a group's record is one
/// `[u8; GROUP]` row of codes.
const GROUP: usize = 8;

/// A coded group's accumulators: the resonator states `s1`, `s2` as
/// `[bin][device]` rows and the Welford moments as `[device]` rows.
#[derive(Debug, Clone)]
struct GroupState {
    coeff: Vec<f64>,
    s1: Vec<[f64; GROUP]>,
    s2: Vec<[f64; GROUP]>,
    mean: [f64; GROUP],
    m2: [f64; GROUP],
}

impl GroupState {
    /// Zeroed state for resonators with coefficients `coeff`.
    fn new(coeff: Vec<f64>) -> Self {
        GroupState {
            s1: vec![[0.0; GROUP]; coeff.len()],
            s2: vec![[0.0; GROUP]; coeff.len()],
            coeff,
            mean: [0.0; GROUP],
            m2: [0.0; GROUP],
        }
    }

    fn reset(&mut self) {
        self.s1.fill([0.0; GROUP]);
        self.s2.fill([0.0; GROUP]);
        self.mean = [0.0; GROUP];
        self.m2 = [0.0; GROUP];
    }
}

/// Codes a whole record into column `col` of `rows`: walks the table
/// in value order against the sorted `levels`, whose running count of
/// levels `<= v` is exactly `convert(v)` by the
/// [`Adc::transition_levels`] contract.
fn code_record(table: &StimulusTable, levels: &[f64], rows: &mut [[u8; GROUP]], col: usize) {
    let mut code = 0;
    for &i in &table.order {
        let v = table.values[i as usize];
        while code < levels.len() && levels[code] <= v {
            code += 1;
        }
        rows[i as usize][col] = code as u8;
    }
}

/// Advances a coded group from zeroed state over its whole record.
/// Each column gets exactly the scalar judge's bank arithmetic in its
/// order — `x = code + ½ − fs/2`, then every bin's `s0 = x + c·s1 − s2`,
/// then the Welford step — so results are bit-identical. Eight devices
/// side by side turn the Welford divide chain into one vector divide per
/// sample and give the core eight independent resonator chains per bin
/// to overlap.
// bist-lint: hot-path — shared body of both group-kernel entries
#[inline(always)]
fn group_kernel_body(rows: &[[u8; GROUP]], st: &mut GroupState, half_fs: f64) {
    let GroupState {
        coeff,
        s1,
        s2,
        mean,
        m2,
    } = st;
    for (k, row) in rows.iter().enumerate() {
        let x = row.map(|c| f64::from(c) + 0.5 - half_fs);
        for ((&c, s1), s2) in coeff.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
            for l in 0..GROUP {
                let s0 = x[l] + c.mul_add(s1[l], -s2[l]);
                s2[l] = s1[l];
                s1[l] = s0;
            }
        }
        let n = (k + 1) as f64;
        for l in 0..GROUP {
            let delta = x[l] - mean[l];
            mean[l] += delta / n;
            m2[l] += delta * (x[l] - mean[l]);
        }
    }
}

/// x86-64 entry compiled with AVX2+FMA enabled: `mul_add` lowers to a
/// hardware `vfmadd` and the column-wise Welford divide to 4-wide
/// `vdivpd` — correctly rounded, bit-identical to the portable build's
/// `fma()` libm calls and scalar divides.
///
/// # Safety
///
/// The caller must have verified at runtime that the host supports
/// AVX2 and FMA (`is_x86_feature_detected!("avx2")` &&
/// `is_x86_feature_detected!("fma")`) before calling: the body is
/// compiled with those feature sets enabled, so reaching it on an
/// older CPU is undefined behaviour (illegal instruction at best).
/// `bist-lint`'s `undocumented-unsafe` rule statically checks every
/// call site for that guard.
// bist-lint: hot-path — the coded group kernel
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn group_kernel_fma(rows: &[[u8; GROUP]], st: &mut GroupState, half_fs: f64) {
    group_kernel_body(rows, st, half_fs);
}

/// Runs [`group_kernel_body`] through the AVX2+FMA entry when the host
/// has those features, and the portable build otherwise.
fn group_kernel(rows: &[[u8; GROUP]], st: &mut GroupState, half_fs: f64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: avx2 and fma were detected at runtime just above.
        unsafe { group_kernel_fma(rows, st, half_fs) };
        return;
    }
    group_kernel_body(rows, st, half_fs);
}

/// The dynamic (coherent-sine) engine: the plan every device shares,
/// the stimulus table, the sequencer each scalar-judged record reuses,
/// and the pending coded group.
#[derive(Debug)]
pub(crate) struct DynEngine {
    config: DynamicConfig,
    noise: NoiseConfig,
    /// Stimulus voltages shared by every zero-jitter device whose plan
    /// matches the table's — evaluated once per engine.
    table: StimulusTable,
    seq: Option<DynSequencer>,
    /// The pending group's coded records: the code of the device in
    /// column `c` for sample `i` is `codes[i][c]`.
    codes: Vec<[u8; GROUP]>,
    /// Report indices of the devices coded into the pending group, by
    /// column; the first `coded` are live.
    pending: [usize; GROUP],
    coded: usize,
    group: GroupState,
}

impl DynEngine {
    fn new(config: DynamicConfig, noise: NoiseConfig, sequencer: Option<SequencerConfig>) -> Self {
        let n = config.record_len();
        let plan = harmonic_plan(config.cycles() as usize, n, config.harmonics());
        let coeff = plan.bins.iter().map(|&b| Goertzel::for_bin(b, n).coeff());
        DynEngine {
            config,
            noise,
            table: StimulusTable::default(),
            seq: sequencer.map(DynSequencer::new),
            codes: Vec::new(),
            pending: [0; GROUP],
            coded: 0,
            group: GroupState::new(coeff.collect()),
        }
    }

    /// Plans `adc`'s sine and judges its noisy code stream through
    /// `backend`'s judge, under the engine's sequencer.
    fn judge<B: Backend, A: Adc + ?Sized, R: RngCore + ?Sized>(
        &mut self,
        backend: &mut B,
        adc: &A,
        rng: &mut R,
        scratch: &mut DynScratch,
    ) -> SeqOutcome<DynamicVerdict> {
        let (sine, sampling) = plan_sine(adc, &self.config);
        let codes = CodeStream::noisy(adc, &sine, sampling, &self.noise, rng);
        backend.judge_dyn(&self.config, self.seq.as_mut(), codes, scratch)
    }

    /// Codes each device into the pending group, which is flushed when
    /// it fills and when the device stream ends, or judges it through
    /// the scalar judge (its bank in `scratch`) — from the stimulus
    /// table when its plan matches; one report per device.
    // bist-lint: hot-path — the dynamic device loop
    fn run<A: Adc, R: RngCore>(
        &mut self,
        devices: impl IntoIterator<Item = BatchDevice<A, R>>,
        reports: &mut Vec<ScreenReport>,
        scratch: &mut DynScratch,
    ) {
        let record_len = self.config.record_len();
        let jitter_free = self.noise.jitter_seconds() == 0.0;
        for mut dev in devices {
            let (sine, sampling) = plan_sine(&dev.adc, &self.config);
            if jitter_free && self.table.plan.is_none() {
                // The first zero-jitter device establishes the engine's
                // stimulus table: the identical expression the scalar
                // stream evaluates, so table devices stay bit-exact.
                self.table.plan(sine, sampling);
            }
            let use_table = jitter_free && self.table.plan == Some((sine, sampling));
            // A noiseless, unsequenced table device whose codes fit a
            // byte is coded into the pending group's next column.
            let codable = use_table
                && self.noise.is_noiseless()
                && self.seq.is_none()
                && !self.table.order.is_empty();
            let levels = dev
                .adc
                .transition_levels()
                .filter(|levels| codable && levels.len() <= usize::from(u8::MAX));
            if let Some(levels) = levels {
                if self.codes.len() < record_len {
                    self.codes.resize(record_len, [0; GROUP]);
                }
                code_record(&self.table, levels, &mut self.codes, self.coded);
                self.pending[self.coded] = dev.index;
                self.coded += 1;
                if self.coded == GROUP {
                    self.flush(reports, scratch);
                }
                continue;
            }

            // At zero jitter the sample instants are unperturbed, so a
            // table device's stream is the table's values through the
            // voltage noise — `CodeStream::noisy`'s draws, in its order.
            let outcome = if use_table {
                let (adc, rng, noise) = (&dev.adc, &mut dev.rng, &self.noise);
                let values = self.table.values.iter();
                let codes = values.map(|&v| adc.convert(Volts(noise.perturb_voltage(v, rng))));
                BehavioralBackend.judge_dyn(&self.config, self.seq.as_mut(), codes, scratch)
            } else {
                self.judge(&mut BehavioralBackend, &dev.adc, &mut dev.rng, scratch)
            };
            reports.push(ScreenReport {
                device: dev.index,
                verdict: ScreenVerdict::Dynamic(outcome),
            });
        }
        self.flush(reports, scratch);
    }

    /// Runs the pending group's coded records through [`group_kernel`]
    /// and reports each coded device from its column's state, loaded
    /// into the scalar judge's bank in `scratch`; a no-op when nothing
    /// is pending.
    // bist-lint: hot-path — the coded group flush
    fn flush(&mut self, reports: &mut Vec<ScreenReport>, scratch: &mut DynScratch) {
        if self.coded == 0 {
            return;
        }
        let record = self.config.record_len();
        let half_fs = (self.config.resolution().code_count() / 2) as f64;
        self.group.reset();
        group_kernel(&self.codes[..record], &mut self.group, half_fs);
        let st = &self.group;
        let bank = scratch.bank_for(&self.config);
        for (col, &device) in self.pending[..self.coded].iter().enumerate() {
            let state = |bin: usize| (st.s1[bin][col], st.s2[bin][col]);
            bank.set_state(record, st.mean[col], st.m2[col], state);
            let verdict = self.config.judge_powers(&bank.powers(), record as u64);
            reports.push(ScreenReport {
                device,
                verdict: ScreenVerdict::Dynamic(SeqOutcome::completed(verdict)),
            });
        }
        self.coded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screener::Screener;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A run skipped in two parts leaves both accumulators exactly as
    /// one skip over the whole run does, and they go on to emit the same
    /// measurements and checks.
    #[test]
    fn skip_run_split_in_two_matches_one_skip() {
        use bist_adc::spec::LinearitySpec;
        use bist_adc::types::Resolution;
        fn feed(
            mon: &mut MonitorState,
            func: &mut FunctionalState,
            bit: u32,
            codes: &[u32],
        ) -> Vec<String> {
            let emitted = codes.iter().map(|&code| {
                let measured = mon.push((code >> bit) & 1 == 1);
                (measured, func.push(Code(code)))
            });
            emitted.map(|e| format!("{e:?}")).collect()
        }
        for deglitch in [false, true] {
            let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
                .counter_bits(5)
                .deglitch(deglitch)
                .build()
                .unwrap();
            let bit = config.monitored_bit();
            let [whole, split] = [&[40][..], &[15, 25]].map(|parts| {
                let mut mon = MonitorState::new(&config);
                let mut func = FunctionalState::new(bit, deglitch);
                // Settle on code 4 (the replayed head of its run).
                feed(&mut mon, &mut func, bit, &[2, 2, 2, 3, 3, 3, 4, 4]);
                for &k in parts {
                    mon.skip_run(k);
                    func.skip_run(k);
                }
                let state = format!("{mon:?} {func:?}");
                (
                    state,
                    feed(&mut mon, &mut func, bit, &[5, 5, 5, 6, 6, 6, 7, 7, 7]),
                )
            });
            assert_eq!(whole, split, "deglitch {deglitch}");
        }
    }

    /// Fleet runs record no per-code detail: a fleet of flash devices,
    /// run-skipped (noiseless, sequenced or not) or scalar-judged
    /// (noisy), through either backend, leaves the screener's detail
    /// buffers unallocated, while a single
    /// [`screen_one`](Screener::screen_one) fills them.
    #[test]
    fn run_skipped_fleet_leaves_scratch_unallocated() {
        use crate::backend::RtlBackend;
        use bist_adc::flash::FlashConfig;
        use bist_adc::spec::LinearitySpec;
        use bist_adc::types::Resolution;
        let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .deglitch(true)
            .build()
            .unwrap();
        let workload = Workload::static_ramp(config);
        let noisy = workload.with_noise(NoiseConfig::noiseless().with_transition_noise(0.004));
        let screeners = [
            Screener::new(workload),
            Screener::new(workload).sequencer(SequencerConfig::default()),
            Screener::new(noisy),
        ];
        for (case, mut screener) in screeners.into_iter().enumerate() {
            let fleet = || {
                let mut rng = StdRng::seed_from_u64(7);
                (0..16).map(move |i| {
                    let adc = FlashConfig::paper_device().sample(&mut rng);
                    BatchDevice::new(i, adc, StdRng::seed_from_u64(i as u64))
                })
            };
            let allocated = |d: &Scratch| d.monitor_codes.capacity() + d.checks.capacity();
            let mut reports = Vec::new();
            screener.screen(fleet(), &mut reports);
            assert_eq!(allocated(&screener.detail), 0, "case {case}");
            let mut rtl = screener.backend(RtlBackend::new());
            rtl.screen(fleet(), &mut reports);
            assert_eq!(reports.len(), 32);
            assert_eq!(allocated(&rtl.detail), 0, "case {case}, rtl");
            let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(7));
            rtl.screen_one(&adc, &mut StdRng::seed_from_u64(0));
            assert!(rtl.detail.monitor_codes.capacity() > 0, "case {case}");
        }
    }

    /// The portable body and the dispatched entry (AVX2+FMA where the
    /// host has it) leave bit-identical state on random rows.
    #[test]
    fn group_kernel_entries_agree_bit_for_bit() {
        let coeff: Vec<f64> = [37, 74, 111]
            .map(|b| Goertzel::for_bin(b, 1024).coeff())
            .to_vec();
        let bits = |st: &GroupState| -> Vec<u64> {
            let s = st.s1.iter().chain(&st.s2).flatten();
            s.chain(&st.mean)
                .chain(&st.m2)
                .map(|v| v.to_bits())
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(0x6b);
        for len in [0, 1, 7, 1024] {
            let rows: Vec<[u8; GROUP]> = (0..len)
                .map(|_| std::array::from_fn(|_| rng.gen_range(0..=u8::MAX)))
                .collect();
            let mut portable = GroupState::new(coeff.clone());
            let mut dispatched = GroupState::new(coeff.clone());
            group_kernel_body(&rows, &mut portable, 32.0);
            group_kernel(&rows, &mut dispatched, 32.0);
            assert_eq!(bits(&portable), bits(&dispatched), "{len} rows");
        }
    }
}
