//! The one front door for device screening: [`Screener`].
//!
//! ```text
//!            Screener::new(workload)      which test?   Workload::{Static, Dynamic}
//!                .backend(backend)        which judge?  BehavioralBackend | RtlBackend
//!                .sequencer(policy)       early stop?   optional SequencerConfig
//!                .workers(n)              how many cores?  scoped pool (0 = all)
//!                .run(devices)            whole fleet → Vec<ScreenReport>
//!             or .screen_one(&adc, rng)   one device  → ScreenVerdict
//! ```
//!
//! [`Screener::run`] screens the fleet through one [`ScreenBatch`] per
//! worker and the backend's batch seam ([`Backend::process_batch`]): the
//! behavioural backend runs the batch's behavioural engine, the RTL
//! backend clocks each device through the gate-accurate datapath
//! scalar-wise — same reports, ordered by device index, either way.
//! With [`Screener::workers`] the fleet is additionally sharded across
//! the scoped worker pool of [`crate::pool`], each worker owning a
//! reusable batch (which plans its own dynamic stimulus table) and
//! claiming small device chunks from a shared queue — reports stay
//! bit-identical for any worker count.
//! [`Screener::screen_one`] is the scalar single-device path;
//! [`Screener::take_static_outcome`] then returns its per-code detail.

use crate::backend::{Backend, BehavioralBackend};
use crate::batch::{BatchDevice, ScreenBatch};
use crate::config::BistConfig;
use crate::dynamic::{plan_sine, DynScratch, DynamicConfig, DynamicVerdict};
use crate::harness::{plan_ramp, BistOutcome, BistVerdict, Scratch};
use crate::pool;
use crate::sequencer::{DynSequencer, SeqDecision, SeqOutcome, SequencerConfig, StaticSequencer};
use crate::shard::JobKind;
use bist_adc::noise::NoiseConfig;
use bist_adc::stream::CodeStream;
use bist_adc::types::Resolution;
use bist_adc::Adc;
use rand::RngCore;

/// Which test a [`Screener`] runs: the §4/§5 static linearity sweep or
/// the §2 dynamic spectral record, with the workload-level knobs
/// (noise model, ramp slope error) carried alongside the config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// The static LSB-monitor linearity test: ramp stimulus, DNL/INL
    /// window counting, upper-bit functional check.
    Static {
        /// The static test plan.
        config: BistConfig,
        /// Noise model applied to every device.
        noise: NoiseConfig,
        /// Relative ramp slope error shared by the batch.
        slope_error: f64,
    },
    /// The dynamic test: coherent sine record through the streaming
    /// Goertzel bank to a SINAD/THD/ENOB/noise-power verdict.
    Dynamic {
        /// The dynamic test plan.
        config: DynamicConfig,
        /// Noise model applied to every device.
        noise: NoiseConfig,
    },
}

impl Workload {
    /// A noiseless static linearity workload with an ideal-slope ramp.
    pub fn static_ramp(config: BistConfig) -> Self {
        Workload::Static {
            config,
            noise: NoiseConfig::noiseless(),
            slope_error: 0.0,
        }
    }

    /// A noiseless dynamic (coherent sine) workload.
    pub fn dynamic_sine(config: DynamicConfig) -> Self {
        Workload::Dynamic {
            config,
            noise: NoiseConfig::noiseless(),
        }
    }

    /// Sets the noise model devices are screened under.
    pub fn with_noise(mut self, n: NoiseConfig) -> Self {
        match &mut self {
            Workload::Static { noise, .. } | Workload::Dynamic { noise, .. } => *noise = n,
        }
        self
    }

    /// Which [`JobKind`] of submission this workload screens.
    pub fn kind(&self) -> JobKind {
        match self {
            Workload::Static { .. } => JobKind::Static,
            Workload::Dynamic { .. } => JobKind::Dynamic,
        }
    }

    /// The converter resolution this workload's test is planned for.
    pub fn resolution(&self) -> Resolution {
        match self {
            Workload::Static { config, .. } => config.resolution(),
            Workload::Dynamic { config, .. } => config.resolution(),
        }
    }

    /// Sets the relative ramp slope error (static workloads only).
    ///
    /// # Panics
    ///
    /// Panics on a dynamic workload — the sine plan has no slope.
    pub fn with_slope_error(mut self, err: f64) -> Self {
        match &mut self {
            Workload::Static { slope_error, .. } => *slope_error = err,
            Workload::Dynamic { .. } => {
                panic!("slope error applies to the static ramp workload only")
            }
        }
        self
    }
}

/// One device's decision from a [`Screener`], tagged by workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScreenVerdict {
    /// Static linearity outcome.
    Static(SeqOutcome<BistVerdict>),
    /// Dynamic spectral outcome.
    Dynamic(SeqOutcome<DynamicVerdict>),
}

impl ScreenVerdict {
    /// The device-level accept decision (early-stopped devices are
    /// judged on their sequencer-visible tallies, exactly as the
    /// silicon would latch them).
    pub fn accepted(&self) -> bool {
        match self {
            ScreenVerdict::Static(o) => o.accepted(),
            ScreenVerdict::Dynamic(o) => o.accepted(),
        }
    }

    /// The sequencer decision (`Continue` when unsequenced or the
    /// sweep ran to completion).
    pub fn decision(&self) -> SeqDecision {
        match self {
            ScreenVerdict::Static(o) => o.decision,
            ScreenVerdict::Dynamic(o) => o.decision,
        }
    }

    /// Whether a sequencer ended the test before the full sweep.
    pub fn stopped_early(&self) -> bool {
        match self {
            ScreenVerdict::Static(o) => o.stopped_early(),
            ScreenVerdict::Dynamic(o) => o.stopped_early(),
        }
    }

    /// Samples consumed before the verdict latched.
    pub fn samples(&self) -> u64 {
        match self {
            ScreenVerdict::Static(o) => o.samples_consumed(),
            ScreenVerdict::Dynamic(o) => o.samples_consumed(),
        }
    }

    /// The static outcome, if this verdict came from a static workload.
    pub fn as_static(&self) -> Option<&SeqOutcome<BistVerdict>> {
        match self {
            ScreenVerdict::Static(o) => Some(o),
            ScreenVerdict::Dynamic(_) => None,
        }
    }

    /// The dynamic outcome, if this verdict came from a dynamic
    /// workload.
    pub fn as_dynamic(&self) -> Option<&SeqOutcome<DynamicVerdict>> {
        match self {
            ScreenVerdict::Static(_) => None,
            ScreenVerdict::Dynamic(o) => Some(o),
        }
    }
}

/// One device's report from [`Screener::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenReport {
    /// Zero-based position of the device in the iterator passed to
    /// [`Screener::run`].
    pub device: usize,
    /// The device's decision and verdict.
    pub verdict: ScreenVerdict,
}

/// The screening front door: one workload, one backend, optional
/// early-stop sequencing — over a fleet or a single device.
///
/// ```
/// use bist_adc::spec::LinearitySpec;
/// use bist_adc::transfer::TransferFunction;
/// use bist_adc::types::{Resolution, Volts};
/// use bist_core::config::BistConfig;
/// use bist_core::screener::{Screener, Workload};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
///     .counter_bits(5)
///     .build()
///     .unwrap();
/// let devices = (0..4).map(|i| {
///     let adc = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
///     (adc, StdRng::seed_from_u64(i))
/// });
/// let reports = Screener::new(Workload::static_ramp(config)).run(devices);
/// assert_eq!(reports.len(), 4);
/// assert!(reports.iter().all(|r| r.verdict.accepted()));
/// ```
#[derive(Debug)]
pub struct Screener<B = BehavioralBackend> {
    workload: Workload,
    backend: B,
    sequencer: Option<SequencerConfig>,
    workers: usize,
    chunk: usize,
    scalar: ScalarPath,
}

impl Screener<BehavioralBackend> {
    /// A screener for `workload` judged by the behavioural reference
    /// backend (swap with [`Screener::backend`]).
    pub fn new(workload: Workload) -> Self {
        Screener {
            workload,
            backend: BehavioralBackend,
            sequencer: None,
            workers: 1,
            chunk: pool::DEFAULT_CHUNK,
            scalar: ScalarPath::default(),
        }
    }
}

impl<B: Backend> Screener<B> {
    /// Swaps the verdict backend (e.g. for
    /// [`crate::backend::RtlBackend`] gate-accurate screening).
    pub fn backend<B2: Backend>(self, backend: B2) -> Screener<B2> {
        Screener {
            workload: self.workload,
            backend,
            sequencer: self.sequencer,
            workers: self.workers,
            chunk: self.chunk,
            scalar: self.scalar,
        }
    }

    /// Screens under the uncertainty-guided early-stop sequencer.
    pub fn sequencer(mut self, policy: SequencerConfig) -> Self {
        self.sequencer = Some(policy);
        self
    }

    /// Shards [`Screener::run`] across a scoped worker pool of
    /// `workers` threads (`0` = the host's available parallelism; the
    /// default `1` keeps the in-thread engine). Each pooled worker
    /// owns its own batch engine and a `B::default()` backend, and
    /// reports stay bit-identical for any worker count — see
    /// [`crate::pool`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the size of the device chunks pooled workers claim from
    /// the shared queue (≥ 1; default [`pool::DEFAULT_CHUNK`]). Small
    /// chunks keep early-stopping workers fed; large ones amortise the
    /// claim.
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        assert!(chunk >= 1, "a screener needs a positive chunk size");
        self.chunk = chunk;
        self
    }

    /// The configured workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Screens a fleet: one `(adc, rng)` pair per device, reports
    /// ordered by the device's position in the iterator. Dispatches
    /// through the backend's batch seam, so the behavioural backend
    /// runs the batch engine and the RTL backend the scalar
    /// gate-accurate loop — identical reports either way. With
    /// [`Screener::workers`] > 1 (or `0` on a multi-core host) the
    /// fleet is sharded across the scoped pool of [`crate::pool`];
    /// reports stay bit-identical for any worker count.
    pub fn run<A, R, I>(&mut self, devices: I) -> Vec<ScreenReport>
    where
        A: Adc + Send,
        R: RngCore + Send,
        I: IntoIterator<Item = (A, R)>,
        B: Default,
    {
        let mut reports = Vec::new();
        self.run_into(devices, &mut reports);
        reports
    }

    /// [`Screener::run`] appending into a caller-owned buffer — the
    /// reusable-engine path: the report `Vec`'s capacity (and, for
    /// pooled runs, each worker's batch engine across its chunks) is
    /// reused instead of reallocated per fleet.
    ///
    /// Pooled workers judge with `B::default()` backends — both
    /// [`BehavioralBackend`] and [`crate::backend::RtlBackend`]
    /// default to exactly their `new` state, so verdicts don't depend
    /// on which worker (or the single-threaded path) screened a
    /// device. On the dynamic workload each worker's batch plans its
    /// own sine table from its first device.
    pub fn run_into<A, R, I>(&mut self, devices: I, out: &mut Vec<ScreenReport>)
    where
        A: Adc + Send,
        R: RngCore + Send,
        I: IntoIterator<Item = (A, R)>,
        B: Default,
    {
        let (workload, sequencer) = (self.workload, self.sequencer);
        let fleet = devices
            .into_iter()
            .enumerate()
            .map(|(i, (adc, rng))| BatchDevice::new(i, adc, rng));
        let make_batch = || ScreenBatch::new(workload, sequencer);
        let reports = pool::run_pool(
            fleet,
            self.workers,
            self.chunk,
            make_batch,
            &mut self.backend,
        );
        out.extend(reports);
    }

    /// Screens one device through the scalar engine, leaving per-code
    /// detail (as much as the backend models) for
    /// [`Screener::take_static_outcome`].
    pub fn screen_one<A: Adc + ?Sized, R: RngCore + ?Sized>(
        &mut self,
        adc: &A,
        rng: &mut R,
    ) -> ScreenVerdict {
        self.scalar
            .screen(&self.workload, self.sequencer, &mut self.backend, adc, rng)
    }

    /// Assembles the full per-code [`BistOutcome`] for the most recent
    /// static [`Screener::screen_one`], or `None` for a dynamic
    /// verdict.
    pub fn take_static_outcome(&mut self, verdict: &ScreenVerdict) -> Option<BistOutcome> {
        match verdict {
            ScreenVerdict::Static(o) => Some(self.scalar.scratch.take_outcome(o.verdict)),
            ScreenVerdict::Dynamic(_) => None,
        }
    }
}

/// The scalar per-device path — plan the stimulus, stream the noisy
/// codes, judge them through the backend's judge for the workload —
/// with the scratch and sequencers it reuses from device to device.
/// [`Screener::screen_one`] and [`ScreenBatch::run_scalar`] both screen
/// through it.
#[derive(Debug, Default)]
pub(crate) struct ScalarPath {
    scratch: Scratch,
    dyn_scratch: DynScratch,
    static_seq: Option<StaticSequencer>,
    dyn_seq: Option<DynSequencer>,
}

impl ScalarPath {
    /// Screens `adc` under `workload` (and the early-stop `sequencer`
    /// policy, when given) through `backend`.
    pub(crate) fn screen<B: Backend, A: Adc + ?Sized, R: RngCore + ?Sized>(
        &mut self,
        workload: &Workload,
        sequencer: Option<SequencerConfig>,
        backend: &mut B,
        adc: &A,
        rng: &mut R,
    ) -> ScreenVerdict {
        match *workload {
            Workload::Static {
                config,
                noise,
                slope_error,
            } => {
                let (ramp, sampling) = plan_ramp(adc, &config);
                let ramp = ramp.with_slope_error(slope_error);
                let stream = CodeStream::noisy(adc, &ramp, sampling, &noise, rng);
                let seq = sequencer.map(|policy| {
                    self.static_seq
                        .get_or_insert_with(|| StaticSequencer::new(policy))
                });
                ScreenVerdict::Static(backend.judge(&config, seq, stream, &mut self.scratch))
            }
            Workload::Dynamic { config, noise } => {
                let (sine, sampling) = plan_sine(adc, &config);
                let stream = CodeStream::noisy(adc, &sine, sampling, &noise, rng);
                let seq = sequencer.map(|policy| {
                    self.dyn_seq
                        .get_or_insert_with(|| DynSequencer::new(policy))
                });
                ScreenVerdict::Dynamic(backend.judge_dyn(
                    &config,
                    seq,
                    stream,
                    &mut self.dyn_scratch,
                ))
            }
        }
    }
}
