//! The one front door for device screening: [`Screener`].
//!
//! ```text
//!            Screener::new(workload)      which test?   Workload::{Static, Dynamic}
//!                .backend(backend)        which judge?  BehavioralBackend | RtlBackend
//!                .sequencer(policy)       early stop?   optional SequencerConfig
//!                .workers(n)              how many cores?  scoped pool (0 = all)
//!                .run(devices)            whole fleet → Vec<ScreenReport>
//!             or .screen(devices, &mut v) device stream → reports appended to v
//!             or .screen_one(&adc, rng)   one device  → ScreenVerdict
//! ```
//!
//! A screener is the engine: it owns its workload and sequencer policy,
//! the warm engine of [`crate::batch`] built from them, its scratch and
//! its backend, so repeated calls reuse its sequencer, stimulus table
//! and coded rows. [`Screener::run`] screens a whole fleet and
//! [`Screener::screen`] appends the reports of a caller-indexed device
//! stream to a caller's `Vec`; both go through the backend's batch seam
//! ([`Backend::process_batch`]) — the behavioural engine or, on the RTL
//! backend, the gate-accurate datapath device by device, with identical
//! reports either way. With [`Screener::workers`] `run` shards the fleet
//! across the scoped pool of [`crate::pool`], one screener per worker —
//! reports stay bit-identical for any worker count.
//! [`Screener::screen_one`] is the engine's scalar single-device path;
//! [`Screener::take_static_outcome`] then returns its per-code detail.

use crate::backend::{Backend, BehavioralBackend};
use crate::batch::{BatchDevice, BatchEngine};
use crate::config::BistConfig;
use crate::dynamic::{DynScratch, DynamicConfig, DynamicVerdict};
use crate::harness::{BistOutcome, BistVerdict, Scratch};
use crate::pool;
use crate::sequencer::{SeqDecision, SeqOutcome, SequencerConfig};
use crate::shard::JobKind;
use bist_adc::noise::NoiseConfig;
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

/// One device's report from [`Screener::run`] or [`Screener::screen`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenReport {
    /// The device's [`BatchDevice::index`], chosen by the caller of
    /// [`Screener::screen`] (a burst slot in `bist-serve`, a batch index
    /// in `bist_mc`); [`Screener::run`] uses the device's zero-based
    /// position in its iterator.
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
    sequencer: Option<SequencerConfig>,
    engine: BatchEngine,
    /// Per-code detail of the most recent
    /// [`screen_one`](Screener::screen_one); fleet runs record none.
    pub(crate) detail: Scratch,
    dyn_scratch: DynScratch,
    backend: B,
    workers: usize,
}

impl Screener<BehavioralBackend> {
    /// A screener for `workload` judged by the behavioural reference
    /// backend (swap with [`Screener::backend`]).
    pub fn new(workload: Workload) -> Self {
        Screener {
            workload,
            sequencer: None,
            engine: BatchEngine::new(workload, None),
            detail: Scratch::default(),
            dyn_scratch: DynScratch::default(),
            backend: BehavioralBackend,
            workers: 1,
        }
    }
}

impl<B: Backend> Screener<B> {
    /// Builds fresh one-worker screeners for this one's workload and
    /// policy, judged by `B::default()` — one per pooled worker.
    pub(crate) fn forks(&self) -> impl Fn() -> Self + Sync
    where
        B: Default,
    {
        let (workload, sequencer) = (self.workload, self.sequencer);
        move || {
            let screener = Screener::new(workload).backend(B::default());
            sequencer.into_iter().fold(screener, Screener::sequencer)
        }
    }

    /// Swaps the verdict backend (e.g. for
    /// [`crate::backend::RtlBackend`] gate-accurate screening).
    pub fn backend<B2: Backend>(self, backend: B2) -> Screener<B2> {
        Screener {
            workload: self.workload,
            sequencer: self.sequencer,
            engine: self.engine,
            detail: self.detail,
            dyn_scratch: self.dyn_scratch,
            backend,
            workers: self.workers,
        }
    }

    /// Screens under the uncertainty-guided early-stop sequencer,
    /// rebuilding the engine for the new policy.
    ///
    /// # Panics
    ///
    /// Panics when `policy` fails [`SequencerConfig::validate`].
    pub fn sequencer(mut self, policy: SequencerConfig) -> Self {
        self.engine = BatchEngine::new(self.workload, Some(policy));
        self.sequencer = Some(policy);
        self
    }

    /// Shards [`Screener::run`] across a scoped worker pool of
    /// `workers` threads (`0` = the host's available parallelism; the
    /// default `1` streams the fleet through this screener) — see
    /// [`crate::pool`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Screens a fleet: one `(adc, rng)` pair per device, reports
    /// ordered by the device's position in the iterator, through
    /// [`Screener::screen`] or, with [`Screener::workers`] > 1 (or `0`
    /// on a multi-core host), the scoped pool of [`crate::pool`].
    ///
    /// Pooled workers judge with `B::default()` backends — both
    /// [`BehavioralBackend`] and [`crate::backend::RtlBackend`]
    /// default to exactly their `new` state, so verdicts don't depend
    /// on which worker (or the single-threaded path) screened a
    /// device. On the dynamic workload each worker's engine plans its
    /// own sine table from its first device.
    pub fn run<A, R, I>(&mut self, devices: I) -> Vec<ScreenReport>
    where
        A: Adc + Send,
        R: RngCore + Send,
        I: IntoIterator<Item = (A, R)>,
        B: Default,
    {
        let fleet = devices
            .into_iter()
            .enumerate()
            .map(|(i, (adc, rng))| BatchDevice::new(i, adc, rng));
        pool::run_pool(fleet, self.workers, self)
    }

    /// Screens `devices` through the backend's batch hook
    /// ([`Backend::process_batch`]), appending one report per device to
    /// `reports` and sorting only those by [`BatchDevice::index`].
    /// Allocation-free once the engine and `reports` are warm.
    pub fn screen<A: Adc, R: RngCore>(
        &mut self,
        devices: impl IntoIterator<Item = BatchDevice<A, R>>,
        reports: &mut Vec<ScreenReport>,
    ) {
        let start = reports.len();
        B::process_batch(self, devices, reports);
        reports[start..].sort_unstable_by_key(|r| r.device);
    }

    /// Screens `devices` one at a time through the backend's judge.
    pub(crate) fn run_scalar<A: Adc, R: RngCore>(
        &mut self,
        devices: impl IntoIterator<Item = BatchDevice<A, R>>,
        reports: &mut Vec<ScreenReport>,
    ) {
        let (engine, scratch) = (&mut self.engine, &mut self.dyn_scratch);
        for mut dev in devices {
            let verdict = engine.judge(&mut self.backend, &dev.adc, &mut dev.rng, None, scratch);
            reports.push(ScreenReport {
                device: dev.index,
                verdict,
            });
        }
    }

    /// Screens `devices` through the engine of [`crate::batch`].
    pub(crate) fn run_batched<A: Adc, R: RngCore>(
        &mut self,
        devices: impl IntoIterator<Item = BatchDevice<A, R>>,
        reports: &mut Vec<ScreenReport>,
    ) {
        self.engine.run(devices, reports, &mut self.dyn_scratch);
    }

    /// Screens one device through the scalar engine, leaving per-code
    /// detail (as much as the backend models) for
    /// [`Screener::take_static_outcome`].
    pub fn screen_one<A: Adc + ?Sized, R: RngCore + ?Sized>(
        &mut self,
        adc: &A,
        rng: &mut R,
    ) -> ScreenVerdict {
        let detail = Some(&mut self.detail);
        self.engine
            .judge(&mut self.backend, adc, rng, detail, &mut self.dyn_scratch)
    }

    /// Assembles the full per-code [`BistOutcome`] for the most recent
    /// static [`Screener::screen_one`], or `None` for a dynamic
    /// verdict.
    pub fn take_static_outcome(&mut self, verdict: &ScreenVerdict) -> Option<BistOutcome> {
        let outcome = verdict.as_static()?;
        Some(self.detail.take_outcome(outcome.verdict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::transfer::TransferFunction;
    use bist_adc::types::Volts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One static and one dynamic workload for a 6-bit ideal converter.
    fn workloads() -> [Workload; 2] {
        let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .build()
            .unwrap();
        [
            Workload::static_ramp(config),
            Workload::dynamic_sine(DynamicConfig::paper_default()),
        ]
    }

    /// A screener re-sequenced after it has screened judges its next
    /// device under the new policy, as a fresh screener with that
    /// policy does — on both workloads.
    #[test]
    fn resequencing_replaces_the_early_stop_policy() {
        let adc = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        let late = SequencerConfig {
            min_samples: 1_000_000,
            ..SequencerConfig::default()
        };
        for workload in workloads() {
            let rng = || StdRng::seed_from_u64(7);
            let mut screener = Screener::new(workload).sequencer(SequencerConfig::default());
            let early = screener.screen_one(&adc, &mut rng());
            assert!(early.stopped_early(), "{workload:?}: {early:?}");
            let mut screener = screener.sequencer(late);
            let fresh = Screener::new(workload)
                .sequencer(late)
                .screen_one(&adc, &mut rng());
            assert!(!fresh.stopped_early(), "{workload:?}: {fresh:?}");
            assert_eq!(screener.screen_one(&adc, &mut rng()), fresh, "{workload:?}");
        }
    }

    /// `screen` sorts only the reports it appends: a report already in
    /// the caller's `Vec` stays first, although its device index sorts
    /// after every appended one, and devices arriving in reverse order
    /// are appended in index order.
    #[test]
    fn screen_leaves_existing_reports_in_place() {
        let adc = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        for workload in workloads() {
            let mut screener = Screener::new(workload);
            let sentinel = ScreenReport {
                device: 99,
                verdict: screener.screen_one(&adc, &mut StdRng::seed_from_u64(99)),
            };
            let mut reports = vec![sentinel];
            let devices = (0..5)
                .rev()
                .map(|i| BatchDevice::new(i, &adc, StdRng::seed_from_u64(i as u64)));
            screener.screen(devices, &mut reports);
            assert_eq!(reports[0], sentinel, "{workload:?}");
            let appended: Vec<usize> = reports[1..].iter().map(|r| r.device).collect();
            assert_eq!(appended, [0, 1, 2, 3, 4], "{workload:?}");
        }
    }
}
