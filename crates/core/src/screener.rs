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
//! A screener owns one [`ScreenBatch`] engine for its whole life, built
//! when the workload and sequencer policy are set, so repeated
//! [`Screener::run`] calls reuse its sequencer, stimulus table and coded
//! rows. `run` streams the fleet through that engine and the backend's
//! batch seam ([`Backend::process_batch`]): the behavioural backend runs
//! the engine's behavioural loops, the RTL backend clocks each device
//! through the gate-accurate datapath scalar-wise — same reports,
//! ordered by device index, either way. With [`Screener::workers`] the
//! fleet is instead sharded across the scoped worker pool of
//! [`crate::pool`], each worker streaming the chunks it claims into its
//! own engine — reports stay bit-identical for any worker count.
//! [`Screener::screen_one`] is the engine's scalar single-device path;
//! [`Screener::take_static_outcome`] then returns its per-code detail.

use crate::backend::{Backend, BehavioralBackend};
use crate::batch::{BatchDevice, ScreenBatch};
use crate::config::BistConfig;
use crate::dynamic::{DynamicConfig, DynamicVerdict};
use crate::harness::{BistOutcome, BistVerdict};
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
    backend: B,
    engine: ScreenBatch,
    workers: usize,
}

impl Screener<BehavioralBackend> {
    /// A screener for `workload` judged by the behavioural reference
    /// backend (swap with [`Screener::backend`]).
    pub fn new(workload: Workload) -> Self {
        Screener {
            backend: BehavioralBackend,
            engine: ScreenBatch::new(workload, None),
            workers: 1,
        }
    }
}

impl<B: Backend> Screener<B> {
    /// Swaps the verdict backend (e.g. for
    /// [`crate::backend::RtlBackend`] gate-accurate screening).
    pub fn backend<B2: Backend>(self, backend: B2) -> Screener<B2> {
        Screener {
            backend,
            engine: self.engine,
            workers: self.workers,
        }
    }

    /// Screens under the uncertainty-guided early-stop sequencer,
    /// rebuilding the engine for the new policy.
    pub fn sequencer(mut self, policy: SequencerConfig) -> Self {
        self.engine = ScreenBatch::new(*self.engine.workload(), Some(policy));
        self
    }

    /// Shards [`Screener::run`] across a scoped worker pool of
    /// `workers` threads (`0` = the host's available parallelism; the
    /// default `1` streams the fleet through the screener's own
    /// engine). Each pooled worker owns its own engine and a
    /// `B::default()` backend, and reports stay bit-identical for any
    /// worker count — see [`crate::pool`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Screens a fleet: one `(adc, rng)` pair per device, reports
    /// ordered by the device's position in the iterator. Dispatches
    /// through the backend's batch seam, so the behavioural backend
    /// runs the behavioural engine and the RTL backend the scalar
    /// gate-accurate loop — identical reports either way. With
    /// [`Screener::workers`] > 1 (or `0` on a multi-core host) the
    /// fleet is sharded across the scoped pool of [`crate::pool`];
    /// reports stay bit-identical for any worker count.
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
        pool::run_pool(fleet, self.workers, &mut self.engine, &mut self.backend)
    }

    /// Screens one device through the scalar engine, leaving per-code
    /// detail (as much as the backend models) for
    /// [`Screener::take_static_outcome`].
    pub fn screen_one<A: Adc + ?Sized, R: RngCore + ?Sized>(
        &mut self,
        adc: &A,
        rng: &mut R,
    ) -> ScreenVerdict {
        self.engine.screen_one(&mut self.backend, adc, rng)
    }

    /// Assembles the full per-code [`BistOutcome`] for the most recent
    /// static [`Screener::screen_one`], or `None` for a dynamic
    /// verdict.
    pub fn take_static_outcome(&mut self, verdict: &ScreenVerdict) -> Option<BistOutcome> {
        self.engine.take_static_outcome(verdict)
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

    /// A screener re-sequenced after it has screened judges its next
    /// device under the new policy, as a fresh screener with that
    /// policy does — on both workloads.
    #[test]
    fn resequencing_replaces_the_early_stop_policy() {
        let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .build()
            .unwrap();
        let adc = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        let late = SequencerConfig {
            min_samples: 1_000_000,
            ..SequencerConfig::default()
        };
        let workloads = [
            Workload::static_ramp(config),
            Workload::dynamic_sine(DynamicConfig::paper_default()),
        ];
        for workload in workloads {
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
}
