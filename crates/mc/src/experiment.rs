//! Batch experiments: run the BIST (and optionally the reference or
//! conventional test) over a device batch and account type I/II errors.
//!
//! Each worker drives the streaming engine of `bist-core` with one
//! reusable [`bist_core::harness::Scratch`], so screening a device is
//! allocation-free after the first (stimulus→stream→accumulator, no
//! capture materialised), and [`ExperimentResult`] carries throughput
//! accounting (devices and ADC samples per second) alongside the
//! confusion matrix.

use crate::batch::Batch;
use crate::estimate::Proportion;
use crate::parallel::run_parallel;
use bist_adc::noise::NoiseConfig;
use bist_core::backend::{Backend, BehavioralBackend};
use bist_core::batch::{BatchDevice, DynBatch, StaticBatch};
use bist_core::config::BistConfig;
use bist_core::decision::ConfusionMatrix;
use bist_core::dynamic::DynamicConfig;
use bist_core::harness::{conventional_test, reference_measurement};
use bist_core::pool;
use bist_core::screener::{Screener, Workload};
use bist_core::source::{DeviceSource, SourceSpec};
use rand::rngs::StdRng;
use std::fmt;
use std::time::{Duration, Instant};

/// How ground truth is established for each device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GroundTruthMode {
    /// Classify the true transfer function directly (exact — available
    /// because we simulate the silicon).
    Exact,
    /// The paper's procedure: a high-accuracy histogram reference
    /// measurement with this many samples per code (~1000 in §4).
    Reference {
        /// Average samples per code for the reference ramp.
        samples_per_code: u32,
    },
}

/// Descriptor of one screening experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Experiment {
    /// The device batch.
    pub batch: Batch,
    /// The BIST configuration under evaluation.
    pub config: BistConfig,
    /// Ground-truth procedure.
    pub ground_truth: GroundTruthMode,
    /// Acquisition noise (applies to the BIST capture).
    pub noise: NoiseConfig,
    /// Relative ramp slope error for the BIST capture (the paper's
    /// "slightly too steep" measurement ramp).
    pub slope_error: f64,
}

impl Experiment {
    /// A noiseless experiment with exact ground truth.
    pub fn new(batch: Batch, config: BistConfig) -> Self {
        Experiment {
            batch,
            config,
            ground_truth: GroundTruthMode::Exact,
            noise: NoiseConfig::noiseless(),
            slope_error: 0.0,
        }
    }

    /// Sets the ground-truth mode.
    pub fn with_ground_truth(mut self, mode: GroundTruthMode) -> Self {
        self.ground_truth = mode;
        self
    }

    /// Sets the acquisition noise.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the ramp slope error.
    pub fn with_slope_error(mut self, err: f64) -> Self {
        self.slope_error = err;
        self
    }

    /// Runs the experiment over device indices `[from, to)` —
    /// the unit of work for parallel execution. One [`bist_core::harness::Scratch`] is
    /// reused across the whole range, so per-device screening allocates
    /// nothing after the first device.
    pub fn run_range(&self, from: usize, to: usize) -> ExperimentResult {
        self.run_range_with(&mut BehavioralBackend, from, to)
    }

    /// Runs a device range through an explicit verdict backend (the
    /// behavioural accumulators or the gate-accurate RTL datapath) —
    /// the seam the differential experiment exercises. The RNG stream
    /// per device depends only on `(seed, index)`, so two backends run
    /// against the same experiment see bit-identical code streams.
    ///
    /// The range is screened as one batch through the backend's
    /// [`Backend::process_batch`] seam: the behavioural backend runs
    /// the lane-parallel engine of [`bist_core::batch`], the RTL
    /// backend clocks each device scalar-wise — verdicts are
    /// bit-identical either way. Ground truth is established *before*
    /// each device is queued, so the per-device RNG stream (truth
    /// draws, then acquisition draws) is unchanged from the scalar
    /// engine.
    pub fn run_range_with<B: Backend>(
        &self,
        backend: &mut B,
        from: usize,
        to: usize,
    ) -> ExperimentResult {
        // bist-lint: allow(determinism) — wall-clock throughput metadata (elapsed/devices-per-s); never feeds a verdict or report ordering
        let start = Instant::now();
        let mut matrix = ConfusionMatrix::new();
        let mut samples = 0u64;
        let spec = *self.config.spec();
        let to = to.min(self.batch.size);
        let mut work = StaticBatch::new(self.config)
            .with_noise(self.noise)
            .with_slope_error(self.slope_error);
        let mut truths = Vec::with_capacity(to.saturating_sub(from));
        for i in from..to {
            let tf = self.batch.device(i);
            let mut rng = self.batch.device_rng(i ^ 0x5eed_0000_0000_0000);
            let truth_good = match self.ground_truth {
                GroundTruthMode::Exact => spec.classify(&tf).good,
                GroundTruthMode::Reference { samples_per_code } => reference_measurement(
                    &tf,
                    &spec,
                    samples_per_code,
                    &NoiseConfig::noiseless(),
                    &mut rng,
                )
                .map(|v| v.accepted)
                .unwrap_or(false),
            };
            truths.push(truth_good);
            work.push(BatchDevice::new(i, tf, rng));
        }
        backend.process_batch(&mut work);
        for report in work.finish_reports() {
            samples += report.outcome.verdict.samples;
            matrix.record(
                truths[report.device - from],
                report.outcome.verdict.accepted(),
            );
        }
        ExperimentResult {
            matrix,
            samples,
            invalid: 0,
            elapsed: start.elapsed(),
        }
    }

    /// Runs the whole batch, fanned out over the available parallelism
    /// (equivalent to `run_parallel(self, 0)`; results are bit-identical
    /// to a sequential [`Experiment::run_range`] because devices derive
    /// from `(seed, index)`).
    pub fn run(&self) -> ExperimentResult {
        run_parallel(self, 0)
    }

    /// Validates that every backend can judge this experiment's
    /// configuration — currently the gate-accurate datapath's
    /// requirement that at least one bit remains above the monitored
    /// bit (the Figure-2 checker needs an upper word). Sweep drivers
    /// whose grid can produce unjudgeable cells call this up front and
    /// record the cell via [`ExperimentResult::skipped_invalid`]
    /// instead of running it, so throughput figures only count devices
    /// that were actually screened.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidCellError`] when the cell cannot be judged.
    pub fn validate(&self) -> Result<(), InvalidCellError> {
        self.config
            .validate_monitorable()
            .map_err(|e| InvalidCellError {
                reason: e.to_string(),
            })
    }
}

/// A sweep cell whose configuration failed validation — see
/// [`Experiment::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidCellError {
    /// Why the cell cannot be run.
    pub reason: String,
}

impl fmt::Display for InvalidCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid sweep cell: {}", self.reason)
    }
}

impl std::error::Error for InvalidCellError {}

/// Accumulated outcome of an experiment, with throughput accounting.
///
/// Equality compares the accounting (`matrix` and `samples`) but not
/// `elapsed`, so two runs of the same experiment compare equal
/// regardless of timing — e.g. across different worker counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExperimentResult {
    /// The confusion matrix over all devices run so far.
    pub matrix: ConfusionMatrix,
    /// Total ADC samples consumed by the BIST captures.
    pub samples: u64,
    /// Devices belonging to sweep cells rejected by config validation:
    /// planned but never screened (see
    /// [`ExperimentResult::skipped_invalid`]). Excluded from the
    /// confusion matrix and from every throughput figure, so devices/s
    /// stays comparable across sweeps with and without invalid cells.
    pub invalid: u64,
    /// Time spent screening: wall-clock for a `run_parallel` fan-out,
    /// summed per-range CPU time when partials are merged by hand.
    pub elapsed: Duration,
}

impl ExperimentResult {
    /// The result of a sweep cell rejected by config validation: its
    /// `devices` are recorded as planned-but-invalid and nothing else —
    /// merging it into a sweep total cannot move any rate or
    /// throughput figure.
    pub fn skipped_invalid(devices: u64) -> Self {
        ExperimentResult {
            invalid: devices,
            ..ExperimentResult::default()
        }
    }

    /// Merges a partial result (e.g. from another worker). Elapsed
    /// times add; [`crate::parallel::run_parallel`] overwrites the sum
    /// with the observed wall-clock.
    pub fn merge(&mut self, other: &ExperimentResult) {
        self.matrix.merge(&other.matrix);
        self.samples += other.samples;
        self.invalid += other.invalid;
        self.elapsed += other.elapsed;
    }

    /// Type I rate estimate `P(reject | good)` with trial counts.
    pub fn type_i(&self) -> Proportion {
        Proportion::new(self.matrix.type_i_count(), self.matrix.good())
    }

    /// Type II rate estimate `P(accept | faulty)` with trial counts.
    pub fn type_ii(&self) -> Proportion {
        Proportion::new(self.matrix.type_ii_count(), self.matrix.faulty())
    }

    /// Observed yield.
    pub fn observed_yield(&self) -> Proportion {
        Proportion::new(self.matrix.good(), self.matrix.total())
    }

    /// Screening throughput in devices per second of [`Self::elapsed`].
    /// Counts only devices actually screened — cells rejected by config
    /// validation ([`Self::invalid`]) contribute nothing.
    pub fn devices_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.matrix.total() as f64 / secs
        } else {
            0.0
        }
    }

    /// Acquisition throughput in ADC samples per second of
    /// [`Self::elapsed`].
    pub fn samples_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.samples as f64 / secs
        } else {
            0.0
        }
    }
}

impl PartialEq for ExperimentResult {
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix
            && self.samples == other.samples
            && self.invalid == other.invalid
    }
}

impl Eq for ExperimentResult {}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.matrix)
    }
}

/// Compares the BIST against the conventional 4096-sample histogram test
/// on the same batch (experiment E10): returns the two confusion
/// matrices and the device-level agreement count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EquivalenceResult {
    /// Confusion matrix of the BIST decisions vs exact truth.
    pub bist: ConfusionMatrix,
    /// Confusion matrix of the conventional test vs exact truth.
    pub conventional: ConfusionMatrix,
    /// Devices where both tests reached the same decision.
    pub agreements: u64,
    /// Total devices compared.
    pub total: u64,
}

impl EquivalenceResult {
    /// Fraction of devices where the two tests agree.
    pub fn agreement_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.agreements as f64 / self.total as f64
        }
    }

    /// Merges a partial result from another worker.
    pub fn merge(&mut self, other: &EquivalenceResult) {
        self.bist.merge(&other.bist);
        self.conventional.merge(&other.conventional);
        self.agreements += other.agreements;
        self.total += other.total;
    }
}

/// Runs the E10 equivalence experiment: BIST with `config` vs the
/// conventional histogram test with `conventional_samples` total
/// samples, fanned out across `workers` threads (0 = available
/// parallelism). Devices derive from `(seed, index)`, so the result is
/// independent of the worker count.
pub fn run_equivalence(
    batch: &Batch,
    config: &BistConfig,
    conventional_samples: u32,
    workers: usize,
) -> EquivalenceResult {
    let partials = pool::map_ranges(
        batch.size,
        workers,
        || (),
        |_, from, to| equivalence_range(batch, config, conventional_samples, from, to),
    );
    let mut total = EquivalenceResult::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

fn equivalence_range(
    batch: &Batch,
    config: &BistConfig,
    conventional_samples: u32,
    from: usize,
    to: usize,
) -> EquivalenceResult {
    // Salt decorrelating this experiment's RNG stream from the device
    // generation stream.
    const EQ_SALT: usize = 0x0e0a_1b2c;
    let spec = *config.spec();
    let mut bist_m = ConfusionMatrix::new();
    let mut conv_m = ConfusionMatrix::new();
    let mut agreements = 0;
    let mut screener = Screener::new(Workload::static_ramp(*config));
    let to = to.min(batch.size);
    for i in from..to {
        let tf = batch.device(i);
        let mut rng = batch.device_rng(i ^ EQ_SALT);
        let truth = spec.classify(&tf).good;
        let bist = screener.screen_one(&tf, &mut rng);
        let conv = conventional_test(
            &tf,
            &spec,
            conventional_samples,
            &NoiseConfig::noiseless(),
            &mut rng,
        )
        .map(|v| v.accepted)
        .unwrap_or(false);
        bist_m.record(truth, bist.accepted());
        conv_m.record(truth, conv);
        if bist.accepted() == conv {
            agreements += 1;
        }
    }
    EquivalenceResult {
        bist: bist_m,
        conventional: conv_m,
        agreements,
        total: (to - from) as u64,
    }
}

/// Descriptor of one **dynamic** screening experiment: a seeded device
/// population (any [`SourceSpec`] architecture — flash, iid widths,
/// SAR, pipeline) driven through the streaming
/// SINAD/THD/ENOB/noise-power verdict path of `bist_core::dynamic`.
///
/// The worker fan-out mirrors [`Experiment`]: devices derive from
/// `(seed, index)`, every worker reuses one [`bist_core::dynamic::DynScratch`] (and one
/// cached RTL datapath when judging with
/// [`bist_core::backend::RtlBackend`]), so the per-device hot path is
/// allocation-free after warm-up on either backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynExperiment {
    /// Master seed; device `i` derives its RNG from `(seed, i)`.
    pub seed: u64,
    /// Number of devices.
    pub devices: usize,
    /// The device model (any seam architecture).
    pub source: SourceSpec,
    /// The dynamic test plan and limits.
    pub config: DynamicConfig,
    /// Acquisition noise for the sine capture.
    pub noise: NoiseConfig,
}

/// Salt decorrelating dynamic acquisition noise from device generation.
const DYN_EXP_SALT: u64 = 0xd1e_57a7;

impl DynExperiment {
    /// A noiseless dynamic experiment over any seam source
    /// (`FlashConfig`, `SarConfig`, `PipelineConfig`, … convert
    /// directly).
    pub fn new(
        seed: u64,
        devices: usize,
        source: impl Into<SourceSpec>,
        config: DynamicConfig,
    ) -> Self {
        DynExperiment {
            seed,
            devices,
            source: source.into(),
            config,
            noise: NoiseConfig::noiseless(),
        }
    }

    /// Sets the acquisition noise.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    /// The RNG for stream `salt` of device `index` (the shared
    /// [`crate::batch::stream_rng`] mixing).
    fn rng(&self, index: usize, salt: u64) -> StdRng {
        crate::batch::stream_rng(self.seed, &[salt, index as u64])
    }

    /// Runs the experiment over device indices `[from, to)` with an
    /// explicit verdict backend — the unit of work for the fan-out.
    ///
    /// The range is screened as one batch through the backend's
    /// [`Backend::process_dyn_batch`] seam (lane-parallel Goertzel
    /// banks on the behavioural backend, the scalar gate-accurate loop
    /// on the RTL backend — identical decisions either way).
    pub fn run_range_with<B: Backend>(
        &self,
        backend: &mut B,
        from: usize,
        to: usize,
    ) -> DynExperimentResult {
        // bist-lint: allow(determinism) — wall-clock throughput metadata (elapsed/devices-per-s); never feeds a verdict or report ordering
        let start = Instant::now();
        let mut result = DynExperimentResult::default();
        let mut work = DynBatch::new(self.config).with_noise(self.noise);
        for i in from..to.min(self.devices) {
            // Bit-identical to the historical flash path: the config's
            // `sample` consumes the same draws and `transfer()` takes
            // none, so the code stream is unchanged for flash sources.
            let adc = self.source.sample_transfer(&mut self.rng(i, 0));
            work.push(BatchDevice::new(i, adc, self.rng(i, DYN_EXP_SALT)));
        }
        backend.process_dyn_batch(&mut work);
        for report in work.finish_reports() {
            let verdict = report.outcome.verdict;
            result.screened += 1;
            result.samples += verdict.samples;
            result.accepted += u64::from(verdict.accepted());
            result.incomplete += u64::from(!verdict.checks.complete);
            result.failed_sinad += u64::from(!verdict.checks.sinad);
            result.failed_thd += u64::from(!verdict.checks.thd);
            result.failed_enob += u64::from(!verdict.checks.enob);
            result.failed_noise += u64::from(!verdict.checks.noise);
        }
        result.elapsed = start.elapsed();
        result
    }

    /// Runs the whole population across `workers` threads (0 =
    /// available parallelism) with a per-worker backend built by
    /// `make_backend`, returning the merged result with wall-clock
    /// `elapsed`. Results are independent of the worker count.
    pub fn run_with<B, F>(&self, workers: usize, make_backend: F) -> DynExperimentResult
    where
        B: Backend,
        F: Fn() -> B + Sync,
    {
        // bist-lint: allow(determinism) — wall-clock throughput metadata (elapsed/devices-per-s); never feeds a verdict or report ordering
        let start = Instant::now();
        let partials =
            pool::map_ranges(self.devices, workers, &make_backend, |backend, from, to| {
                self.run_range_with(backend, from, to)
            });
        let mut total = DynExperimentResult::default();
        for p in &partials {
            total.merge(p);
        }
        total.elapsed = start.elapsed();
        total
    }

    /// Runs the whole population through the behavioural backend —
    /// the default fleet path (equivalent to
    /// `run_with(workers, || BehavioralBackend)`).
    pub fn run(&self, workers: usize) -> DynExperimentResult {
        self.run_with(workers, || BehavioralBackend)
    }
}

/// Accumulated outcome of a dynamic experiment, with throughput
/// accounting. Equality compares the counters but not `elapsed` (same
/// convention as [`ExperimentResult`]). Failure counters are
/// non-exclusive: a device missing two limits increments both.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynExperimentResult {
    /// Devices screened.
    pub screened: u64,
    /// Devices accepted (complete and every metric within limits).
    pub accepted: u64,
    /// Devices with an incomplete record.
    pub incomplete: u64,
    /// Devices below the SINAD limit.
    pub failed_sinad: u64,
    /// Devices above the THD limit.
    pub failed_thd: u64,
    /// Devices below the ENOB limit.
    pub failed_enob: u64,
    /// Devices above the noise-power limit.
    pub failed_noise: u64,
    /// Total ADC samples consumed.
    pub samples: u64,
    /// Devices belonging to sweep cells rejected by config validation:
    /// planned but never screened (see
    /// [`DynExperimentResult::skipped_invalid`]). Excluded from
    /// `screened` and from every rate and throughput figure.
    pub invalid: u64,
    /// Time spent screening (wall-clock for `run`/`run_with`, summed
    /// per-range CPU time when partials are merged by hand).
    pub elapsed: Duration,
}

impl DynExperimentResult {
    /// The result of a sweep cell rejected by config validation (e.g. a
    /// fixed-point-unrealisable [`DynamicConfig`] plan): its `devices`
    /// are recorded as planned-but-invalid and nothing else, so merging
    /// it into a sweep total cannot move the acceptance rate or
    /// devices/s.
    pub fn skipped_invalid(devices: u64) -> Self {
        DynExperimentResult {
            invalid: devices,
            ..DynExperimentResult::default()
        }
    }

    /// Merges a partial result from another worker.
    pub fn merge(&mut self, other: &DynExperimentResult) {
        self.screened += other.screened;
        self.accepted += other.accepted;
        self.incomplete += other.incomplete;
        self.failed_sinad += other.failed_sinad;
        self.failed_thd += other.failed_thd;
        self.failed_enob += other.failed_enob;
        self.failed_noise += other.failed_noise;
        self.samples += other.samples;
        self.invalid += other.invalid;
        self.elapsed += other.elapsed;
    }

    /// Observed acceptance rate.
    pub fn acceptance_rate(&self) -> f64 {
        if self.screened == 0 {
            0.0
        } else {
            self.accepted as f64 / self.screened as f64
        }
    }

    /// Screening throughput in devices per second of `elapsed`. Counts
    /// only devices actually screened — cells rejected by config
    /// validation ([`Self::invalid`]) contribute nothing.
    pub fn devices_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.screened as f64 / secs
        } else {
            0.0
        }
    }

    /// Acquisition throughput in ADC samples per second of `elapsed`.
    pub fn samples_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.samples as f64 / secs
        } else {
            0.0
        }
    }
}

impl PartialEq for DynExperimentResult {
    fn eq(&self, other: &Self) -> bool {
        self.screened == other.screened
            && self.accepted == other.accepted
            && self.incomplete == other.incomplete
            && self.failed_sinad == other.failed_sinad
            && self.failed_thd == other.failed_thd
            && self.failed_enob == other.failed_enob
            && self.failed_noise == other.failed_noise
            && self.samples == other.samples
            && self.invalid == other.invalid
    }
}

impl Eq for DynExperimentResult {}

impl fmt::Display for DynExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} accepted (sinad {} thd {} enob {} noise {} incomplete {} rejections)",
            self.accepted,
            self.screened,
            self.failed_sinad,
            self.failed_thd,
            self.failed_enob,
            self.failed_noise,
            self.incomplete
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::types::Resolution;

    fn config(bits: u32) -> BistConfig {
        BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(bits)
            .build()
            .unwrap()
    }

    #[test]
    fn experiment_runs_batch() {
        let batch = Batch::paper_simulation(3, 200);
        let result = Experiment::new(batch, config(7)).run();
        assert_eq!(result.matrix.total(), 200);
        // Yield near 30 %.
        let y = result.observed_yield().point().unwrap();
        assert!((0.2..0.45).contains(&y), "yield {y}");
        // 7-bit counter: very few errors.
        assert!(result.type_i().point().unwrap() < 0.15);
    }

    #[test]
    fn run_range_partitions_consistently() {
        let batch = Batch::paper_simulation(5, 100);
        let exp = Experiment::new(batch, config(5));
        let whole = exp.run();
        let mut parts = exp.run_range(0, 40);
        parts.merge(&exp.run_range(40, 100));
        assert_eq!(whole.matrix, parts.matrix);
    }

    #[test]
    fn range_clamps_to_batch() {
        let batch = Batch::paper_simulation(5, 10);
        let exp = Experiment::new(batch, config(5));
        let r = exp.run_range(0, 1000);
        assert_eq!(r.matrix.total(), 10);
    }

    #[test]
    fn smaller_counter_more_type_i() {
        let batch = Batch::paper_simulation(11, 600);
        let small = Experiment::new(batch, config(4)).run();
        let large = Experiment::new(batch, config(7)).run();
        let p_small = small.type_i().point().unwrap();
        let p_large = large.type_i().point().unwrap();
        assert!(
            p_small > p_large,
            "4-bit {p_small} should exceed 7-bit {p_large}"
        );
    }

    #[test]
    fn slope_error_changes_decisions() {
        let batch = Batch::paper_simulation(13, 400);
        let nominal = Experiment::new(batch, config(4)).run();
        let skewed = Experiment::new(batch, config(4))
            .with_slope_error(-0.022)
            .run();
        // The paper saw type I roughly double with the slope error.
        let p0 = nominal.type_i().point().unwrap();
        let p1 = skewed.type_i().point().unwrap();
        assert!(p1 > p0, "slope error should raise type I: {p0} -> {p1}");
    }

    #[test]
    fn reference_ground_truth_close_to_exact() {
        let batch = Batch::paper_simulation(17, 60);
        let exact = Experiment::new(batch, config(6)).run();
        let referenced = Experiment::new(batch, config(6))
            .with_ground_truth(GroundTruthMode::Reference {
                samples_per_code: 1000,
            })
            .run();
        // The reference measurement misclassifies at most a couple of
        // marginal devices out of 60.
        let diff = (exact.matrix.good() as i64 - referenced.matrix.good() as i64).abs();
        assert!(diff <= 3, "good-count diff {diff}");
    }

    #[test]
    fn equivalence_bist7_vs_conventional() {
        let batch = Batch::paper_simulation(19, 150);
        let res = run_equivalence(&batch, &config(7), 4096, 0);
        assert_eq!(res.total, 150);
        assert!(
            res.agreement_rate() > 0.9,
            "agreement {}",
            res.agreement_rate()
        );
    }

    #[test]
    fn equivalence_independent_of_workers() {
        let batch = Batch::paper_simulation(23, 60);
        let cfg = config(5);
        let seq = run_equivalence(&batch, &cfg, 4096, 1);
        let par = run_equivalence(&batch, &cfg, 4096, 4);
        assert_eq!(seq.bist, par.bist);
        assert_eq!(seq.conventional, par.conventional);
        assert_eq!(seq.agreements, par.agreements);
        assert_eq!(seq.total, par.total);
    }

    #[test]
    fn result_accounts_samples_and_throughput() {
        let batch = Batch::paper_simulation(3, 20);
        let r = Experiment::new(batch, config(6)).run();
        // Every device's sweep is ~Δs⁻¹ samples per code on 64 codes.
        assert!(r.samples > 20 * 64, "samples {}", r.samples);
        assert!(r.elapsed > Duration::ZERO);
        assert!(r.devices_per_second() > 0.0);
        assert!(r.samples_per_second() > r.devices_per_second());
        // Merging partials adds both counters.
        let mut merged = r;
        merged.merge(&r);
        assert_eq!(merged.samples, 2 * r.samples);
        assert_eq!(merged.matrix.total(), 2 * r.matrix.total());
    }

    #[test]
    fn display_result() {
        let batch = Batch::paper_simulation(3, 10);
        let r = Experiment::new(batch, config(6)).run();
        assert!(r.to_string().contains("n=10"));
    }

    fn dyn_experiment(devices: usize, sigma: f64) -> DynExperiment {
        use bist_adc::flash::FlashConfig;
        use bist_adc::types::Volts;
        let flash = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_width_sigma_lsb(sigma);
        DynExperiment::new(3, devices, flash, DynamicConfig::paper_default())
    }

    #[test]
    fn dyn_experiment_screens_population() {
        let ideal = dyn_experiment(30, 0.0).run(0);
        assert_eq!(ideal.screened, 30);
        assert_eq!(ideal.accepted, 30, "{ideal}");
        assert_eq!(ideal.samples, 30 * 4096);
        assert!(ideal.devices_per_second() > 0.0);
        let worst = dyn_experiment(30, 0.3).run(0);
        assert!(worst.accepted < 30, "{worst}");
        assert!(worst.acceptance_rate() < ideal.acceptance_rate());
    }

    #[test]
    fn dyn_experiment_independent_of_workers() {
        let exp = dyn_experiment(40, 0.21);
        let seq = exp.run(1);
        let par = exp.run(4);
        assert_eq!(seq, par);
    }

    #[test]
    fn dyn_rtl_fleet_decisions_match_behavioral() {
        use bist_core::backend::RtlBackend;
        let exp = dyn_experiment(25, 0.21);
        let behavioral = exp.run(2);
        let rtl = exp.run_with(2, RtlBackend::new);
        assert_eq!(behavioral, rtl);
    }

    #[test]
    fn dyn_experiment_range_clamps_and_merges() {
        let exp = dyn_experiment(10, 0.16);
        let whole = exp.run_range_with(&mut BehavioralBackend, 0, 1000);
        assert_eq!(whole.screened, 10);
        let mut parts = exp.run_range_with(&mut BehavioralBackend, 0, 4);
        parts.merge(&exp.run_range_with(&mut BehavioralBackend, 4, 10));
        assert_eq!(whole, parts);
    }

    #[test]
    fn dyn_display_result() {
        let r = dyn_experiment(5, 0.0).run(1);
        assert!(r.to_string().contains("5/5 accepted"), "{r}");
    }

    #[test]
    fn invalid_cells_do_not_move_throughput_or_rates() {
        // The satellite fix: a sweep cell rejected by config validation
        // records its planned devices as `invalid` and nothing else, so
        // devices/s and the rates stay comparable across sweeps.
        let batch = Batch::paper_simulation(3, 20);
        let mut total = Experiment::new(batch, config(6)).run();
        let screened = total.matrix.total();
        let dps_before = (total.matrix.total(), total.samples);
        total.merge(&ExperimentResult::skipped_invalid(500));
        assert_eq!(total.invalid, 500);
        assert_eq!(
            total.matrix.total(),
            screened,
            "invalid devices not screened"
        );
        assert_eq!((total.matrix.total(), total.samples), dps_before);

        let mut dyn_total = dyn_experiment(10, 0.0).run(1);
        let rate = dyn_total.acceptance_rate();
        dyn_total.merge(&DynExperimentResult::skipped_invalid(99));
        assert_eq!(dyn_total.invalid, 99);
        assert_eq!(dyn_total.screened, 10);
        assert_eq!(dyn_total.acceptance_rate(), rate);
        // Equality accounts for the invalid tally.
        assert_ne!(dyn_total, dyn_experiment(10, 0.0).run(1));
    }

    #[test]
    fn validate_flags_unjudgeable_monitored_bit() {
        use bist_adc::spec::LinearitySpec;
        let ok = Experiment::new(Batch::paper_simulation(1, 4), config(5));
        assert!(ok.validate().is_ok());
        let bad_cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .monitored_bit(5)
            .build()
            .unwrap();
        let bad = Experiment::new(Batch::paper_simulation(1, 4), bad_cfg);
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("monitored bit"), "{err}");
    }
}
