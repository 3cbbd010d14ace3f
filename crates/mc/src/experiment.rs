//! Batch experiments: screen a device batch under one [`Workload`] —
//! the §4/§5 static linearity ramp or the §2 dynamic sine record — and
//! account the outcome.
//!
//! One [`Experiment`] runs either workload. Each device range is
//! screened as one [`ScreenBatch`] through the backend's batch seam
//! ([`Backend::process_batch`]), so screening a device is
//! allocation-free after warm-up. The one [`ExperimentResult`] carries
//! the accept tally, the ADC samples consumed, a [`Rejections`] tally
//! by failed check and — for static workloads, where ground truth
//! exists — the type I/II confusion matrix.

use crate::batch::{stream_rng, Batch};
use crate::estimate::Proportion;
use bist_adc::noise::NoiseConfig;
use bist_core::backend::{Backend, BehavioralBackend};
use bist_core::batch::{BatchDevice, ScreenBatch};
use bist_core::config::BistConfig;
use bist_core::decision::ConfusionMatrix;
use bist_core::harness::{conventional_test, reference_measurement};
use bist_core::pool;
use bist_core::screener::{ScreenVerdict, Screener, Workload};
use bist_core::source::DeviceSource;
use std::fmt;

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

/// Descriptor of one screening experiment: a seeded device batch (any
/// [`bist_core::source::SourceSpec`] architecture) screened under one
/// [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Experiment {
    /// The device batch.
    pub batch: Batch,
    /// The test under evaluation, with its noise model and (static)
    /// ramp slope error — the paper's "slightly too steep" measurement
    /// ramp.
    pub workload: Workload,
    /// Ground-truth procedure. Static workloads only: a dynamic
    /// experiment has no ground truth and leaves the matrix empty.
    pub ground_truth: GroundTruthMode,
}

/// Salt decorrelating dynamic acquisition noise from device generation.
const DYN_EXP_SALT: u64 = 0xd1e_57a7;

impl Experiment {
    /// An experiment with exact ground truth:
    /// `Experiment::new(batch, Workload::static_ramp(cfg))` or
    /// `Experiment::new(batch, Workload::dynamic_sine(cfg))`.
    pub fn new(batch: Batch, workload: Workload) -> Self {
        Experiment {
            batch,
            workload,
            ground_truth: GroundTruthMode::Exact,
        }
    }

    /// Sets the ground-truth mode.
    ///
    /// # Panics
    ///
    /// Panics on a dynamic workload — the sine test has no ground truth.
    pub fn with_ground_truth(mut self, mode: GroundTruthMode) -> Self {
        assert!(
            matches!(self.workload, Workload::Static { .. }),
            "ground truth applies to the static ramp workload only"
        );
        self.ground_truth = mode;
        self
    }

    /// Sets the acquisition noise ([`Workload::with_noise`]).
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.workload = self.workload.with_noise(noise);
        self
    }

    /// Sets the ramp slope error ([`Workload::with_slope_error`]).
    ///
    /// # Panics
    ///
    /// Panics on a dynamic workload — the sine plan has no slope.
    pub fn with_slope_error(mut self, err: f64) -> Self {
        self.workload = self.workload.with_slope_error(err);
        self
    }

    /// Runs device indices `[from, to)` (clamped to the batch) through
    /// an explicit verdict backend — the unit of work for the fan-out.
    ///
    /// The range is screened as one batch through the backend's batch
    /// seam: the behavioural backend runs the batch engines of
    /// [`bist_core::batch`], the RTL backend clocks each device
    /// scalar-wise — verdicts are bit-identical either way. Per-device
    /// streams depend only on `(seed, index)`, so two backends see
    /// bit-identical code streams and the result is independent of how
    /// the batch is split:
    ///
    /// * static — device `batch.device(i)`, acquisition (after any
    ///   reference-measurement truth draws)
    ///   `batch.device_rng(i ^ 0x5eed_0000_0000_0000)`;
    /// * dynamic — device from `stream_rng(seed, &[0, i])`, acquisition
    ///   `stream_rng(seed, &[DYN_EXP_SALT, i])`.
    pub fn run_range_with<B: Backend>(
        &self,
        backend: &mut B,
        from: usize,
        to: usize,
    ) -> ExperimentResult {
        let to = to.min(self.batch.size);
        let mut result = ExperimentResult::default();
        let mut work = ScreenBatch::new(self.workload, None);
        let mut truths = Vec::with_capacity(to.saturating_sub(from));
        for i in from..to {
            let (adc, rng) = match self.workload {
                Workload::Static { config, .. } => {
                    let tf = self.batch.device(i);
                    let mut rng = self.batch.device_rng(i ^ 0x5eed_0000_0000_0000);
                    truths.push(match self.ground_truth {
                        GroundTruthMode::Exact => config.spec().classify(&tf).good,
                        GroundTruthMode::Reference { samples_per_code } => reference_measurement(
                            &tf,
                            config.spec(),
                            samples_per_code,
                            &NoiseConfig::noiseless(),
                            &mut rng,
                        )
                        .map(|v| v.accepted)
                        .unwrap_or(false),
                    });
                    (tf, rng)
                }
                Workload::Dynamic { .. } => {
                    let (seed, index) = (self.batch.seed, i as u64);
                    let adc = self
                        .batch
                        .source
                        .sample_transfer(&mut stream_rng(seed, &[0, index]));
                    (adc, stream_rng(seed, &[DYN_EXP_SALT, index]))
                }
            };
            work.push(BatchDevice::new(i, adc, rng));
        }
        backend.process_batch(&mut work);
        for report in work.finish_reports() {
            let verdict = &report.verdict;
            if let Some(&truth_good) = truths.get(report.device - from) {
                result.matrix.record(truth_good, verdict.accepted());
            }
            result.rejections.record(verdict);
            result.count(verdict.accepted(), verdict.samples());
        }
        result
    }

    /// Runs the whole batch across `workers` threads (0 = available
    /// parallelism; 1 = a sequential sweep) with a per-worker backend
    /// built by `make_backend` — `|| RtlBackend::new()` for the
    /// gate-accurate datapath. The merged result is bit-identical to a
    /// sequential [`Experiment::run_range_with`] for any worker count.
    pub fn run_with<B, F>(&self, workers: usize, make_backend: F) -> ExperimentResult
    where
        B: Backend,
        F: Fn() -> B + Sync,
    {
        let partials = pool::map_ranges(
            self.batch.size,
            workers,
            &make_backend,
            |backend, from, to| self.run_range_with(backend, from, to),
        );
        let mut total = ExperimentResult::default();
        for partial in &partials {
            total.merge(partial);
        }
        total
    }

    /// Runs the whole batch through the behavioural backend (equivalent
    /// to `run_with(workers, || BehavioralBackend)`).
    pub fn run(&self, workers: usize) -> ExperimentResult {
        self.run_with(workers, || BehavioralBackend)
    }
}

/// Rejected devices by failed check, over both workloads. Counts are
/// non-exclusive: a device failing two checks increments both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rejections {
    /// Devices whose sweep or record did not complete.
    pub incomplete: u64,
    /// Static devices with a DNL window failure.
    pub dnl: u64,
    /// Static devices with an INL window failure.
    pub inl: u64,
    /// Static devices with a functional (upper-bit) mismatch.
    pub functional: u64,
    /// Dynamic devices below the SINAD limit.
    pub sinad: u64,
    /// Dynamic devices above the THD limit.
    pub thd: u64,
    /// Dynamic devices below the ENOB limit.
    pub enob: u64,
    /// Dynamic devices above the noise-power limit.
    pub noise: u64,
}

impl Rejections {
    /// Tallies the failed checks of one verdict.
    pub fn record(&mut self, verdict: &ScreenVerdict) {
        match verdict {
            ScreenVerdict::Static(o) => {
                let v = &o.verdict;
                self.incomplete += u64::from(!v.complete());
                self.dnl += u64::from(v.dnl_failures > 0);
                self.inl += u64::from(v.inl_failures > 0);
                self.functional += u64::from(v.functional_mismatches > 0);
            }
            ScreenVerdict::Dynamic(o) => {
                let checks = &o.verdict.checks;
                self.incomplete += u64::from(!checks.complete);
                self.sinad += u64::from(!checks.sinad);
                self.thd += u64::from(!checks.thd);
                self.enob += u64::from(!checks.enob);
                self.noise += u64::from(!checks.noise);
            }
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &Rejections) {
        self.incomplete += other.incomplete;
        self.dnl += other.dnl;
        self.inl += other.inl;
        self.functional += other.functional;
        self.sinad += other.sinad;
        self.thd += other.thd;
        self.enob += other.enob;
        self.noise += other.noise;
    }
}

/// Accumulated outcome of an experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExperimentResult {
    /// Devices screened.
    pub screened: u64,
    /// Devices accepted (complete and every check passed).
    pub accepted: u64,
    /// Total ADC samples consumed by the BIST captures.
    pub samples: u64,
    /// The confusion matrix against ground truth — static workloads
    /// only; empty for dynamic experiments.
    pub matrix: ConfusionMatrix,
    /// Rejected devices by failed check.
    pub rejections: Rejections,
}

impl ExperimentResult {
    fn count(&mut self, accepted: bool, samples: u64) {
        self.screened += 1;
        self.accepted += u64::from(accepted);
        self.samples += samples;
    }

    /// Merges a partial result (e.g. from another worker).
    pub fn merge(&mut self, other: &ExperimentResult) {
        self.screened += other.screened;
        self.accepted += other.accepted;
        self.samples += other.samples;
        self.matrix.merge(&other.matrix);
        self.rejections.merge(&other.rejections);
    }

    /// Type I rate estimate `P(reject | good)` with trial counts.
    pub fn type_i(&self) -> Proportion {
        Proportion::new(self.matrix.type_i_count(), self.matrix.good())
    }

    /// Type II rate estimate `P(accept | faulty)` with trial counts.
    pub fn type_ii(&self) -> Proportion {
        Proportion::new(self.matrix.type_ii_count(), self.matrix.faulty())
    }

    /// Observed acceptance rate (0 when nothing was screened).
    pub fn acceptance_rate(&self) -> f64 {
        if self.screened == 0 {
            0.0
        } else {
            self.accepted as f64 / self.screened as f64
        }
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} accepted, {:?}",
            self.accepted, self.screened, self.rejections
        )?;
        if self.matrix.total() > 0 {
            write!(f, "; {}", self.matrix)?;
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use bist_adc::flash::FlashConfig;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::types::{Resolution, Volts};
    use bist_core::backend::RtlBackend;
    use bist_core::dynamic::{DynChecks, DynamicConfig, DynamicVerdict};
    use bist_core::harness::BistVerdict;
    use bist_core::sequencer::{SeqDecision, SeqOutcome};

    fn config(bits: u32) -> BistConfig {
        BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(bits)
            .build()
            .unwrap()
    }

    fn static_experiment(seed: u64, size: usize, bits: u32) -> Experiment {
        let batch = Batch::paper_simulation(seed, size);
        Experiment::new(batch, Workload::static_ramp(config(bits)))
    }

    fn dyn_experiment(devices: usize, sigma: f64) -> Experiment {
        let flash = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_width_sigma_lsb(sigma);
        let batch = Batch::of(flash).seed(3).size(devices);
        Experiment::new(
            batch,
            Workload::dynamic_sine(DynamicConfig::paper_default()),
        )
    }

    #[test]
    fn experiment_runs_batch() {
        let result = static_experiment(3, 200, 7).run(0);
        assert_eq!(result.matrix.total(), 200);
        assert_eq!(result.screened, 200);
        // Yield near 30 %.
        let y = result.matrix.good() as f64 / result.matrix.total() as f64;
        assert!((0.2..0.45).contains(&y), "yield {y}");
        // 7-bit counter: very few errors.
        assert!(result.type_i().point().unwrap() < 0.15);
    }

    /// The invariance rows of one experiment through a `B` backend: two
    /// split-and-merged ranges — the second overshooting the batch end,
    /// so range clamping is checked too — and the fan-out at each
    /// worker count must all equal `reference`, the sequential
    /// behavioural `run_range_with(0, n)`.
    fn check_rows<B: Backend + Default>(
        label: &str,
        exp: &Experiment,
        workers: &[usize],
        reference: &ExperimentResult,
    ) {
        let n = exp.batch.size;
        let name = std::any::type_name::<B>();
        let mut backend = B::default();
        let mut split = exp.run_range_with(&mut backend, 0, n / 3);
        split.merge(&exp.run_range_with(&mut backend, n / 3, n + 1000));
        assert_eq!(&split, reference, "{label} / {name}: split ranges");
        for &w in workers {
            let fanned = exp.run_with(w, B::default);
            assert_eq!(&fanned, reference, "{label} / {name} / {w} workers");
        }
    }

    #[test]
    fn results_independent_of_backend_workers_and_ranges() {
        let reference_truth = GroundTruthMode::Reference {
            samples_per_code: 1000,
        };
        let all: &[usize] = &[1, 3, 0];
        let rows = [
            ("static", static_experiment(29, 60, 5), all),
            (
                "static, slope -0.022",
                static_experiment(29, 60, 5).with_slope_error(-0.022),
                all,
            ),
            // Reference truth draws precede acquisition on each device's
            // stream; 17 devices still span two pool chunks.
            (
                "static, reference truth",
                static_experiment(29, 17, 5).with_ground_truth(reference_truth),
                all,
            ),
            ("dynamic, sigma 0.21", dyn_experiment(25, 0.21), all),
            // More workers than devices falls back to one range.
            ("static, 3 devices", static_experiment(29, 3, 5), &[16]),
        ];
        for (label, exp, workers) in &rows {
            let n = exp.batch.size;
            let reference = exp.run_range_with(&mut BehavioralBackend, 0, n);
            assert_eq!(reference.screened, n as u64, "{label}");
            check_rows::<BehavioralBackend>(label, exp, workers, &reference);
            check_rows::<RtlBackend>(label, exp, workers, &reference);
            // The ground-truth yield sweep counts exactly the good
            // devices of the exact-truth matrix, for any worker count.
            if let Workload::Static { config, .. } = exp.workload {
                if exp.ground_truth == GroundTruthMode::Exact {
                    for &w in *workers {
                        let good = exp.batch.classify(config.spec(), w);
                        let expected = Proportion::new(reference.matrix.good(), n as u64);
                        assert_eq!(good, expected, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn run_range_partitions_consistently() {
        let exp = static_experiment(5, 100, 5);
        let whole = exp.run(0);
        let mut parts = exp.run_range_with(&mut BehavioralBackend, 0, 40);
        parts.merge(&exp.run_range_with(&mut BehavioralBackend, 40, 100));
        assert_eq!(whole, parts);
    }

    #[test]
    fn range_clamps_to_batch() {
        let exp = static_experiment(5, 10, 5);
        let r = exp.run_range_with(&mut BehavioralBackend, 0, 1000);
        assert_eq!(r.matrix.total(), 10);
        assert_eq!(r.screened, 10);
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
    fn smaller_counter_more_type_i() {
        let small = static_experiment(11, 600, 4).run(0);
        let large = static_experiment(11, 600, 7).run(0);
        let p_small = small.type_i().point().unwrap();
        let p_large = large.type_i().point().unwrap();
        assert!(
            p_small > p_large,
            "4-bit {p_small} should exceed 7-bit {p_large}"
        );
    }

    #[test]
    fn slope_error_changes_decisions() {
        let nominal = static_experiment(13, 400, 4).run(0);
        let skewed = static_experiment(13, 400, 4)
            .with_slope_error(-0.022)
            .run(0);
        // The paper saw type I roughly double with the slope error.
        let p0 = nominal.type_i().point().unwrap();
        let p1 = skewed.type_i().point().unwrap();
        assert!(p1 > p0, "slope error should raise type I: {p0} -> {p1}");
    }

    #[test]
    fn reference_ground_truth_close_to_exact() {
        let exact = static_experiment(17, 60, 6).run(0);
        let referenced = static_experiment(17, 60, 6)
            .with_ground_truth(GroundTruthMode::Reference {
                samples_per_code: 1000,
            })
            .run(0);
        // The reference measurement misclassifies at most a couple of
        // marginal devices out of 60.
        let diff = (exact.matrix.good() as i64 - referenced.matrix.good() as i64).abs();
        assert!(diff <= 3, "good-count diff {diff}");
    }

    #[test]
    #[should_panic(expected = "static ramp workload only")]
    fn dynamic_experiment_has_no_ground_truth() {
        let _ = dyn_experiment(5, 0.0).with_ground_truth(GroundTruthMode::Exact);
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
    fn result_accounts_samples_and_merges() {
        let r = static_experiment(3, 20, 6).run(0);
        // Every device's sweep is ~Δs⁻¹ samples per code on 64 codes.
        assert!(r.samples > 20 * 64, "samples {}", r.samples);
        // Merging partials adds every counter.
        let mut merged = r;
        merged.merge(&r);
        assert_eq!(merged.samples, 2 * r.samples);
        assert_eq!(merged.screened, 2 * r.screened);
        assert_eq!(merged.matrix.total(), 2 * r.matrix.total());
    }

    #[test]
    fn display_result() {
        let r = static_experiment(3, 10, 6).run(0);
        assert!(r.to_string().contains("n=10"), "{r}");
    }

    #[test]
    fn dyn_experiment_screens_population() {
        let ideal = dyn_experiment(30, 0.0).run(0);
        assert_eq!(ideal.screened, 30);
        assert_eq!(ideal.accepted, 30, "{ideal}");
        assert_eq!(ideal.samples, 30 * 4096);
        assert_eq!(ideal.matrix.total(), 0, "no dynamic ground truth");
        let worst = dyn_experiment(30, 0.3).run(0);
        assert!(worst.accepted < 30, "{worst}");
        assert!(worst.acceptance_rate() < ideal.acceptance_rate());
    }

    #[test]
    fn dyn_display_result() {
        let r = dyn_experiment(5, 0.0).run(1);
        assert!(r.to_string().contains("5/5 accepted"), "{r}");
    }

    #[test]
    fn rejections_tally_each_failed_check() {
        let mut tally = Rejections::default();
        // Static verdicts as (codes judged, DNL, INL, functional
        // mismatches) against 62 expected codes: a pass, one failure per
        // check, then DNL and INL together.
        for (codes_judged, dnl_failures, inl_failures, functional_mismatches) in [
            (62, 0, 0, 0),
            (61, 0, 0, 0),
            (62, 2, 0, 0),
            (62, 0, 1, 0),
            (62, 0, 0, 1),
            (62, 1, 3, 0),
        ] {
            tally.record(&ScreenVerdict::Static(SeqOutcome {
                decision: SeqDecision::Continue,
                verdict: BistVerdict {
                    codes_judged,
                    dnl_failures,
                    inl_failures,
                    functional_checks: 3,
                    functional_mismatches,
                    expected_codes: 62,
                    samples: 700,
                },
            }));
        }
        // Dynamic check masks (bits 0–4: complete, SINAD, THD, ENOB,
        // noise): a pass, one failure per check, then SINAD and ENOB
        // together.
        for mask in [
            0b11111, 0b11110, 0b11101, 0b11011, 0b10111, 0b01111, 0b10101,
        ] {
            let checks = DynChecks {
                complete: mask & 1 != 0,
                sinad: mask & 2 != 0,
                thd: mask & 4 != 0,
                enob: mask & 8 != 0,
                noise: mask & 16 != 0,
            };
            tally.record(&ScreenVerdict::Dynamic(SeqOutcome {
                decision: SeqDecision::Continue,
                verdict: DynamicVerdict {
                    sinad_db: 37.0,
                    thd_db: -60.0,
                    enob: 5.9,
                    noise_power_lsb2: 0.08,
                    samples: 4096,
                    expected_samples: 4096,
                    checks,
                },
            }));
        }
        let counts = |r: &Rejections| {
            let dynamic = (r.sinad, r.thd, r.enob, r.noise);
            (r.incomplete, r.dnl, r.inl, r.functional, dynamic)
        };
        assert_eq!(counts(&tally), (2, 2, 2, 1, (2, 1, 2, 1)));
        let mut twice = tally;
        twice.merge(&tally);
        assert_eq!(counts(&twice), (4, 4, 4, 2, (4, 2, 4, 2)));

        // Pinned to the failure counts the separate dynamic result type
        // reported for this population before the two result types
        // were merged.
        let worst = dyn_experiment(30, 0.3).run(0);
        assert_eq!((worst.screened, worst.accepted), (30, 14));
        assert_eq!(counts(&worst.rejections), (0, 0, 0, 0, (16, 1, 16, 0)));
    }
}
