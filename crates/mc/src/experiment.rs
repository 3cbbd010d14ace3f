//! Batch experiments: screen a device batch under the §4/§5 static
//! linearity ramp and account the outcome against ground truth.
//!
//! Each pool worker streams the device ranges it claims through one
//! [`Screener`] and the behavioural backend's batch hook (the run-skip
//! sweep of [`bist_core::batch`]), so screening a device is
//! allocation-free after warm-up. The one [`ExperimentResult`] carries
//! the accept tally, the ADC samples consumed, a [`Rejections`] tally
//! by failed check and the type I/II confusion matrix.

use crate::batch::Batch;
use crate::estimate::Proportion;
use bist_adc::noise::NoiseConfig;
use bist_core::batch::BatchDevice;
use bist_core::config::BistConfig;
use bist_core::decision::ConfusionMatrix;
use bist_core::harness::{conventional_test, reference_measurement, BistVerdict};
use bist_core::pool;
use bist_core::screener::{ScreenVerdict, Screener, Workload};
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
/// static test plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Experiment {
    /// The device batch.
    pub batch: Batch,
    /// The test plan under evaluation.
    pub config: BistConfig,
    /// Acquisition noise applied to every device.
    pub noise: NoiseConfig,
    /// Relative ramp slope error — the paper's "slightly too steep"
    /// measurement ramp.
    pub slope_error: f64,
    /// Ground-truth procedure.
    pub ground_truth: GroundTruthMode,
}

impl Experiment {
    /// A noiseless, ideal-slope experiment with exact ground truth.
    pub fn new(batch: Batch, config: BistConfig) -> Self {
        Experiment {
            batch,
            config,
            noise: NoiseConfig::noiseless(),
            slope_error: 0.0,
            ground_truth: GroundTruthMode::Exact,
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

    /// Sets the relative ramp slope error.
    pub fn with_slope_error(mut self, err: f64) -> Self {
        self.slope_error = err;
        self
    }

    /// The workload every device is screened under.
    fn workload(&self) -> Workload {
        Workload::static_ramp(self.config)
            .with_noise(self.noise)
            .with_slope_error(self.slope_error)
    }

    /// Screens device indices `[from, to)` (clamped to the batch) on
    /// `screener`, built for this experiment's workload — the unit of
    /// work for the fan-out. Device `i` is `batch.device(i)`, its
    /// acquisition RNG (after any reference-measurement truth draws)
    /// `batch.device_rng(i ^ 0x5eed_0000_0000_0000)`, so the result is
    /// independent of how the batch is split.
    fn run_range(&self, screener: &mut Screener, from: usize, to: usize) -> ExperimentResult {
        let to = to.min(self.batch.size);
        let mut truths = Vec::with_capacity(to.saturating_sub(from));
        let devices = (from..to).map(|i| {
            let tf = self.batch.device(i);
            let mut rng = self.batch.device_rng(i ^ 0x5eed_0000_0000_0000);
            truths.push(match self.ground_truth {
                GroundTruthMode::Exact => self.config.spec().classify(&tf).good,
                GroundTruthMode::Reference { samples_per_code } => reference_measurement(
                    &tf,
                    self.config.spec(),
                    samples_per_code,
                    &NoiseConfig::noiseless(),
                    &mut rng,
                )
                .map(|v| v.accepted)
                .unwrap_or(false),
            });
            BatchDevice::new(i, tf, rng)
        });
        let mut reports = Vec::with_capacity(to.saturating_sub(from));
        screener.screen(devices, &mut reports);
        let mut result = ExperimentResult::default();
        for (report, &truth_good) in reports.iter().zip(&truths) {
            let verdict = &report.verdict;
            let ScreenVerdict::Static(outcome) = verdict else {
                unreachable!("a static workload reports static verdicts");
            };
            result.matrix.record(truth_good, verdict.accepted());
            result.rejections.record(&outcome.verdict);
            result.count(verdict.accepted(), verdict.samples());
        }
        result
    }

    /// Runs the whole batch across `workers` threads (0 = available
    /// parallelism; 1 = a sequential sweep), one screener per worker kept
    /// across the ranges it claims. The merged result is bit-identical
    /// to a sequential sweep for any worker count.
    pub fn run(&self, workers: usize) -> ExperimentResult {
        let partials = pool::map_ranges(
            self.batch.size,
            workers,
            || Screener::new(self.workload()),
            |screener, from, to| self.run_range(screener, from, to),
        );
        let mut total = ExperimentResult::default();
        for partial in &partials {
            total.merge(partial);
        }
        total
    }
}

/// Rejected devices by failed check. Counts are non-exclusive: a device
/// failing two checks increments both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rejections {
    /// Devices whose sweep did not complete.
    pub incomplete: u64,
    /// Devices with a DNL window failure.
    pub dnl: u64,
    /// Devices with an INL window failure.
    pub inl: u64,
    /// Devices with a functional (upper-bit) mismatch.
    pub functional: u64,
}

impl Rejections {
    /// Tallies the failed checks of one verdict.
    pub fn record(&mut self, v: &BistVerdict) {
        self.incomplete += u64::from(!v.complete());
        self.dnl += u64::from(v.dnl_failures > 0);
        self.inl += u64::from(v.inl_failures > 0);
        self.functional += u64::from(v.functional_mismatches > 0);
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &Rejections) {
        self.incomplete += other.incomplete;
        self.dnl += other.dnl;
        self.inl += other.inl;
        self.functional += other.functional;
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
    /// The confusion matrix against ground truth.
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
    use bist_adc::spec::LinearitySpec;
    use bist_adc::types::Resolution;

    /// Screens `[from, to)` of `exp` on a fresh screener: one range of
    /// the fan-out, run alone.
    fn run_range_alone(exp: &Experiment, from: usize, to: usize) -> ExperimentResult {
        exp.run_range(&mut Screener::new(exp.workload()), from, to)
    }

    fn config(bits: u32) -> BistConfig {
        BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(bits)
            .build()
            .unwrap()
    }

    fn static_experiment(seed: u64, size: usize, bits: u32) -> Experiment {
        Experiment::new(Batch::paper_simulation(seed, size), config(bits))
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

    #[test]
    fn results_independent_of_workers_and_ranges() {
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
            // More workers than devices falls back to one range.
            ("static, 3 devices", static_experiment(29, 3, 5), &[16]),
        ];
        for (label, exp, workers) in &rows {
            // Two split-and-merged ranges — the second overshooting the
            // batch end, so range clamping is checked too — and the
            // fan-out at each worker count equal the sequential sweep.
            let n = exp.batch.size;
            let reference = run_range_alone(exp, 0, n);
            assert_eq!(reference.screened, n as u64, "{label}");
            let mut split = run_range_alone(exp, 0, n / 3);
            split.merge(&run_range_alone(exp, n / 3, n + 1000));
            assert_eq!(split, reference, "{label}: split ranges");
            for &w in *workers {
                assert_eq!(exp.run(w), reference, "{label} / {w} workers");
            }
            // The ground-truth yield sweep counts exactly the good
            // devices of the exact-truth matrix, for any worker count.
            if exp.ground_truth == GroundTruthMode::Exact {
                for &w in *workers {
                    let good = exp.batch.classify(exp.config.spec(), w);
                    let expected = Proportion::new(reference.matrix.good(), n as u64);
                    assert_eq!(good, expected, "{label}");
                }
            }
        }
    }

    #[test]
    fn run_range_partitions_consistently() {
        let exp = static_experiment(5, 100, 5);
        let whole = exp.run(0);
        let mut parts = run_range_alone(&exp, 0, 40);
        parts.merge(&run_range_alone(&exp, 40, 100));
        assert_eq!(whole, parts);
    }

    #[test]
    fn range_clamps_to_batch() {
        let exp = static_experiment(5, 10, 5);
        let r = run_range_alone(&exp, 0, 1000);
        assert_eq!(r.matrix.total(), 10);
        assert_eq!(r.screened, 10);
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
    fn rejections_tally_each_failed_check() {
        let mut tally = Rejections::default();
        // Verdicts as (codes judged, DNL, INL, functional mismatches)
        // against 62 expected codes: a pass, one failure per check, then
        // DNL and INL together.
        for (codes_judged, dnl_failures, inl_failures, functional_mismatches) in [
            (62, 0, 0, 0),
            (61, 0, 0, 0),
            (62, 2, 0, 0),
            (62, 0, 1, 0),
            (62, 0, 0, 1),
            (62, 1, 3, 0),
        ] {
            tally.record(&BistVerdict {
                codes_judged,
                dnl_failures,
                inl_failures,
                functional_checks: 3,
                functional_mismatches,
                expected_codes: 62,
                samples: 700,
            });
        }
        let counts = |r: &Rejections| (r.incomplete, r.dnl, r.inl, r.functional);
        assert_eq!(counts(&tally), (1, 2, 2, 1));
        let mut twice = tally;
        twice.merge(&tally);
        assert_eq!(counts(&twice), (2, 4, 4, 2));
    }
}
