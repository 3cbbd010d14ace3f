//! Thread fan-out for batch experiments, on `bist_core::pool`.
//!
//! Devices are generated from `(seed, index)`, so splitting a batch into
//! index ranges and merging the confusion matrices is exactly equivalent
//! to a sequential run — the tests assert that equivalence. Each worker
//! keeps its own backend (and `Experiment::run_range` its own scratch),
//! so the fan-out multiplies the allocation-free streaming hot path
//! across cores. Ranges come from [`pool::map_ranges`]: workers pull
//! small index ranges from the pool's claim cursor, so a worker that
//! draws a run of cheap devices — early-stopped sequencer sweeps, short
//! records — comes back for more instead of idling behind a contiguous
//! split.

use crate::batch::Batch;
use crate::estimate::Proportion;
use crate::experiment::{Experiment, ExperimentResult};
use bist_adc::spec::LinearitySpec;
use bist_core::pool;
use std::time::Instant;

/// Runs an experiment across `workers` threads, returning the merged
/// result with wall-clock `elapsed`. `workers = 1` degenerates to a
/// sequential sweep; 0 selects the available parallelism.
pub fn run_parallel(experiment: &Experiment, workers: usize) -> ExperimentResult {
    run_parallel_with(experiment, workers, || {
        bist_core::backend::BehavioralBackend
    })
}

/// Runs an experiment across `workers` threads with a per-worker
/// verdict backend built by `make_backend` — the fleet-scale entry
/// point for the gate-accurate RTL datapath (`|| RtlBackend::new()`).
/// Results remain independent of the worker count: devices derive from
/// `(seed, index)` and each backend judges only its own range.
pub fn run_parallel_with<B, F>(
    experiment: &Experiment,
    workers: usize,
    make_backend: F,
) -> ExperimentResult
where
    B: bist_core::backend::Backend,
    F: Fn() -> B + Sync,
{
    // bist-lint: allow(determinism) — wall-clock throughput metadata (elapsed/devices-per-s); never feeds a verdict or report ordering
    let start = Instant::now();
    let size = experiment.batch.size;
    let partials = pool::map_ranges(size, workers, &make_backend, |backend, from, to| {
        experiment.run_range_with(backend, from, to)
    });
    let mut total = ExperimentResult::default();
    for partial in &partials {
        total.merge(partial);
    }
    // Per-range elapsed sums CPU time; report the observed wall-clock so
    // devices/s and samples/s mean what a caller expects of a fan-out.
    total.elapsed = start.elapsed();
    total
}

/// Classifies every device of a batch against `spec` in parallel,
/// returning the good-device proportion — the ground-truth yield sweep
/// used by the yield-anchor experiments.
pub fn classify_parallel(batch: &Batch, spec: &LinearitySpec, workers: usize) -> Proportion {
    let goods = pool::map_ranges(
        batch.size,
        workers,
        || (),
        |_, from, to| {
            (from..to)
                .filter(|&i| spec.classify(&batch.device(i)).good)
                .count() as u64
        },
    );
    Proportion::new(goods.iter().sum(), batch.size as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::types::Resolution;
    use bist_core::config::BistConfig;

    fn experiment(size: usize) -> Experiment {
        let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .build()
            .unwrap();
        Experiment::new(Batch::paper_simulation(29, size), cfg)
    }

    #[test]
    fn parallel_equals_sequential() {
        let exp = experiment(240);
        let seq = exp.run_range(0, 240);
        for workers in [2, 3, 8] {
            let par = run_parallel(&exp, workers);
            assert_eq!(par.matrix, seq.matrix, "workers {workers}");
            assert_eq!(par.samples, seq.samples, "workers {workers}");
        }
    }

    #[test]
    fn single_worker_matches_run() {
        let exp = experiment(50);
        assert_eq!(run_parallel(&exp, 1).matrix, exp.run().matrix);
    }

    #[test]
    fn tiny_batch_falls_back_to_sequential() {
        let exp = experiment(3);
        assert_eq!(run_parallel(&exp, 16).matrix.total(), 3);
    }

    #[test]
    fn zero_workers_uses_available_parallelism() {
        let exp = experiment(64);
        let r = run_parallel(&exp, 0);
        assert_eq!(r.matrix.total(), 64);
    }

    #[test]
    fn rtl_backend_fleet_matches_behavioral() {
        let exp = experiment(60);
        let behavioral = run_parallel(&exp, 2);
        let rtl = run_parallel_with(&exp, 2, bist_core::backend::RtlBackend::new);
        assert_eq!(behavioral.matrix, rtl.matrix);
        assert_eq!(behavioral.samples, rtl.samples);
    }

    #[test]
    fn classify_parallel_matches_sequential() {
        let batch = Batch::paper_simulation(7, 120);
        let spec = LinearitySpec::paper_stringent();
        let seq = classify_parallel(&batch, &spec, 1);
        let par = classify_parallel(&batch, &spec, 4);
        assert_eq!(seq.successes(), par.successes());
        assert_eq!(seq.trials(), par.trials());
    }
}
