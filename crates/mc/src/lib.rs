//! # bist-mc
//!
//! Monte-Carlo experiment engine for the `adc-bist` reproduction of
//! R. de Vries et al., *Built-In Self-Test Methodology for A/D
//! Converters* (ED&TC 1997).
//!
//! * [`batch`] — seeded device batches: iid-width devices (the paper's
//!   simulation model) and physical flash devices (the stand-in for its
//!   364 measured parts), plus rare-event conditional sampling and the
//!   parallel ground-truth yield sweep ([`batch::Batch::classify`]).
//! * [`experiment`] — one [`experiment::Experiment`]: a batch screened
//!   under a static test plan, with type I/II against ground truth. Each
//!   pool worker (`bist_core::pool`) streams its device ranges through
//!   one reusable `Screener`, so the hot path allocates
//!   nothing after warm-up and results are independent of the worker
//!   count. One [`experiment::ExperimentResult`] carries the accept
//!   tally, the ADC samples consumed, rejections by failed check and
//!   the confusion matrix.
//! * [`differential`] — the behavioural↔RTL seam validator: one
//!   device-outer loop screens every device through the engine fleets
//!   run, once per backend, on identical code streams and demands that
//!   the two latch the same decision and agree on the verdict. One
//!   result type serves every grid: one [`differential::Cell`] enum
//!   names each cell and one [`differential::CellTally`] counts its
//!   agreements, early stops, type I/II drift against the full-sweep
//!   ground truth and samples-to-decision (an unsequenced grid is its
//!   own ground truth, so it reads no drift and a 1.00x reduction).
//!   Four grids run through it: static
//!   ([`differential::run_differential`], bit-exact verdicts), dynamic
//!   ([`differential::run_dyn_differential`], decision-exact between the
//!   Goertzel bank and the fixed-point RTL), sequenced
//!   ([`differential::run_seq_differential`]) and per-architecture
//!   ([`differential::run_arch_differential`]). Sweep cells rejected by
//!   config validation are recorded as skipped, never screened.
//! * [`estimate`] — Wilson confidence intervals for the error rates.
//! * [`tables`] — the drivers that regenerate Table 1, Table 2 and
//!   Figure 7.
//!
//! ## Example: a miniature Table-1 cell
//!
//! ```
//! use bist_adc::spec::LinearitySpec;
//! use bist_adc::types::Resolution;
//! use bist_core::config::BistConfig;
//! use bist_mc::batch::Batch;
//! use bist_mc::experiment::Experiment;
//!
//! # fn main() -> Result<(), bist_core::limits::PlanLimitsError> {
//! let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
//!     .counter_bits(4)
//!     .build()?;
//! let batch = Batch::paper_simulation(1, 200);
//! let result = Experiment::new(batch, cfg).run(0);
//! println!("type I = {}", result.type_i());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod differential;
pub mod estimate;
pub mod experiment;
pub mod tables;

pub use batch::Batch;
pub use estimate::Proportion;
pub use experiment::{Experiment, ExperimentResult, GroundTruthMode, Rejections};

/// Worker fan-out checks: [`Experiment::run`] and [`Batch::classify`]
/// across worker counts against sequential sweeps.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::{Batch, Experiment};
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
            let seq = exp.run(1);
            for workers in [2, 3, 8] {
                let par = exp.run(workers);
                assert_eq!(par, seq, "workers {workers}");
            }
        }

        #[test]
        fn single_worker_matches_run() {
            let exp = experiment(50);
            assert_eq!(exp.run(1), exp.run(0));
        }

        #[test]
        fn tiny_batch_falls_back_to_sequential() {
            let exp = experiment(3);
            assert_eq!(exp.run(16).matrix.total(), 3);
        }

        #[test]
        fn zero_workers_uses_available_parallelism() {
            let exp = experiment(64);
            let r = exp.run(0);
            assert_eq!(r.matrix.total(), 64);
        }

        #[test]
        fn classify_parallel_matches_sequential() {
            let batch = Batch::paper_simulation(7, 120);
            let spec = LinearitySpec::paper_stringent();
            let seq = batch.classify(&spec, 1);
            let par = batch.classify(&spec, 4);
            assert_eq!(seq, par);
        }
    }
}
