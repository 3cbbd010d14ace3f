//! # bist-mc
//!
//! Monte-Carlo experiment engine for the `adc-bist` reproduction of
//! R. de Vries et al., *Built-In Self-Test Methodology for A/D
//! Converters* (ED&TC 1997).
//!
//! * [`batch`] — seeded device batches: iid-width devices (the paper's
//!   simulation model) and physical flash devices (the stand-in for its
//!   364 measured parts), plus rare-event conditional sampling.
//! * [`experiment`] — run the BIST/reference/conventional tests over a
//!   batch and account type I/II errors plus throughput (devices/s,
//!   samples/s). Each device is screened by the streaming engine
//!   (stimulus → code stream → accumulators) with a per-worker
//!   `Scratch`, so the hot path allocates nothing after warm-up. The
//!   verdict backend is pluggable
//!   ([`experiment::Experiment::run_range_with`]): the behavioural
//!   accumulators by default, or the gate-accurate `bist-rtl` datapath.
//! * [`differential`] — the behavioural↔RTL seam validator: one
//!   device-outer loop sweeps both backends over identical code streams
//!   at fleet scale and demands that they latch the same decision and
//!   agree on the verdict. Four grids run through it: static
//!   ([`differential::run_differential`], bit-exact verdicts), dynamic
//!   ([`differential::run_dyn_differential`], decision-exact between the
//!   Goertzel bank and the fixed-point RTL), sequenced
//!   ([`differential::run_seq_differential`], early-stop latches scored
//!   against full-sweep ground truth for type I/II drift and
//!   samples-to-decision) and per-architecture
//!   ([`differential::run_arch_differential`]). Sweep cells rejected by
//!   config validation are recorded as skipped, never screened.
//!   [`experiment::DynExperiment`] is the dynamic fleet-screening entry
//!   point with throughput accounting.
//! * [`parallel`] — deterministic thread fan-out
//!   ([`parallel::run_parallel`], the default under
//!   [`experiment::Experiment::run`]; [`parallel::run_parallel_with`]
//!   for a per-worker backend) and the generic range partitioner
//!   behind it.
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
//! let result = Experiment::new(Batch::paper_simulation(1, 200), cfg).run();
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
pub mod parallel;
pub mod tables;

pub use batch::Batch;
pub use differential::{DifferentialResult, Divergence, SeqDifferentialResult};
pub use estimate::Proportion;
pub use experiment::{
    DynExperiment, DynExperimentResult, Experiment, ExperimentResult, GroundTruthMode,
    InvalidCellError,
};
pub use parallel::{run_parallel, run_parallel_with};
