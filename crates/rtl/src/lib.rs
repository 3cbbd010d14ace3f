//! # bist-rtl
//!
//! Cycle-accurate digital-hardware models of the on-chip BIST circuitry
//! from R. de Vries et al., *Built-In Self-Test Methodology for A/D
//! Converters* (ED&TC 1997).
//!
//! The paper argues its method needs only "simple digital functions" on
//! chip; this crate makes that concrete by building those functions at
//! register-transfer level and costing them in gate equivalents:
//!
//! * [`logic`] / [`sim`] — width-checked buses, clock, ASCII waveform
//!   tracer.
//! * [`registers`] — DFF, shift register, MISR (signature
//!   compaction).
//! * [`counter`] — the n-bit saturating sample counter (the paper's cost
//!   knob, swept 4–7 bits).
//! * [`edge`] / [`deglitch`] — LSB synchroniser/edge detector and the §3
//!   majority-vote toggle filter.
//! * [`window_compare`] / [`accumulator`] — the DNL window check
//!   (Eqs. 3–4) and on-chip INL accumulation.
//! * [`datapath`] — the full Figure-4 LSB processor and Figure-2
//!   upper-bit functional checker.
//! * [`dyn_top`] — the dynamic-test top level: a fixed-point Goertzel
//!   bank plus exact integer power accumulators for the §2 THD /
//!   noise-power parameters, one code per tick.
//! * [`area`] — gate-equivalent area model feeding the Figure-1
//!   trade-off experiment.
//!
//! ## Example
//!
//! ```
//! use bist_rtl::datapath::{LsbProcessor, LsbProcessorConfig};
//!
//! let mut bist = LsbProcessor::new(LsbProcessorConfig {
//!     counter_bits: 4,
//!     i_min: 6,
//!     i_max: 15,
//!     i_ideal: 11,
//!     inl_limit_counts: None,
//!     deglitch: false,
//! });
//! // Feed an LSB stream: 11-sample runs are in-window codes.
//! let mut results = Vec::new();
//! for i in 0..110 {
//!     if let Some(m) = bist.tick((i / 11) % 2 == 1) {
//!         results.push(m);
//!     }
//! }
//! assert!(results.iter().all(|m| m.dnl_verdict.is_pass()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulator;
pub mod area;
pub mod counter;
pub mod datapath;
pub mod deglitch;
pub mod dyn_top;
pub mod edge;
pub mod logic;
pub mod registers;
pub mod sim;
pub mod top;
pub mod window_compare;

pub use counter::Counter;
pub use datapath::{CodeMeasurement, LsbProcessor, LsbProcessorConfig, UpperBitChecker};
pub use dyn_top::{DynBistReport, DynBistTop, DynBistTopConfig, RegisterOverflowError};
pub use logic::Bus;
pub use top::{BistReport, BistTop, BistTopConfig};
pub use window_compare::{WindowComparator, WindowVerdict};
