//! # bist-core
//!
//! The built-in self-test methodology of R. de Vries, T. Zwemstra,
//! E.M.J.G. Bruls and P.P.L. Regtien, *Built-In Self-Test Methodology
//! for A/D Converters*, ED&TC 1997 — the primary contribution of this
//! reproduction.
//!
//! The method tests an A/D converter's **static linearity on-chip** by
//! monitoring only its least-significant bit while a slow ramp sweeps the
//! input: the sample count between LSB transitions *is* the code width in
//! units of `Δs = U/f_sample` (Eq. 5), so a counter plus a window
//! comparator performs the DNL test (Eqs. 3–4) and an accumulator the INL
//! test, while the remaining bits are verified by a counter clocked on
//! the LSB's falling edge (Figure 2). Faster stimuli need `q_min > 1`
//! off-chip bits (Eqs. 1–2).
//!
//! Modules:
//!
//! * [`config`] — [`config::BistConfig`]: spec + counter size + Δs.
//! * [`limits`] — Eqs. 3–5 (count window, step size, slope planning).
//! * [`qmin`] — Eqs. 1–2 (partial-BIST planning).
//! * [`lsb_monitor`] / [`functional`] — behavioural reference models of
//!   the Figure-4 and Figure-2 blocks (bit-exact vs `bist-rtl`), each
//!   exposed as a streaming accumulator consuming one sample at a time.
//! * [`analytic`] — the §3 error theory (Eqs. 6–12): trapezoid
//!   acceptance, Gaussian widths, per-code and device-level type I/II.
//! * [`yield_model`] — parametric yield (the 30 % / 1.4×10⁻⁴ anchors).
//! * [`harness`] — BIST vs reference vs conventional test execution as
//!   a fused single-pass pipeline (stimulus → code stream →
//!   accumulators), with a reusable [`harness::Scratch`] making the
//!   per-device hot path allocation-free.
//! * [`backend`] — the one pluggable verdict seam ([`backend::Backend`])
//!   for that pipeline: the behavioural accumulators or the
//!   gate-accurate `bist-rtl` datapath ([`backend::RtlBackend`]),
//!   bit-exact with each other, over scalar devices and whole batches.
//! * [`batch`] — the engine a [`screener::Screener`] owns, which holds
//!   no devices: each [`batch::BatchDevice`] of a stream screened to
//!   completion, with run-skipping on noiseless ramps, a shared sine
//!   table and an 8-device coded Goertzel kernel — bit-exact to the
//!   scalar engines, several times faster.
//! * [`pool`] — the cores axis: a scoped worker pool where each worker
//!   owns a screener and streams the small device chunks it claims from
//!   a shared atomic-cursor queue, merging reports by device index so
//!   output is bit-identical for any worker count.
//! * [`ring`] / [`shard`] — the resident-service substrate consumed by
//!   `bist-serve`: a bounded MPMC ring with explicit backpressure
//!   ([`ring::Enqueue`]), the [`shard::JobKind`] a submission is routed
//!   by and the id-tagged [`shard::ShardVerdict`] that streams back.
//! * [`source`] — the device-generation seam next to the front door:
//!   the `Copy` [`source::SourceSpec`] over the four device models
//!   (flash, iid-widths, SAR, pipeline) and the
//!   [`source::DeviceSource`] trait it implements, mixed-architecture
//!   [`source::Zoo`] fleets with a stable per-device
//!   `(seed, index) → (arch, rng)` assignment, and the canonical
//!   seeded-stream derivations ([`source::stream_rng`]).
//! * [`screener`] — [`screener::Screener`], the one screening type: a
//!   builder for workload × backend × sequencing × worker count and the
//!   warm engine over a fleet, a device stream or a single device.
//! * [`dynamic`] — the §2 dynamic workload as a streaming subsystem:
//!   coherent sine stimulus → code stream → Goertzel-bank accumulation
//!   → SINAD/THD/ENOB/noise-power [`dynamic::DynamicVerdict`], judged
//!   through the same backend seam (behavioural bank or fixed-point
//!   `bist_rtl::DynBistTop`).
//! * [`sequencer`] — uncertainty-guided early-stop sequencing over
//!   both workloads: Welford-based confidence estimates on the
//!   streaming accumulators let a sweep accept or reject long before
//!   the full ramp/record, with configurable type I/II drift budgets,
//!   and both backends stop at the identical sample index.
//! * [`decision`] — confusion-matrix accounting of type I/II errors.
//! * [`report`] — text tables for the experiment binaries.
//!
//! ## Example: screen a mismatched flash converter
//!
//! ```
//! use bist_adc::flash::FlashConfig;
//! use bist_adc::spec::LinearitySpec;
//! use bist_adc::transfer::Adc;
//! use bist_adc::types::Resolution;
//! use bist_core::config::BistConfig;
//! use bist_core::screener::{Screener, Workload};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), bist_core::limits::PlanLimitsError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let device = FlashConfig::paper_device().sample(&mut rng);
//!
//! let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
//!     .counter_bits(4) // the paper's smallest counter
//!     .build()?;
//! let verdict = Screener::new(Workload::static_ramp(cfg)).screen_one(&device, &mut rng);
//!
//! // Compare the BIST verdict with the true classification.
//! let truth = LinearitySpec::paper_stringent()
//!     .classify(&device.transfer().expect("flash states its transfer"));
//! println!("BIST {} vs truth {}", verdict.accepted(), truth.good);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod backend;
pub mod batch;
pub mod config;
pub mod decision;
pub mod dynamic;
pub mod economics;
pub mod functional;
pub mod harness;
pub mod limits;
pub mod lsb_monitor;
pub mod pool;
pub mod qmin;
pub mod report;
pub mod ring;
pub mod screener;
pub mod sequencer;
pub mod shard;
pub mod source;
pub mod static_params;
pub mod yield_model;

pub use analytic::{
    acceptance_probability, code_probabilities, device_probabilities, WidthDistribution,
};
pub use backend::{Backend, BehavioralBackend, RtlBackend};
pub use batch::BatchDevice;
pub use config::BistConfig;
pub use decision::ConfusionMatrix;
pub use dynamic::{DynChecks, DynScratch, DynamicConfig, DynamicLimits, DynamicVerdict};
pub use harness::{BistOutcome, BistVerdict, Scratch};
pub use limits::CountLimits;
pub use qmin::QminPlan;
pub use ring::{Enqueue, Ring};
pub use screener::{ScreenReport, ScreenVerdict, Screener, Workload};
pub use sequencer::{DynSequencer, SeqDecision, SeqOutcome, SequencerConfig, StaticSequencer};
pub use shard::{JobKind, ShardVerdict};
pub use source::{Architecture, DeviceSource, DnlSignature, IidWidthSource, SourceSpec, Zoo};
pub use yield_model::YieldModel;
