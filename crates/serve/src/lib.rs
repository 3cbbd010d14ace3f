//! # bist-serve
//!
//! The resident fleet-screening service: the production shape of the
//! paper's BIST methodology. Where [`bist_core::screener::Screener`]
//! screens one fleet per call, this crate keeps the screening engines
//! resident and ingests device submissions continuously — in-process
//! through [`ServiceHandle::submit`] or over a length-prefixed
//! localhost TCP protocol ([`protocol`]) — streaming each verdict back
//! the moment it latches.
//!
//! Three invariants define the service:
//!
//! 1. **Bounded everywhere.** Submissions and in-process verdicts
//!    travel through fixed-capacity rings ([`bist_core::ring::Ring`]),
//!    and a TCP session's verdicts are written straight to its socket;
//!    overload surfaces as [`Enqueue::Busy`] with the submission handed
//!    back — memory never grows without bound and an accepted device
//!    is never dropped.
//! 2. **Allocation-free steady state.** Each worker owns one
//!    [`Screener`](bist_core::screener::Screener) per resident
//!    workload, screens each burst in place, and keeps its screeners
//!    and buffers warm between bursts (proven by the counting-allocator test in the
//!    workspace's `tests/zero_alloc.rs`).
//! 3. **Worker-count determinism.** Verdicts are tagged with
//!    submission ids and each is bit-identical to what
//!    [`Screener::run`](bist_core::screener::Screener::run) reports
//!    for the same device, whatever the arrival order, burst grouping
//!    or worker count — gated continuously by the `service_soak` bench
//!    bin's `report_checksum`.
//!
//! ```
//! use bist_adc::spec::LinearitySpec;
//! use bist_adc::transfer::TransferFunction;
//! use bist_adc::types::{Resolution, Volts};
//! use bist_core::config::BistConfig;
//! use bist_core::shard::JobKind;
//! use bist_core::Workload;
//! use bist_serve::{ServiceConfig, Submission};
//!
//! let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
//!     .counter_bits(5)
//!     .build()
//!     .unwrap();
//! let handle = ServiceConfig::new()
//!     .with_workload(Workload::static_ramp(config))
//!     .with_workers(2)
//!     .start();
//! for id in 0..4u64 {
//!     let adc = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
//!     let enq = handle.submit(Submission { id, kind: JobKind::Static, adc, seed: id });
//!     assert!(enq.is_accepted());
//! }
//! let mut seen = 0;
//! while seen < 4 {
//!     let verdict = handle.recv_verdict().expect("stream open");
//!     assert!(verdict.verdict.accepted());
//!     seen += 1;
//! }
//! let report = handle.shutdown();
//! assert_eq!(report.telemetry.completed, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod protocol;
pub mod service;
pub mod telemetry;

pub use bist_core::ring::Enqueue;
pub use bist_core::shard::{JobKind, ShardVerdict};
pub use protocol::{AckStatus, ClientFrame, ProtoError, ServerFrame};
pub use service::{submission_rng, DrainReport, ServiceConfig, ServiceHandle, Submission};
pub use telemetry::{Telemetry, TelemetrySnapshot};
