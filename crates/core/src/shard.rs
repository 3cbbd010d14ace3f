//! The tags of the resident screening service (`bist-serve`): which
//! engine a submission is routed to, and the id-tagged verdict that
//! streams back.
//!
//! Because every engine verdict is bit-identical to the scalar screener
//! for any device order and any split of the fleet across calls (the
//! batch-equivalence property), any arrival order, burst grouping, or
//! worker count yields the same per-id verdicts as one
//! [`crate::screener::Screener::run`] pass.

use crate::screener::ScreenVerdict;

/// Which engine a submission is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// The static LSB-monitor linearity test.
    Static,
    /// The dynamic (coherent sine) spectral test.
    Dynamic,
}

/// One streamed verdict, tagged with the submission id it answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardVerdict {
    /// The id of the submission this verdict answers.
    pub id: u64,
    /// The device's decision and verdict — bit-identical to what
    /// [`crate::screener::Screener::run`] reports for the same device.
    pub verdict: ScreenVerdict,
}
