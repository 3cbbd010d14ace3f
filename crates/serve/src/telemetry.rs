//! Live service telemetry: monotonically increasing counters bumped on
//! the ingest and verdict paths, snapshotted on demand into the same
//! flat-JSON `{"metrics": {...}}` shape `bist_bench::record_metrics`
//! parses.
//!
//! Every counter is a relaxed atomic: telemetry observes the service,
//! it never synchronizes it — the rings' mutexes order the actual
//! submissions and verdicts, and a snapshot that is a few events stale
//! is exactly as useful as a perfectly coherent one. Wall-clock reads
//! (service uptime, devices/s) are metadata only and never influence a
//! verdict, which is what the inline `allow(determinism)` markers
//! assert.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bist_core::shard::ShardVerdict;
use bist_core::ScreenVerdict;

/// Shared counters for one running service.
#[derive(Debug)]
pub struct Telemetry {
    /// Service start time, for uptime and devices/s metadata.
    start: Instant,
    /// Submissions accepted into the queue.
    submitted: AtomicU64,
    /// Submissions turned away with `Enqueue::Busy`.
    busy: AtomicU64,
    /// Submissions acked `Rejected`: no resident workload screens them,
    /// or the service is shutting down.
    rejected: AtomicU64,
    /// Verdicts streamed back.
    completed: AtomicU64,
    /// Verdicts whose device-level decision was accept.
    accepted_devices: AtomicU64,
    /// Verdicts latched by an early-stop sequencer decision.
    early_stops: AtomicU64,
    /// Completed static-workload devices.
    static_done: AtomicU64,
    /// Completed dynamic-workload devices.
    dyn_done: AtomicU64,
    /// TCP sessions evicted because a write to their client failed or
    /// timed out: the client stopped reading or went away.
    sessions_evicted: AtomicU64,
}

impl Telemetry {
    /// Fresh counters, anchored at the current instant.
    pub fn new() -> Self {
        Telemetry {
            // bist-lint: allow(determinism) — service start anchor for uptime/devices-per-s metadata; never feeds a verdict
            start: Instant::now(),
            submitted: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            accepted_devices: AtomicU64::new(0),
            early_stops: AtomicU64::new(0),
            static_done: AtomicU64::new(0),
            dyn_done: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
        }
    }

    /// Counts one ingest attempt: `accepted` is whether the submission
    /// entered the queue (false = answered `Busy`).
    pub fn count_submit(&self, accepted: bool) {
        let counter = if accepted {
            &self.submitted
        } else {
            &self.busy
        };
        // ORDERING: Relaxed — monitoring counter; nothing reads it to
        // establish happens-before, the submit ring's mutex orders the
        // submissions themselves.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one submission acked `Rejected`.
    pub fn count_rejection(&self) {
        // ORDERING: Relaxed — monitoring counter only.
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one streamed verdict.
    pub fn count_verdict(&self, verdict: &ShardVerdict) {
        // ORDERING: Relaxed — monitoring counters only (see above);
        // verdict delivery is ordered by the reply ring's mutex.
        self.completed.fetch_add(1, Ordering::Relaxed);
        if verdict.verdict.accepted() {
            // ORDERING: Relaxed — monitoring counter only.
            self.accepted_devices.fetch_add(1, Ordering::Relaxed);
        }
        if verdict.verdict.stopped_early() {
            // ORDERING: Relaxed — monitoring counter only.
            self.early_stops.fetch_add(1, Ordering::Relaxed);
        }
        let per_workload = match verdict.verdict {
            ScreenVerdict::Static(_) => &self.static_done,
            ScreenVerdict::Dynamic(_) => &self.dyn_done,
        };
        // ORDERING: Relaxed — monitoring counter only.
        per_workload.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one TCP session evicted because a write to its client
    /// failed or timed out.
    pub fn count_eviction(&self) {
        // ORDERING: Relaxed — monitoring counter only.
        self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Captures the counters into an immutable snapshot. `queue_depth`
    /// and `verdict_depth` are passed in by the service, which owns the
    /// rings and the sessions.
    pub fn snapshot(&self, queue_depth: u64, verdict_depth: u64) -> TelemetrySnapshot {
        // bist-lint: allow(determinism) — uptime/devices-per-s are wall-clock metadata; never feed a verdict or report ordering
        let uptime_seconds = self.start.elapsed().as_secs_f64();
        // ORDERING: Relaxed — snapshot of monitoring counters; a few
        // events of staleness between fields is acceptable by design.
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let completed = load(&self.completed);
        let early_stops = load(&self.early_stops);
        TelemetrySnapshot {
            submitted: load(&self.submitted),
            busy: load(&self.busy),
            rejected: load(&self.rejected),
            completed,
            accepted_devices: load(&self.accepted_devices),
            early_stops,
            static_done: load(&self.static_done),
            dyn_done: load(&self.dyn_done),
            sessions_evicted: load(&self.sessions_evicted),
            queue_depth,
            verdict_depth,
            uptime_seconds,
            devices_per_s: if uptime_seconds > 0.0 {
                completed as f64 / uptime_seconds
            } else {
                0.0
            },
            early_stop_rate: if completed > 0 {
                early_stops as f64 / completed as f64
            } else {
                0.0
            },
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

/// One coherent-enough view of a running service's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySnapshot {
    /// Submissions accepted into the queue.
    pub submitted: u64,
    /// Submissions answered `Busy`.
    pub busy: u64,
    /// Submissions acked `Rejected`.
    pub rejected: u64,
    /// Verdicts streamed back.
    pub completed: u64,
    /// Devices whose verdict was accept.
    pub accepted_devices: u64,
    /// Verdicts latched early by the sequencer.
    pub early_stops: u64,
    /// Completed static-workload devices.
    pub static_done: u64,
    /// Completed dynamic-workload devices.
    pub dyn_done: u64,
    /// TCP sessions evicted because a write to their client failed or
    /// timed out: the client stopped reading or went away.
    pub sessions_evicted: u64,
    /// Submission-queue occupancy at snapshot time.
    pub queue_depth: u64,
    /// Verdicts pending delivery to the snapshotting consumer: the
    /// in-process verdict-ring occupancy for handle snapshots, or the
    /// session's accepted submissions not yet delivered for TCP
    /// snapshots.
    pub verdict_depth: u64,
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// Completed devices per uptime second.
    pub devices_per_s: f64,
    /// Fraction of completed verdicts that stopped early.
    pub early_stop_rate: f64,
}

impl TelemetrySnapshot {
    /// Renders the snapshot as the flat record JSON shape
    /// `bist_bench::record_metrics` parses: one `"metrics"` object of
    /// numeric leaves.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"scenario\": \"bist_serve_telemetry\",\n  \"metrics\": {");
        let u = [
            ("submitted", self.submitted),
            ("busy", self.busy),
            ("rejected", self.rejected),
            ("completed", self.completed),
            ("accepted_devices", self.accepted_devices),
            ("early_stops", self.early_stops),
            ("static_done", self.static_done),
            ("dyn_done", self.dyn_done),
            ("sessions_evicted", self.sessions_evicted),
            ("queue_depth", self.queue_depth),
            ("verdict_depth", self.verdict_depth),
        ];
        let mut first = true;
        for (k, v) in u {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    \"{k}\": {v}"));
        }
        let f = [
            ("uptime_seconds", self.uptime_seconds),
            ("devices_per_s", self.devices_per_s),
            ("early_stop_rate", self.early_stop_rate),
        ];
        for (k, v) in f {
            s.push_str(&format!(",\n    \"{k}\": {v:?}"));
        }
        s.push_str("\n  }\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_flat_metrics() {
        let t = Telemetry::new();
        t.count_submit(true);
        t.count_submit(false);
        let snap = t.snapshot(3, 1);
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.busy, 1);
        assert_eq!(snap.queue_depth, 3);
        let json = snap.to_json();
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"submitted\": 1"));
        assert!(json.contains("\"queue_depth\": 3"));
        assert!(json.contains("\"devices_per_s\""));
    }

    #[test]
    fn rates_guard_zero_denominators() {
        let t = Telemetry::new();
        let snap = t.snapshot(0, 0);
        assert_eq!(snap.early_stop_rate, 0.0);
        assert!(snap.devices_per_s.is_finite());
    }
}
