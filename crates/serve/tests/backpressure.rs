//! The backpressure contract: a full submission queue answers `Busy`
//! handing the submission back, queue depth stays bounded, nothing is
//! ever lost, and shutdown completes every in-flight device.

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::ring::Enqueue;
use bist_core::screener::Workload;
use bist_core::sequencer::SequencerConfig;
use bist_mc::batch::Batch;
use bist_serve::{JobKind, ServiceConfig, Submission};

fn static_workload() -> Workload {
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()
        .expect("paper-range counter");
    Workload::static_ramp(config)
}

fn submissions(n: usize) -> Vec<Submission> {
    let batch = Batch::paper_simulation(97, n);
    (0..n)
        .map(|i| Submission {
            id: i as u64,
            kind: JobKind::Static,
            adc: batch.device(i),
            seed: i as u64,
        })
        .collect()
}

/// With a 2-slot queue, a 1-slot verdict ring and one worker, at most
/// four devices fit in the pipeline — flooding ten must answer `Busy`,
/// hand each turned-away submission back intact, keep the queue depth
/// bounded, and still deliver every verdict exactly once after a
/// drain-and-retry loop.
#[test]
fn full_queue_returns_busy_then_drains_without_loss() {
    const FLEET: usize = 10;
    let handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .with_burst(1)
        .with_submit_capacity(2)
        .with_verdict_capacity(1)
        .start();

    let mut busy_responses = 0u64;
    let mut received = Vec::new();
    for sub in submissions(FLEET) {
        let mut pending = sub;
        loop {
            let depth = handle.telemetry().queue_depth;
            assert!(depth <= 2, "queue depth {depth} exceeded its bound");
            let submitted_id = pending.id;
            match handle.submit(pending) {
                Enqueue::Accepted => break,
                Enqueue::Busy(back) => {
                    busy_responses += 1;
                    assert_eq!(back.id, submitted_id, "Busy hands the same submission back");
                    // Draining one verdict frees pipeline space.
                    let v = handle.recv_verdict().expect("stream open");
                    received.push(v.id);
                    pending = back;
                }
                Enqueue::Closed(_) => panic!("service closed mid-test"),
            }
        }
    }
    assert!(
        busy_responses > 0,
        "a 10-device flood through a 4-slot pipeline must hit Busy"
    );
    while received.len() < FLEET {
        received.push(handle.recv_verdict().expect("stream open").id);
    }
    received.sort_unstable();
    let expect: Vec<u64> = (0..FLEET as u64).collect();
    assert_eq!(
        received, expect,
        "every accepted device verdicts exactly once"
    );

    let report = handle.shutdown();
    assert_eq!(report.telemetry.completed, FLEET as u64);
    assert_eq!(report.telemetry.busy, busy_responses);
    assert!(report.verdicts.is_empty());
}

/// Shutdown closes the front door but completes everything already
/// accepted: the drain report carries every unreceived verdict.
#[test]
fn shutdown_completes_in_flight_devices() {
    const FLEET: usize = 16;
    let handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(2)
        .start();
    for sub in submissions(FLEET) {
        assert!(handle.submit(sub).is_accepted());
    }
    let report = handle.shutdown();
    let mut ids: Vec<u64> = report.verdicts.iter().map(|v| v.id).collect();
    ids.sort_unstable();
    let expect: Vec<u64> = (0..FLEET as u64).collect();
    assert_eq!(ids, expect, "shutdown must drain every in-flight device");
    assert_eq!(report.telemetry.completed, FLEET as u64);
    assert_eq!(report.telemetry.queue_depth, 0);
}

/// `Busy` hands the submission back unchanged — never a dropped device.
#[test]
fn busy_returns_the_submission_intact() {
    let handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .with_burst(1)
        .with_submit_capacity(1)
        .with_verdict_capacity(1)
        .start();
    let subs = submissions(8);
    let mut bounced = None;
    for sub in &subs {
        if let Enqueue::Busy(back) = handle.submit(sub.clone()) {
            bounced = Some(back);
            break;
        }
    }
    let back = bounced.expect("a 1-slot queue must bounce one of eight");
    assert!(
        subs.contains(&back),
        "Busy must return the submission unchanged"
    );
    handle.shutdown();
}

/// An invalid sequencer policy used to leave every worker panicking
/// while `submit` still answered `Accepted`, so no verdict ever
/// arrived. `start` must refuse such a config on the caller's thread,
/// before any worker spawns.
#[test]
fn invalid_sequencer_is_rejected_at_start() {
    let config = ServiceConfig::new()
        .with_workload(static_workload())
        .with_sequencer(SequencerConfig {
            check_interval: 0,
            ..SequencerConfig::default()
        });
    let started = std::panic::catch_unwind(|| config.with_workers(1).start());
    assert!(started.is_err(), "started with {config:?}");
}
