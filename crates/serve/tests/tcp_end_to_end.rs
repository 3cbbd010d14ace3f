//! Full TCP round trips against a live service: submissions go out as
//! length-prefixed frames, acks and verdicts stream back, telemetry
//! arrives as flat perf-record JSON, and `Done` elicits `Finished`
//! only after every accepted verdict has been delivered.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use bist_core::config::BistConfig;
use bist_core::dynamic::DynamicConfig;
use bist_core::screener::{Screener, Workload};
use bist_mc::batch::Batch;
use bist_serve::protocol::{read_frame, write_frame};
use bist_serve::{
    submission_rng, AckStatus, ClientFrame, JobKind, ServerFrame, ServiceConfig, Submission,
};

fn static_workload() -> Workload {
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()
        .expect("paper-range counter");
    Workload::static_ramp(config)
}

fn dyn_workload() -> Workload {
    Workload::dynamic_sine(DynamicConfig::new(Resolution::SIX_BIT, 512, 127).expect("coherent"))
}

fn send(stream: &mut TcpStream, frame: &ClientFrame) {
    let mut payload = Vec::new();
    frame.encode(&mut payload);
    write_frame(stream, &payload).expect("write frame");
    stream.flush().expect("flush");
}

fn recv(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Option<ServerFrame> {
    let bytes = read_frame(stream, buf).expect("read frame")?;
    Some(ServerFrame::decode(bytes).expect("decode server frame"))
}

/// Eight mixed devices over TCP: every submission acked `Accepted`,
/// every verdict bit-identical to `Screener::run`, telemetry parseable,
/// `Finished` after the last verdict.
#[test]
fn tcp_session_streams_reference_verdicts() {
    const N_STATIC: usize = 5;
    const N_DYN: usize = 3;
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workload(dyn_workload())
        .with_workers(2)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    let batch = Batch::paper_simulation(1997, N_STATIC + N_DYN);
    let subs: Vec<Submission> = (0..N_STATIC + N_DYN)
        .map(|i| Submission {
            id: i as u64,
            kind: if i < N_STATIC {
                JobKind::Static
            } else {
                JobKind::Dynamic
            },
            adc: batch.device(i),
            seed: 7 + i as u64,
        })
        .collect();

    // Reference verdicts from the one-shot engine, keyed by id.
    let mut expect = Vec::new();
    for (workload, kind) in [
        (static_workload(), JobKind::Static),
        (dyn_workload(), JobKind::Dynamic),
    ] {
        let group: Vec<&Submission> = subs.iter().filter(|s| s.kind == kind).collect();
        let reports = Screener::new(workload).run(
            group
                .iter()
                .map(|s| (s.adc.clone(), submission_rng(s.seed))),
        );
        for report in reports {
            expect.push((group[report.device].id, format!("{:?}", report.verdict)));
        }
    }
    expect.sort();

    let mut stream = TcpStream::connect(addr).expect("connect");
    for sub in &subs {
        send(&mut stream, &ClientFrame::Submit(sub.clone()));
    }
    send(&mut stream, &ClientFrame::Telemetry);
    send(&mut stream, &ClientFrame::Done);

    let mut buf = Vec::new();
    let mut acks = Vec::new();
    let mut got = Vec::new();
    let mut telemetry_json = None;
    let mut finished = false;
    while let Some(frame) = recv(&mut stream, &mut buf) {
        match frame {
            ServerFrame::Ack { id, status } => {
                assert_eq!(status, AckStatus::Accepted, "device {id} should queue");
                acks.push(id);
            }
            ServerFrame::Verdict(v) => got.push((v.id, format!("{:?}", v.verdict))),
            ServerFrame::Telemetry(json) => telemetry_json = Some(json),
            ServerFrame::Finished => {
                finished = true;
                break;
            }
        }
    }
    assert!(finished, "session must end with Finished");
    // The server closes the session after `Finished`: the next read
    // sees end of stream, not a wait.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    assert!(matches!(read_frame(&mut stream, &mut buf), Ok(None)));
    acks.sort_unstable();
    assert_eq!(acks, (0..subs.len() as u64).collect::<Vec<_>>());
    got.sort();
    assert_eq!(got, expect, "TCP verdicts must match Screener::run");

    let json = telemetry_json.expect("telemetry snapshot requested");
    assert!(json.contains("\"metrics\""), "snapshot is perf-record JSON");
    assert!(json.contains("\"scenario\": \"bist_serve_telemetry\""));
    // A TCP snapshot's `verdict_depth` counts the session's accepted
    // submissions whose verdicts are not yet written: never more than
    // the session submitted.
    let n = subs.len() as u64;
    let depth = metric(&json, "verdict_depth");
    assert!(depth <= n, "verdict_depth {depth} > {n} submitted");
    assert!(metric(&json, "submitted") <= n && metric(&json, "completed") <= n);

    let report = handle.shutdown();
    assert_eq!(report.telemetry.completed, subs.len() as u64);
}

/// Two concurrent sessions reusing the same submission ids: bursts mix
/// jobs from every session, so routing must go by burst slot, not by
/// the caller-chosen id. Each client must get its own devices'
/// verdicts (bit-identical to `Screener::run` on its own fleet) and
/// both sessions must reach `Finished` — misrouting would starve one
/// writer of a verdict and hang it before `Finished`.
#[test]
fn colliding_ids_across_sessions_route_per_session() {
    const N: usize = 8;
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    let run_client = |batch_seed: u64| {
        let batch = Batch::paper_simulation(batch_seed, N);
        let subs: Vec<Submission> = (0..N)
            .map(|i| Submission {
                // Both sessions use ids 0..N — deliberately colliding.
                id: i as u64,
                kind: JobKind::Static,
                adc: batch.device(i),
                seed: batch_seed * 1000 + i as u64,
            })
            .collect();
        let reports = Screener::new(static_workload())
            .run(subs.iter().map(|s| (s.adc.clone(), submission_rng(s.seed))));
        let mut expect: Vec<(u64, String)> = reports
            .iter()
            .map(|r| (subs[r.device].id, format!("{:?}", r.verdict)))
            .collect();
        expect.sort();

        let mut stream = TcpStream::connect(addr).expect("connect");
        for sub in &subs {
            send(&mut stream, &ClientFrame::Submit(sub.clone()));
        }
        send(&mut stream, &ClientFrame::Done);
        let mut buf = Vec::new();
        let mut got = Vec::new();
        let mut finished = false;
        while let Some(frame) = recv(&mut stream, &mut buf) {
            match frame {
                ServerFrame::Ack { id, status } => {
                    assert_eq!(status, AckStatus::Accepted, "device {id} should queue");
                }
                ServerFrame::Verdict(v) => got.push((v.id, format!("{:?}", v.verdict))),
                ServerFrame::Telemetry(_) => {}
                ServerFrame::Finished => {
                    finished = true;
                    break;
                }
            }
        }
        assert!(finished, "session {batch_seed} must reach Finished");
        got.sort();
        assert_eq!(
            got, expect,
            "session {batch_seed} got another session's verdicts"
        );
    };

    std::thread::scope(|s| {
        s.spawn(|| run_client(1));
        s.spawn(|| run_client(2));
    });
    handle.shutdown();
}

/// A service resident for statics only rejects dynamic submissions
/// with an explicit ack — and still screens the statics that follow.
#[test]
fn unrouted_kind_is_rejected_not_dropped() {
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    let batch = Batch::paper_simulation(3, 2);
    let mut stream = TcpStream::connect(addr).expect("connect");
    send(
        &mut stream,
        &ClientFrame::Submit(Submission {
            id: 0,
            kind: JobKind::Dynamic,
            adc: batch.device(0),
            seed: 0,
        }),
    );
    send(
        &mut stream,
        &ClientFrame::Submit(Submission {
            id: 1,
            kind: JobKind::Static,
            adc: batch.device(1),
            seed: 1,
        }),
    );
    send(&mut stream, &ClientFrame::Done);

    let mut buf = Vec::new();
    let mut verdict_ids = Vec::new();
    let mut statuses = Vec::new();
    while let Some(frame) = recv(&mut stream, &mut buf) {
        match frame {
            ServerFrame::Ack { id, status } => statuses.push((id, status)),
            ServerFrame::Verdict(v) => verdict_ids.push(v.id),
            ServerFrame::Telemetry(_) => {}
            ServerFrame::Finished => break,
        }
    }
    statuses.sort_by_key(|&(id, _)| id);
    assert_eq!(
        statuses,
        vec![(0, AckStatus::Rejected), (1, AckStatus::Accepted)]
    );
    assert_eq!(verdict_ids, vec![1], "only the accepted device verdicts");
    let report = handle.shutdown();
    assert_eq!(report.telemetry.rejected, 1, "the refusal is counted");
}

/// Malformed bytes close the session without taking the service down:
/// a fresh connection afterwards still screens devices.
#[test]
fn malformed_frame_closes_session_service_survives() {
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    {
        let mut bad = TcpStream::connect(addr).expect("connect");
        // A frame with an unknown tag: the server drops the session.
        write_frame(&mut bad, &[0x5a, 1, 2, 3]).expect("write");
        bad.flush().expect("flush");
        let mut buf = Vec::new();
        // Read until EOF; the server may or may not flush partial
        // events first but must close.
        while read_frame(&mut bad, &mut buf).ok().flatten().is_some() {}
    }

    let mut stream = TcpStream::connect(addr).expect("service still listening");
    send(
        &mut stream,
        &ClientFrame::Submit(Submission {
            id: 42,
            kind: JobKind::Static,
            adc: Batch::paper_simulation(11, 1).device(0),
            seed: 11,
        }),
    );
    send(&mut stream, &ClientFrame::Done);
    let mut buf = Vec::new();
    let mut verdicts = 0;
    while let Some(frame) = recv(&mut stream, &mut buf) {
        match frame {
            ServerFrame::Verdict(v) => {
                assert_eq!(v.id, 42);
                verdicts += 1;
            }
            ServerFrame::Finished => break,
            _ => {}
        }
    }
    assert_eq!(verdicts, 1, "the service survives a poisoned session");
    handle.shutdown();
}

/// A resident workload is planned for one resolution, so a device of
/// any other resolution is refused at both doors instead of screened:
/// the TCP door acks `Rejected`, the in-process door panics on the
/// caller's thread as it does for a kind that is not resident.
#[test]
fn devices_of_another_resolution_are_refused() {
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workload(dyn_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");
    let ideal = |bits: u32| {
        let resolution = Resolution::new(bits).expect("valid resolution");
        TransferFunction::ideal(resolution, Volts(0.0), Volts(6.4))
    };

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut expected = Vec::new();
    let mut id = 0;
    for kind in [JobKind::Static, JobKind::Dynamic] {
        for bits in [1, 2, 6, 8, 10] {
            let adc = ideal(bits);
            let sub = Submission {
                id,
                kind,
                adc,
                seed: id,
            };
            send(&mut stream, &ClientFrame::Submit(sub));
            let status = if bits == 6 {
                AckStatus::Accepted
            } else {
                AckStatus::Rejected
            };
            expected.push((id, status));
            id += 1;
        }
    }
    send(&mut stream, &ClientFrame::Done);
    let mut buf = Vec::new();
    let mut statuses = Vec::new();
    let mut verdict_ids = Vec::new();
    while let Some(frame) = recv(&mut stream, &mut buf) {
        match frame {
            ServerFrame::Ack { id, status } => statuses.push((id, status)),
            ServerFrame::Verdict(v) => verdict_ids.push(v.id),
            ServerFrame::Telemetry(_) => {}
            ServerFrame::Finished => break,
        }
    }
    statuses.sort_by_key(|&(id, _)| id);
    verdict_ids.sort_unstable();
    assert_eq!(statuses, expected);
    assert_eq!(
        verdict_ids,
        vec![2, 7],
        "only the 6-bit devices are screened"
    );

    let eight_bit = Submission {
        id: 99,
        kind: JobKind::Static,
        adc: ideal(8),
        seed: 99,
    };
    let refused =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.submit(eight_bit)));
    assert!(refused.is_err(), "the in-process door refuses it too");
    let report = handle.shutdown();
    assert_eq!(report.telemetry.rejected, 8, "each TCP refusal is counted");
}

/// A client that floods submissions and never reads its answers fills
/// its session's event ring. The worker delivering to it gives up after
/// a deadline and evicts the session, so another session still reaches
/// `Finished`.
#[test]
fn a_client_that_never_reads_cannot_park_the_workers() {
    const FLOOD: u64 = 50_000;
    const B_DEVICES: u64 = 4;
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        // Room for every flooded job, so session B is never `Busy`.
        .with_submit_capacity(2 * FLOOD as usize)
        .with_verdict_capacity(16)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");
    let batch = Batch::paper_simulation(13, 64);
    let sub = move |id: u64| Submission {
        id,
        kind: JobKind::Static,
        adc: batch.device((id % 64) as usize),
        seed: id,
    };

    // Session A: a sender thread floods; nobody reads.
    let flood = TcpStream::connect(addr).expect("connect A");
    let mut a = flood.try_clone().expect("clone A");
    let subs: Vec<Submission> = (0..FLOOD).map(&sub).collect();
    let sender = std::thread::spawn(move || {
        let mut frame = Vec::new();
        for s in subs {
            frame.clear();
            ClientFrame::Submit(s).encode(&mut frame);
            if write_frame(&mut a, &frame).is_err() {
                break;
            }
        }
    });
    // Wait until screening stalls: the worker is blocked on A's ring.
    let mut last = 0;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let done = handle.telemetry().completed;
        if done > 0 && done == last {
            break;
        }
        last = done;
    }

    // Session B: a few devices, then `Done`, read with a timeout.
    let mut b = TcpStream::connect(addr).expect("connect B");
    b.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    for id in 0..B_DEVICES {
        send(&mut b, &ClientFrame::Submit(sub(id)));
    }
    send(&mut b, &ClientFrame::Done);
    let mut buf = Vec::new();
    let (mut accepted, mut verdicts, mut finished) = (0, 0, false);
    while let Ok(Some(bytes)) = read_frame(&mut b, &mut buf) {
        match ServerFrame::decode(bytes) {
            Ok(ServerFrame::Ack { status, .. }) => {
                accepted += u64::from(status == AckStatus::Accepted)
            }
            Ok(ServerFrame::Verdict(_)) => verdicts += 1,
            Ok(ServerFrame::Finished) => {
                finished = true;
                break;
            }
            _ => {}
        }
    }
    if !finished {
        // The worker is parked on A for good: dropping the handle would
        // join it forever.
        std::mem::forget(handle);
        panic!("session B timed out after {verdicts} verdicts: session A parked the worker");
    }
    assert_eq!((accepted, verdicts), (B_DEVICES, B_DEVICES));
    sender.join().expect("the flood ends once A is evicted");
    drop(flood);
    let report = handle.shutdown();
    assert_eq!(report.telemetry.sessions_evicted, 1);
}

/// Reads `key`'s integer value from a flat telemetry JSON record.
fn metric(json: &str, key: &str) -> u64 {
    let rest = json.split(&format!("\"{key}\": ")).nth(1).expect(key);
    let end = rest.find(|c: char| !c.is_ascii_digit()).expect(key);
    rest[..end].parse().expect(key)
}

/// A client in lockstep sends one submission and reads its ack and
/// verdict before it sends the next, so each verdict must reach it
/// without further input from the client: a verdict left unflushed in
/// the server's buffer fails the read timeout instead of hanging.
#[test]
fn a_lockstep_client_gets_each_verdict_without_sending_more() {
    const ROUNDS: u64 = 64;
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");
    let batch = Batch::paper_simulation(17, ROUNDS as usize);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut buf = Vec::new();
    for id in 0..ROUNDS {
        let sub = Submission {
            id,
            kind: JobKind::Static,
            adc: batch.device(id as usize),
            seed: id,
        };
        send(&mut stream, &ClientFrame::Submit(sub));
        // The ack and the verdict, in either order.
        let (mut acked, mut judged) = (false, false);
        while !(acked && judged) {
            match recv(&mut stream, &mut buf) {
                Some(ServerFrame::Ack { id: got, status }) => {
                    assert_eq!((got, status), (id, AckStatus::Accepted));
                    acked = true;
                }
                Some(ServerFrame::Verdict(v)) => {
                    assert_eq!(v.id, id);
                    judged = true;
                }
                other => panic!("round {id}: unexpected {other:?}"),
            }
        }
    }
    send(&mut stream, &ClientFrame::Done);
    let last = recv(&mut stream, &mut buf);
    assert!(matches!(last, Some(ServerFrame::Finished)), "{last:?}");
    assert_eq!(handle.shutdown().telemetry.completed, ROUNDS);
}
