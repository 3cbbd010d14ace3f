//! The serve_tcp workload: a resident `bist-serve` with one worker,
//! driven over one localhost TCP connection by one sender and one
//! receiver thread.
//!
//! The timed phase has two parts. An open loop sends at a fixed rate
//! well under capacity and times each verdict from the moment its
//! submission was *due*, so a stalled sender or server charges the
//! wait to every later submission. A closed loop then keeps a fixed
//! window of submissions in flight and measures devices/s. Every
//! verdict is checked against `Screener::run` over the same
//! `(device, submission_rng(seed))` pairs.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bist_core::screener::{ScreenVerdict, Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_core::shard::JobKind;
use bist_core::source::{stream_rng, SourceSpec};
use bist_serve::protocol::{read_frame, write_frame};
use bist_serve::{
    submission_rng, AckStatus, ClientFrame, ServerFrame, ServiceConfig, ServiceHandle, Submission,
};
use rand::RngCore;

use crate::workloads::{reference_good, static_config, tally_reports, Tally, Timed};

/// Distinct submissions; sends cycle over them.
pub const SERVE_DEVICES: usize = 32_768;
/// Open-loop send rate, submissions per second.
pub const OPEN_RATE: f64 = 5_000.0;
/// Share of `--seconds` spent in the open loop; the rest is closed.
pub const OPEN_SHARE: f64 = 0.25;
/// Closed-loop in-flight window (below the service's submit capacity).
pub const WINDOW: usize = 512;
/// Closed-loop round trips made during set-up.
pub const WARMUP: usize = 4_096;

const NOISE_SALT: u64 = 0x5e7e_0001;

/// When a session's closed loop ends.
#[derive(Debug, Clone, Copy)]
enum Closed {
    /// After this long.
    For(Duration),
    /// After this many submissions.
    Count(u64),
}

/// The resident workload: the paper static test under the default
/// sequencer.
pub fn workload() -> Workload {
    Workload::static_ramp(static_config())
}

/// The service configuration the workload screens under.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::new()
        .with_workload(workload())
        .with_sequencer(SequencerConfig::default())
        .with_workers(1)
}

/// The client's submissions and the reference verdict of each.
pub struct Fleet {
    pub subs: Vec<Submission>,
    pub reference: Vec<ScreenVerdict>,
    pub tally: Tally,
}

impl Fleet {
    /// Draws the paper flash devices of `seed` and screens them once
    /// through `Screener::run` for the reference verdicts.
    pub fn build(seed: u64) -> Fleet {
        let subs: Vec<Submission> = (0..SERVE_DEVICES as u64)
            .map(|i| {
                let noise_seed = stream_rng(seed, &[NOISE_SALT, i]).next_u64();
                Submission::from_source(
                    JobKind::Static,
                    SourceSpec::paper_flash(),
                    seed,
                    i,
                    noise_seed,
                )
            })
            .collect();
        let reports = Screener::new(workload())
            .sequencer(SequencerConfig::default())
            .run(subs.iter().map(|s| (&s.adc, submission_rng(s.seed))));
        let good: Vec<bool> = subs.iter().map(|s| reference_good(&s.adc)).collect();
        let tally = tally_reports(0, &reports, &good);
        Fleet {
            subs,
            reference: reports.into_iter().map(|r| r.verdict).collect(),
            tally,
        }
    }

    /// Submission number `id` of the session: the fleet entry it cycles
    /// to, tagged with `id`.
    pub fn submission(&self, id: u64) -> Submission {
        let mut sub = self.subs[(id % self.subs.len() as u64) as usize].clone();
        sub.id = id;
        sub
    }

    /// Whether `verdict` is the reference verdict for session id `id`.
    pub fn matches(&self, id: u64, verdict: &ScreenVerdict) -> bool {
        self.reference[(id % self.reference.len() as u64) as usize] == *verdict
    }
}

/// Ack statuses and verdicts one receiver saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acks {
    pub accepted: u64,
    pub busy: u64,
    pub rejected: u64,
    pub verdicts: u64,
    pub mismatched: u64,
}

/// What one session's timed phase recorded.
#[derive(Debug, Default)]
pub struct SessionLog {
    /// Open-loop verdict latency from the due time, microseconds, in
    /// submission order.
    pub latencies_us: Vec<f64>,
    /// Open-loop generator lateness (send time minus due time), µs.
    pub late_us: Vec<f64>,
    /// Closed-loop verdict arrivals, seconds after the closed loop began.
    pub closed_arrivals_s: Vec<f64>,
    /// Submissions sent.
    pub sent: u64,
    pub acks: Acks,
}

impl SessionLog {
    /// Refused, wrong and never-answered submissions.
    pub fn failed(&self) -> u64 {
        let a = self.acks;
        let refused = a.busy + a.rejected;
        let unanswered = self.sent.saturating_sub(a.verdicts + refused);
        refused + a.mismatched + unanswered
    }

    /// Closed-loop `(verdicts, seconds)` steps for rate slicing.
    pub fn closed_steps(&self) -> Vec<(u64, f64)> {
        let mut prev = 0.0;
        self.closed_arrivals_s
            .iter()
            .map(|&t| {
                let step = (1, t - prev);
                prev = t;
                step
            })
            .collect()
    }
}

/// The serve_tcp state: fleet, running service and one open session.
pub struct ServeTcp {
    fleet: Fleet,
    handle: ServiceHandle,
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Failures seen during the set-up warm-up.
    warmup_failed: u64,
}

impl ServeTcp {
    /// Builds the submissions and reference verdicts, starts the
    /// service, connects, and warms the session with closed-loop round
    /// trips.
    pub fn setup(seed: u64) -> ServeTcp {
        let fleet = Fleet::build(seed);
        let mut handle = service_config().start();
        let addr = handle.serve_tcp(0).expect("open the TCP door on localhost");
        let stream = TcpStream::connect(addr).expect("connect to the local service");
        stream
            .set_nodelay(true)
            .expect("disable Nagle on the client");
        let reader = BufReader::new(stream.try_clone().expect("clone the client socket"));
        let mut me = ServeTcp {
            fleet,
            handle,
            writer: BufWriter::new(stream),
            reader,
            next_id: 0,
            warmup_failed: 0,
        };
        me.warm_up();
        me
    }

    /// Closed-loop round trips that warm the session, the service and
    /// the client's buffers; the session stays open.
    fn warm_up(&mut self) {
        let log = self.session(0, Closed::Count(WARMUP as u64), false);
        self.warmup_failed = log.failed();
    }

    /// The timed phase: the open loop, then the closed loop, then
    /// `Done`. Ends the session.
    pub fn run(&mut self, seconds: f64) -> SessionLog {
        let n_open = ((OPEN_RATE * seconds * OPEN_SHARE).round() as u64).max(1);
        let closed = Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE));
        self.session(n_open, Closed::For(closed), true)
    }

    /// Sends `n_open` submissions on the open-loop schedule, waits for
    /// their answers, then runs the closed loop. With `finish` the
    /// session ends with `Done` and the receiver reads to `Finished`;
    /// otherwise the receiver stops after the known number of answers
    /// and the session stays open.
    fn session(&mut self, n_open: u64, closed: Closed, finish: bool) -> SessionLog {
        let first = self.next_id;
        let fleet = &self.fleet;
        let (writer, reader) = (&mut self.writer, &mut self.reader);
        let stop_after = match closed {
            Closed::Count(c) if !finish => Some(n_open + c),
            _ => None,
        };
        let (credit_tx, credit_rx) = mpsc::channel::<()>();
        let t0 = Instant::now() + Duration::from_millis(2);
        let due = move |id: u64| t0 + Duration::from_secs_f64((id - first) as f64 / OPEN_RATE);
        let (mut log, receiver) = std::thread::scope(|s| {
            let receiver = s.spawn(move || {
                let open_due = |id: u64| (id < first + n_open).then(|| due(id));
                receive(reader, fleet, credit_tx, stop_after, open_due)
            });
            let mut log = SessionLog::default();
            let mut frame = Vec::new();
            let mut id = first;
            let mut ok = true;
            // Open loop: every submission goes out at its due time, or
            // as soon after as the sender can manage.
            while ok && id < first + n_open {
                let d = due(id);
                let now = Instant::now();
                if now < d {
                    std::thread::sleep(d - now);
                }
                log.late_us.push(d.elapsed().as_secs_f64() * 1e6);
                ok = write_submit(writer, fleet.submission(id), &mut frame).is_ok()
                    && writer.flush().is_ok();
                id += u64::from(ok);
            }
            let mut answered = 0;
            while answered < id - first && credit_rx.recv().is_ok() {
                answered += 1;
            }
            // Closed loop: refill the window, flush once, wait for an
            // answer.
            let closed_start = Instant::now();
            let mut in_flight = 0u64;
            let mut closed_sent = 0u64;
            while ok {
                let budget = match closed {
                    Closed::For(d) if closed_start.elapsed() < d => u64::MAX,
                    Closed::Count(c) if closed_sent < c => c - closed_sent,
                    _ => break,
                };
                for _ in 0..(WINDOW as u64 - in_flight).min(budget) {
                    ok = write_submit(writer, fleet.submission(id), &mut frame).is_ok();
                    if !ok {
                        break;
                    }
                    id += 1;
                    in_flight += 1;
                    closed_sent += 1;
                }
                ok = ok && writer.flush().is_ok() && credit_rx.recv().is_ok();
                in_flight -= u64::from(ok);
                while credit_rx.try_recv().is_ok() {
                    in_flight -= 1;
                }
            }
            log.sent = id - first;
            if !ok {
                // Unblocks the receiver's read: the session is broken.
                let _ = writer.get_ref().shutdown(Shutdown::Both);
            } else if finish {
                let _ = send_frame(writer, &ClientFrame::Done, &mut frame);
            }
            (log, receiver.join().map(|r| (r, closed_start)))
        });
        let (mut recv_log, closed_start) = receiver.expect("the receiver thread does not panic");
        recv_log.latencies_us.sort_unstable_by_key(|&(id, _)| id);
        log.latencies_us = recv_log.latencies_us.into_iter().map(|(_, l)| l).collect();
        log.acks = recv_log.acks;
        log.closed_arrivals_s = recv_log
            .closed_arrivals
            .iter()
            .map(|t| t.saturating_duration_since(closed_start).as_secs_f64())
            .collect();
        self.next_id = first + log.sent;
        log
    }

    /// Ends the session if it is still open and shuts the service down.
    pub fn close(mut self) {
        let mut frame = Vec::new();
        if send_frame(&mut self.writer, &ClientFrame::Done, &mut frame).is_ok() {
            let mut buf = Vec::new();
            while let Ok(Some(bytes)) = read_frame(&mut self.reader, &mut buf) {
                if matches!(
                    ServerFrame::decode(bytes),
                    Ok(ServerFrame::Finished) | Err(_)
                ) {
                    break;
                }
            }
        }
        self.handle.shutdown();
    }
}

/// The timed phase as the offline workloads report it.
pub fn timed(state: &ServeTcp, log: &SessionLog) -> Timed {
    Timed {
        batches: log.closed_steps(),
        latencies_us: log.latencies_us.clone(),
        latency_window: Some(OPEN_RATE as usize),
        tally: state.fleet.tally,
        attempted: log.sent,
        failed: log.failed() + state.warmup_failed,
    }
}

fn send_frame(
    w: &mut BufWriter<TcpStream>,
    frame: &ClientFrame,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    buf.clear();
    frame.encode(buf);
    write_frame(w, buf)?;
    w.flush()
}

/// Buffers one submission frame without flushing.
fn write_submit(
    w: &mut BufWriter<TcpStream>,
    sub: Submission,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    buf.clear();
    ClientFrame::Submit(sub).encode(buf);
    write_frame(w, buf)
}

struct ReceiverLog {
    /// `(id, latency µs)` of open-loop verdicts, in arrival order.
    latencies_us: Vec<(u64, f64)>,
    closed_arrivals: Vec<Instant>,
    acks: Acks,
}

/// Reads server frames until `Finished` (or `stop_after` answers):
/// checks each verdict against the reference, times open-loop verdicts
/// from `due(id)`, and hands the sender one credit per answered
/// submission.
fn receive(
    reader: &mut BufReader<TcpStream>,
    fleet: &Fleet,
    credits: mpsc::Sender<()>,
    stop_after: Option<u64>,
    due: impl Fn(u64) -> Option<Instant>,
) -> ReceiverLog {
    let mut log = ReceiverLog {
        latencies_us: Vec::new(),
        closed_arrivals: Vec::new(),
        acks: Acks::default(),
    };
    let mut buf = Vec::new();
    while let Ok(Some(bytes)) = read_frame(reader, &mut buf) {
        let frame = ServerFrame::decode(bytes);
        let now = Instant::now();
        match frame {
            Ok(ServerFrame::Verdict(v)) => {
                log.acks.verdicts += 1;
                log.acks.mismatched += u64::from(!fleet.matches(v.id, &v.verdict));
                match due(v.id) {
                    Some(d) => log
                        .latencies_us
                        .push((v.id, now.saturating_duration_since(d).as_secs_f64() * 1e6)),
                    None => log.closed_arrivals.push(now),
                }
                let _ = credits.send(());
            }
            Ok(ServerFrame::Ack { status, .. }) => match status {
                AckStatus::Accepted => log.acks.accepted += 1,
                AckStatus::Busy | AckStatus::Rejected => {
                    if status == AckStatus::Busy {
                        log.acks.busy += 1;
                    } else {
                        log.acks.rejected += 1;
                    }
                    let _ = credits.send(());
                }
            },
            Ok(ServerFrame::Finished) | Err(_) => break,
            Ok(ServerFrame::Telemetry(_)) => {}
        }
        let a = log.acks;
        if stop_after.is_some_and(|n| a.verdicts + a.busy + a.rejected >= n) {
            break;
        }
    }
    log
}
