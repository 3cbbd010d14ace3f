//! The resident screening service: bounded ingest, resident workers,
//! streamed verdicts, graceful drain.
//!
//! ```text
//!  ServiceHandle::submit ──┐                         ┌─ in-process verdict ring ─ recv_verdict
//!                          ▼                         │
//!            bounded submit Ring<Job> ══ workers ════╡   (each worker: one Screener per
//!                          ▲             (resident)  │    workload, warm across bursts)
//!  TCP session thread ─────┘                         └─ session lock ─ client socket
//!       └── acks, telemetry ─────────────────────────── session lock ─┘
//! ```
//!
//! Every queue is a bounded [`Ring`], so overload surfaces as
//! [`Enqueue::Busy`] at the front door (the submission handed back,
//! never dropped) and a slow verdict consumer backpressures the
//! workers (they block pushing or writing, never buffer unboundedly).
//! Each TCP session costs one thread, which reads the client's frames
//! and writes its acks; the workers write its verdicts themselves, all
//! under the session's lock. A TCP session that stops reading is
//! evicted after a fixed write deadline, so it cannot park the workers.
//! Workers are plain threads, each owning one [`Screener`] per resident
//! workload; a worker screens each burst where it lies, and its
//! screeners and buffers stay warm between bursts — the steady state
//! allocates nothing. Verdicts are tagged with submission ids, and
//! because every screened verdict is bit-identical to the scalar
//! screener for any device order and any split of the fleet across
//! calls, any arrival order, burst grouping, or worker count streams
//! back exactly the per-device reports [`Screener::run`] would emit.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bist_adc::transfer::TransferFunction;
use bist_core::batch::BatchDevice;
use bist_core::ring::{Enqueue, Ring};
use bist_core::screener::{ScreenReport, Screener};
use bist_core::sequencer::SequencerConfig;
use bist_core::shard::{JobKind, ShardVerdict};
use bist_core::source::{device_rng, stream_rng, DeviceSource, SourceSpec};
use bist_core::Workload;
use rand::rngs::StdRng;

use crate::protocol::{self, AckStatus, ClientFrame, ServerFrame};
use crate::telemetry::{Telemetry, TelemetrySnapshot};

/// How long a write to a TCP session may block before the session is
/// evicted: its client has stopped reading.
const SLOW_SESSION_DEADLINE: Duration = Duration::from_secs(2);

/// Builds the device RNG for a submission seed — the service-side
/// mirror of what a caller must use to reproduce a verdict with
/// [`Screener::run`]: the same seed through the one blessed seam,
/// [`stream_rng`], with no stream path.
pub fn submission_rng(seed: u64) -> StdRng {
    stream_rng(seed, &[])
}

/// One device submission: an id the verdict will echo, the workload to
/// run, the device's transfer function, and the seed of its noise
/// stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Caller-chosen id, echoed on the matching verdict.
    pub id: u64,
    /// Which resident workload screens this device.
    pub kind: JobKind,
    /// The device under test.
    pub adc: TransferFunction,
    /// Seed of the device's noise/dither stream (expanded via
    /// [`submission_rng`]).
    pub seed: u64,
}

impl Submission {
    /// Draws device `index` from an architecture `source` exactly as a
    /// `bist_mc` batch of that source seeded with `fleet_seed` and a
    /// [`Zoo`](bist_core::source::Zoo) do — through [`device_rng`] —
    /// and wraps it for submission with id `index`. The noise stream is
    /// `noise_seed`, expanded service-side by [`submission_rng`], so a
    /// caller reproduces the verdict with [`Screener::run`] over
    /// `(device, submission_rng(noise_seed))`.
    pub fn from_source(
        kind: JobKind,
        source: impl Into<SourceSpec>,
        fleet_seed: u64,
        index: u64,
        noise_seed: u64,
    ) -> Self {
        let adc = source
            .into()
            .sample_transfer(&mut device_rng(fleet_seed, index as usize));
        Submission {
            id: index,
            kind,
            adc,
            seed: noise_seed,
        }
    }
}

/// Configuration for a resident service — which workloads it is
/// resident for, engine knobs, and queue bounds.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Static workload, when the service screens [`JobKind::Static`]
    /// submissions; filed here by [`ServiceConfig::with_workload`].
    static_workload: Option<Workload>,
    /// Dynamic workload, when the service screens [`JobKind::Dynamic`]
    /// submissions; filed here by [`ServiceConfig::with_workload`].
    dynamic_workload: Option<Workload>,
    /// Early-stop sequencing policy for both engines.
    sequencer: Option<SequencerConfig>,
    /// Worker count (`0` = the host's available parallelism).
    workers: usize,
    /// Most submissions a worker claims per burst. Small bursts keep
    /// latency low under light load; large ones amortise the claim.
    burst: usize,
    /// Capacity of the bounded submission queue — the backpressure
    /// threshold at which `submit` answers [`Enqueue::Busy`].
    submit_capacity: usize,
    /// Capacity of the in-process verdict ring.
    verdict_capacity: usize,
}

impl ServiceConfig {
    /// A config with no workloads resident yet — make it resident for
    /// at least one with [`ServiceConfig::with_workload`] before
    /// [`ServiceConfig::start`].
    pub fn new() -> Self {
        ServiceConfig {
            static_workload: None,
            dynamic_workload: None,
            sequencer: None,
            workers: 0,
            burst: 32,
            submit_capacity: 1024,
            verdict_capacity: 1024,
        }
    }

    /// Makes the service resident for `workload` (either variant;
    /// routed by the workload's kind).
    pub fn with_workload(mut self, workload: Workload) -> Self {
        match workload {
            Workload::Static { .. } => self.static_workload = Some(workload),
            Workload::Dynamic { .. } => self.dynamic_workload = Some(workload),
        }
        self
    }

    /// Screens under the early-stop sequencer.
    pub fn with_sequencer(mut self, policy: SequencerConfig) -> Self {
        self.sequencer = Some(policy);
        self
    }

    /// Sets the worker count (`0` = available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-burst claim bound (≥ 1).
    pub fn with_burst(mut self, burst: usize) -> Self {
        assert!(burst >= 1, "the service needs a positive burst");
        self.burst = burst;
        self
    }

    /// Sets the submission-queue capacity (≥ 1).
    pub fn with_submit_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "the submit queue needs capacity");
        self.submit_capacity = capacity;
        self
    }

    /// Sets the in-process verdict ring's capacity (≥ 1).
    pub fn with_verdict_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "the verdict ring needs capacity");
        self.verdict_capacity = capacity;
        self
    }

    /// Starts the resident service: spawns the workers and
    /// returns the handle that submits, receives and shuts down.
    ///
    /// # Panics
    ///
    /// Panics when no workload is resident or when the sequencer policy
    /// fails [`SequencerConfig::validate`].
    pub fn start(self) -> ServiceHandle {
        ServiceHandle::start(self)
    }

    /// The resident workloads, static first.
    fn workloads(&self) -> impl Iterator<Item = Workload> {
        self.static_workload
            .into_iter()
            .chain(self.dynamic_workload)
    }

    /// A fresh screener per resident workload, static first: the
    /// screening state each worker keeps warm.
    fn screeners(&self) -> Vec<Screener> {
        self.workloads()
            .map(|w| match self.sequencer {
                Some(policy) => Screener::new(w).sequencer(policy),
                None => Screener::new(w),
            })
            .collect()
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new()
    }
}

/// Where a submission's verdict is delivered.
#[derive(Debug, Clone)]
enum Reply {
    /// The handle's in-process verdict ring.
    Local(Arc<Ring<ShardVerdict>>),
    /// A TCP session, written to directly.
    Session(Arc<Mutex<Session>>),
}

impl Reply {
    /// Delivers one verdict. The in-process ring blocks while full
    /// (backpressure); a closed ring means the consumer is gone, so the
    /// verdict is released (the device *was* screened; nobody is
    /// listening). A TCP verdict is written to the client under the
    /// session lock, and the last one of a finished session is
    /// followed by `Finished`.
    fn deliver(&self, verdict: ShardVerdict, telemetry: &Telemetry) {
        match self {
            Reply::Local(ring) => {
                let _ = ring.push(verdict);
            }
            Reply::Session(session) => {
                let mut out = session.lock().expect("session lock");
                out.send(&ServerFrame::Verdict(verdict), telemetry);
                out.delivered += 1;
                out.finish_if_done(telemetry);
            }
        }
    }
}

/// One queued unit of work: a submission, its expanded RNG, and where
/// the verdict goes.
#[derive(Debug)]
struct Job {
    sub: Submission,
    rng: StdRng,
    reply: Reply,
}

/// State shared by the handle, the workers and every TCP session.
#[derive(Debug)]
struct SvcShared {
    submit: Ring<Job>,
    telemetry: Telemetry,
    config: ServiceConfig,
}

impl SvcShared {
    /// Whether a resident workload screens `sub`: one of its kind,
    /// planned for its device's resolution.
    fn accepts(&self, sub: &Submission) -> bool {
        let resolution = sub.adc.resolution();
        self.config
            .workloads()
            .any(|w| w.kind() == sub.kind && w.resolution() == resolution)
    }

    /// The ingest seam shared by the in-process and TCP doors; each
    /// door has already checked that the service [`accepts`] `sub`.
    ///
    /// [`accepts`]: SvcShared::accepts
    fn submit_job(&self, sub: Submission, reply: Reply) -> Enqueue<Submission> {
        let rng = submission_rng(sub.seed);
        match self.submit.try_push(Job { sub, rng, reply }) {
            Enqueue::Accepted => {
                self.telemetry.count_submit(true);
                Enqueue::Accepted
            }
            Enqueue::Busy(job) => {
                self.telemetry.count_submit(false);
                Enqueue::Busy(job.sub)
            }
            Enqueue::Closed(job) => Enqueue::Closed(job.sub),
        }
    }

    fn snapshot(&self, verdict_depth: u64) -> TelemetrySnapshot {
        self.telemetry
            .snapshot(self.submit.len() as u64, verdict_depth)
    }
}

// bist-lint: hot-path — resident worker steady state: claim a burst, screen it, stream verdicts
/// One worker's life: block on the submit ring, top the burst up
/// without blocking, screen it in place through the resident
/// `screeners`, stream each verdict to its submitter. Exits when the
/// ring is closed and drained, so accepted devices always complete. The
/// burst and report buffers are caller-owned so this loop allocates
/// nothing once warm.
///
/// Each screener screens the jobs of its kind by reference, each tagged
/// with its slot in the burst, not with the caller-chosen submission
/// id: ids are only unique per client, and one burst mixes jobs from
/// every TCP session plus the in-process handle, so two clients reusing
/// the same id must still each get their own verdict. A report's slot
/// names the job whose id and reply it goes to. Verdicts stream grouped
/// by workload, static first, each group in slot order.
fn worker_loop(
    shared: &SvcShared,
    screeners: &mut [Screener],
    jobs: &mut Vec<Job>,
    reports: &mut Vec<ScreenReport>,
) {
    let telemetry = &shared.telemetry;
    while let Some(first) = shared.submit.pop() {
        jobs.push(first);
        while jobs.len() < shared.config.burst {
            match shared.submit.try_pop() {
                Some(job) => jobs.push(job),
                None => break,
            }
        }
        for (workload, screener) in shared.config.workloads().zip(screeners.iter_mut()) {
            let kind = workload.kind();
            let devices = jobs
                .iter_mut()
                .enumerate()
                .filter(|(_, job)| job.sub.kind == kind)
                .map(|(slot, job)| BatchDevice::new(slot, &job.sub.adc, &mut job.rng));
            screener.screen(devices, reports);
            for report in reports.drain(..) {
                let job = &jobs[report.device];
                let verdict = ShardVerdict {
                    id: job.sub.id,
                    verdict: report.verdict,
                };
                telemetry.count_verdict(&verdict);
                job.reply.deliver(verdict, telemetry);
            }
        }
        // Each `Reply` holds its session alive: drop them now, not
        // when the worker is next woken.
        jobs.clear();
    }
}

/// What [`ServiceHandle::shutdown`] drained: the verdicts of every
/// device still in flight when shutdown began (beyond those already
/// received), plus the final telemetry.
#[derive(Debug)]
pub struct DrainReport {
    /// Verdicts completed during the drain, in completion order.
    pub verdicts: Vec<ShardVerdict>,
    /// Final counter snapshot.
    pub telemetry: TelemetrySnapshot,
}

/// A running resident service. Dropping the handle shuts the service
/// down (without draining); prefer [`ServiceHandle::shutdown`].
#[derive(Debug)]
pub struct ServiceHandle {
    shared: Arc<SvcShared>,
    verdicts: Arc<Ring<ShardVerdict>>,
    workers: Vec<JoinHandle<()>>,
    listener: Option<ListenerHandle>,
}

#[derive(Debug)]
struct ListenerHandle {
    thread: JoinHandle<()>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ServiceHandle {
    /// Starts the service described by `config` (see
    /// [`ServiceConfig::start`]).
    pub fn start(config: ServiceConfig) -> ServiceHandle {
        assert!(
            config.workloads().next().is_some(),
            "the service needs at least one resident workload"
        );
        if let Some(Err(e)) = config.sequencer.map(|policy| policy.validate()) {
            panic!("invalid sequencer policy: {e}");
        }
        let shared = Arc::new(SvcShared {
            submit: Ring::with_capacity(config.submit_capacity),
            telemetry: Telemetry::new(),
            config,
        });
        let verdicts = Arc::new(Ring::with_capacity(config.verdict_capacity));
        let workers = (0..bist_core::pool::resolve_workers(config.workers))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bist-serve-worker-{i}"))
                    .spawn(move || {
                        let c = &shared.config;
                        let mut screeners = c.screeners();
                        let mut jobs = Vec::with_capacity(c.burst);
                        let mut reports = Vec::with_capacity(c.burst);
                        worker_loop(&shared, &mut screeners, &mut jobs, &mut reports);
                    })
                    .expect("spawn worker")
            })
            .collect();
        ServiceHandle {
            shared,
            verdicts,
            workers,
            listener: None,
        }
    }

    /// Submits one device through the in-process front door. The
    /// verdict streams to [`ServiceHandle::recv_verdict`] tagged with
    /// `sub.id`. [`Enqueue::Busy`] hands the submission back — drain
    /// some verdicts, then retry.
    ///
    /// # Panics
    ///
    /// Panics when no resident workload screens `sub.kind` at the
    /// device's resolution — a routing bug, not load.
    pub fn submit(&self, sub: Submission) -> Enqueue<Submission> {
        assert!(
            self.shared.accepts(&sub),
            "service is not resident for {:?} submissions of {}-bit devices",
            sub.kind,
            sub.adc.resolution().bits()
        );
        self.shared
            .submit_job(sub, Reply::Local(Arc::clone(&self.verdicts)))
    }

    /// Receives the next verdict, blocking until one arrives. `None`
    /// only after [`ServiceHandle::shutdown`] closed the stream.
    pub fn recv_verdict(&self) -> Option<ShardVerdict> {
        self.verdicts.pop()
    }

    /// Receives the next verdict without blocking.
    pub fn try_recv_verdict(&self) -> Option<ShardVerdict> {
        self.verdicts.try_pop()
    }

    /// A live telemetry snapshot.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.snapshot(self.verdicts.len() as u64)
    }

    /// Opens the TCP front door on `127.0.0.1` (port 0 = ephemeral),
    /// returning the bound address. One listener per service.
    pub fn serve_tcp(&mut self, port: u16) -> std::io::Result<SocketAddr> {
        assert!(self.listener.is_none(), "the TCP door is already open");
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&self.shared);
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("bist-serve-listener".to_owned())
            .spawn(move || listener_loop(listener, shared, stop_flag))
            .expect("spawn listener");
        self.listener = Some(ListenerHandle { thread, addr, stop });
        Ok(addr)
    }

    /// Gracefully stops the service: closes the front door, lets the
    /// workers drain every queued submission, and collects the
    /// verdicts of the drained devices (in-process submissions only;
    /// TCP sessions stream theirs to their own clients). Devices
    /// accepted before shutdown are never dropped.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.submit.close();
        let mut verdicts = Vec::new();
        loop {
            while let Some(v) = self.verdicts.try_pop() {
                verdicts.push(v);
            }
            if self.workers.iter().all(JoinHandle::is_finished) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        while let Some(v) = self.verdicts.try_pop() {
            verdicts.push(v);
        }
        self.verdicts.close();
        self.stop_listener();
        let telemetry = self.shared.snapshot(0);
        DrainReport {
            verdicts,
            telemetry,
        }
    }

    fn stop_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            // ORDERING: Relaxed — the wake-up connect below forms the
            // actual synchronization: accept() returns after this
            // store, and the listener re-reads the flag per iteration.
            listener.stop.store(true, Ordering::Relaxed);
            let _ = TcpStream::connect(listener.addr);
            let _ = listener.thread.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shared.submit.close();
        self.verdicts.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stop_listener();
    }
}

/// One TCP session's write half and delivery count, shared under one
/// lock by its reader thread (acks, telemetry) and by every worker
/// delivering one of its verdicts. Whoever holds the lock writes.
#[derive(Debug)]
struct Session {
    /// The client socket's write half; its write timeout is
    /// [`SLOW_SESSION_DEADLINE`].
    writer: BufWriter<TcpStream>,
    /// The frame being written, reused across frames.
    frame: Vec<u8>,
    /// Submissions the reader accepted, set when it stops reading.
    accepted: Option<u64>,
    /// Verdicts handed to this session, written or dropped.
    delivered: u64,
    /// Whether the session has ended: `Finished` was written, or a
    /// write timed out or failed. Later frames are dropped.
    closed: bool,
}

impl Session {
    // bist-lint: hot-path — TCP session frame write: each ack and verdict is encoded, written and flushed here
    /// Writes and flushes one frame, returning whether the session is
    /// still open. A write that fails, or blocks past
    /// [`SLOW_SESSION_DEADLINE`] because the client stopped reading,
    /// evicts the session, so it cannot park a worker.
    fn send(&mut self, frame: &ServerFrame, telemetry: &Telemetry) -> bool {
        if self.closed {
            return false;
        }
        frame.encode(&mut self.frame);
        let written =
            protocol::write_frame(&mut self.writer, &self.frame).and_then(|()| self.writer.flush());
        if written.is_err() {
            telemetry.count_eviction();
            self.close();
        }
        !self.closed
    }

    /// Ends the session with `Finished` once its reader has stopped and
    /// every accepted verdict has been delivered.
    fn finish_if_done(&mut self, telemetry: &Telemetry) {
        if self.accepted == Some(self.delivered) && self.send(&ServerFrame::Finished, telemetry) {
            self.close();
        }
    }

    /// Shuts the socket down, which also unblocks the session's reader.
    fn close(&mut self) {
        self.closed = true;
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
    }
}

fn listener_loop(listener: TcpListener, shared: Arc<SvcShared>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        // ORDERING: Relaxed — see stop_listener: the wake-up connect
        // synchronizes shutdown; this flag only has to become visible
        // eventually, and the accept wake guarantees a fresh check.
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let Ok(writer) = stream.try_clone() else {
            continue;
        };
        if writer
            .set_write_timeout(Some(SLOW_SESSION_DEADLINE))
            .is_err()
        {
            continue;
        }
        let session = Arc::new(Mutex::new(Session {
            writer: BufWriter::new(writer),
            frame: Vec::new(),
            accepted: None,
            delivered: 0,
            closed: false,
        }));
        let shared = Arc::clone(&shared);
        // A failed spawn drops the session and so closes its socket.
        let _ = std::thread::Builder::new()
            .name("bist-serve-session".to_owned())
            .spawn(move || session_reader(stream, shared, session));
    }
}

/// A TCP session's one thread: parses client frames, feeds the ingest
/// seam and writes each reply itself; workers write the verdicts.
fn session_reader(stream: TcpStream, shared: Arc<SvcShared>, session: Arc<Mutex<Session>>) {
    let telemetry = &shared.telemetry;
    let lock = || session.lock().expect("session lock");
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut accepted = 0u64;
    while let Ok(Some(bytes)) = protocol::read_frame(&mut reader, &mut buf) {
        let open = match ClientFrame::decode(bytes) {
            Ok(ClientFrame::Submit(sub)) => {
                let id = sub.id;
                let status = if !shared.accepts(&sub) {
                    AckStatus::Rejected
                } else {
                    match shared.submit_job(sub, Reply::Session(Arc::clone(&session))) {
                        Enqueue::Accepted => {
                            accepted += 1;
                            AckStatus::Accepted
                        }
                        Enqueue::Busy(_) => AckStatus::Busy,
                        Enqueue::Closed(_) => AckStatus::Rejected,
                    }
                };
                if status == AckStatus::Rejected {
                    telemetry.count_rejection();
                }
                lock().send(&ServerFrame::Ack { id, status }, telemetry)
            }
            Ok(ClientFrame::Telemetry) => {
                let mut out = lock();
                // Every verdict delivered so far is of a submission
                // already counted in `accepted`, so this cannot wrap.
                let pending = accepted - out.delivered;
                let json = shared.snapshot(pending).to_json();
                out.send(&ServerFrame::Telemetry(json), telemetry)
            }
            Ok(ClientFrame::Done) | Err(_) => break,
        };
        if !open {
            break;
        }
    }
    let mut out = lock();
    out.accepted = Some(accepted);
    out.finish_if_done(telemetry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::types::{Resolution, Volts};
    use bist_core::config::BistConfig;

    #[test]
    fn worker_drops_a_bursts_replies_once_it_is_delivered() {
        let bist = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .build()
            .expect("paper-range counter");
        let shared = SvcShared {
            submit: Ring::with_capacity(4),
            telemetry: Telemetry::new(),
            config: ServiceConfig::new().with_workload(Workload::static_ramp(bist)),
        };
        let verdicts = Arc::new(Ring::with_capacity(4));
        let sub = Submission {
            id: 7,
            kind: JobKind::Static,
            adc: TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(3.2)),
            seed: 1,
        };
        let reply = Reply::Local(Arc::clone(&verdicts));
        assert!(matches!(shared.submit_job(sub, reply), Enqueue::Accepted));
        shared.submit.close();
        let mut jobs = Vec::new();
        worker_loop(
            &shared,
            &mut shared.config.screeners(),
            &mut jobs,
            &mut Vec::new(),
        );
        assert_eq!(verdicts.try_pop().map(|v| v.id), Some(7));
        assert!(jobs.is_empty(), "the delivered burst's replies outlive it");
        assert_eq!(Arc::strong_count(&verdicts), 1);
    }
}
