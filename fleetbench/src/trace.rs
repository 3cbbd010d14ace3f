//! The traced run (`--trace 1`): the per-layer profile.
//!
//! It times each layer through the public function that enters it,
//! replays each workload with spans around its layer calls, and reports
//! the per-layer metrics listed in BENCHMARK.json. Every figure comes
//! from this run alone; the end-to-end metrics come only from untraced
//! runs. `--seconds` scales every phase; at 10 s the profile takes
//! about 15 s. The spans are written to `fleetbench/out/` when the run
//! ends.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bist_adc::flash::FlashConfig;
use bist_adc::noise::NoiseConfig;
use bist_adc::stream::CodeStream;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use bist_core::analytic::WidthDistribution;
use bist_core::backend::{Backend, RtlBackend};
use bist_core::config::BistConfig;
use bist_core::dynamic::{plan_sine, DynamicConfig};
use bist_core::harness::plan_ramp;
use bist_core::ring::Enqueue;
use bist_core::screener::{Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_core::source::{device_rng, stream_rng, DeviceSource, IidWidthSource, SourceSpec};
use bist_mc::batch::Batch;
use bist_serve::protocol::{ClientFrame, ServerFrame};
use bist_serve::{ServiceHandle, Submission};
use rand::rngs::StdRng;

use crate::record::Record;
use crate::serve::{self, Fleet, OPEN_RATE, WINDOW};
use crate::stats::{median, percentile, ppm, reportable_percentile, windowed_percentile};
use crate::tracer::Tracer;
use crate::workloads::{
    static_config, FlashFullTest, RtlDifferential, ZooScreen, FLASH_BATCH, RTL_BATCH, ZOO_BATCH,
};

const PROBE_SALT: u64 = 0x7ace_0001;

/// Runs the profile and returns the per-layer record.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Record {
    let scale = seconds / 10.0;
    let budget = |s: f64| Duration::from_secs_f64(s * scale);
    let tr = Tracer::on(Instant::now());
    let mut p = Profile::default();
    let mut r = Record {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };

    // generate
    for (label, source) in [
        ("generate.flash.devices_per_s", SourceSpec::paper_flash()),
        ("generate.iid.devices_per_s", SourceSpec::paper_iid()),
        ("generate.sar.devices_per_s", SourceSpec::paper_sar()),
        (
            "generate.pipeline.devices_per_s",
            SourceSpec::paper_pipeline(),
        ),
    ] {
        let mut i = 0u64;
        let rate = until(budget(0.25), || {
            tr.span("generate", None, i, || {
                black_box(source.sample_transfer(&mut device_rng(seed, i as usize)))
            });
            i += 1;
            1
        });
        r.push(label, rate, "devices/s");
    }

    // Workload replays with spans: the shares of their wall time.
    let mut zoo = ZooScreen::setup(seed);
    let zoo_batches = batches_in(budget(1.5), ZOO_BATCH, |range| {
        zoo.screen(range, &tr);
    });
    let mut flash = FlashFullTest::setup(seed);
    let flash_batches = batches_in(budget(1.0), FLASH_BATCH, |range| {
        flash.screen(range, &tr);
    });
    let zoo_wall = tr.total("zoo.run");
    r.push(
        "generate.share",
        tr.total("zoo.generate") / zoo_wall,
        "ratio",
    );

    // convert
    let fleet = flash_fleet(seed, 2048);
    let (static_cfg, dyn_cfg) = (static_config(), DynamicConfig::paper_default());
    let mut k = 0usize;
    let rate = until(budget(0.3), || {
        let tf = &fleet[k % fleet.len()];
        k += 1;
        tr.span("convert", None, k as u64, || {
            let (ramp, sampling) = plan_ramp(tf, &static_cfg);
            let (sine, sine_sampling) = plan_sine(tf, &dyn_cfg);
            drain(CodeStream::noiseless(tf, &ramp, sampling))
                + drain(CodeStream::noiseless(tf, &sine, sine_sampling))
        })
    });
    r.push("convert.samples_per_s", rate, "samples/s");

    // engine.static and sequencer
    let static_w = Workload::static_ramp(static_cfg);
    let dyn_w = Workload::dynamic_sine(dyn_cfg);
    let full = p.screen(
        &tr,
        "engine.static",
        Screener::new(static_w),
        &fleet,
        256,
        budget(0.5),
    );
    let seq = p.screen(
        &tr,
        "engine.static.sequenced",
        Screener::new(static_w).sequencer(SequencerConfig::default()),
        &fleet,
        256,
        budget(0.5),
    );
    r.push(
        "engine.static.devices_per_s",
        full.devices_per_s(),
        "devices/s",
    );
    r.push(
        "engine.static.samples_per_s",
        full.samples_per_s(),
        "samples/s",
    );
    r.push(
        "engine.static.share",
        tr.total_self("zoo.run") / zoo_wall,
        "ratio",
    );
    r.push(
        "sequencer.early_stop_ratio",
        seq.stops as f64 / seq.devices as f64,
        "ratio",
    );
    r.push(
        "sequencer.samples_saved_ratio",
        1.0 - seq.samples_per_device() / full.samples_per_device(),
        "ratio",
    );
    r.push(
        "sequencer.ns_per_sample_ratio",
        full.samples_per_s() / seq.samples_per_s(),
        "ratio",
    );

    // engine.dynamic and pool: one and two workers, interleaved.
    let (mut one, mut two) = (Rate::default(), Rate::default());
    for _ in 0..2 {
        one.add(p.screen(
            &tr,
            "engine.dynamic",
            Screener::new(dyn_w),
            &fleet,
            256,
            budget(0.3),
        ));
        two.add(p.screen(
            &tr,
            "engine.dynamic.pool2",
            Screener::new(dyn_w).workers(2),
            &fleet,
            256,
            budget(0.3),
        ));
    }
    r.push(
        "engine.dynamic.devices_per_s",
        one.devices_per_s(),
        "devices/s",
    );
    r.push(
        "engine.dynamic.samples_per_s",
        one.samples_per_s(),
        "samples/s",
    );
    r.push(
        "engine.dynamic.share",
        tr.total("flash.dynamic") / tr.total("flash.batch"),
        "ratio",
    );
    let speedup = two.devices_per_s() / one.devices_per_s();
    r.push("pool.speedup", speedup, "ratio");
    r.push("pool.efficiency", speedup / 2.0, "ratio");

    // rtl
    let rtl_static = p.screen(
        &tr,
        "rtl.static",
        Screener::new(static_w).backend(RtlBackend::new()),
        &fleet,
        64,
        budget(0.4),
    );
    let rtl_dyn = p.screen(
        &tr,
        "rtl.dynamic",
        Screener::new(dyn_w).backend(RtlBackend::new()),
        &fleet,
        16,
        budget(0.4),
    );
    r.push(
        "rtl.static.devices_per_s",
        rtl_static.devices_per_s(),
        "devices/s",
    );
    r.push(
        "rtl.dynamic.devices_per_s",
        rtl_dyn.devices_per_s(),
        "devices/s",
    );
    r.push(
        "rtl.slowdown_vs_behavioral",
        full.devices_per_s() / rtl_static.devices_per_s(),
        "ratio",
    );

    // differential
    let rtl = RtlDifferential::setup(seed);
    let mut comparisons = 0u64;
    let t = Instant::now();
    batches_in(budget(0.8), RTL_BATCH, |range| {
        let tally = rtl.screen(range, &tr);
        comparisons += tally.devices;
        p.check(tally.devices, tally.failed);
    });
    r.push(
        "differential.comparisons_per_s",
        comparisons as f64 / t.elapsed().as_secs_f64(),
        "comparisons/s",
    );
    let mut mirror = DiffMirror::new();
    batches_in(budget(0.6), 1, |range| {
        mirror.device(seed, range.start, &tr)
    });
    r.push(
        "differential.rtl_share",
        tr.total("diff.seq_rtl")
            / (tr.total("diff.full") + tr.total("diff.seq_behavioral") + tr.total("diff.seq_rtl")),
        "ratio",
    );

    // protocol
    let service_fleet = Fleet::build(seed);
    let sub = service_fleet.submission(7);
    let verdict = bist_serve::ShardVerdict {
        id: 7,
        verdict: service_fleet.reference[7],
    };
    let client = ClientFrame::Submit(sub.clone());
    let server = ServerFrame::Verdict(verdict);
    let (mut cbuf, mut sbuf) = (Vec::new(), Vec::new());
    client.encode(&mut cbuf);
    server.encode(&mut sbuf);
    let ops = (20_000.0 * scale).max(1_000.0) as u64;
    let ns = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..ops {
            f();
        }
        t.elapsed().as_nanos() as f64 / ops as f64
    };
    let mut out = Vec::new();
    let submit_encode = tr.span("protocol.submit_encode", None, 7, || {
        ns(&mut || {
            out.clear();
            black_box(&client).encode(&mut out);
        })
    });
    let submit_decode = tr.span("protocol.submit_decode", None, 7, || {
        ns(&mut || {
            black_box(ClientFrame::decode(black_box(&cbuf)).is_ok());
        })
    });
    let verdict_encode = tr.span("protocol.verdict_encode", None, 7, || {
        ns(&mut || {
            out.clear();
            black_box(&server).encode(&mut out);
        })
    });
    let verdict_decode = tr.span("protocol.verdict_decode", None, 7, || {
        ns(&mut || {
            black_box(ServerFrame::decode(black_box(&sbuf)).is_ok());
        })
    });
    p.check(1, u64::from(ClientFrame::decode(&cbuf) != Ok(client)));
    p.check(1, u64::from(ServerFrame::decode(&sbuf) != Ok(server)));
    r.push("protocol.submit_encode_ns", submit_encode, "ns");
    r.push("protocol.submit_decode_ns", submit_decode, "ns");
    r.push("protocol.verdict_encode_ns", verdict_encode, "ns");
    r.push("protocol.verdict_decode_ns", verdict_decode, "ns");

    // service, in process: the TCP phase's schedule without the wire.
    let inproc = inproc_session(&service_fleet, &tr, budget(1.0), budget(0.6), &mut p);
    r.push(
        "service.inproc_p50_us",
        percentile(&inproc.latencies_us, 50.0),
        "us",
    );
    r.push(
        "service.inproc_p90_us",
        percentile(&inproc.latencies_us, 90.0),
        "us",
    );
    r.push(
        "service.inproc_devices_per_s",
        inproc.closed_rate,
        "devices/s",
    );
    r.push(
        "service.queue_depth_max",
        inproc.queue_depth_max as f64,
        "count",
    );

    // service over TCP: the serve_tcp timed phase, shortened.
    let tcp_seconds = (2.0 * scale).max(0.4);
    let mut tcp = serve::ServeTcp::setup(seed);
    let log = tcp.run(tcp_seconds);
    tcp.close();
    p.check(log.sent, log.failed());
    let n = log.latencies_us.len();
    let p99 = reportable_percentile(n).map_or(100.0, |q| q.min(99.0));
    r.push(
        "wire.p50_us",
        percentile(&log.latencies_us, 50.0) - percentile(&inproc.latencies_us, 50.0),
        "us",
    );
    let window = OPEN_RATE as usize;
    r.push(
        "verdict_p90_us",
        windowed_percentile(&log.latencies_us, window, 90.0),
        "us",
    );
    r.push("verdict_p99_us", percentile(&log.latencies_us, p99), "us");
    r.push("verdict_samples", n as f64, "count");
    r.push("loadgen.late_p99_us", percentile(&log.late_us, 99.0), "us");
    r.push("loadgen.late_max_us", percentile(&log.late_us, 100.0), "us");

    // Tracing overhead on the named workload's replay: the same work
    // untraced then traced, in pairs; the median of the pairs' ratios.
    let off = Tracer::off();
    let replay_service = serve::service_config().start();
    inproc_closed_on(&replay_service, &service_fleet, &off, 2_048, &mut p);
    let mut replay = |tracer: &Tracer| {
        let t = Instant::now();
        match workload {
            "zoo_screen" => {
                for b in 0..zoo_batches.div_ceil(10) {
                    zoo.screen(b * ZOO_BATCH..(b + 1) * ZOO_BATCH, tracer);
                }
            }
            "flash_full_test" => {
                for b in 0..flash_batches.div_ceil(10) {
                    flash.screen(b * FLASH_BATCH..(b + 1) * FLASH_BATCH, tracer);
                }
            }
            _ => {
                inproc_closed_on(&replay_service, &service_fleet, tracer, 8_192, &mut p);
            }
        }
        t.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..5)
        .map(|_| {
            let untraced = replay(&off);
            replay(&tr) / untraced
        })
        .collect();
    replay_service.shutdown();
    r.push("trace.overhead_ratio", median(&ratios), "ratio");
    r.push("failed_ppm", ppm(p.failed, p.attempted), "ppm");

    r.correct = p.failed == 0;
    r.attempted = p.attempted.max(1);
    r.failed = p.failed;
    let path = trace_path(workload, seed);
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", tr.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    r
}

/// Where the spans of a traced run go: `fleetbench/out/`.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"))
}

/// Failure accounting of the profile's own checks.
#[derive(Debug, Default)]
struct Profile {
    attempted: u64,
    failed: u64,
}

impl Profile {
    fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Screens `fleet` in `chunk`-device `Screener::run` calls (spans
    /// named `name`) until `budget` has passed; counts devices, samples
    /// and early stops.
    fn screen<B: Backend + Default>(
        &mut self,
        tr: &Tracer,
        name: &'static str,
        mut screener: Screener<B>,
        fleet: &[TransferFunction],
        chunk: usize,
        budget: Duration,
    ) -> Rate {
        let mut rate = Rate::default();
        let start = Instant::now();
        let mut at = 0usize;
        while rate.devices == 0 || start.elapsed() < budget {
            let end = (at + chunk).min(fleet.len());
            let reports = tr.span(name, None, at as u64, || {
                screener.run(
                    fleet[at..end]
                        .iter()
                        .enumerate()
                        .map(|(i, tf)| (tf, stream_rng(PROBE_SALT, &[(at + i) as u64]))),
                )
            });
            for rep in &reports {
                rate.devices += 1;
                rate.samples += rep.verdict.samples();
                rate.stops += u64::from(rep.verdict.stopped_early());
            }
            self.check((end - at) as u64, (end - at - reports.len()) as u64);
            at = if end == fleet.len() { 0 } else { end };
        }
        rate.secs = start.elapsed().as_secs_f64();
        rate
    }
}

/// Devices, samples and early stops screened in `secs`.
#[derive(Debug, Default, Clone, Copy)]
struct Rate {
    devices: u64,
    samples: u64,
    stops: u64,
    secs: f64,
}

impl Rate {
    fn add(&mut self, other: Rate) {
        self.devices += other.devices;
        self.samples += other.samples;
        self.stops += other.stops;
        self.secs += other.secs;
    }

    fn devices_per_s(&self) -> f64 {
        self.devices as f64 / self.secs
    }

    fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.secs
    }

    fn samples_per_device(&self) -> f64 {
        self.samples as f64 / self.devices as f64
    }
}

/// Calls `step` until `budget` has passed (at least once); returns
/// its summed work per second.
fn until(budget: Duration, mut step: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut work = 0u64;
    loop {
        work += step();
        if start.elapsed() >= budget {
            return work as f64 / start.elapsed().as_secs_f64();
        }
    }
}

/// Hands `step` consecutive `batch`-sized index ranges until `budget`
/// has passed (at least one); returns how many it handed out.
fn batches_in(
    budget: Duration,
    batch: usize,
    mut step: impl FnMut(std::ops::Range<usize>),
) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < budget {
        step(n * batch..(n + 1) * batch);
        n += 1;
    }
    n
}

/// Consumes a code stream, returning its length.
fn drain(codes: impl Iterator<Item = impl Sized>) -> u64 {
    codes.fold(0, |n, c| {
        black_box(c);
        n + 1
    })
}

/// The first `n` paper flash devices of `seed`.
fn flash_fleet(seed: u64, n: usize) -> Vec<TransferFunction> {
    let batch = Batch::of(SourceSpec::paper_flash()).seed(seed);
    (0..n).map(|i| batch.device(i)).collect()
}

/// A mirror of the differential harness's per-device work on one static
/// and one dynamic cell of its sequenced grid: the full-sweep
/// behavioural screen, the sequenced behavioural screen and the
/// sequenced RTL screen, each through `Screener::screen_one` and each in
/// its own span, so the RTL backend's share of the harness can be seen
/// from outside it.
struct DiffMirror {
    cells: Vec<MirrorCell>,
}

struct MirrorCell {
    source: SourceSpec,
    full: Screener,
    seq_b: Screener,
    seq_r: Screener<RtlBackend>,
}

impl DiffMirror {
    fn new() -> Self {
        let policy = SequencerConfig::default();
        let static_w = Workload::static_ramp(
            BistConfig::builder(
                Resolution::SIX_BIT,
                bist_adc::spec::LinearitySpec::paper_stringent(),
            )
            .counter_bits(4)
            .build()
            .expect("paper operating point"),
        );
        let dyn_w = Workload::dynamic_sine(
            DynamicConfig::new(Resolution::SIX_BIT, 4096, 1021)
                .expect("paper record")
                .with_overdrive(0.0),
        )
        .with_noise(NoiseConfig::noiseless().with_input_noise(0.002));
        let cell = |source: SourceSpec, w: Workload| MirrorCell {
            source,
            full: Screener::new(w),
            seq_b: Screener::new(w).sequencer(policy),
            seq_r: Screener::new(w)
                .sequencer(policy)
                .backend(RtlBackend::new()),
        };
        DiffMirror {
            cells: vec![
                cell(
                    IidWidthSource::new(Resolution::SIX_BIT, WidthDistribution::new(1.0, 0.21))
                        .into(),
                    static_w,
                ),
                cell(
                    FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
                        .with_width_sigma_lsb(0.16)
                        .into(),
                    dyn_w,
                ),
            ],
        }
    }

    fn device(&mut self, seed: u64, index: usize, tr: &Tracer) {
        for (c, cell) in self.cells.iter_mut().enumerate() {
            let coords = [PROBE_SALT, index as u64, c as u64];
            let tf = cell.source.sample_transfer(&mut stream_rng(seed, &coords));
            let noise = || -> StdRng { stream_rng(seed ^ 1, &coords) };
            let d = index as u64;
            tr.span("diff.full", None, d, || {
                black_box(cell.full.screen_one(&tf, &mut noise()))
            });
            tr.span("diff.seq_behavioral", None, d, || {
                black_box(cell.seq_b.screen_one(&tf, &mut noise()))
            });
            tr.span("diff.seq_rtl", None, d, || {
                black_box(cell.seq_r.screen_one(&tf, &mut noise()))
            });
        }
    }
}

/// What the in-process session measured.
struct Inproc {
    latencies_us: Vec<f64>,
    closed_rate: f64,
    queue_depth_max: u64,
}

/// The serve_tcp schedule through `ServiceHandle::submit` /
/// `recv_verdict` on one sender and one receiver thread: an open loop
/// at [`OPEN_RATE`] for `open`, then a closed loop for `closed`.
fn inproc_session(
    fleet: &Fleet,
    tr: &Tracer,
    open: Duration,
    closed: Duration,
    p: &mut Profile,
) -> Inproc {
    let handle = serve::service_config().start();
    inproc_closed_on(&handle, fleet, tr, 2_048, p);
    let n_open = ((OPEN_RATE * open.as_secs_f64()).round() as u64).max(1);
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |id: u64| t0 + Duration::from_secs_f64(id as f64 / OPEN_RATE);
    let (send_tr, recv_tr) = (tr.fork(), tr.fork());
    let (depth_max, refused, (latencies, mismatched)) = std::thread::scope(|s| {
        let handle = &handle;
        let receiver = s.spawn(move || {
            let mut latencies = Vec::with_capacity(n_open as usize);
            let mut mismatched = 0u64;
            for _ in 0..n_open {
                let Some(v) =
                    recv_tr.span("service.recv_verdict", None, 0, || handle.recv_verdict())
                else {
                    break;
                };
                latencies.push(due(v.id).elapsed().as_secs_f64() * 1e6);
                mismatched += u64::from(!fleet.matches(v.id, &v.verdict));
            }
            (latencies, mismatched, recv_tr)
        });
        let mut depth_max = 0u64;
        let mut refused = 0u64;
        for id in 0..n_open {
            let d = due(id);
            let now = Instant::now();
            if now < d {
                std::thread::sleep(d - now);
            }
            depth_max = depth_max.max(handle.telemetry().queue_depth);
            let accepted = send_tr.span("service.submit", None, id, || {
                handle.submit(fleet.submission(id)).is_accepted()
            });
            refused += u64::from(!accepted);
        }
        let (latencies, mismatched, recv_tr) = receiver.join().expect("receiver does not panic");
        tr.absorb(recv_tr);
        (depth_max, refused, (latencies, mismatched))
    });
    tr.absorb(send_tr);
    p.check(
        n_open,
        refused + mismatched + (n_open - refused).saturating_sub(latencies.len() as u64),
    );
    let t = Instant::now();
    let mut done = 0u64;
    while t.elapsed() < closed {
        done += inproc_closed_on(&handle, fleet, tr, 1_024, p);
    }
    let closed_rate = done as f64 / t.elapsed().as_secs_f64();
    handle.shutdown();
    Inproc {
        latencies_us: latencies,
        closed_rate,
        queue_depth_max: depth_max,
    }
}

/// A closed loop of `n` submissions with [`WINDOW`] in flight on one
/// thread; returns the verdicts received.
fn inproc_closed_on(
    handle: &ServiceHandle,
    fleet: &Fleet,
    tr: &Tracer,
    n: u64,
    p: &mut Profile,
) -> u64 {
    let (mut sent, mut got, mut failed) = (0u64, 0u64, 0u64);
    let submit = |id: u64| -> Option<Submission> {
        match tr.span("service.submit", None, id, || {
            handle.submit(fleet.submission(id))
        }) {
            Enqueue::Accepted => None,
            Enqueue::Busy(s) | Enqueue::Closed(s) => Some(s),
        }
    };
    while got < n {
        while sent < n && sent - got < WINDOW as u64 {
            if submit(sent).is_some() {
                // Refused: no verdict will come for it.
                failed += 1;
                got += 1;
            }
            sent += 1;
        }
        if got >= n {
            break;
        }
        match tr.span("service.recv_verdict", None, got, || handle.recv_verdict()) {
            Some(v) => failed += u64::from(!fleet.matches(v.id, &v.verdict)),
            None => break,
        }
        got += 1;
    }
    p.check(n, failed + (n - got));
    got
}
