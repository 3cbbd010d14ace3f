//! Experiment E17: **resident-service soak** — the `bist-serve`
//! streaming front door against the one-shot batched pool, on
//! exactness first and relative speed second.
//!
//! Part 1 streams a mixed static + dynamic fleet through a resident
//! service at 1 worker and again at 4 workers and demands both runs be
//! bit-identical to `Screener::run` on the same devices with the same
//! per-submission RNG streams. **Any mismatch counts as a divergence
//! and fails the run** (exit 1). A FNV-1a `report_checksum` over the
//! id-sorted verdicts is emitted so two runs at different worker counts
//! can be diffed from their JSON records alone — worker-count
//! determinism as a service invariant, continuously gated.
//!
//! Part 2 times the streaming path (submit interleaved with verdict
//! receipt, ids round-tripping through the rings) against the pooled
//! `Screener::run` floor on the same fleet, in interleaved pass pairs
//! (`bist_bench::speed_ratio`). Streaming adds queue hops and
//! per-device routing, so it may not beat the batch engine — but the
//! median pair must stay within the 0.8x ratio floor or the run fails.
//! The timed stream only counts its verdicts; Part 1 alone formats and
//! sorts them. Absolute devices/s are fleetbench's to measure
//! (`service.inproc_devices_per_s`, `serve_tcp`).
//!
//! Part 3 floods a deliberately tiny service (4-slot rings, burst 2)
//! and checks the overload contract: `Busy` must actually occur, the
//! sampled queue depth must never exceed the configured capacity, and
//! a drain-and-retry loop must land every verdict exactly once.
//!
//! Part 4 submits a burst and shuts down immediately: the drain report
//! must complete every accepted device, and the final telemetry
//! snapshot must parse through `record_metrics` — the flat JSON shape
//! of every record this crate writes.
//!
//! Knobs: `BIST_DEVICES` (default 600), `BIST_DYN_DEVICES` (default
//! 96), `BIST_WORKERS` (default 0 = all cores).

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_bench::{record_metrics, speed_ratio, Fnv, Scenario, SEED};
use bist_core::config::BistConfig;
use bist_core::dynamic::DynamicConfig;
use bist_core::pool;
use bist_core::ring::Enqueue;
use bist_core::screener::{Screener, Workload};
use bist_core::shard::{JobKind, ShardVerdict};
use bist_mc::batch::Batch;
use bist_serve::{submission_rng, ServiceConfig, ServiceHandle, Submission};
use std::fmt::Write as _;

const SEED_MIX: u64 = 0x9e37_79b9;
/// Floor on the streamed path's speed over the pooled one's.
const MIN_RATIO: f64 = 0.8;

fn main() {
    let mut clean = true;
    Scenario::run("service_soak", |sc| clean = run(sc));
    if !clean {
        eprintln!("service_soak: divergence or service-contract failure — failing the run");
        std::process::exit(1);
    }
}

fn static_workload() -> Workload {
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(6)
        .build()
        .expect("paper operating point");
    Workload::static_ramp(config)
}

fn dyn_workload() -> Workload {
    Workload::dynamic_sine(DynamicConfig::paper_default())
}

/// The soak fleet: mismatched six-bit devices, statics first, each
/// submission carrying an id-derived RNG seed.
fn fleet(seed: u64, n_static: usize, n_dyn: usize) -> Vec<Submission> {
    let batch = Batch::paper_simulation(seed, n_static + n_dyn);
    (0..n_static + n_dyn)
        .map(|i| Submission {
            id: i as u64,
            kind: if i < n_static {
                JobKind::Static
            } else {
                JobKind::Dynamic
            },
            adc: batch.device(i),
            seed: seed ^ (i as u64).wrapping_mul(SEED_MIX),
        })
        .collect()
}

/// Reference verdicts by submission id from the one-shot engine, one
/// `Screener::run` per workload group.
fn reference(subs: &[Submission]) -> Vec<(u64, String)> {
    let mut expect = Vec::new();
    for (workload, kind) in [
        (static_workload(), JobKind::Static),
        (dyn_workload(), JobKind::Dynamic),
    ] {
        let group: Vec<&Submission> = subs.iter().filter(|s| s.kind == kind).collect();
        if group.is_empty() {
            continue;
        }
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
    expect
}

/// Streams the whole fleet through `handle` — submissions interleaved
/// with verdict receipts so a bounded pipeline never deadlocks — and
/// hands each verdict to `sink` as it arrives.
fn stream(handle: &ServiceHandle, subs: &[Submission], mut sink: impl FnMut(ShardVerdict)) {
    let mut received = 0;
    for sub in subs {
        let mut pending = sub.clone();
        loop {
            match handle.submit(pending) {
                Enqueue::Accepted => break,
                Enqueue::Busy(back) => {
                    sink(handle.recv_verdict().expect("stream open"));
                    received += 1;
                    pending = back;
                }
                Enqueue::Closed(_) => unreachable!("service closed mid-stream"),
            }
        }
        // Opportunistically drain so the verdict ring stays shallow.
        while let Some(v) = handle.try_recv_verdict() {
            sink(v);
            received += 1;
        }
    }
    while received < subs.len() {
        sink(
            handle
                .recv_verdict()
                .expect("stream open while devices in flight"),
        );
        received += 1;
    }
}

/// The id-sorted verdicts of streaming the whole fleet through `handle`.
fn stream_fleet(handle: &ServiceHandle, subs: &[Submission]) -> Vec<(u64, String)> {
    let mut got = Vec::with_capacity(subs.len());
    stream(handle, subs, |v| {
        got.push((v.id, format!("{:?}", v.verdict)))
    });
    got.sort();
    got
}

fn run(sc: &mut Scenario) -> bool {
    let devices = sc.usize_knob("BIST_DEVICES", 600);
    let dyn_devices = sc.usize_knob("BIST_DYN_DEVICES", 96);
    let workers = pool::resolve_workers(sc.workers());
    let total = devices + dyn_devices;

    let subs = fleet(SEED, devices, dyn_devices);
    let expect = reference(&subs);

    // --- Part 1: exactness and worker-count determinism -------------
    let mut divergences = 0u64;
    let mut checksums = Vec::new();
    for service_workers in [1usize, 4] {
        let handle = ServiceConfig::new()
            .with_workload(static_workload())
            .with_workload(dyn_workload())
            .with_workers(service_workers)
            .start();
        let got = stream_fleet(&handle, &subs);
        let drain = handle.shutdown();
        if drain.telemetry.completed != total as u64 {
            println!(
                "DIVERGENCE: service at {service_workers} workers completed {} of {total}",
                drain.telemetry.completed
            );
            divergences += 1;
        }
        for ((gid, gv), (eid, ev)) in got.iter().zip(&expect) {
            if gid != eid || gv != ev {
                if divergences < 5 {
                    println!(
                        "DIVERGENCE ({service_workers} workers) device {gid}: \
                         streamed {gv} vs Screener::run {ev}"
                    );
                }
                divergences += 1;
            }
        }
        let mut fnv = Fnv::default();
        for (id, verdict) in &got {
            write!(fnv, "{id}:{verdict};").expect("hashing text cannot fail");
        }
        checksums.push(fnv.finish());
    }
    let deterministic = checksums.windows(2).all(|w| w[0] == w[1]);
    if !deterministic {
        println!("DIVERGENCE: report checksums differ across worker counts: {checksums:x?}");
    }
    println!(
        "exactness: {devices} static + {dyn_devices} dynamic devices streamed at \
         1 and 4 workers → {divergences} divergences, checksum {:#018x}",
        checksums[0]
    );

    // --- Part 2: streaming speed vs the batched-pool floor ----------
    let pooled = || {
        let static_reports = Screener::new(static_workload()).workers(workers).run(
            subs[..devices]
                .iter()
                .map(|s| (s.adc.clone(), submission_rng(s.seed))),
        );
        let dyn_reports = Screener::new(dyn_workload()).workers(workers).run(
            subs[devices..]
                .iter()
                .map(|s| (s.adc.clone(), submission_rng(s.seed))),
        );
        std::hint::black_box(static_reports.len() + dyn_reports.len());
    };
    let handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workload(dyn_workload())
        .with_workers(workers)
        .start();
    let ratio = speed_ratio(pooled, || {
        stream(&handle, &subs, |v| {
            std::hint::black_box(v);
        });
    });
    handle.shutdown();
    println!(
        "speed ({total} devices, {workers} workers): streamed {ratio:.2}x pooled \
         (floor {MIN_RATIO:.2}x)"
    );

    // --- Part 3: overload stays bounded, drains without loss --------
    const TINY_CAPACITY: usize = 4;
    let overload = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .with_burst(2)
        .with_submit_capacity(TINY_CAPACITY)
        .with_verdict_capacity(TINY_CAPACITY)
        .start();
    let flood: Vec<&Submission> = subs[..devices.min(64)].iter().collect();
    let mut busy_responses = 0u64;
    let mut max_depth = 0u64;
    let mut received = Vec::new();
    for &sub in &flood {
        let mut pending = sub.clone();
        loop {
            let depth = overload.telemetry().queue_depth;
            max_depth = max_depth.max(depth);
            match overload.submit(pending) {
                Enqueue::Accepted => break,
                Enqueue::Busy(back) => {
                    busy_responses += 1;
                    let v = overload.recv_verdict().expect("stream open");
                    received.push(v.id);
                    pending = back;
                }
                Enqueue::Closed(_) => unreachable!("service closed mid-flood"),
            }
        }
    }
    while received.len() < flood.len() {
        received.push(overload.recv_verdict().expect("stream open").id);
    }
    received.sort_unstable();
    let no_loss = received == flood.iter().map(|s| s.id).collect::<Vec<_>>();
    let bounded = max_depth <= TINY_CAPACITY as u64;
    overload.shutdown();
    println!(
        "overload: {} devices through {TINY_CAPACITY}-slot rings → {busy_responses} Busy, \
         max sampled depth {max_depth} (bound {TINY_CAPACITY}), loss-free: {no_loss}",
        flood.len()
    );

    // --- Part 4: shutdown drain + telemetry JSON contract -----------
    let drain_service = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(2)
        .start();
    const IN_FLIGHT: usize = 32;
    for sub in &subs[..IN_FLIGHT.min(devices)] {
        assert!(drain_service.submit(sub.clone()).is_accepted());
    }
    let drain = drain_service.shutdown();
    let drain_complete = drain.telemetry.completed == IN_FLIGHT.min(devices) as u64;
    let json = drain.telemetry.to_json();
    let parsed = record_metrics(&json);
    let json_ok = ["submitted", "completed", "queue_depth", "devices_per_s"]
        .iter()
        .all(|k| parsed.iter().any(|(key, _)| key == k));
    println!(
        "shutdown: {} in-flight devices drained (complete: {drain_complete}), \
         telemetry JSON exposes {} metrics (contract: {json_ok})",
        IN_FLIGHT.min(devices),
        parsed.len()
    );

    sc.metric_count("divergences", divergences + u64::from(!deterministic));
    sc.metric_count("report_checksum", checksums[0]);
    sc.metric("stream_ratio_x", ratio);
    sc.metric_count("busy_responses", busy_responses);
    sc.metric_count("max_queue_depth", max_depth);
    sc.metric_count("workers", workers as u64);
    let path = sc.csv(
        "service_soak.csv",
        &["ratio", "value_x", "floor_x"],
        &[vec![
            "streamed/pooled".into(),
            format!("{ratio:.3}"),
            format!("{MIN_RATIO:.1}"),
        ]],
    );
    eprintln!("wrote {}", path.display());

    let clean = devices > 0
        && dyn_devices > 0
        && divergences == 0
        && deterministic
        && ratio >= MIN_RATIO
        && busy_responses > 0
        && bounded
        && no_loss
        && drain_complete
        && json_ok;
    if clean {
        println!(
            "reading: the resident service streams bit-identical verdicts at any worker \
             count ({ratio:.2}x the"
        );
        println!(
            "batched-pool floor), answers overload with Busy instead of growth, and \
             completes every"
        );
        println!("accepted device through shutdown — the paper's screen, now a front door.");
    } else {
        println!(
            "reading: GATE FAILED — divergences {divergences}, deterministic {deterministic}, \
             ratio {ratio:.2}x (≥{MIN_RATIO:.2}x?), busy {busy_responses} (>0?), \
             bounded {bounded}, loss-free {no_loss}, drain {drain_complete}, json {json_ok}"
        );
    }
    clean
}
