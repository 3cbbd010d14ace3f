//! Proves the acceptance criterion of the streaming engine: after
//! warm-up, the device→verdict hot paths — scalar `Screener::screen_one`
//! on every workload × backend × sequencing combination, the
//! batch `Screener::screen` on both workloads, the pooled worker drain and
//! the resident `bist-serve` service's submit→verdict round trip —
//! perform **zero heap allocations**, and a warm single-worker
//! `Screener::run` allocates only the report `Vec` it returns.
//!
//! A counting global allocator wraps the system allocator; the test
//! warms each engine on a first pass (buffers reach the workload's
//! high-water mark), snapshots the allocation counter, screens several
//! more devices and asserts the counter did not move. Kept alone in
//! this integration-test binary so no sibling test thread can perturb
//! the counter.

use bist_adc::faults::{FaultyAdc, OutputFault};
use bist_adc::noise::NoiseConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::{Adc, TransferFunction};
use bist_adc::types::{Resolution, Volts};
use bist_core::backend::RtlBackend;
use bist_core::batch::BatchDevice;
use bist_core::config::BistConfig;
use bist_core::dynamic::DynamicConfig;
use bist_core::pool::{drain, DeviceQueue};
use bist_core::screener::{Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_core::shard::JobKind;
use bist_serve::{ServiceConfig, Submission};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System`'s allocator — every method
// forwards its arguments unchanged, so `System` upholds the `GlobalAlloc`
// contract; the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (non-zero
    // `layout`); we forward it verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (`ptr`
    // came from this allocator with `layout`); forwarded to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract (`ptr`
    // came from this allocator with `layout`); forwarded to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A mildly non-ideal device so the monitor exercises failure paths too.
fn device() -> TransferFunction {
    let mut t: Vec<f64> = (1..=63).map(|k| k as f64 * 0.1).collect();
    t[20] += 0.04;
    t[40] -= 0.03;
    TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t)
}

#[test]
fn hot_path_is_allocation_free_after_warmup() {
    // Cover the configuration space of the hot path: plain, deglitched,
    // and noisy sweeps (noise draws use stack-only samplers).
    let plain = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()
        .unwrap();
    let deglitched = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(6)
        .deglitch(true)
        .build()
        .unwrap();
    let noise = NoiseConfig::noiseless().with_transition_noise(0.003);
    let dyn_config = DynamicConfig::paper_default();
    let dyn_noise = NoiseConfig::noiseless().with_input_noise(0.002);
    let adc = device();

    // The one front door, every mode it can open: workload × backend ×
    // sequencing. Each `Screener` owns its scratch (and, when
    // sequenced, its sequencer), so one warm pass per screener reaches
    // the steady state a fleet loop would run in.
    let w_plain = Workload::static_ramp(plain);
    let w_noisy = Workload::static_ramp(deglitched)
        .with_noise(noise)
        .with_slope_error(-0.01);
    let w_dyn = Workload::dynamic_sine(dyn_config).with_noise(dyn_noise);
    let policy = SequencerConfig::default();

    let mut s_plain = Screener::new(w_plain);
    let mut s_noisy = Screener::new(w_noisy);
    let mut s_plain_rtl = Screener::new(w_plain).backend(RtlBackend::new());
    let mut s_noisy_rtl = Screener::new(w_noisy).backend(RtlBackend::new());
    let mut s_dyn = Screener::new(w_dyn);
    let mut s_dyn_rtl = Screener::new(w_dyn).backend(RtlBackend::new());
    let mut q_plain = Screener::new(w_plain).sequencer(policy);
    let mut q_plain_rtl = Screener::new(w_plain)
        .backend(RtlBackend::new())
        .sequencer(policy);
    let mut q_dyn = Screener::new(w_dyn).sequencer(policy);
    let mut q_dyn_rtl = Screener::new(w_dyn)
        .backend(RtlBackend::new())
        .sequencer(policy);

    let mut screen_all = |accepted: &mut u32, stopped: &mut u32| {
        for round in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(round);
            *accepted += u32::from(s_plain.screen_one(&adc, &mut rng).accepted());
            *accepted += u32::from(s_noisy.screen_one(&adc, &mut rng).accepted());
            *accepted += u32::from(s_plain_rtl.screen_one(&adc, &mut rng).accepted());
            *accepted += u32::from(s_noisy_rtl.screen_one(&adc, &mut rng).accepted());
            *accepted += u32::from(s_dyn.screen_one(&adc, &mut rng).accepted());
            *accepted += u32::from(s_dyn_rtl.screen_one(&adc, &mut rng).accepted());
            let a = q_plain.screen_one(&adc, &mut rng);
            let b = q_plain_rtl.screen_one(&adc, &mut rng);
            let c = q_dyn.screen_one(&adc, &mut rng);
            let d = q_dyn_rtl.screen_one(&adc, &mut rng);
            assert_eq!(a.decision(), b.decision(), "sequenced backends diverged");
            assert_eq!(
                c.decision(),
                d.decision(),
                "sequenced dynamic backends diverged"
            );
            *stopped += u32::from(a.stopped_early())
                + u32::from(b.stopped_early())
                + u32::from(c.stopped_early())
                + u32::from(d.stopped_early());
        }
    };

    let (mut warm_accepted, mut warm_stopped) = (0u32, 0u32);
    screen_all(&mut warm_accepted, &mut warm_stopped);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let (mut accepted, mut stopped) = (0u32, 0u32);
    screen_all(&mut accepted, &mut stopped);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "scalar hot path allocated {} times after warm-up",
        after - before
    );
    // The verdicts must still be real work, not dead code.
    assert!(accepted <= 18);
    assert!(stopped > 0, "no sequenced run stopped early");

    // The batch engines get the same guarantee: sequencers, the shared
    // stimulus table, the coded record rows and the caller's report
    // buffer all reach their high-water mark on the first pass, and a
    // warm engine screening into a cleared buffer allocates nothing
    // afterwards. Six engines cover run-skip and fallback static sweeps,
    // and the coded and scalar-judged dynamic records, plain and sequenced
    // — the sequenced run-skip sweep with its checkpoints being the
    // fleet path. The mixed stream interleaves scalar-judged devices (a
    // fault-wrapped converter states no levels) with 11 coded ones: one
    // full 8-device group, then a partial group of 3 flushed when the
    // stream ends.
    const FLEET: usize = 8;
    const MIXED: usize = 13;
    let w_dyn_plain = Workload::dynamic_sine(dyn_config);
    let faulty = FaultyAdc::new(device(), OutputFault::CodeOffset(1));
    let mut b_static = Screener::new(w_plain);
    let mut b_static_seq = Screener::new(w_noisy).sequencer(policy);
    let mut b_skip_seq = Screener::new(w_plain).sequencer(policy);
    let mut b_dyn = Screener::new(w_dyn_plain);
    let mut b_dyn_seq = Screener::new(w_dyn).sequencer(policy);
    let mut b_dyn_mixed = Screener::new(w_dyn_plain);
    let mut reports = Vec::new();

    let mut batch_all = |accepted: &mut u32, stopped: &mut u32| {
        let fleet =
            || (0..FLEET).map(|i| BatchDevice::new(i, &adc, StdRng::seed_from_u64(i as u64)));
        // Early stops are counted on the sequenced run-skip sweep.
        for (engine, count_stops) in [
            (&mut b_static, false),
            (&mut b_static_seq, false),
            (&mut b_skip_seq, true),
            (&mut b_dyn, false),
            (&mut b_dyn_seq, false),
        ] {
            reports.clear();
            engine.screen(fleet(), &mut reports);
            for r in &reports {
                *accepted += u32::from(r.verdict.accepted());
                *stopped += u32::from(count_stops && r.verdict.stopped_early());
            }
        }
        let mixed = (0..MIXED).map(|i| {
            let dev: &dyn Adc = if i % 5 == 4 { &faulty } else { &adc };
            BatchDevice::new(i, dev, StdRng::seed_from_u64(i as u64))
        });
        reports.clear();
        b_dyn_mixed.screen(mixed, &mut reports);
        assert_eq!(reports.len(), MIXED, "every mixed device is reported");
        for r in &reports {
            *accepted += u32::from(r.verdict.accepted());
        }
    };

    let (mut warm_batch_accepted, mut warm_batch_stopped) = (0u32, 0u32);
    batch_all(&mut warm_batch_accepted, &mut warm_batch_stopped);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let (mut batch_accepted, mut batch_stopped) = (0u32, 0u32);
    batch_all(&mut batch_accepted, &mut batch_stopped);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "batched hot path allocated {} times after warm-up",
        after - before
    );
    assert!(batch_accepted <= (5 * FLEET + MIXED) as u32);
    assert_eq!(
        (batch_accepted, batch_stopped),
        (warm_batch_accepted, warm_batch_stopped),
        "warm engines must reproduce the warm-up pass verdicts"
    );
    assert!(
        batch_stopped > 0,
        "no run-skip sweep stopped at a checkpoint"
    );

    // A warm single-worker `Screener::run` streams the fleet through the
    // screener's own engine, so the report `Vec` it returns is the only
    // allocation of each call — static and dynamic, plain and sequenced.
    let mut r_static = Screener::new(w_plain);
    let mut r_static_seq = Screener::new(w_plain).sequencer(policy);
    let mut r_dyn = Screener::new(w_dyn_plain);
    let mut r_dyn_seq = Screener::new(w_dyn).sequencer(policy);
    let mut run_all = || -> u32 {
        let fleet = || (0..FLEET).map(|i| (&adc, StdRng::seed_from_u64(i as u64)));
        [
            r_static.run(fleet()),
            r_static_seq.run(fleet()),
            r_dyn.run(fleet()),
            r_dyn_seq.run(fleet()),
        ]
        .iter()
        .flatten()
        .map(|r| u32::from(r.verdict.accepted()))
        .sum()
    };
    let warm_run_accepted = run_all();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let run_accepted = run_all();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        4,
        "four warm `Screener::run` calls allocated {} times, not once each",
        after - before
    );
    assert_eq!(
        run_accepted, warm_run_accepted,
        "a warm screener must reproduce its first run's verdicts"
    );

    // The pooled per-worker drain gets the same guarantee: a worker's
    // steady state claims a chunk (one `fetch_add` plus a buffer move)
    // and streams it into its engine. Packing a fleet into a
    // `DeviceQueue` allocates, so the queues are prebuilt before the
    // snapshot; the drain itself — warm engines, a reused report
    // buffer — must not allocate.
    let make_queue = |chunk: usize| {
        DeviceQueue::new(
            (0..FLEET).map(|i| BatchDevice::new(i, &adc, StdRng::seed_from_u64(i as u64))),
            chunk,
        )
    };
    let mut p_static = Screener::new(w_plain);
    let mut p_dyn = Screener::new(w_dyn_plain);

    let mut drain_accepted = |q_static: &DeviceQueue<_, _>, q_dyn: &DeviceQueue<_, _>| -> u32 {
        reports.clear();
        drain(&mut p_static, q_static, &mut reports);
        drain(&mut p_dyn, q_dyn, &mut reports);
        reports
            .iter()
            .map(|r| u32::from(r.verdict.accepted()))
            .sum()
    };

    let warm_pool_accepted = drain_accepted(&make_queue(3), &make_queue(3));

    let q_static = make_queue(3);
    let q_dyn = make_queue(3);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let pool_accepted = drain_accepted(&q_static, &q_dyn);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "pooled worker drain allocated {} times after warm-up",
        after - before
    );
    assert_eq!(
        pool_accepted, warm_pool_accepted,
        "reused worker engines must reproduce the warm pass verdicts"
    );

    // The resident service steady state (`bist-serve`): submissions
    // enter a bounded ring, the worker screens each burst in place
    // through its warm engines, and verdicts leave through a second
    // ring. The rings move items inside preallocated slots and the
    // worker reuses its engines and burst buffers, so after one warm
    // round the whole submit→verdict round trip must not allocate.
    // Building a round clones each device, so both rounds are built
    // before the snapshot.
    const SERVICE_ROUND: u64 = 48;
    let handle = ServiceConfig::new()
        .with_workload(w_noisy)
        .with_workload(w_dyn)
        .with_workers(1)
        .with_burst(8)
        .start();
    let round = || -> Vec<Submission> {
        (0..SERVICE_ROUND)
            .map(|id| Submission {
                id,
                kind: if id % 2 == 0 {
                    JobKind::Static
                } else {
                    JobKind::Dynamic
                },
                adc: adc.clone(),
                seed: id,
            })
            .collect()
    };
    let service_round = |subs: Vec<Submission>| -> u32 {
        for sub in subs {
            assert!(handle.submit(sub).is_accepted());
        }
        (0..SERVICE_ROUND)
            .map(|_| {
                let verdict = handle.recv_verdict().expect("the service is running");
                u32::from(verdict.verdict.accepted())
            })
            .sum()
    };

    let warm_service_accepted = service_round(round());
    let subs = round();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let service_accepted = service_round(subs);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "resident service submit→verdict steady state allocated {} times after warm-up",
        after - before
    );
    assert_eq!(
        service_accepted, warm_service_accepted,
        "the resident service must reproduce the warm round's verdicts"
    );
    assert_eq!(handle.shutdown().telemetry.completed, 2 * SERVICE_ROUND);
}
