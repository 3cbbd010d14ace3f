//! The service invariant, property-tested: for any fleet size, worker
//! count 1–16, arrival order, and static/dynamic mix, the
//! verdicts a resident service streams back are bit-identical to what
//! `Screener::run` reports for the same devices with the same
//! per-submission RNG streams.

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::dynamic::DynamicConfig;
use bist_core::screener::{Screener, Workload};
use bist_core::source::{SourceSpec, Zoo};
use bist_mc::batch::Batch;
use bist_serve::{submission_rng, JobKind, ServiceConfig, Submission};
use proptest::prelude::*;

fn static_workload() -> Workload {
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()
        .expect("paper-range counter");
    Workload::static_ramp(config)
}

/// A short coherent record keeps each case cheap while exercising the
/// Goertzel bank and the coded group kernel.
fn dyn_workload() -> Workload {
    Workload::dynamic_sine(DynamicConfig::new(Resolution::SIX_BIT, 512, 127).expect("coherent"))
}

/// The submissions of one generated fleet: mismatched six-bit devices,
/// ids 0..n, statics first, each with a seed derived from its id.
fn fleet(fleet_seed: u64, n_static: usize, n_dyn: usize) -> Vec<Submission> {
    let batch = Batch::paper_simulation(fleet_seed, n_static + n_dyn);
    (0..n_static + n_dyn)
        .map(|i| Submission {
            id: i as u64,
            kind: if i < n_static {
                JobKind::Static
            } else {
                JobKind::Dynamic
            },
            adc: batch.device(i),
            seed: fleet_seed ^ (i as u64).wrapping_mul(0x9e3779b9),
        })
        .collect()
}

/// Reference verdicts by submission id, via one `Screener::run` per
/// workload (single-worker in-thread engine). Rendered to `Debug`
/// strings so NaN-bearing dynamic verdicts still compare exactly.
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

/// A permutation of 0..n derived from `seed` (Fisher–Yates over a
/// splitmix stream), so arrival order is an explored dimension.
fn arrival_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Streamed verdicts ≡ `Screener::run`, any workers × arrival
    /// order × workload mix.
    #[test]
    fn streamed_verdicts_match_screener_run(
        fleet_seed in any::<u64>(),
        n_static in 0usize..12,
        n_dyn in 0usize..5,
        workers in 1usize..17,
        order_seed in any::<u64>(),
    ) {
        prop_assume!(n_static + n_dyn > 0);
        let subs = fleet(fleet_seed, n_static, n_dyn);
        let expect = reference(&subs);

        let handle = ServiceConfig::new()
            .with_workload(static_workload())
            .with_workload(dyn_workload())
            .with_workers(workers)
            .with_burst(4)
            .start();
        for &i in &arrival_order(subs.len(), order_seed) {
            let enq = handle.submit(subs[i].clone());
            prop_assert!(enq.is_accepted(), "default capacity fits the whole fleet");
        }
        let mut got = Vec::new();
        for _ in 0..subs.len() {
            let v = handle.recv_verdict().expect("stream open while devices in flight");
            got.push((v.id, format!("{:?}", v.verdict)));
        }
        got.sort();
        prop_assert_eq!(got, expect);

        let report = handle.shutdown();
        prop_assert_eq!(report.telemetry.completed, subs.len() as u64);
        prop_assert_eq!(report.telemetry.submitted, subs.len() as u64);
        prop_assert!(report.verdicts.is_empty(), "every verdict was already received");
    }
}

/// The zoo seam through the front door: a mixed flash/iid/SAR/pipeline
/// fleet built from `Zoo::device` streams back verdicts
/// bit-identical to `Screener::run` over the same devices and noise
/// streams — the service needs no idea which architecture it screens.
#[test]
fn zoo_submissions_match_screener_run() {
    let zoo = Zoo::paper().with_seed(71);
    let n = 16u64;
    // Alternate workloads so both resident engines see every
    // architecture the zoo deals out.
    let subs: Vec<Submission> = (0..n)
        .map(|i| {
            let kind = if i % 2 == 0 {
                JobKind::Static
            } else {
                JobKind::Dynamic
            };
            Submission {
                id: i,
                kind,
                adc: zoo.device(i as usize),
                seed: 0xa11c_e5ed ^ i,
            }
        })
        .collect();
    let census = zoo.census(n as usize);
    assert!(
        census.iter().filter(|&&c| c > 0).count() >= 3,
        "fleet of {n} should mix at least three architectures, got {census:?}"
    );
    let expect = reference(&subs);

    let handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workload(dyn_workload())
        .with_workers(4)
        .start();
    for sub in &subs {
        assert!(handle.submit(sub.clone()).is_accepted());
    }
    let mut got = Vec::new();
    for _ in 0..subs.len() {
        let v = handle
            .recv_verdict()
            .expect("stream open while devices in flight");
        got.push((v.id, format!("{:?}", v.verdict)));
    }
    got.sort();
    assert_eq!(got, expect);
    handle.shutdown();
}

/// `Submission::from_source` draws the very devices `Batch::of` would:
/// the service and the batch pipeline share one sampling seam.
#[test]
fn from_source_matches_batch_devices() {
    for source in [
        SourceSpec::paper_flash(),
        SourceSpec::paper_iid(),
        SourceSpec::paper_sar(),
        SourceSpec::paper_pipeline(),
    ] {
        let batch = Batch::of(source).seed(9);
        for i in 0..4u64 {
            let sub = Submission::from_source(JobKind::Static, source, 9, i, 55);
            assert_eq!(sub.id, i);
            assert_eq!(sub.seed, 55);
            assert_eq!(sub.adc, batch.device(i as usize), "{source} device {i}");
        }
    }
}
