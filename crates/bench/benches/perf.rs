//! Criterion performance benchmarks for the simulation substrate and
//! the BIST processing path.
//!
//! These quantify the cost of regenerating the paper's experiments:
//! device synthesis, conversion, device generation per architecture, the
//! LSB monitor (behavioural and RTL), the §3 quadrature, and a full
//! screening experiment.

use bist_adc::flash::FlashConfig;
use bist_adc::histogram::{ramp_linearity, CodeHistogram};
use bist_adc::pipeline::PipelineConfig;
use bist_adc::sampler::{acquire, SamplingConfig};
use bist_adc::sar::SarConfig;
use bist_adc::signal::Ramp;
use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::Adc;
use bist_adc::types::{Resolution, Volts};
use bist_core::analytic::{code_probabilities, WidthDistribution};
use bist_core::backend::RtlBackend;
use bist_core::config::BistConfig;
use bist_core::harness::{bist_from_capture, plan_ramp};
use bist_core::limits::CountLimits;
use bist_core::lsb_monitor::monitor_bit_stream;
use bist_core::screener::{Screener, Workload};
use bist_dsp::fft::fft_in_place;
use bist_dsp::sinefit::fit_sine_4param;
use bist_dsp::Complex64;
use bist_mc::batch::Batch;
use bist_mc::experiment::Experiment;
use bist_rtl::datapath::LsbProcessor;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn paper_config(bits: u32) -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(bits)
        .build()
        .expect("paper operating point")
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[1024usize, 4096] {
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.01).sin(), 0.0))
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("radix2_{n}"), |b| {
            b.iter_batched(
                || signal.clone(),
                |mut data| {
                    fft_in_place(&mut data).expect("power-of-two length");
                    black_box(data)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_flash(c: &mut Criterion) {
    let mut group = c.benchmark_group("flash");
    let cfg = FlashConfig::paper_device();
    group.bench_function("sample_device", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(cfg.sample(&mut rng)))
    });
    let adc = cfg.sample(&mut StdRng::seed_from_u64(2));
    group.throughput(Throughput::Elements(1));
    group.bench_function("convert", |b| {
        let mut v = 0.0f64;
        b.iter(|| {
            v = (v + 0.37) % 6.4;
            black_box(adc.convert(Volts(v)))
        })
    });
    group.finish();
}

/// Device generation as a screen sees it: draw a paper device and state
/// its transition levels. SAR and pipeline derive them from their
/// comparator models; flash sorts its drawn ladder.
fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.throughput(Throughput::Elements(1));
    let sar = SarConfig::paper_device();
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("sar_transfer", |b| {
        b.iter(|| black_box(sar.sample(&mut rng).transfer()))
    });
    let pipeline = PipelineConfig::paper_device();
    group.bench_function("pipeline_transfer", |b| {
        b.iter(|| black_box(pipeline.sample(&mut rng).transfer()))
    });
    let flash = FlashConfig::paper_device();
    group.bench_function("flash_transfer", |b| {
        b.iter(|| black_box(flash.sample(&mut rng).transfer()))
    });
    group.finish();
}

fn bench_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor");
    let config = paper_config(4);
    let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(3));
    let slope = config.delta_s().0 * 0.1 * 1.0e6;
    let capture = acquire(
        &adc,
        &Ramp::new(Volts(-0.2), slope),
        SamplingConfig::new(1.0e6, ((6.4 + 1.4) / slope * 1.0e6) as usize),
    );
    let stream: Vec<bool> = capture.bits(0).collect();
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("behavioural_sweep", |b| {
        b.iter(|| black_box(monitor_bit_stream(&config, &stream)))
    });
    group.bench_function("rtl_sweep", |b| {
        b.iter(|| {
            let mut rtl = LsbProcessor::new(config.to_rtl());
            let mut fails = 0u64;
            for &bit in &stream {
                if let Some(m) = rtl.tick(bit) {
                    if !m.dnl_verdict.is_pass() {
                        fails += 1;
                    }
                }
            }
            black_box(fails)
        })
    });
    group.finish();
}

fn bench_full_bist(c: &mut Criterion) {
    let mut group = c.benchmark_group("harness");
    group.sample_size(30);
    let config = paper_config(4);
    let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(4));
    // Full-outcome screening (codes + tallies, not just the verdict) —
    // the cost of `screen_one` plus materialising the `BistOutcome`.
    group.bench_function("screen_one_outcome_4bit", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut screener = Screener::new(Workload::static_ramp(config));
        b.iter(|| {
            let verdict = screener.screen_one(&adc, &mut rng);
            black_box(
                screener
                    .take_static_outcome(&verdict)
                    .expect("static workload"),
            )
        })
    });
    group.finish();
}

/// The single-device hot path of the streaming engine: one device in,
/// one verdict out, scratch reused — zero heap allocations after
/// warm-up (asserted by `bist-core`'s `tests/zero_alloc.rs`). The
/// `materialized` variant is the seed two-pass path (capture a `Vec`,
/// then process) kept for run-over-run comparison.
fn bench_device_to_verdict(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(40);
    let config = paper_config(4);
    let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(4));
    let samples = {
        // One warm-up sweep sizes the throughput annotation.
        let mut screener = Screener::new(Workload::static_ramp(config));
        let mut rng = StdRng::seed_from_u64(5);
        screener.screen_one(&adc, &mut rng).samples()
    };
    group.throughput(Throughput::Elements(samples));
    group.bench_function("device_to_verdict", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut screener = Screener::new(Workload::static_ramp(config));
        b.iter(|| black_box(screener.screen_one(&adc, &mut rng)))
    });
    group.bench_function("device_to_verdict_materialized", |b| {
        // The exact sweep the streaming variant drives, so the two
        // benchmarks convert identical samples.
        let (ramp, sampling) = plan_ramp(&adc, &config);
        b.iter(|| {
            let capture = acquire(&adc, &ramp, sampling);
            black_box(bist_from_capture(&config, &capture))
        })
    });
    // The gate-accurate verdict path on the identical sweep: read next
    // to `device_to_verdict` above, this is the throughput cost of
    // judging with the cycle-accurate BistTop instead of the
    // behavioural accumulators (same codes, same verdict — the
    // differential fleet experiment enforces bit-exactness).
    group.bench_function("rtl_vs_behavioral", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut screener = Screener::new(Workload::static_ramp(config)).backend(RtlBackend::new());
        b.iter(|| black_box(screener.screen_one(&adc, &mut rng)))
    });
    group.finish();
}

/// The dynamic counterpart of `device_to_verdict`: one coherent
/// 4096-sample sine record fused stimulus→code→Goertzel-bank→verdict,
/// scratch reused (allocation-free after warm-up, asserted by
/// `zero_alloc.rs`), plus the fixed-point RTL variant for the
/// gate-accuracy cost of the dynamic seam.
fn bench_dynamic_verdict(c: &mut Criterion) {
    use bist_core::dynamic::DynamicConfig;
    let mut group = c.benchmark_group("engine");
    group.sample_size(40);
    let config = DynamicConfig::paper_default();
    let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(4));
    group.throughput(Throughput::Elements(config.record_len() as u64));
    group.bench_function("dynamic_verdict", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut screener = Screener::new(Workload::dynamic_sine(config));
        b.iter(|| black_box(screener.screen_one(&adc, &mut rng)))
    });
    group.bench_function("dynamic_verdict_rtl", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut screener = Screener::new(Workload::dynamic_sine(config)).backend(RtlBackend::new());
        b.iter(|| black_box(screener.screen_one(&adc, &mut rng)))
    });
    group.finish();
}

/// The batched-vs-scalar seam on a small fleet: `Screener::run`
/// (lane-parallel structure-of-arrays engines) against a `screen_one`
/// loop over the same devices — the per-device cost of each entry
/// point, both workloads. The `batched_fleet` bin gates the speedup at
/// fleet scale; this keeps the shape visible in criterion history.
fn bench_batched_vs_scalar(c: &mut Criterion) {
    use bist_core::dynamic::DynamicConfig;
    const FLEET: usize = 32;
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    let config = paper_config(6);
    let dyn_config = DynamicConfig::paper_default();
    let flash = FlashConfig::paper_device();
    let fleet: Vec<_> = (0..FLEET)
        .map(|i| flash.sample(&mut StdRng::seed_from_u64(100 + i as u64)))
        .collect();
    group.throughput(Throughput::Elements(FLEET as u64));
    group.bench_function("batched_vs_scalar/static/scalar", |b| {
        let mut screener = Screener::new(Workload::static_ramp(config));
        b.iter(|| {
            for (i, adc) in fleet.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(i as u64);
                black_box(screener.screen_one(adc, &mut rng).accepted());
            }
        })
    });
    group.bench_function("batched_vs_scalar/static/batched", |b| {
        let mut screener = Screener::new(Workload::static_ramp(config)).lane_width(16);
        b.iter(|| {
            let reports = screener.run(
                fleet
                    .iter()
                    .enumerate()
                    .map(|(i, adc)| (adc, StdRng::seed_from_u64(i as u64))),
            );
            black_box(reports.len())
        })
    });
    group.bench_function("batched_vs_scalar/dynamic/scalar", |b| {
        let mut screener = Screener::new(Workload::dynamic_sine(dyn_config));
        b.iter(|| {
            for (i, adc) in fleet.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(i as u64);
                black_box(screener.screen_one(adc, &mut rng).accepted());
            }
        })
    });
    group.bench_function("batched_vs_scalar/dynamic/batched", |b| {
        let mut screener = Screener::new(Workload::dynamic_sine(dyn_config)).lane_width(16);
        b.iter(|| {
            let reports = screener.run(
                fleet
                    .iter()
                    .enumerate()
                    .map(|(i, adc)| (adc, StdRng::seed_from_u64(i as u64))),
            );
            black_box(reports.len())
        })
    });
    group.finish();
}

fn bench_analytic(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic");
    let spec = LinearitySpec::paper_stringent();
    let dist = WidthDistribution::paper_worst_case();
    let limits = CountLimits::from_spec(&spec, 0.091).expect("paper operating point");
    group.bench_function("code_probabilities", |b| {
        b.iter(|| black_box(code_probabilities(&dist, &spec, 0.091, &limits)))
    });
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram");
    let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(6));
    let capture = acquire(
        &adc,
        &Ramp::new(Volts(-0.2), 100.0),
        SamplingConfig::new(1.0e6, 68_000),
    );
    group.bench_function("ramp_linearity_64k_samples", |b| {
        b.iter_batched(
            || CodeHistogram::from_capture(Resolution::SIX_BIT, &capture),
            |h| black_box(ramp_linearity(&h)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_sinefit(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsp");
    group.sample_size(40);
    let omega = 0.2347;
    let data: Vec<f64> = (0..4096).map(|t| (omega * t as f64).sin()).collect();
    group.bench_function("sine_fit_4param_4096", |b| {
        b.iter(|| black_box(fit_sine_4param(&data, omega * 1.0002)))
    });
    group.finish();
}

fn bench_experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc");
    group.sample_size(10);
    let config = paper_config(4);
    // Pinned to one thread (`run(1)`): more workers would make this
    // number machine-dependent and dominated by thread spawn for a
    // 100-device batch.
    group.bench_function("experiment_100_devices", |b| {
        b.iter(|| {
            let batch = Batch::paper_simulation(9, 100);
            black_box(Experiment::new(batch, Workload::static_ramp(config)).run(1))
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets =
        bench_fft,
        bench_flash,
        bench_generate,
        bench_monitor,
        bench_full_bist,
        bench_device_to_verdict,
        bench_dynamic_verdict,
        bench_batched_vs_scalar,
        bench_analytic,
        bench_histogram,
        bench_sinefit,
        bench_experiment
);
criterion_main!(benches);
