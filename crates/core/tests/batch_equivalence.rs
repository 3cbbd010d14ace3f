//! Property-based equivalence of the batch engine against the scalar
//! reference: for any fleet size, device mix, noise setting, worker
//! count and split of the fleet across calls, `Screener::run` (and
//! `Screener::screen` on a caller's device streams) must produce
//! reports bit-exact to
//! `Screener::screen_one` on the same devices with the same per-device
//! RNG streams — including the sequencer's latch points
//! (`SeqDecision`), not just the final verdicts.

use bist_adc::faults::{FaultyAdc, OutputFault};
use bist_adc::flash::{FlashAdc, FlashConfig};
use bist_adc::signal::Stimulus;
use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::{Adc, TransferFunction};
use bist_adc::types::{Resolution, Volts};
use bist_core::backend::{Backend, RtlBackend};
use bist_core::batch::BatchDevice;
use bist_core::config::BistConfig;
use bist_core::dynamic::{plan_sine, DynamicConfig};
use bist_core::pool::DEFAULT_CHUNK;
use bist_core::screener::{ScreenReport, ScreenVerdict, Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_core::source::{SourceSpec, Zoo};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small mismatched-flash fleet; the devices (and their RNG streams)
/// are a pure function of `seed`, so scalar and batched runs screen
/// identical populations.
fn fleet(seed: u64, n: usize) -> Vec<FlashAdc> {
    two_range_fleet(seed, n, 0)
}

/// [`fleet`], with device `i` moved to the input range −3.2..3.2 V when
/// bit `i % 16` of `shifted` is set. Its sine plan then differs from a
/// stimulus table planned by a device of the paper range, and the other
/// way round.
fn two_range_fleet(seed: u64, n: usize, shifted: u16) -> Vec<FlashAdc> {
    let paper = FlashConfig::paper_device();
    let moved =
        FlashConfig::new(Resolution::SIX_BIT, Volts(-3.2), Volts(3.2)).with_width_sigma_lsb(0.21);
    (0..n)
        .map(|i| {
            let cfg = if shifted >> (i % 16) & 1 == 1 {
                &moved
            } else {
                &paper
            };
            cfg.sample(&mut StdRng::seed_from_u64(
                seed ^ (i as u64).wrapping_mul(0x9e37),
            ))
        })
        .collect()
}

fn device_rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(seed.rotate_left(17) ^ i as u64)
}

fn static_config(counter_bits: u32) -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(counter_bits)
        .build()
        .expect("valid paper-range counter")
}

/// A short coherent record keeps each proptest case cheap while still
/// exercising the Goertzel bank, coded devices and the group kernel.
fn dyn_config() -> DynamicConfig {
    DynamicConfig::new(Resolution::SIX_BIT, 512, 127).expect("coherent short record")
}

/// Scalar reference verdicts, one `screen_one` per device.
fn scalar_verdicts<A: Adc + Sync>(
    workload: Workload,
    sequenced: bool,
    devices: &[A],
    seed: u64,
) -> Vec<ScreenVerdict> {
    let mut screener = Screener::new(workload);
    if sequenced {
        screener = screener.sequencer(SequencerConfig::default());
    }
    devices
        .iter()
        .enumerate()
        .map(|(i, adc)| screener.screen_one(adc, &mut device_rng(seed, i)))
        .collect()
}

/// Batched verdicts through the `Screener::run` front door.
fn batched_verdicts<A: Adc + Sync>(
    workload: Workload,
    sequenced: bool,
    devices: &[A],
    seed: u64,
) -> Vec<(usize, ScreenVerdict)> {
    let mut screener = Screener::new(workload);
    if sequenced {
        screener = screener.sequencer(SequencerConfig::default());
    }
    screener
        .run(
            devices
                .iter()
                .enumerate()
                .map(|(i, adc)| (adc, device_rng(seed, i))),
        )
        .into_iter()
        .map(|r| (r.device, r.verdict))
        .collect()
}

/// `screener.run` over `devices` — the pool and the backend's batch
/// seam — next to the same screener's `screen_one` verdicts for the
/// same devices and noise streams.
fn pooled_and_scalar<B: Backend + Default>(
    mut screener: Screener<B>,
    devices: &[FlashAdc],
    seed: u64,
) -> (Vec<ScreenReport>, Vec<ScreenVerdict>) {
    let scalar = devices
        .iter()
        .enumerate()
        .map(|(i, adc)| screener.screen_one(adc, &mut device_rng(seed, i)))
        .collect();
    let pooled = screener.run(
        devices
            .iter()
            .enumerate()
            .map(|(i, adc)| (adc, device_rng(seed, i))),
    );
    (pooled, scalar)
}

/// `devices` screened on one behavioural screener in two `screen`
/// calls, split before device `split` (clamped to the fleet).
fn screened_in_two_calls(
    workload: Workload,
    sequenced: bool,
    devices: &[FlashAdc],
    seed: u64,
    split: usize,
) -> Vec<ScreenReport> {
    let mut screener = Screener::new(workload);
    if sequenced {
        screener = screener.sequencer(SequencerConfig::default());
    }
    let part = |range: std::ops::Range<usize>| {
        range.map(|i| BatchDevice::new(i, &devices[i], device_rng(seed, i)))
    };
    let split = split.min(devices.len());
    let mut reports = Vec::new();
    screener.screen(part(0..split), &mut reports);
    screener.screen(part(split..devices.len()), &mut reports);
    reports
}

/// A mixed fleet at `config`'s resolution for the coded-device tests,
/// drawn from `seed`: mismatched flash devices; transfers with a tied
/// level (a missing code), a level on a stimulus sample (a tie with
/// `v`), and a level beyond the sine's swing (a stuck end code); and,
/// every `faulty_every`-th device, a fault-wrapped flash that states no
/// levels, so one queue holds coded and scalar-judged devices at once.
fn coded_fleet(
    seed: u64,
    config: &DynamicConfig,
    n: usize,
    faulty_every: usize,
) -> Vec<Box<dyn Adc + Sync>> {
    let resolution = config.resolution();
    let full = f64::from(resolution.code_count());
    let (low, high) = (Volts(0.0), Volts(full));
    let flash = FlashConfig::new(resolution, low, high).with_width_sigma_lsb(0.3);
    let (sine, sampling) = plan_sine(&TransferFunction::ideal(resolution, low, high), config);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| -> Box<dyn Adc + Sync> {
            if i % faulty_every == faulty_every - 1 {
                let fault = OutputFault::CodeOffset(rng.gen_range(1..4));
                return Box::new(FaultyAdc::new(flash.sample(&mut rng), fault));
            }
            if i % 2 == 0 {
                return Box::new(flash.sample(&mut rng));
            }
            let count = resolution.transition_count() as usize;
            let mut levels: Vec<f64> = (1..=count)
                .map(|k| k as f64 + rng.gen_range(-0.6..0.6))
                .collect();
            let at = rng.gen_range(0..sampling.samples);
            levels[rng.gen_range(0..count)] = sine.value(sampling.sample_time(at)).0;
            levels.sort_by(f64::total_cmp);
            let k = rng.gen_range(1..count);
            levels[k] = levels[k - 1];
            if rng.gen_bool(0.5) {
                levels[0] = -full;
            } else {
                levels[count - 1] = 2.0 * full;
            }
            Box::new(TransferFunction::from_transitions(
                resolution, low, high, levels,
            ))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Coded devices: fleets of 1–39 mixing coded and scalar-judged
    /// devices — so partial, full and overflowing 8-device groups —
    /// screen bit-exact to the scalar engine. 5–8-bit devices are
    /// coded; 9- and 10-bit ones state more levels than a byte of code
    /// holds and go through the scalar judge.
    #[test]
    fn coded_lanes_match_scalar(
        seed in any::<u64>(),
        bits in 5u32..11,
        n in 1usize..40,
        faulty_every in 2usize..7,
    ) {
        let resolution = Resolution::new(bits).expect("valid resolution");
        let config = DynamicConfig::new(resolution, 512, 127).expect("coherent short record");
        let fleet = coded_fleet(seed, &config, n, faulty_every);
        let devices: Vec<&(dyn Adc + Sync)> = fleet.iter().map(|d| &**d).collect();
        let workload = Workload::dynamic_sine(config);
        let scalar = scalar_verdicts(workload, false, &devices, seed);
        let batched = batched_verdicts(workload, false, &devices, seed);
        prop_assert_eq!(batched.len(), n);
        for (i, (device, verdict)) in batched.into_iter().enumerate() {
            prop_assert_eq!(device, i);
            prop_assert_eq!(verdict, scalar[i]);
        }
    }

    /// Static workload: any fleet size × counter size × sequencing
    /// choice gives reports bit-exact to the scalar engine. 7-bit
    /// counters plan ramps longer than 4,096 samples.
    #[test]
    fn static_batched_matches_scalar(
        seed in any::<u64>(),
        n in 1usize..10,
        counter_bits in 4u32..8,
        sequenced in any::<bool>(),
    ) {
        let devices = fleet(seed, n);
        let workload = Workload::static_ramp(static_config(counter_bits));
        let scalar = scalar_verdicts(workload, sequenced, &devices, seed);
        let batched = batched_verdicts(workload, sequenced, &devices, seed);
        prop_assert_eq!(batched.len(), n);
        for (i, (device, verdict)) in batched.into_iter().enumerate() {
            prop_assert_eq!(device, i);
            prop_assert_eq!(verdict, scalar[i]);
        }
    }

    /// Dynamic workload: the shared-stimulus table, coded devices and
    /// the group kernel never change a verdict or a latch point.
    #[test]
    fn dynamic_batched_matches_scalar(
        seed in any::<u64>(),
        n in 1usize..7,
        sequenced in any::<bool>(),
    ) {
        let devices = fleet(seed, n);
        let workload = Workload::dynamic_sine(dyn_config());
        let scalar = scalar_verdicts(workload, sequenced, &devices, seed);
        let batched = batched_verdicts(workload, sequenced, &devices, seed);
        prop_assert_eq!(batched.len(), n);
        for (i, (device, verdict)) in batched.into_iter().enumerate() {
            prop_assert_eq!(device, i);
            prop_assert_eq!(verdict, scalar[i]);
        }
    }

    /// Worker pool: sharding the fleet — up to three chunks — across a
    /// work-stealing pool of any size, on either workload with or
    /// without a sequencer, through either backend's batch seam, over a
    /// fleet split across two input ranges, is bit-exact to that
    /// backend's scalar engine — which worker screens a device cannot
    /// change its report.
    #[test]
    fn pooled_matches_scalar_for_any_worker_count(
        seed in any::<u64>(),
        n in 1usize..3 * DEFAULT_CHUNK,
        workers in 1usize..17,
        sequenced in any::<bool>(),
        dynamic in any::<bool>(),
        rtl in any::<bool>(),
        shifted in any::<u16>(),
    ) {
        // Two input ranges: a worker's batch plans its stimulus table
        // from its first device, and devices of the other range fall
        // back to the scalar judge on their own stimulus.
        let devices = two_range_fleet(seed, n, shifted);
        let workload = if dynamic {
            Workload::dynamic_sine(dyn_config())
        } else {
            Workload::static_ramp(static_config(5))
        };
        let mut screener = Screener::new(workload).workers(workers);
        if sequenced {
            screener = screener.sequencer(SequencerConfig::default());
        }
        let (pooled, scalar) = if rtl {
            pooled_and_scalar(screener.backend(RtlBackend::new()), &devices, seed)
        } else {
            pooled_and_scalar(screener, &devices, seed)
        };
        prop_assert_eq!(pooled.len(), n);
        for (i, report) in pooled.into_iter().enumerate() {
            prop_assert_eq!(report.device, i);
            prop_assert_eq!(report.verdict, scalar[i]);
        }
    }

    /// One engine, two `screen` calls: splitting the fleet at any point
    /// across two calls on one warm static engine matches the scalar
    /// engine.
    #[test]
    fn static_refill_order_is_irrelevant(
        seed in any::<u64>(),
        n in 1usize..12,
        split in 0usize..12,
        sequenced in any::<bool>(),
    ) {
        let devices = fleet(seed, n);
        let workload = Workload::static_ramp(static_config(4));
        let scalar = scalar_verdicts(workload, sequenced, &devices, seed);
        let reports = screened_in_two_calls(workload, sequenced, &devices, seed, split);
        prop_assert_eq!(reports.len(), n);
        for (i, report) in reports.into_iter().enumerate() {
            prop_assert_eq!(report.device, i);
            prop_assert_eq!(report.verdict, scalar[i]);
        }
    }

    /// The same two-call property for the dynamic engine, whose
    /// stimulus table the second call finds already planned.
    #[test]
    fn dynamic_refill_order_is_irrelevant(
        seed in any::<u64>(),
        n in 1usize..7,
        split in 0usize..7,
        sequenced in any::<bool>(),
    ) {
        let devices = fleet(seed, n);
        let workload = Workload::dynamic_sine(dyn_config());
        let scalar = scalar_verdicts(workload, sequenced, &devices, seed);
        let reports = screened_in_two_calls(workload, sequenced, &devices, seed, split);
        prop_assert_eq!(reports.len(), n);
        for (i, report) in reports.into_iter().enumerate() {
            prop_assert_eq!(report.device, i);
            prop_assert_eq!(report.verdict, scalar[i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Architecture mixes through the zoo seam: any non-empty subset of
    /// {flash, iid, SAR, pipeline} × fleet size × worker count, on
    /// either workload with or without a sequencer, screens bit-exact
    /// to `screen_one` over the same zoo devices and noise streams —
    /// latch points included. Which architecture a device is, and which
    /// worker it lands on, cannot change its report.
    #[test]
    fn zoo_mixes_match_scalar_for_any_worker_count(
        seed in any::<u64>(),
        mask in 1u8..16,
        n in 1usize..12,
        workers in 1usize..9,
        sequenced in any::<bool>(),
        dynamic in any::<bool>(),
    ) {
        let sources: Vec<SourceSpec> = [
            SourceSpec::paper_flash(),
            SourceSpec::paper_iid(),
            SourceSpec::paper_sar(),
            SourceSpec::paper_pipeline(),
        ]
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, s)| s)
        .collect();
        let zoo = Zoo::new(sources).with_seed(seed);
        let workload = if dynamic {
            Workload::dynamic_sine(dyn_config())
        } else {
            Workload::static_ramp(static_config(5))
        };

        let mut scalar_screener = Screener::new(workload);
        if sequenced {
            scalar_screener = scalar_screener.sequencer(SequencerConfig::default());
        }
        let scalar: Vec<ScreenVerdict> = (0..n)
            .map(|i| scalar_screener.screen_one(&zoo.device(i), &mut zoo.noise_rng(i)))
            .collect();

        let mut screener = Screener::new(workload).workers(workers);
        if sequenced {
            screener = screener.sequencer(SequencerConfig::default());
        }
        let reports = screener.run(zoo.fleet(n));
        prop_assert_eq!(reports.len(), n);
        for (i, report) in reports.into_iter().enumerate() {
            prop_assert_eq!(report.device, i);
            prop_assert_eq!(&report.verdict, &scalar[i]);
        }
    }
}
