//! The offline workloads, the differential probe of the traced run, and
//! the timed-cycle loop they share.
//!
//! Each workload screens a fixed device list per seed, split into
//! batches. The timed phase cycles over that list until `--seconds`
//! have passed and at least one full cycle is done. The first cycle's
//! per-batch [`Tally`] is the run's deterministic accounting; every
//! later cycle must reproduce it exactly, or its devices count as
//! failed. A device's verdict latency is the wall time of the batch
//! call that returned it: an offline caller gets every verdict of a
//! batch when the call returns.

use std::ops::Range;
use std::time::Instant;

use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::dynamic::DynamicConfig;
use bist_core::screener::{ScreenReport, Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_core::source::{stream_rng, SourceSpec, Zoo};
use bist_mc::batch::Batch;
use bist_mc::differential::run_seq_differential_range;
use bist_mc::differential::SeqDifferentialResult;

use crate::checksum::Fnv;
use crate::tracer::Tracer;

/// Deterministic accounting of screened devices against the
/// reference verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Devices with a verdict.
    pub devices: u64,
    /// Converter samples consumed before each verdict latched.
    pub samples: u64,
    /// Accepted devices the reference calls bad.
    pub escapes: u64,
    /// Rejected devices the reference calls good.
    pub overkills: u64,
    /// Checksum of the verdicts' binary encoding.
    pub checksum: u64,
    /// Devices whose verdict failed a check inside the batch (a backend
    /// disagreement, a refused or wrong service verdict).
    pub failed: u64,
}

impl Tally {
    /// Accounts one device: `accepted` by the screen under test, `good`
    /// by the reference.
    pub fn device(&mut self, accepted: bool, good: bool, samples: u64) {
        self.devices += 1;
        self.samples += samples;
        self.escapes += u64::from(accepted && !good);
        self.overkills += u64::from(!accepted && good);
    }

    /// Adds a later batch; checksums chain in batch order.
    pub fn absorb(&mut self, other: &Tally) {
        self.devices += other.devices;
        self.samples += other.samples;
        self.escapes += other.escapes;
        self.overkills += other.overkills;
        self.failed += other.failed;
        let mut h = Fnv::default();
        h.u64(self.checksum);
        h.u64(other.checksum);
        self.checksum = h.finish();
    }
}

/// What a workload's timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// `(devices, seconds)` per timed call, in order.
    pub batches: Vec<(u64, f64)>,
    /// Per-device verdict latency, microseconds, in submission order.
    pub latencies_us: Vec<f64>,
    /// Samples per latency window (see
    /// [`crate::stats::windowed_percentile`]); `None` takes the
    /// percentiles over the whole run.
    pub latency_window: Option<usize>,
    /// The deterministic accounting of the device list.
    pub tally: Tally,
    /// Devices submitted in the timed phase.
    pub attempted: u64,
    /// Devices refused, never answered, or answered differently from
    /// the reference run.
    pub failed: u64,
}

/// The paper's operating point for the static test: 6-bit converter,
/// stringent DNL spec, 5-bit transition counter.
pub fn static_config() -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()
        .expect("paper operating point")
}

/// The reference verdict: the paper's conventional full-histogram test.
pub fn reference_good(tf: &TransferFunction) -> bool {
    LinearitySpec::paper_stringent().classify(tf).good
}

/// Cycles `screen` over `total` list entries in batches of `batch`
/// until `seconds` have passed and one full cycle is done. Work is
/// counted in the devices each batch's tally reports.
pub fn cycle(
    seconds: f64,
    total: usize,
    batch: usize,
    mut screen: impl FnMut(Range<usize>) -> Tally,
) -> Timed {
    let ranges: Vec<Range<usize>> = (0..total)
        .step_by(batch)
        .map(|s| s..(s + batch).min(total))
        .collect();
    let mut first: Vec<Tally> = Vec::with_capacity(ranges.len());
    let mut timed = Timed::default();
    let start = Instant::now();
    'cycles: loop {
        for (k, range) in ranges.iter().enumerate() {
            let t = Instant::now();
            let tally = screen(range.clone());
            let secs = t.elapsed().as_secs_f64();
            let n = tally.devices;
            timed.batches.push((n, secs));
            timed
                .latencies_us
                .extend(std::iter::repeat_n(secs * 1e6, n as usize));
            timed.attempted += n;
            timed.failed += match first.get(k) {
                None => {
                    timed.tally.absorb(&tally);
                    first.push(tally);
                    tally.failed
                }
                Some(expected) if *expected == tally => tally.failed,
                Some(_) => n,
            };
            if first.len() == ranges.len() && start.elapsed().as_secs_f64() >= seconds {
                break 'cycles;
            }
        }
    }
    timed
}

/// Sets up `reps` times, timing each, and keeps the last state. Earlier
/// states go to `teardown` outside the timed region.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = state.take() {
            teardown(old);
        }
        let t = Instant::now();
        let s = setup();
        times.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    (times, state.expect("at least one set-up"))
}

/// Folds `reports` (device indices offset by `base`) into a tally
/// against per-device reference goodness `good`.
pub fn tally_reports(base: usize, reports: &[ScreenReport], good: &[bool]) -> Tally {
    let mut tally = Tally::default();
    let mut h = Fnv::default();
    for r in reports {
        tally.device(r.verdict.accepted(), good[r.device], r.verdict.samples());
        h.u64((base + r.device) as u64);
        h.verdict(&r.verdict);
    }
    tally.checksum = h.finish();
    tally
}

// --- zoo_screen ----------------------------------------------------------

/// Devices in one zoo_screen cycle.
pub const ZOO_DEVICES: usize = 32_768;
/// Devices per `Screener::run` call.
pub const ZOO_BATCH: usize = 256;
/// Warm-up devices screened during set-up (drawn past the timed list).
pub const ZOO_WARMUP: usize = 2_048;

/// The zoo_screen state: the paper zoo and a sequenced single-worker
/// static screener.
pub struct ZooScreen {
    pub zoo: Zoo,
    pub screener: Screener,
}

impl ZooScreen {
    pub fn setup(seed: u64) -> Self {
        let mut me = ZooScreen {
            zoo: Zoo::paper().with_seed(seed),
            screener: Screener::new(Workload::static_ramp(static_config()))
                .sequencer(SequencerConfig::default()),
        };
        std::hint::black_box(me.screen(ZOO_DEVICES..ZOO_DEVICES + ZOO_WARMUP, &Tracer::off()));
        me
    }

    /// One `Screener::run` over zoo devices `range`, generated in the
    /// iterator it is handed. Spans: `zoo.run` around the call, with a
    /// `zoo.generate` child around each `Zoo::device`.
    pub fn screen(&mut self, range: Range<usize>, tr: &Tracer) -> Tally {
        let zoo = &self.zoo;
        let mut good = Vec::with_capacity(range.len());
        let run = tr.open("zoo.run", None, range.start as u64);
        let reports = self.screener.run(range.clone().map(|i| {
            let tf = tr.span("zoo.generate", run, i as u64, || zoo.device(i));
            good.push(reference_good(&tf));
            (tf, zoo.noise_rng(i))
        }));
        tr.close(run);
        tally_reports(range.start, &reports, &good)
    }
}

// --- flash_full_test -------------------------------------------------------

/// Devices in one flash_full_test cycle.
pub const FLASH_DEVICES: usize = 32_768;
/// Devices per batch (one static and one dynamic `Screener::run`).
pub const FLASH_BATCH: usize = 512;
/// Warm-up devices screened during set-up.
pub const FLASH_WARMUP: usize = 4_096;

const FLASH_STATIC_SALT: u64 = 0xf1a5_0001;
const FLASH_DYN_SALT: u64 = 0xf1a5_0002;

/// The flash_full_test state: a paper flash batch and two unsequenced
/// single-worker screeners (static sweep, then dynamic sine record).
pub struct FlashFullTest {
    pub seed: u64,
    pub batch: Batch,
    pub static_screener: Screener,
    pub dyn_screener: Screener,
}

impl FlashFullTest {
    pub fn setup(seed: u64) -> Self {
        let mut me = FlashFullTest {
            seed,
            batch: Batch::of(SourceSpec::paper_flash()).seed(seed),
            static_screener: Screener::new(Workload::static_ramp(static_config())),
            dyn_screener: Screener::new(Workload::dynamic_sine(DynamicConfig::paper_default())),
        };
        std::hint::black_box(
            me.screen(FLASH_DEVICES..FLASH_DEVICES + FLASH_WARMUP, &Tracer::off()),
        );
        me
    }

    /// Generates `range`, then screens it with the full static sweep
    /// and the full sine record. A device passes when both accept.
    /// Spans: `flash.batch`, with children `flash.generate` (per
    /// device), `flash.static` and `flash.dynamic`.
    pub fn screen(&mut self, range: Range<usize>, tr: &Tracer) -> Tally {
        let outer = tr.open("flash.batch", None, range.start as u64);
        let tfs: Vec<TransferFunction> = range
            .clone()
            .map(|i| tr.span("flash.generate", outer, i as u64, || self.batch.device(i)))
            .collect();
        let (seed, base) = (self.seed, range.start);
        let rng = |salt: u64, i: usize| stream_rng(seed, &[salt, (base + i) as u64]);
        let fleet = |salt| {
            tfs.iter()
                .enumerate()
                .map(move |(i, tf)| (tf, rng(salt, i)))
        };
        let statics = tr.span("flash.static", outer, base as u64, || {
            self.static_screener.run(fleet(FLASH_STATIC_SALT))
        });
        let dynamics = tr.span("flash.dynamic", outer, base as u64, || {
            self.dyn_screener.run(fleet(FLASH_DYN_SALT))
        });
        tr.close(outer);
        let mut tally = Tally::default();
        let mut h = Fnv::default();
        for ((tf, s), d) in tfs.iter().zip(&statics).zip(&dynamics) {
            let accepted = s.verdict.accepted() && d.verdict.accepted();
            tally.device(
                accepted,
                reference_good(tf),
                s.verdict.samples() + d.verdict.samples(),
            );
            h.u64((base + s.device) as u64);
            h.verdict(&s.verdict);
            h.verdict(&d.verdict);
        }
        tally.checksum = h.finish();
        tally
    }
}

// --- the differential harness ---------------------------------------------

/// Devices per `run_seq_differential_range` call.
pub const RTL_BATCH: usize = 8;
/// Warm-up devices run during set-up.
pub const RTL_WARMUP: usize = 48;

/// The sequenced differential harness (full behavioural, sequenced
/// behavioural and sequenced RTL screens of every device in every cell)
/// under the default sequencer. The traced run times it; it is not an
/// end-to-end workload because its escapes and overkills are the
/// sequencer's drift, which is 0 or 1 per seed (see README.md).
pub struct RtlDifferential {
    pub seed: u64,
    pub policy: SequencerConfig,
}

impl RtlDifferential {
    pub fn setup(seed: u64) -> Self {
        let me = RtlDifferential {
            seed,
            policy: SequencerConfig::default(),
        };
        std::hint::black_box(me.screen(0..RTL_WARMUP, &Tracer::off()));
        me
    }

    /// One differential sweep over `range`. A device×cell comparison
    /// is one screened device: its sequenced behavioural latch against
    /// the full-sweep behavioural verdict (escape = drift II, overkill
    /// = drift I). Comparisons where the RTL and behavioural backends
    /// latch differently count as failed. Span: `differential.range`.
    pub fn screen(&self, range: Range<usize>, tr: &Tracer) -> Tally {
        let result = tr.span("differential.range", None, range.start as u64, || {
            run_seq_differential_range(self.seed, &self.policy, range.start, range.end)
        });
        differential_tally(&result)
    }
}

/// The deterministic accounting of a sequenced differential result.
fn differential_tally(result: &SeqDifferentialResult) -> Tally {
    let mut tally = Tally::default();
    let mut h = Fnv::default();
    h.u64(result.devices);
    h.u64(result.comparisons);
    h.u64(result.agreements);
    tally.failed = result.comparisons - result.agreements;
    for t in &result.per_scenario {
        tally.devices += t.comparisons;
        tally.samples += t.seq_samples;
        tally.escapes += t.drift_ii;
        tally.overkills += t.drift_i;
        for v in [
            t.comparisons,
            t.agreements,
            t.early_stops,
            t.early_accepts,
            t.early_rejects,
            t.seq_samples_early,
            t.full_accepted,
            t.drift_i,
            t.drift_ii,
            t.full_samples,
            t.seq_samples,
            t.full_samples_accepted,
            t.seq_samples_accepted,
        ] {
            h.u64(v);
        }
    }
    tally.checksum = h.finish();
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_escapes_and_overkill() {
        let mut t = Tally::default();
        t.device(true, true, 10);
        t.device(true, false, 20);
        t.device(false, true, 30);
        t.device(false, false, 40);
        assert_eq!(
            (t.devices, t.samples, t.escapes, t.overkills),
            (4, 100, 1, 1)
        );
    }

    #[test]
    fn cycle_repeats_until_time_and_flags_changed_batches() {
        let mut calls = 0u32;
        let timed = cycle(0.0, 10, 4, |r| {
            calls += 1;
            Tally {
                devices: r.len() as u64,
                checksum: r.start as u64,
                ..Tally::default()
            }
        });
        assert_eq!(calls, 3, "one full cycle of 4 + 4 + 2 devices");
        assert_eq!(timed.attempted, 10);
        assert_eq!(timed.tally.devices, 10);
        assert_eq!(timed.latencies_us.len(), 10);
        assert_eq!(timed.failed, 0);

        let mut calls = 0u64;
        let timed = cycle(0.02, 6, 3, |r| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(5));
            Tally {
                devices: r.len() as u64,
                // The second cycle answers differently.
                checksum: if calls > 2 { 99 } else { r.start as u64 },
                ..Tally::default()
            }
        });
        assert!(calls > 2, "cycles until the time is up");
        assert_eq!(timed.tally.devices, 6, "accounting covers the first cycle");
        assert_eq!(timed.failed, timed.attempted - 6);
    }
}
