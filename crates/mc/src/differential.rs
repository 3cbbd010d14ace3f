//! Differential fleet validation of the behavioural↔RTL verdict seam —
//! static and dynamic workloads alike.
//!
//! The streaming engine judges devices through pluggable backends
//! (`bist_core::backend`): the behavioural accumulators the fleet runs
//! in production, and the gate-accurate `bist_rtl::BistTop`. This
//! module sweeps both over the *same* code streams — random devices ×
//! counter widths 4–7 × deglitch on/off × noise configurations × ramp
//! slope errors — and demands **bit-exact agreement on every verdict
//! field** (codes judged, DNL/INL failure counts, functional
//! checks/mismatches, sample count, acceptance).
//!
//! Any disagreement is a [`Divergence`] carrying both verdicts; the
//! `rtl_fleet` reproduction binary fails its run (and CI) if one
//! appears. The equivalence holds because every harness sweep dwells
//! past its last transition (10-LSB overshoot), which is exactly the
//! drain contract the RTL needs to flush its synchroniser latency —
//! see `bist_core::backend` for the fine print.
//!
//! The **dynamic** seam gets the same treatment
//! ([`run_dyn_differential`], driven by the `dyn_fleet` binary): random
//! flash devices × converter resolution × mismatch σ × coherent-bin
//! choice, each screened by the behavioural Goertzel bank and the
//! fixed-point `bist_rtl::DynBistTop` on bit-identical code streams.
//! There the raw dB metrics legitimately differ by the RTL's bounded
//! quantisation, so agreement is demanded on what silicon latches: the
//! per-limit *decisions*, the sample count and the completeness
//! expectation ([`bist_core::dynamic::DynChecks`] plus the counters).
//! Any disagreement is a [`DynDivergence`] and fails the run.

use crate::batch::Batch;
use bist_adc::flash::FlashConfig;
use bist_adc::noise::NoiseConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::types::{Resolution, Volts};
use bist_core::analytic::WidthDistribution;
use bist_core::backend::RtlBackend;
use bist_core::config::BistConfig;
use bist_core::dynamic::{DynamicConfig, DynamicVerdict};
use bist_core::harness::BistVerdict;
use bist_core::pool;
use bist_core::priors::{PriorsBank, SeqTally};
use bist_core::screener::{Screener, Workload};
use bist_core::sequencer::{SeqDecision, SeqOutcome, SequencerConfig, SweptVerdict};
use bist_core::source::{Architecture, DeviceSource, IidWidthSource, SourceSpec};
use rand::rngs::StdRng;
use std::fmt;

/// The counter widths the paper sweeps (Table 1).
pub const COUNTER_BITS: [u32; 4] = [4, 5, 6, 7];

/// The acquisition noise points of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NoisePoint {
    /// The §3 theory setting: no noise at all.
    Noiseless,
    /// Comparator transition noise (the §3 toggle mechanism, ~0.04 LSB
    /// at the paper's 0.1 V LSB) — the deglitcher's raison d'être.
    Transition,
    /// Input noise + transition noise + aperture jitter together.
    Mixed,
}

impl NoisePoint {
    /// All sweep points.
    pub const ALL: [NoisePoint; 3] = [
        NoisePoint::Noiseless,
        NoisePoint::Transition,
        NoisePoint::Mixed,
    ];

    /// The acquisition noise this point injects.
    pub fn config(self) -> NoiseConfig {
        match self {
            NoisePoint::Noiseless => NoiseConfig::noiseless(),
            NoisePoint::Transition => NoiseConfig::noiseless().with_transition_noise(0.004),
            NoisePoint::Mixed => NoiseConfig::noiseless()
                .with_input_noise(0.002)
                .with_transition_noise(0.003)
                .with_jitter(1e-7),
        }
    }

    /// Stable label for reports and CSV artifacts.
    pub fn label(self) -> &'static str {
        match self {
            NoisePoint::Noiseless => "noiseless",
            NoisePoint::Transition => "transition",
            NoisePoint::Mixed => "mixed",
        }
    }
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioId {
    /// Counter width in bits.
    pub counter_bits: u32,
    /// Whether the deglitch filters are in the datapath.
    pub deglitch: bool,
    /// Acquisition noise point.
    pub noise: NoisePoint,
}

impl fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit/{}/{}",
            self.counter_bits,
            if self.deglitch { "deglitch" } else { "raw" },
            self.noise.label()
        )
    }
}

/// A device/scenario where the two backends disagreed, with both
/// verdicts for the post-mortem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Device index within the batch.
    pub device: usize,
    /// The sweep cell.
    pub scenario: ScenarioId,
    /// What the behavioural accumulators latched.
    pub behavioral: BistVerdict,
    /// What the gate-accurate datapath latched.
    pub rtl: BistVerdict,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {} [{}]: behavioral {:?} vs rtl {:?}",
            self.device, self.scenario, self.behavioral, self.rtl
        )
    }
}

/// Per-scenario agreement accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioTally {
    /// The sweep cell.
    pub scenario: ScenarioId,
    /// Devices compared in this cell.
    pub comparisons: u64,
    /// Devices with bit-exact verdict agreement.
    pub agreements: u64,
    /// Devices the BIST accepted (both backends — counted on the
    /// behavioural verdict).
    pub accepted: u64,
}

/// Outcome of a differential sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DifferentialResult {
    /// Devices swept.
    pub devices: u64,
    /// Total (device × scenario) comparisons.
    pub comparisons: u64,
    /// Comparisons with bit-exact verdict agreement.
    pub agreements: u64,
    /// Every disagreement observed.
    pub divergences: Vec<Divergence>,
    /// Agreement accounting per sweep cell (stable grid order).
    pub per_scenario: Vec<ScenarioTally>,
}

impl DifferentialResult {
    /// Whether the sweep found no divergence at all.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.agreements == self.comparisons
    }

    /// Fraction of comparisons in bit-exact agreement.
    pub fn agreement_rate(&self) -> f64 {
        if self.comparisons == 0 {
            0.0
        } else {
            self.agreements as f64 / self.comparisons as f64
        }
    }

    /// Merges a partial result from another worker (scenario tallies
    /// merge cell-wise; both sides carry the same grid order).
    pub fn merge(&mut self, other: &DifferentialResult) {
        self.devices += other.devices;
        self.comparisons += other.comparisons;
        self.agreements += other.agreements;
        self.divergences.extend_from_slice(&other.divergences);
        if self.per_scenario.is_empty() {
            self.per_scenario = other.per_scenario.clone();
        } else {
            debug_assert_eq!(self.per_scenario.len(), other.per_scenario.len());
            for (mine, theirs) in self.per_scenario.iter_mut().zip(&other.per_scenario) {
                debug_assert_eq!(mine.scenario, theirs.scenario);
                mine.comparisons += theirs.comparisons;
                mine.agreements += theirs.agreements;
                mine.accepted += theirs.accepted;
            }
        }
    }
}

impl fmt::Display for DifferentialResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} devices × {} scenarios: {}/{} verdicts bit-exact ({} divergences)",
            self.devices,
            self.per_scenario.len(),
            self.agreements,
            self.comparisons,
            self.divergences.len()
        )
    }
}

/// The sweep grid: every counter width × deglitch × noise point, with
/// the BIST config built once per cell.
fn scenario_grid() -> Vec<(ScenarioId, BistConfig, NoiseConfig)> {
    let spec = LinearitySpec::paper_stringent();
    let mut grid = Vec::new();
    for &counter_bits in &COUNTER_BITS {
        for deglitch in [false, true] {
            let config = BistConfig::builder(bist_adc::types::Resolution::SIX_BIT, spec)
                .counter_bits(counter_bits)
                .deglitch(deglitch)
                .build()
                .expect("paper operating points are valid");
            for noise in NoisePoint::ALL {
                grid.push((
                    ScenarioId {
                        counter_bits,
                        deglitch,
                        noise,
                    },
                    config,
                    noise.config(),
                ));
            }
        }
    }
    grid
}

/// RNG-stream salt decorrelating the differential sweep from device
/// generation and the other experiments.
const DIFF_SALT: usize = 0xd1ff_0000;

/// Runs the differential sweep over a device range — the unit of work
/// for the parallel fan-out. Both backends consume bit-identical code
/// streams (same `(seed, device, scenario)`-derived RNG), so any
/// disagreement is a genuine datapath divergence, not sampling noise.
pub fn run_differential_range(
    batch: &Batch,
    slope_error: f64,
    from: usize,
    to: usize,
) -> DifferentialResult {
    let grid = scenario_grid();
    // One screener per (grid cell, backend): the device-outer sweep
    // order would otherwise thrash the RTL backend's single cached
    // BistTop (one rebuild per config change); per-cell screeners keep
    // every cache hit an in-place reset.
    let mut behavioral: Vec<Screener> = grid
        .iter()
        .map(|(_, config, noise)| {
            Screener::new(
                Workload::static_ramp(*config)
                    .with_noise(*noise)
                    .with_slope_error(slope_error),
            )
        })
        .collect();
    let mut rtl: Vec<Screener<RtlBackend>> = grid
        .iter()
        .map(|(_, config, noise)| {
            Screener::new(
                Workload::static_ramp(*config)
                    .with_noise(*noise)
                    .with_slope_error(slope_error),
            )
            .backend(RtlBackend::new())
        })
        .collect();
    let mut result = DifferentialResult {
        per_scenario: grid
            .iter()
            .map(|(id, ..)| ScenarioTally {
                scenario: *id,
                comparisons: 0,
                agreements: 0,
                accepted: 0,
            })
            .collect(),
        ..DifferentialResult::default()
    };
    let to = to.min(batch.size);
    for i in from..to {
        let tf = batch.device(i);
        result.devices += 1;
        for (cell, (id, ..)) in grid.iter().enumerate() {
            // Cell stride 2^24: overflow-free even on 32-bit targets
            // (cell < 48) and collision-free below 16M devices.
            let rng_seed = i ^ DIFF_SALT ^ (cell << 24);
            let behavioral = behavioral[cell]
                .screen_one(&tf, &mut batch.device_rng(rng_seed))
                .as_static()
                .expect("static workload")
                .verdict;
            let rtl = rtl[cell]
                .screen_one(&tf, &mut batch.device_rng(rng_seed))
                .as_static()
                .expect("static workload")
                .verdict;
            result.comparisons += 1;
            result.per_scenario[cell].comparisons += 1;
            if behavioral == rtl {
                result.agreements += 1;
                result.per_scenario[cell].agreements += 1;
            } else {
                result.divergences.push(Divergence {
                    device: i,
                    scenario: *id,
                    behavioral,
                    rtl,
                });
            }
            if behavioral.accepted() {
                result.per_scenario[cell].accepted += 1;
            }
        }
    }
    result
}

/// Runs the full differential sweep over a batch, fanned out across
/// `workers` threads (0 = available parallelism). Deterministic in the
/// worker count: devices and RNG streams derive from `(seed, index,
/// scenario)` alone.
pub fn run_differential(batch: &Batch, slope_error: f64, workers: usize) -> DifferentialResult {
    let partials = pool::map_ranges(
        batch.size,
        workers,
        || (),
        |_, from, to| run_differential_range(batch, slope_error, from, to),
    );
    let mut total = DifferentialResult::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

// ---------------------------------------------------------------------
// The dynamic seam: behavioural Goertzel bank vs fixed-point DynBistTop.
// ---------------------------------------------------------------------

/// Converter resolutions of the dynamic sweep.
pub const DYN_RESOLUTION_BITS: [u32; 2] = [6, 8];

/// Code-width mismatch points of the dynamic sweep, milli-LSB (0 =
/// ideal, 160/210 = the paper's circuit-simulation range).
pub const DYN_SIGMA_MILLI: [u32; 3] = [0, 160, 210];

/// Coherent-bin choices of the dynamic sweep (cycles per record, both
/// odd and coprime with the record length).
pub const DYN_CYCLES: [u32; 2] = [1021, 997];

/// Samples per coherent record in the dynamic sweep.
pub const DYN_RECORD_LEN: usize = 4096;

/// One cell of the dynamic sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynScenarioId {
    /// Converter resolution in bits.
    pub resolution_bits: u32,
    /// Code-width mismatch σ_w in milli-LSB.
    pub sigma_milli_lsb: u32,
    /// Sine cycles per record (= the fundamental bin).
    pub cycles: u32,
}

impl fmt::Display for DynScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit/σ0.{:03}/{}c",
            self.resolution_bits, self.sigma_milli_lsb, self.cycles
        )
    }
}

/// A device/scenario where the two dynamic backends disagreed on a
/// decision, with both verdicts for the post-mortem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynDivergence {
    /// Device index within the sweep.
    pub device: usize,
    /// The sweep cell.
    pub scenario: DynScenarioId,
    /// What the behavioural bank concluded.
    pub behavioral: DynamicVerdict,
    /// What the fixed-point datapath concluded.
    pub rtl: DynamicVerdict,
}

impl fmt::Display for DynDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {} [{}]: behavioral {} vs rtl {}",
            self.device, self.scenario, self.behavioral, self.rtl
        )
    }
}

/// Per-cell agreement accounting of the dynamic sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynScenarioTally {
    /// The sweep cell.
    pub scenario: DynScenarioId,
    /// Devices compared in this cell.
    pub comparisons: u64,
    /// Devices with decision-exact verdict agreement.
    pub agreements: u64,
    /// Devices accepted (counted on the behavioural verdict).
    pub accepted: u64,
}

/// Outcome of a dynamic differential sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DynDifferentialResult {
    /// Devices swept.
    pub devices: u64,
    /// Total (device × scenario) comparisons.
    pub comparisons: u64,
    /// Comparisons with decision-exact agreement.
    pub agreements: u64,
    /// Every disagreement observed.
    pub divergences: Vec<DynDivergence>,
    /// Agreement accounting per sweep cell (stable grid order).
    pub per_scenario: Vec<DynScenarioTally>,
}

impl DynDifferentialResult {
    /// Whether the sweep found no divergence at all.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.agreements == self.comparisons
    }

    /// Fraction of comparisons in decision-exact agreement.
    pub fn agreement_rate(&self) -> f64 {
        if self.comparisons == 0 {
            0.0
        } else {
            self.agreements as f64 / self.comparisons as f64
        }
    }

    /// Merges a partial result from another worker (cell-wise, like the
    /// static [`DifferentialResult::merge`]).
    pub fn merge(&mut self, other: &DynDifferentialResult) {
        self.devices += other.devices;
        self.comparisons += other.comparisons;
        self.agreements += other.agreements;
        self.divergences.extend_from_slice(&other.divergences);
        if self.per_scenario.is_empty() {
            self.per_scenario = other.per_scenario.clone();
        } else {
            debug_assert_eq!(self.per_scenario.len(), other.per_scenario.len());
            for (mine, theirs) in self.per_scenario.iter_mut().zip(&other.per_scenario) {
                debug_assert_eq!(mine.scenario, theirs.scenario);
                mine.comparisons += theirs.comparisons;
                mine.agreements += theirs.agreements;
                mine.accepted += theirs.accepted;
            }
        }
    }
}

impl fmt::Display for DynDifferentialResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} devices × {} scenarios: {}/{} dynamic decisions exact ({} divergences)",
            self.devices,
            self.per_scenario.len(),
            self.agreements,
            self.comparisons,
            self.divergences.len()
        )
    }
}

/// The dynamic sweep grid: every resolution × mismatch σ × coherent-bin
/// choice, with the device model and test plan built once per cell.
fn dyn_scenario_grid() -> Vec<(DynScenarioId, FlashConfig, DynamicConfig)> {
    let mut grid = Vec::new();
    for &bits in &DYN_RESOLUTION_BITS {
        let resolution = Resolution::new(bits).expect("sweep resolutions are valid");
        // Keep the seed's 0.1 V/LSB convention at every resolution.
        let high = Volts(0.1 * resolution.code_count() as f64);
        for &sigma_milli in &DYN_SIGMA_MILLI {
            let flash = FlashConfig::new(resolution, Volts(0.0), high)
                .with_width_sigma_lsb(sigma_milli as f64 / 1000.0);
            for &cycles in &DYN_CYCLES {
                // Drive at exactly full scale: the default overdrive's
                // clipping distortion (~−37 dBc, resolution-independent)
                // would bury the 8-bit quantisation floor and reject
                // even ideal devices.
                let config = DynamicConfig::new(resolution, DYN_RECORD_LEN, cycles)
                    .expect("sweep bins are valid")
                    .with_overdrive(0.0);
                grid.push((
                    DynScenarioId {
                        resolution_bits: bits,
                        sigma_milli_lsb: sigma_milli,
                        cycles,
                    },
                    flash,
                    config,
                ));
            }
        }
    }
    grid
}

/// RNG-stream salts decorrelating dynamic device generation and
/// acquisition noise from each other and from the other experiments.
const DYN_DEVICE_SALT: u64 = 0xdd1f_f000;
const DYN_NOISE_SALT: u64 = 0xdd1f_f001;

/// A seeded RNG for `(seed, salt, device, cell)` — every cell gets its
/// own device and noise streams, so the sweep is deterministic in the
/// worker count and cells never share draws (the shared
/// [`crate::batch::stream_rng`] mixing).
fn dyn_stream_rng(seed: u64, device: usize, cell: usize, salt: u64) -> StdRng {
    crate::batch::stream_rng(seed, &[salt, device as u64, cell as u64])
}

/// Whether two dynamic verdicts agree on everything the silicon
/// latches: the per-limit decisions, the sample count and the
/// completeness expectation. The raw dB metrics are allowed to differ
/// by the RTL's bounded fixed-point quantisation.
pub fn dyn_decisions_agree(a: &DynamicVerdict, b: &DynamicVerdict) -> bool {
    a.checks == b.checks && a.samples == b.samples && a.expected_samples == b.expected_samples
}

/// Runs the dynamic differential sweep over a device range — the unit
/// of work for the parallel fan-out. Both backends consume
/// bit-identical code streams (same `(seed, device, cell)`-derived
/// device and noise RNG), so any decision disagreement is a genuine
/// datapath divergence.
pub fn run_dyn_differential_range(seed: u64, from: usize, to: usize) -> DynDifferentialResult {
    let grid = dyn_scenario_grid();
    let noise = NoiseConfig::noiseless().with_input_noise(0.002);
    // One screener per (grid cell, backend): the device-outer sweep
    // order would otherwise thrash the cached DynBistTop / Goertzel
    // bank (one rebuild per config change).
    let mut behavioral: Vec<Screener> = grid
        .iter()
        .map(|(.., config)| Screener::new(Workload::dynamic_sine(*config).with_noise(noise)))
        .collect();
    let mut rtl: Vec<Screener<RtlBackend>> = grid
        .iter()
        .map(|(.., config)| {
            Screener::new(Workload::dynamic_sine(*config).with_noise(noise))
                .backend(RtlBackend::new())
        })
        .collect();
    let mut result = DynDifferentialResult {
        per_scenario: grid
            .iter()
            .map(|(id, ..)| DynScenarioTally {
                scenario: *id,
                comparisons: 0,
                agreements: 0,
                accepted: 0,
            })
            .collect(),
        ..DynDifferentialResult::default()
    };
    for i in from..to {
        result.devices += 1;
        for (cell, (id, flash, _)) in grid.iter().enumerate() {
            let adc = flash.sample(&mut dyn_stream_rng(seed, i, cell, DYN_DEVICE_SALT));
            let behavioral = behavioral[cell]
                .screen_one(&adc, &mut dyn_stream_rng(seed, i, cell, DYN_NOISE_SALT))
                .as_dynamic()
                .expect("dynamic workload")
                .verdict;
            let rtl = rtl[cell]
                .screen_one(&adc, &mut dyn_stream_rng(seed, i, cell, DYN_NOISE_SALT))
                .as_dynamic()
                .expect("dynamic workload")
                .verdict;
            result.comparisons += 1;
            result.per_scenario[cell].comparisons += 1;
            if dyn_decisions_agree(&behavioral, &rtl) {
                result.agreements += 1;
                result.per_scenario[cell].agreements += 1;
            } else {
                result.divergences.push(DynDivergence {
                    device: i,
                    scenario: *id,
                    behavioral,
                    rtl,
                });
            }
            if behavioral.accepted() {
                result.per_scenario[cell].accepted += 1;
            }
        }
    }
    result
}

/// Runs the full dynamic differential sweep over `devices` devices,
/// fanned out across `workers` threads (0 = available parallelism).
/// Deterministic in the worker count: devices and RNG streams derive
/// from `(seed, index, cell)` alone.
pub fn run_dyn_differential(seed: u64, devices: usize, workers: usize) -> DynDifferentialResult {
    let partials = pool::map_ranges(
        devices,
        workers,
        || (),
        |_, from, to| run_dyn_differential_range(seed, from, to),
    );
    let mut total = DynDifferentialResult::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

// ---------------------------------------------------------------------
// The sequenced early-stop seam: both backends under the sequencer,
// validated against full-sweep ground truth.
// ---------------------------------------------------------------------

/// Counter widths of the sequenced static cells.
pub const SEQ_STATIC_COUNTER_BITS: [u32; 2] = [4, 7];

/// Static mismatch points of the sequenced sweep, milli-LSB.
pub const SEQ_STATIC_SIGMA_MILLI: [u32; 2] = [50, 210];

/// Dynamic mismatch points of the sequenced sweep, milli-LSB.
pub const SEQ_DYN_SIGMA_MILLI: [u32; 3] = [0, 160, 210];

/// Converter resolutions of the sequenced dynamic cells.
pub const SEQ_DYN_RESOLUTION_BITS: [u32; 2] = [6, 8];

/// Counter widths of the per-architecture sequenced cells.
pub const ARCH_COUNTER_BITS: [u32; 2] = [4, 6];

/// One cell of the sequenced sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqScenarioId {
    /// A static-linearity cell.
    Static {
        /// Counter width in bits.
        counter_bits: u32,
        /// Code-width mismatch σ_w in milli-LSB (iid-width devices).
        sigma_milli_lsb: u32,
        /// Whether the deglitch filters are in the datapath.
        deglitch: bool,
        /// Acquisition noise point.
        noise: NoisePoint,
    },
    /// A dynamic (coherent-record) cell.
    Dynamic {
        /// Converter resolution in bits.
        resolution_bits: u32,
        /// Code-width mismatch σ_w in milli-LSB (flash devices).
        sigma_milli_lsb: u32,
        /// Sine cycles per record.
        cycles: u32,
    },
    /// A static cell drawing paper-preset devices of one named zoo
    /// architecture — the per-architecture seam validation that feeds
    /// [`bist_core::priors`].
    Arch {
        /// The device architecture the cell draws from.
        arch: Architecture,
        /// Counter width in bits.
        counter_bits: u32,
    },
}

impl SeqScenarioId {
    /// The device architecture this cell draws from. The legacy static
    /// grid sweeps iid-width devices; the dynamic grid sweeps flash.
    pub fn architecture(&self) -> Architecture {
        match self {
            SeqScenarioId::Static { .. } => Architecture::IidWidths,
            SeqScenarioId::Dynamic { .. } => Architecture::Flash,
            SeqScenarioId::Arch { arch, .. } => *arch,
        }
    }
}

impl fmt::Display for SeqScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqScenarioId::Static {
                counter_bits,
                sigma_milli_lsb,
                deglitch,
                noise,
            } => write!(
                f,
                "static/{counter_bits}-bit/σ0.{sigma_milli_lsb:03}/{}/{}",
                if *deglitch { "deglitch" } else { "raw" },
                noise.label()
            ),
            SeqScenarioId::Dynamic {
                resolution_bits,
                sigma_milli_lsb,
                cycles,
            } => write!(
                f,
                "dynamic/{resolution_bits}-bit/σ0.{sigma_milli_lsb:03}/{cycles}c"
            ),
            SeqScenarioId::Arch { arch, counter_bits } => {
                write!(f, "arch/{}/{counter_bits}-bit", arch.label())
            }
        }
    }
}

/// What the silicon latches from one sequenced run — the part that must
/// be identical across backends for every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqLatch {
    /// The sequencer decision (kind and decision sample).
    pub decision: SeqDecision,
    /// The device-level decision.
    pub accepted: bool,
    /// ADC samples physically consumed.
    pub samples: u64,
}

impl SeqLatch {
    fn of<V: SweptVerdict>(outcome: &SeqOutcome<V>) -> Self {
        SeqLatch {
            decision: outcome.decision,
            accepted: outcome.accepted(),
            samples: outcome.samples_consumed(),
        }
    }
}

impl fmt::Display for SeqLatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} after {} samples)",
            self.decision,
            if self.accepted { "ACCEPT" } else { "REJECT" },
            self.samples
        )
    }
}

/// A device/scenario where the two sequenced backends disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqDivergence {
    /// Device index within the sweep.
    pub device: usize,
    /// The sweep cell.
    pub scenario: SeqScenarioId,
    /// What the behavioural path latched.
    pub behavioral: SeqLatch,
    /// What the gate-accurate path latched.
    pub rtl: SeqLatch,
}

impl fmt::Display for SeqDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {} [{}]: behavioral {} vs rtl {}",
            self.device, self.scenario, self.behavioral, self.rtl
        )
    }
}

/// A candidate cell the grid builder dropped because its configuration
/// failed validation (e.g. a fixed-point-unrealisable dynamic plan).
/// Skipped cells carry no screened devices and are excluded from every
/// throughput and drift figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqSkippedCell {
    /// The rejected cell.
    pub scenario: SeqScenarioId,
    /// The validation error.
    pub reason: String,
}

/// Per-cell accounting of the sequenced sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqScenarioTally {
    /// The sweep cell.
    pub scenario: SeqScenarioId,
    /// Devices compared in this cell.
    pub comparisons: u64,
    /// Devices with latch-identical backend agreement.
    pub agreements: u64,
    /// Sequenced runs that stopped before the full stimulus.
    pub early_stops: u64,
    /// Early stops that accepted the device.
    pub early_accepts: u64,
    /// Early stops that rejected the device.
    pub early_rejects: u64,
    /// Sequenced samples over early-stopping runs only.
    pub seq_samples_early: u64,
    /// Devices the full sweep accepts (ground truth).
    pub full_accepted: u64,
    /// Sequencer rejected a device the full sweep accepts.
    pub drift_i: u64,
    /// Sequencer accepted a device the full sweep rejects.
    pub drift_ii: u64,
    /// Total full-sweep samples (ground truth cost).
    pub full_samples: u64,
    /// Total sequenced samples (behavioural path).
    pub seq_samples: u64,
    /// Full-sweep samples over ground-truth-accepted devices.
    pub full_samples_accepted: u64,
    /// Sequenced samples over ground-truth-accepted devices.
    pub seq_samples_accepted: u64,
}

impl SeqScenarioTally {
    fn new(scenario: SeqScenarioId) -> Self {
        SeqScenarioTally {
            scenario,
            comparisons: 0,
            agreements: 0,
            early_stops: 0,
            early_accepts: 0,
            early_rejects: 0,
            seq_samples_early: 0,
            full_accepted: 0,
            drift_i: 0,
            drift_ii: 0,
            full_samples: 0,
            seq_samples: 0,
            full_samples_accepted: 0,
            seq_samples_accepted: 0,
        }
    }

    /// Mean samples-to-decision reduction in this cell (full / seq).
    pub fn reduction(&self) -> f64 {
        if self.seq_samples == 0 {
            0.0
        } else {
            self.full_samples as f64 / self.seq_samples as f64
        }
    }
}

/// Outcome of a sequenced differential sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeqDifferentialResult {
    /// Devices swept.
    pub devices: u64,
    /// Total (device × valid scenario) comparisons.
    pub comparisons: u64,
    /// Comparisons with latch-identical backend agreement.
    pub agreements: u64,
    /// Every backend disagreement observed.
    pub divergences: Vec<SeqDivergence>,
    /// Accounting per valid sweep cell (stable grid order).
    pub per_scenario: Vec<SeqScenarioTally>,
    /// Candidate cells rejected by config validation — excluded from
    /// all throughput figures so devices/s stays comparable.
    pub skipped_cells: Vec<SeqSkippedCell>,
}

impl SeqDifferentialResult {
    /// Whether the sweep found no backend divergence at all.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.agreements == self.comparisons
    }

    fn sum<F: Fn(&SeqScenarioTally) -> u64>(&self, f: F) -> u64 {
        self.per_scenario.iter().map(f).sum()
    }

    /// Empirical type I drift rate: P(sequencer rejects | full sweep
    /// accepts).
    pub fn type_i_drift(&self) -> f64 {
        let good = self.sum(|t| t.full_accepted);
        if good == 0 {
            0.0
        } else {
            self.sum(|t| t.drift_i) as f64 / good as f64
        }
    }

    /// Empirical type II drift rate: P(sequencer accepts | full sweep
    /// rejects).
    pub fn type_ii_drift(&self) -> f64 {
        let bad = self.comparisons - self.sum(|t| t.full_accepted);
        if bad == 0 {
            0.0
        } else {
            self.sum(|t| t.drift_ii) as f64 / bad as f64
        }
    }

    /// Mean samples-to-decision reduction over all devices.
    pub fn reduction_overall(&self) -> f64 {
        let seq = self.sum(|t| t.seq_samples);
        if seq == 0 {
            0.0
        } else {
            self.sum(|t| t.full_samples) as f64 / seq as f64
        }
    }

    /// Mean samples-to-decision reduction over ground-truth-accepted
    /// (passing) devices — the headline figure: even devices that must
    /// be accepted stop early.
    pub fn reduction_accepted(&self) -> f64 {
        let seq = self.sum(|t| t.seq_samples_accepted);
        if seq == 0 {
            0.0
        } else {
            self.sum(|t| t.full_samples_accepted) as f64 / seq as f64
        }
    }

    /// Mean samples-to-decision reduction over ground-truth-rejected
    /// devices.
    pub fn reduction_rejected(&self) -> f64 {
        let seq = self.sum(|t| t.seq_samples) - self.sum(|t| t.seq_samples_accepted);
        if seq == 0 {
            0.0
        } else {
            (self.sum(|t| t.full_samples) - self.sum(|t| t.full_samples_accepted)) as f64
                / seq as f64
        }
    }

    /// Fraction of sequenced runs that stopped early.
    pub fn early_stop_rate(&self) -> f64 {
        if self.comparisons == 0 {
            0.0
        } else {
            self.sum(|t| t.early_stops) as f64 / self.comparisons as f64
        }
    }

    /// Folds every cell's sequenced accounting into a priors bank,
    /// keyed by the cell's device architecture. This is the feedback
    /// edge of the zoo: differential sweeps measure per-architecture
    /// samples-to-decision, the bank turns that into
    /// architecture-conditioned sequencer hints.
    pub fn seed_priors(&self, bank: &mut PriorsBank) {
        for t in &self.per_scenario {
            bank.absorb(
                t.scenario.architecture(),
                SeqTally {
                    runs: t.comparisons,
                    early_accepts: t.early_accepts,
                    early_rejects: t.early_rejects,
                    seq_samples: t.seq_samples,
                    seq_samples_early: t.seq_samples_early,
                    full_samples: t.full_samples,
                },
            );
        }
    }

    /// Merges a partial result from another worker (cell-wise; skipped
    /// cells are grid-derived and identical on every worker).
    pub fn merge(&mut self, other: &SeqDifferentialResult) {
        self.devices += other.devices;
        self.comparisons += other.comparisons;
        self.agreements += other.agreements;
        self.divergences.extend_from_slice(&other.divergences);
        if self.per_scenario.is_empty() {
            self.per_scenario = other.per_scenario.clone();
            self.skipped_cells = other.skipped_cells.clone();
        } else {
            debug_assert_eq!(self.per_scenario.len(), other.per_scenario.len());
            for (mine, theirs) in self.per_scenario.iter_mut().zip(&other.per_scenario) {
                debug_assert_eq!(mine.scenario, theirs.scenario);
                mine.comparisons += theirs.comparisons;
                mine.agreements += theirs.agreements;
                mine.early_stops += theirs.early_stops;
                mine.early_accepts += theirs.early_accepts;
                mine.early_rejects += theirs.early_rejects;
                mine.seq_samples_early += theirs.seq_samples_early;
                mine.full_accepted += theirs.full_accepted;
                mine.drift_i += theirs.drift_i;
                mine.drift_ii += theirs.drift_ii;
                mine.full_samples += theirs.full_samples;
                mine.seq_samples += theirs.seq_samples;
                mine.full_samples_accepted += theirs.full_samples_accepted;
                mine.seq_samples_accepted += theirs.seq_samples_accepted;
            }
        }
    }
}

impl fmt::Display for SeqDifferentialResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} devices × {} scenarios: {}/{} sequenced latches identical \
             ({} divergences, {:.0}% early stops, {:.2}x samples overall, \
             drift I {:.2e} / II {:.2e})",
            self.devices,
            self.per_scenario.len(),
            self.agreements,
            self.comparisons,
            self.divergences.len(),
            100.0 * self.early_stop_rate(),
            self.reduction_overall(),
            self.type_i_drift(),
            self.type_ii_drift(),
        )
    }
}

/// A validated cell of the sequenced grid. Devices in either arm come
/// from the [`DeviceSource`] seam, so one loop screens flash, iid-width,
/// SAR and pipeline silicon alike.
enum SeqCell {
    Static {
        config: BistConfig,
        source: SourceSpec,
        noise: NoiseConfig,
    },
    Dynamic {
        config: DynamicConfig,
        source: SourceSpec,
    },
}

/// The per-cell screeners of the sequenced sweep: the full-sweep
/// behavioural ground truth plus both sequenced backends, all sharing
/// the cell's workload.
enum SeqRunner {
    Static {
        full: Screener,
        seq_b: Screener,
        seq_r: Screener<RtlBackend>,
        source: SourceSpec,
    },
    Dynamic {
        full: Screener,
        seq_b: Screener,
        seq_r: Screener<RtlBackend>,
        source: SourceSpec,
    },
}

impl SeqRunner {
    fn new(cell: &SeqCell, policy: &SequencerConfig) -> Self {
        match cell {
            SeqCell::Static {
                config,
                source,
                noise,
            } => {
                let w = Workload::static_ramp(*config).with_noise(*noise);
                SeqRunner::Static {
                    full: Screener::new(w),
                    seq_b: Screener::new(w).sequencer(*policy),
                    seq_r: Screener::new(w)
                        .sequencer(*policy)
                        .backend(RtlBackend::new()),
                    source: *source,
                }
            }
            SeqCell::Dynamic { config, source } => {
                let w = Workload::dynamic_sine(*config)
                    .with_noise(NoiseConfig::noiseless().with_input_noise(0.002));
                SeqRunner::Dynamic {
                    full: Screener::new(w),
                    seq_b: Screener::new(w).sequencer(*policy),
                    seq_r: Screener::new(w)
                        .sequencer(*policy)
                        .backend(RtlBackend::new()),
                    source: *source,
                }
            }
        }
    }
}

/// The sequenced sweep grid: static cells (counter width × mismatch σ,
/// plus one deglitched transition-noise cell) and dynamic cells
/// (resolution × mismatch σ at the paper bin, plus the Nyquist-folding
/// 1024-cycle candidates — of which the 8-bit one is rejected by the
/// fixed-point register audit and recorded as a skipped cell).
fn seq_scenario_grid() -> (Vec<(SeqScenarioId, SeqCell)>, Vec<SeqSkippedCell>) {
    let spec = LinearitySpec::paper_stringent();
    let mut grid = Vec::new();
    let mut skipped = Vec::new();
    for &counter_bits in &SEQ_STATIC_COUNTER_BITS {
        for &sigma_milli in &SEQ_STATIC_SIGMA_MILLI {
            let id = SeqScenarioId::Static {
                counter_bits,
                sigma_milli_lsb: sigma_milli,
                deglitch: false,
                noise: NoisePoint::Noiseless,
            };
            let config = BistConfig::builder(Resolution::SIX_BIT, spec)
                .counter_bits(counter_bits)
                .build()
                .expect("paper operating points are valid");
            let dist = WidthDistribution::new(1.0, sigma_milli as f64 / 1000.0);
            grid.push((
                id,
                SeqCell::Static {
                    config,
                    source: IidWidthSource::new(Resolution::SIX_BIT, dist).into(),
                    noise: NoiseConfig::noiseless(),
                },
            ));
        }
    }
    // One deglitched, transition-noise cell: the filters and the quiet
    // dwell of the completion-accept rule under sequencing.
    grid.push((
        SeqScenarioId::Static {
            counter_bits: 5,
            sigma_milli_lsb: 210,
            deglitch: true,
            noise: NoisePoint::Transition,
        },
        SeqCell::Static {
            config: BistConfig::builder(Resolution::SIX_BIT, spec)
                .counter_bits(5)
                .deglitch(true)
                .build()
                .expect("paper operating points are valid"),
            source: IidWidthSource::new(Resolution::SIX_BIT, WidthDistribution::new(1.0, 0.21))
                .into(),
            noise: NoisePoint::Transition.config(),
        },
    ));
    let mut dyn_candidates: Vec<(u32, u32, u32)> = Vec::new();
    for &bits in &SEQ_DYN_RESOLUTION_BITS {
        for &sigma_milli in &SEQ_DYN_SIGMA_MILLI {
            dyn_candidates.push((bits, sigma_milli, 1021));
        }
        // Nyquist-folding candidate: valid at 6 bits, rejected by the
        // fixed-point register audit at 8 bits.
        dyn_candidates.push((bits, 160, 1024));
    }
    for (bits, sigma_milli, cycles) in dyn_candidates {
        let id = SeqScenarioId::Dynamic {
            resolution_bits: bits,
            sigma_milli_lsb: sigma_milli,
            cycles,
        };
        let resolution = Resolution::new(bits).expect("sweep resolutions are valid");
        let high = Volts(0.1 * resolution.code_count() as f64);
        let flash = FlashConfig::new(resolution, Volts(0.0), high)
            .with_width_sigma_lsb(sigma_milli as f64 / 1000.0);
        match DynamicConfig::new(resolution, DYN_RECORD_LEN, cycles) {
            Ok(config) => grid.push((
                id,
                SeqCell::Dynamic {
                    config: config.with_overdrive(0.0),
                    source: flash.into(),
                },
            )),
            Err(e) => skipped.push(SeqSkippedCell {
                scenario: id,
                reason: e.to_string(),
            }),
        }
    }
    (grid, skipped)
}

/// The per-architecture grid: every zoo paper preset (flash, iid-width,
/// SAR, pipeline) × counter width, all static-ramp noiseless cells.
/// Every candidate validates, so the skipped list is always empty.
fn arch_scenario_grid() -> (Vec<(SeqScenarioId, SeqCell)>, Vec<SeqSkippedCell>) {
    let spec = LinearitySpec::paper_stringent();
    let sources = [
        SourceSpec::paper_flash(),
        SourceSpec::paper_iid(),
        SourceSpec::paper_sar(),
        SourceSpec::paper_pipeline(),
    ];
    let mut grid = Vec::new();
    for &counter_bits in &ARCH_COUNTER_BITS {
        for source in sources {
            let id = SeqScenarioId::Arch {
                arch: source.architecture(),
                counter_bits,
            };
            let config = BistConfig::builder(Resolution::SIX_BIT, spec)
                .counter_bits(counter_bits)
                .build()
                .expect("paper operating points are valid");
            grid.push((
                id,
                SeqCell::Static {
                    config,
                    source,
                    noise: NoiseConfig::noiseless(),
                },
            ));
        }
    }
    (grid, Vec::new())
}

/// RNG-stream salts of the sequenced sweep.
const SEQ_DEVICE_SALT: u64 = 0x5e9_f000;
const SEQ_NOISE_SALT: u64 = 0x5e9_f001;
/// RNG-stream salts of the per-architecture sweep — disjoint from the
/// sequenced grid's so the two sweeps draw independent silicon even at
/// the same seed.
const ARCH_DEVICE_SALT: u64 = 0x5e9_f002;
const ARCH_NOISE_SALT: u64 = 0x5e9_f003;

fn seq_stream_rng(seed: u64, device: usize, cell: usize, salt: u64) -> StdRng {
    crate::batch::stream_rng(seed, &[salt, device as u64, cell as u64])
}

/// Runs the sequenced differential sweep over a device range — the unit
/// of work for the parallel fan-out. For every device × valid cell,
/// three runs consume bit-identical code streams: the full sweep
/// (behavioural ground truth), the sequenced behavioural path and the
/// sequenced RTL path. Backends must latch identical decisions; the
/// sequenced decision is scored against the full sweep for empirical
/// type I/II drift and samples-to-decision.
pub fn run_seq_differential_range(
    seed: u64,
    policy: &SequencerConfig,
    from: usize,
    to: usize,
) -> SeqDifferentialResult {
    let (grid, skipped) = seq_scenario_grid();
    run_seq_grid_range(
        &grid,
        skipped,
        (SEQ_DEVICE_SALT, SEQ_NOISE_SALT),
        seed,
        policy,
        from,
        to,
    )
}

/// The shared device-outer loop behind every sequenced sweep: for each
/// device × cell, three runs on bit-identical streams (full behavioural
/// ground truth, sequenced behavioural, sequenced RTL), latch-compared
/// and tallied. Which silicon a cell draws is entirely the cell's
/// [`SourceSpec`] — the grid, not the loop, knows the architecture.
#[allow(clippy::too_many_lines)]
fn run_seq_grid_range(
    grid: &[(SeqScenarioId, SeqCell)],
    skipped: Vec<SeqSkippedCell>,
    (device_salt, noise_salt): (u64, u64),
    seed: u64,
    policy: &SequencerConfig,
    from: usize,
    to: usize,
) -> SeqDifferentialResult {
    // Three screeners per cell: the full-sweep behavioural ground
    // truth, the sequenced behavioural path and the sequenced
    // gate-accurate path (per-cell so the cached RTL tops and scratch
    // buffers reset in place across the device-outer sweep order).
    let mut runners: Vec<SeqRunner> = grid
        .iter()
        .map(|(_, spec)| SeqRunner::new(spec, policy))
        .collect();
    let mut result = SeqDifferentialResult {
        per_scenario: grid
            .iter()
            .map(|(id, _)| SeqScenarioTally::new(*id))
            .collect(),
        skipped_cells: skipped,
        ..SeqDifferentialResult::default()
    };
    for i in from..to {
        result.devices += 1;
        for (cell, (id, _)) in grid.iter().enumerate() {
            let noise_rng = || seq_stream_rng(seed, i, cell, noise_salt);
            let (full_accepted, full_samples, b_latch, r_latch, verdicts_agree) =
                match &mut runners[cell] {
                    SeqRunner::Static {
                        full,
                        seq_b,
                        seq_r,
                        source,
                    } => {
                        let tf =
                            source.sample_transfer(&mut seq_stream_rng(seed, i, cell, device_salt));
                        let full = full
                            .screen_one(&tf, &mut noise_rng())
                            .as_static()
                            .expect("static workload")
                            .verdict;
                        let b = *seq_b
                            .screen_one(&tf, &mut noise_rng())
                            .as_static()
                            .expect("static workload");
                        let r = *seq_r
                            .screen_one(&tf, &mut noise_rng())
                            .as_static()
                            .expect("static workload");
                        (
                            full.accepted(),
                            full.samples,
                            SeqLatch::of(&b),
                            SeqLatch::of(&r),
                            b.verdict == r.verdict,
                        )
                    }
                    SeqRunner::Dynamic {
                        full,
                        seq_b,
                        seq_r,
                        source,
                    } => {
                        let adc =
                            source.sample_transfer(&mut seq_stream_rng(seed, i, cell, device_salt));
                        let full = full
                            .screen_one(&adc, &mut noise_rng())
                            .as_dynamic()
                            .expect("dynamic workload")
                            .verdict;
                        let b = *seq_b
                            .screen_one(&adc, &mut noise_rng())
                            .as_dynamic()
                            .expect("dynamic workload");
                        let r = *seq_r
                            .screen_one(&adc, &mut noise_rng())
                            .as_dynamic()
                            .expect("dynamic workload");
                        // Completed records additionally demand the
                        // decision-exact dynamic verdict contract.
                        let verdicts_agree =
                            b.stopped_early() || dyn_decisions_agree(&b.verdict, &r.verdict);
                        (
                            full.accepted(),
                            full.samples,
                            SeqLatch::of(&b),
                            SeqLatch::of(&r),
                            verdicts_agree,
                        )
                    }
                };
            result.comparisons += 1;
            let agree = b_latch == r_latch && verdicts_agree;
            if agree {
                result.agreements += 1;
            } else {
                result.divergences.push(SeqDivergence {
                    device: i,
                    scenario: *id,
                    behavioral: b_latch,
                    rtl: r_latch,
                });
            }
            let tally = &mut result.per_scenario[cell];
            tally.comparisons += 1;
            tally.agreements += u64::from(agree);
            tally.early_stops += u64::from(b_latch.decision.stops());
            match b_latch.decision {
                SeqDecision::AcceptEarly(_) => {
                    tally.early_accepts += 1;
                    tally.seq_samples_early += b_latch.samples;
                }
                SeqDecision::RejectEarly(_) => {
                    tally.early_rejects += 1;
                    tally.seq_samples_early += b_latch.samples;
                }
                SeqDecision::Continue => {}
            }
            tally.full_accepted += u64::from(full_accepted);
            tally.full_samples += full_samples;
            tally.seq_samples += b_latch.samples;
            if full_accepted {
                tally.full_samples_accepted += full_samples;
                tally.seq_samples_accepted += b_latch.samples;
                tally.drift_i += u64::from(!b_latch.accepted);
            } else {
                tally.drift_ii += u64::from(b_latch.accepted);
            }
        }
    }
    result
}

/// Runs the full sequenced differential sweep over `devices` devices,
/// fanned out across `workers` threads (0 = available parallelism).
/// Deterministic in the worker count: devices and RNG streams derive
/// from `(seed, index, cell)` alone.
pub fn run_seq_differential(
    seed: u64,
    policy: &SequencerConfig,
    devices: usize,
    workers: usize,
) -> SeqDifferentialResult {
    let partials = pool::map_ranges(
        devices,
        workers,
        || (),
        |_, from, to| run_seq_differential_range(seed, policy, from, to),
    );
    let mut total = SeqDifferentialResult::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

/// Runs the per-architecture sequenced differential over a device
/// range: every zoo paper preset (flash, iid-width, SAR, pipeline) ×
/// counter width, three runs per device × cell on bit-identical
/// streams. Backends must latch identically for every architecture —
/// the paper's architecture-agnostic claim, checked at the gate level.
pub fn run_arch_differential_range(
    seed: u64,
    policy: &SequencerConfig,
    from: usize,
    to: usize,
) -> SeqDifferentialResult {
    let (grid, skipped) = arch_scenario_grid();
    run_seq_grid_range(
        &grid,
        skipped,
        (ARCH_DEVICE_SALT, ARCH_NOISE_SALT),
        seed,
        policy,
        from,
        to,
    )
}

/// Runs the full per-architecture sequenced differential over
/// `devices` devices, fanned out across `workers` threads (0 =
/// available parallelism). Deterministic in the worker count. The
/// result's per-cell tallies carry per-architecture samples-to-decision
/// accounting; feed them to a [`PriorsBank`] with
/// [`SeqDifferentialResult::seed_priors`] to derive
/// architecture-conditioned sequencer policies.
pub fn run_arch_differential(
    seed: u64,
    policy: &SequencerConfig,
    devices: usize,
    workers: usize,
) -> SeqDifferentialResult {
    let partials = pool::map_ranges(
        devices,
        workers,
        || (),
        |_, from, to| run_arch_differential_range(seed, policy, from, to),
    );
    let mut total = SeqDifferentialResult::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_is_bit_exact() {
        let batch = Batch::paper_simulation(31, 12);
        let result = run_differential(&batch, 0.0, 0);
        assert_eq!(result.devices, 12);
        assert_eq!(result.comparisons, 12 * 24);
        assert!(
            result.is_clean(),
            "divergences: {:#?}",
            &result.divergences[..result.divergences.len().min(3)]
        );
        // The sweep does real screening work: some devices accepted,
        // some rejected, across the grid.
        let accepted: u64 = result.per_scenario.iter().map(|s| s.accepted).sum();
        assert!(accepted > 0);
        assert!(accepted < result.comparisons);
    }

    #[test]
    fn slope_error_sweep_is_bit_exact() {
        // The paper's "slightly too steep" ramp shifts every count;
        // both datapaths must shift identically.
        let batch = Batch::paper_simulation(37, 8);
        let result = run_differential(&batch, -0.022, 0);
        assert!(result.is_clean(), "{result}");
    }

    #[test]
    fn independent_of_worker_count() {
        let batch = Batch::paper_simulation(41, 10);
        let seq = run_differential(&batch, 0.0, 1);
        let par = run_differential(&batch, 0.0, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn merge_accumulates_cellwise() {
        let batch = Batch::paper_simulation(43, 6);
        let whole = run_differential_range(&batch, 0.0, 0, 6);
        let mut parts = run_differential_range(&batch, 0.0, 0, 2);
        parts.merge(&run_differential_range(&batch, 0.0, 2, 6));
        assert_eq!(whole.comparisons, parts.comparisons);
        assert_eq!(whole.agreements, parts.agreements);
        assert_eq!(whole.per_scenario, parts.per_scenario);
    }

    #[test]
    fn display_summarises() {
        let batch = Batch::paper_simulation(47, 2);
        let r = run_differential(&batch, 0.0, 1);
        let s = r.to_string();
        assert!(s.contains("2 devices"), "{s}");
        assert!(s.contains("bit-exact"), "{s}");
    }

    #[test]
    fn dyn_small_fleet_is_decision_exact() {
        let result = run_dyn_differential(31, 8, 0);
        assert_eq!(result.devices, 8);
        assert_eq!(result.comparisons, 8 * 12);
        assert!(
            result.is_clean(),
            "divergences: {:#?}",
            &result.divergences[..result.divergences.len().min(3)]
        );
        // The sweep does real screening work: the ideal cells accept,
        // the worst-case mismatch cells reject at least someone.
        let accepted: u64 = result.per_scenario.iter().map(|s| s.accepted).sum();
        assert!(accepted > 0);
        assert!(accepted < result.comparisons, "nothing was rejected");
    }

    #[test]
    fn dyn_independent_of_worker_count() {
        let seq = run_dyn_differential(41, 6, 1);
        let par = run_dyn_differential(41, 6, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn dyn_merge_accumulates_cellwise() {
        let whole = run_dyn_differential_range(43, 0, 4);
        let mut parts = run_dyn_differential_range(43, 0, 1);
        parts.merge(&run_dyn_differential_range(43, 1, 4));
        assert_eq!(whole.comparisons, parts.comparisons);
        assert_eq!(whole.agreements, parts.agreements);
        assert_eq!(whole.per_scenario, parts.per_scenario);
    }

    #[test]
    fn dyn_cells_draw_independent_devices() {
        // The satellite fix behind run_dyn_differential: every cell has
        // its own seeded device stream, so two cells at the same device
        // index see different silicon.
        let a = dyn_stream_rng(7, 3, 0, DYN_DEVICE_SALT);
        let b = dyn_stream_rng(7, 3, 1, DYN_DEVICE_SALT);
        let mut a = a;
        let mut b = b;
        use rand::RngCore;
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn dyn_display_summarises() {
        let r = run_dyn_differential(47, 2, 1);
        let s = r.to_string();
        assert!(s.contains("2 devices"), "{s}");
        assert!(s.contains("decisions exact"), "{s}");
    }

    #[test]
    fn seq_small_fleet_is_latch_exact_and_saves_samples() {
        let policy = SequencerConfig::default();
        let result = run_seq_differential(31, &policy, 6, 0);
        assert_eq!(result.devices, 6);
        assert_eq!(result.comparisons as usize, 6 * result.per_scenario.len());
        assert!(
            result.is_clean(),
            "divergences: {:#?}",
            &result.divergences[..result.divergences.len().min(3)]
        );
        // The invalid 8-bit Nyquist-folding candidate was skipped, not run.
        assert_eq!(result.skipped_cells.len(), 1);
        assert!(result.skipped_cells[0].reason.contains("unrealisable"));
        // Real early stopping happened and saved samples overall.
        assert!(result.early_stop_rate() > 0.3, "{result}");
        assert!(result.reduction_overall() > 1.2, "{result}");
    }

    #[test]
    fn seq_independent_of_worker_count() {
        let policy = SequencerConfig::default();
        let seq1 = run_seq_differential(41, &policy, 5, 1);
        let seq4 = run_seq_differential(41, &policy, 5, 4);
        assert_eq!(seq1, seq4);
    }

    #[test]
    fn seq_merge_accumulates_cellwise() {
        let policy = SequencerConfig::default();
        let whole = run_seq_differential_range(43, &policy, 0, 4);
        let mut parts = run_seq_differential_range(43, &policy, 0, 1);
        parts.merge(&run_seq_differential_range(43, &policy, 1, 4));
        assert_eq!(whole.comparisons, parts.comparisons);
        assert_eq!(whole.agreements, parts.agreements);
        assert_eq!(whole.per_scenario, parts.per_scenario);
        assert_eq!(whole.skipped_cells, parts.skipped_cells);
    }

    #[test]
    fn seq_min_samples_never_violated() {
        let policy = SequencerConfig {
            min_samples: 300,
            check_interval: 50,
            ..Default::default()
        };
        let result = run_seq_differential(59, &policy, 4, 0);
        assert!(result.is_clean());
        // Per-decision at_sample checks live in
        // crates/core/tests/sequencer_equivalence.rs; here: no cell's
        // sequenced runs averaged fewer samples than the floor.
        for t in &result.per_scenario {
            if t.comparisons > 0 && t.early_stops == t.comparisons {
                assert!(t.seq_samples >= t.comparisons * 300);
            }
        }
    }

    #[test]
    fn seq_display_summarises() {
        let policy = SequencerConfig::default();
        let r = run_seq_differential(61, &policy, 2, 1);
        let s = r.to_string();
        assert!(s.contains("2 devices"), "{s}");
        assert!(s.contains("early stops"), "{s}");
        assert!(r.per_scenario[0].scenario.to_string().contains("static/"));
    }

    #[test]
    fn sar_and_pipeline_fleets_are_bit_exact_through_rtl() {
        // The full (non-sequenced) fleet validator over the new
        // architectures: behavioural and RTL datapaths must agree on
        // every verdict field for SAR and pipeline silicon too.
        for source in [SourceSpec::paper_sar(), SourceSpec::paper_pipeline()] {
            let batch = Batch::of(source).seed(53).size(3);
            let result = run_differential(&batch, 0.0, 0);
            assert_eq!(result.comparisons, 3 * 24, "{source}");
            assert!(result.is_clean(), "{source}: {result}");
        }
    }

    #[test]
    fn arch_sweep_is_latch_exact_across_architectures() {
        let policy = SequencerConfig::default();
        let result = run_arch_differential(31, &policy, 4, 0);
        assert_eq!(result.devices, 4);
        assert_eq!(
            result.per_scenario.len(),
            Architecture::COUNT * ARCH_COUNTER_BITS.len()
        );
        assert!(result.skipped_cells.is_empty());
        assert!(
            result.is_clean(),
            "divergences: {:#?}",
            &result.divergences[..result.divergences.len().min(3)]
        );
        // Every architecture appears in the grid, labelled.
        for arch in Architecture::ALL {
            assert!(
                result
                    .per_scenario
                    .iter()
                    .any(|t| t.scenario.architecture() == arch),
                "{arch} missing from the grid"
            );
        }
        assert!(result.per_scenario[0]
            .scenario
            .to_string()
            .starts_with("arch/"));
    }

    #[test]
    fn arch_sweep_independent_of_worker_count() {
        let policy = SequencerConfig::default();
        let seq1 = run_arch_differential(41, &policy, 3, 1);
        let seq4 = run_arch_differential(41, &policy, 3, 4);
        assert_eq!(seq1, seq4);
    }

    #[test]
    fn early_split_fields_account_for_every_early_stop() {
        let policy = SequencerConfig::default();
        let result = run_arch_differential(43, &policy, 4, 0);
        for t in &result.per_scenario {
            assert_eq!(
                t.early_accepts + t.early_rejects,
                t.early_stops,
                "{}",
                t.scenario
            );
            if t.early_stops == 0 {
                assert_eq!(t.seq_samples_early, 0);
            } else {
                assert!(t.seq_samples_early >= t.early_stops * policy.min_samples);
                assert!(t.seq_samples_early <= t.seq_samples);
            }
        }
    }

    #[test]
    fn seed_priors_accumulates_by_architecture() {
        let policy = SequencerConfig::default();
        let result = run_arch_differential(47, &policy, 5, 0);
        let mut bank = PriorsBank::new(policy);
        result.seed_priors(&mut bank);
        assert_eq!(bank.runs(), result.comparisons);
        for arch in Architecture::ALL {
            let expected: u64 = result
                .per_scenario
                .iter()
                .filter(|t| t.scenario.architecture() == arch)
                .map(|t| t.comparisons)
                .sum();
            assert_eq!(bank.tally(arch).runs, expected, "{arch}");
            // Whatever the bank derives must be a valid policy.
            bank.policy_for(arch)
                .validate()
                .expect("derived policy validates");
        }
    }
}
