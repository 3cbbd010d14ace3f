//! Differential fleet validation of the behavioural↔RTL verdict seam:
//! one harness, one result type, four grids.
//!
//! The harness screens every device × grid cell through the engine
//! fleets run, [`Screener`], once per verdict backend on bit-identical
//! code streams (same seeded device and noise RNG). Each device is a
//! one-device [`Screener::screen`] call on each of the cell's
//! screeners: the behavioural side goes through
//! [`BehavioralBackend`](bist_core::backend::BehavioralBackend)'s
//! batch hook — the run-skip sweep with its quiet-run checkpoints, and
//! the dynamic stimulus table, as a fleet takes them — and the RTL side
//! through the hook's default scalar loop, clocking the gate-accurate
//! `bist_rtl::BistTop` / `bist_rtl::DynBistTop`. The two must agree
//! ([`backends_agree`]):
//!
//! * both **latch** the same sequencer decision, accept/reject and
//!   sample count;
//! * a static verdict is **bit-exact** in every field (codes judged,
//!   DNL/INL failure counts, functional checks/mismatches, samples);
//! * a completed dynamic record agrees on every per-limit **decision**
//!   ([`dyn_decisions_agree`]) — the raw dB metrics may differ by the
//!   RTL's bounded fixed-point quantisation.
//!
//! Any disagreement is a [`Divergence`] carrying both verdicts; the
//! fleet binaries fail their run (and CI) if one appears. The static
//! equivalence holds because every harness sweep dwells past its last
//! transition (10-LSB overshoot), exactly the drain contract the RTL
//! needs to flush its synchroniser latency — see `bist_core::backend`.
//! No grid cell is *coded* (every dynamic cell carries input noise), so
//! the dynamic group kernel is checked against RTL by `dyn_fleet`'s
//! fleet part instead.
//!
//! Every grid shares the loop, the fan-out and the result: one [`Cell`]
//! enum names every cell, and one [`CellTally`] accounts for each. A
//! sequenced grid also screens each device unsequenced, as the
//! full-sweep ground truth for the tally's type I/II drift and
//! samples-to-decision figures; an unsequenced grid's own behavioural
//! verdict is its ground truth, so its tallies read no early stops, no
//! drift and a 1.00x reduction. Each grid keeps its own entry point,
//! cells and RNG salts:
//!
//! * [`run_differential`] (`rtl_fleet`): [`Cell::Batch`] cells, counter
//!   widths 4–7 × deglitch × [`NoisePoint`] × an optional ramp slope
//!   error, over one batch device per index shared by every cell.
//! * [`run_dyn_differential`] (`dyn_fleet`): [`Cell::Dynamic`] cells,
//!   flash devices × resolution × mismatch σ × coherent-bin choice, a
//!   fresh device per cell.
//! * [`run_seq_differential`] (`seq_fleet`): [`Cell::Static`] and
//!   [`Cell::Dynamic`] cells under the early-stop sequencer. Candidate
//!   cells rejected by config validation are recorded as skipped, never
//!   screened.
//! * [`run_arch_differential`] (`arch_fleet`): [`Cell::Arch`] cells,
//!   every zoo paper preset × counter width, sequenced.

use crate::batch::{stream_rng, Batch};
use bist_adc::flash::FlashConfig;
use bist_adc::noise::NoiseConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use bist_core::analytic::WidthDistribution;
use bist_core::backend::RtlBackend;
use bist_core::batch::BatchDevice;
use bist_core::config::{BistConfig, ConfigError};
use bist_core::dynamic::{DynamicConfig, DynamicVerdict};
use bist_core::pool;
use bist_core::screener::{ScreenReport, ScreenVerdict, Screener, Workload};
use bist_core::sequencer::{SeqDecision, SequencerConfig};
use bist_core::source::{Architecture, DeviceSource, IidWidthSource, SourceSpec};
use rand::rngs::StdRng;
use std::fmt;

/// The counter widths the paper sweeps (Table 1).
pub const COUNTER_BITS: [u32; 4] = [4, 5, 6, 7];

/// Converter resolutions of the dynamic sweep.
pub const DYN_RESOLUTION_BITS: [u32; 2] = [6, 8];

/// Code-width mismatch points of the dynamic sweep, milli-LSB (0 =
/// ideal, 160/210 = the paper's circuit-simulation range).
pub const DYN_SIGMA_MILLI: [u32; 3] = [0, 160, 210];

/// Coherent-bin choices of the dynamic sweep (cycles per record, both
/// odd and coprime with the record length).
pub const DYN_CYCLES: [u32; 2] = [1021, 997];

/// Samples per coherent record in the dynamic sweeps.
pub const DYN_RECORD_LEN: usize = 4096;

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

/// RNG-stream salt decorrelating the static sweep's noise from device
/// generation and the other experiments.
const DIFF_SALT: usize = 0xd1ff_0000;
/// RNG-stream salts of the dynamic sweep.
const DYN_DEVICE_SALT: u64 = 0xdd1f_f000;
const DYN_NOISE_SALT: u64 = 0xdd1f_f001;
/// RNG-stream salts of the sequenced sweep.
const SEQ_DEVICE_SALT: u64 = 0x5e9_f000;
const SEQ_NOISE_SALT: u64 = 0x5e9_f001;
/// RNG-stream salts of the per-architecture sweep — disjoint from the
/// sequenced grid's so the two sweeps draw independent silicon even at
/// the same seed.
const ARCH_DEVICE_SALT: u64 = 0x5e9_f002;
const ARCH_NOISE_SALT: u64 = 0x5e9_f003;

/// The acquisition noise points of the static sweep.
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

/// One cell of a sweep grid: what it names in reports, and the
/// `Display` label each fleet binary's table (and `seq_fleet`'s and
/// `arch_fleet`'s CSV) carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// A static cell of [`run_differential`]'s grid over a batch's
    /// shared devices (the batch fixes the mismatch).
    Batch {
        /// Counter width in bits.
        counter_bits: u32,
        /// Whether the deglitch filters are in the datapath.
        deglitch: bool,
        /// Acquisition noise point.
        noise: NoisePoint,
    },
    /// A static-linearity cell on iid-width devices.
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
    /// architecture — the per-architecture seam validation.
    Arch {
        /// The device architecture the cell draws from.
        arch: Architecture,
        /// Counter width in bits.
        counter_bits: u32,
    },
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filters = |deglitch: bool| if deglitch { "deglitch" } else { "raw" };
        match self {
            Cell::Batch {
                counter_bits,
                deglitch,
                noise,
            } => write!(
                f,
                "{counter_bits}-bit/{}/{}",
                filters(*deglitch),
                noise.label()
            ),
            Cell::Static {
                counter_bits,
                sigma_milli_lsb,
                deglitch,
                noise,
            } => write!(
                f,
                "static/{counter_bits}-bit/σ0.{sigma_milli_lsb:03}/{}/{}",
                filters(*deglitch),
                noise.label()
            ),
            Cell::Dynamic {
                resolution_bits,
                sigma_milli_lsb,
                cycles,
            } => write!(
                f,
                "dynamic/{resolution_bits}-bit/σ0.{sigma_milli_lsb:03}/{cycles}c"
            ),
            Cell::Arch { arch, counter_bits } => {
                write!(f, "arch/{}/{counter_bits}-bit", arch.label())
            }
        }
    }
}

/// Per-cell accounting of every grid: backend agreement, plus the
/// behavioural verdict scored against the full-sweep ground truth.
/// In an unsequenced grid the behavioural verdict is its own ground
/// truth, so the early-stop and drift counters stay 0 and the two
/// sample totals are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellTally {
    /// The sweep cell.
    pub scenario: Cell,
    /// Devices compared in this cell.
    pub comparisons: u64,
    /// Devices on which the backends agreed.
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

impl CellTally {
    /// An empty tally for `scenario`.
    fn new(scenario: Cell) -> Self {
        CellTally {
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

    /// Counts one device: whether the backends agreed, the behavioural
    /// verdict, and the full-sweep ground truth.
    fn record(&mut self, agree: bool, behavioral: &ScreenVerdict, full: &ScreenVerdict) {
        let (accepted, samples) = (behavioral.accepted(), behavioral.samples());
        self.comparisons += 1;
        self.agreements += u64::from(agree);
        match behavioral.decision() {
            SeqDecision::AcceptEarly(_) => self.early_accepts += 1,
            SeqDecision::RejectEarly(_) => self.early_rejects += 1,
            SeqDecision::Continue => {}
        }
        if behavioral.stopped_early() {
            self.early_stops += 1;
            self.seq_samples_early += samples;
        }
        self.full_samples += full.samples();
        self.seq_samples += samples;
        if full.accepted() {
            self.full_accepted += 1;
            self.full_samples_accepted += full.samples();
            self.seq_samples_accepted += samples;
            self.drift_i += u64::from(!accepted);
        } else {
            self.drift_ii += u64::from(accepted);
        }
    }

    /// Adds another worker's tally of the same cell.
    fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.scenario, other.scenario);
        self.comparisons += other.comparisons;
        self.agreements += other.agreements;
        self.early_stops += other.early_stops;
        self.early_accepts += other.early_accepts;
        self.early_rejects += other.early_rejects;
        self.seq_samples_early += other.seq_samples_early;
        self.full_accepted += other.full_accepted;
        self.drift_i += other.drift_i;
        self.drift_ii += other.drift_ii;
        self.full_samples += other.full_samples;
        self.seq_samples += other.seq_samples;
        self.full_samples_accepted += other.full_samples_accepted;
        self.seq_samples_accepted += other.seq_samples_accepted;
    }
}

/// A device/cell where the two backends disagreed, with both verdicts
/// for the post-mortem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Divergence {
    /// Device index within the sweep.
    pub device: usize,
    /// The sweep cell.
    pub scenario: Cell,
    /// What the behavioural engine concluded.
    pub behavioral: ScreenVerdict,
    /// What the gate-accurate datapath concluded.
    pub rtl: ScreenVerdict,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device {} [{}]: behavioral ", self.device, self.scenario)?;
        write_verdict(&self.behavioral, f)?;
        f.write_str(" vs rtl ")?;
        write_verdict(&self.rtl, f)
    }
}

/// Writes a verdict as its latch (decision, accept/reject, samples)
/// followed by the verdict itself.
fn write_verdict(v: &ScreenVerdict, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(
        f,
        "{} ({} after {} samples) ",
        v.decision(),
        if v.accepted() { "ACCEPT" } else { "REJECT" },
        v.samples()
    )?;
    match v {
        ScreenVerdict::Static(o) => write!(f, "{:?}", o.verdict),
        ScreenVerdict::Dynamic(o) => write!(f, "{}", o.verdict),
    }
}

/// A candidate cell the grid builder dropped because its configuration
/// failed validation (e.g. a fixed-point-unrealisable dynamic plan).
/// Skipped cells carry no screened devices and are excluded from every
/// agreement, drift and reduction figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCell {
    /// The rejected cell.
    pub scenario: Cell,
    /// The validation error.
    pub reason: String,
}

/// Outcome of a differential sweep over any grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DifferentialResult {
    /// Devices swept.
    pub devices: u64,
    /// Total (device × valid cell) comparisons.
    pub comparisons: u64,
    /// Comparisons on which the backends agreed.
    pub agreements: u64,
    /// Every disagreement observed.
    pub divergences: Vec<Divergence>,
    /// Accounting per valid sweep cell (stable grid order).
    pub per_scenario: Vec<CellTally>,
    /// Candidate cells rejected by config validation, never screened.
    pub skipped_cells: Vec<SkippedCell>,
}

/// The sequenced sweep's name for [`DifferentialResult`]. fleetbench
/// (outside this workspace, changed only with the benchmark) imports it
/// by this name, together with [`run_seq_differential_range`], the
/// `per_scenario` field and every [`CellTally`] field name.
pub type SeqDifferentialResult = DifferentialResult;

impl DifferentialResult {
    /// Whether the sweep compared something and found no divergence at
    /// all. An empty sweep is not clean, so a fleet gate run at zero
    /// devices fails instead of passing vacuously.
    pub fn is_clean(&self) -> bool {
        self.comparisons > 0 && self.divergences.is_empty() && self.agreements == self.comparisons
    }

    /// Fraction of comparisons on which the backends agreed.
    pub fn agreement_rate(&self) -> f64 {
        if self.comparisons == 0 {
            0.0
        } else {
            self.agreements as f64 / self.comparisons as f64
        }
    }

    /// Merges a partial result from another worker (cell-wise; both
    /// sides carry the same grid order, and skipped cells are
    /// grid-derived and identical on every worker).
    pub fn merge(&mut self, other: &Self) {
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
                mine.merge(theirs);
            }
        }
    }

    fn sum<F: Fn(&CellTally) -> u64>(&self, f: F) -> u64 {
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
}

impl fmt::Display for DifferentialResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} devices × {} cells: {}/{} backends agree ({} divergences, \
             {:.0}% early stops, {:.2}x samples overall, drift I {:.2e} / II {:.2e})",
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

/// Whether two dynamic verdicts agree on everything the silicon
/// latches: the per-limit decisions, the sample count and the
/// completeness expectation. The raw dB metrics are allowed to differ
/// by the RTL's bounded fixed-point quantisation.
pub fn dyn_decisions_agree(a: &DynamicVerdict, b: &DynamicVerdict) -> bool {
    a.checks == b.checks && a.samples == b.samples && a.expected_samples == b.expected_samples
}

/// The agreement rule of every grid: identical latches, and identical
/// verdicts — bit-exact for static records, decision-exact for
/// completed dynamic records (an early-stopped record is its latch).
pub fn backends_agree(b: &ScreenVerdict, r: &ScreenVerdict) -> bool {
    let latch = |v: &ScreenVerdict| (v.decision(), v.accepted(), v.samples());
    latch(b) == latch(r)
        && match (b, r) {
            (ScreenVerdict::Static(b), ScreenVerdict::Static(r)) => b.verdict == r.verdict,
            (ScreenVerdict::Dynamic(b), ScreenVerdict::Dynamic(r)) => {
                b.stopped_early() || dyn_decisions_agree(&b.verdict, &r.verdict)
            }
            _ => false,
        }
}

/// A seeded RNG for `(seed, salt, device, cell)` — every cell gets its
/// own device and noise streams, so a sweep is deterministic in the
/// worker count and cells never share draws (the shared
/// [`crate::batch::stream_rng`] mixing).
fn cell_rng(seed: u64, device: usize, cell: usize, salt: u64) -> StdRng {
    stream_rng(seed, &[salt, device as u64, cell as u64])
}

/// How a sweep draws its devices and acquisition noise.
#[derive(Clone, Copy)]
enum Streams<'a> {
    /// Device `i` is `batch.device(i)`, drawn once and shared by every
    /// cell (SAR and pipeline generation is the slow stage); cell noise
    /// comes from `batch.device_rng(i ^ DIFF_SALT ^ (cell << 24))`. The
    /// cell stride 2^24 is overflow-free even on 32-bit targets (cell <
    /// 48) and collision-free below 16M devices.
    Batch(&'a Batch),
    /// Every (device, cell) draws its own device from the cell's
    /// source and its own noise, on salted [`cell_rng`] streams.
    Salted {
        seed: u64,
        device_salt: u64,
        noise_salt: u64,
    },
}

impl Streams<'_> {
    fn noise_rng(self, device: usize, cell: usize) -> StdRng {
        match self {
            Streams::Batch(batch) => batch.device_rng(device ^ DIFF_SALT ^ (cell << 24)),
            Streams::Salted {
                seed, noise_salt, ..
            } => cell_rng(seed, device, cell, noise_salt),
        }
    }

    fn cell_device(self, source: &SourceSpec, device: usize, cell: usize) -> TransferFunction {
        match self {
            Streams::Batch(batch) => batch.device(device),
            Streams::Salted {
                seed, device_salt, ..
            } => source.sample_transfer(&mut cell_rng(seed, device, cell, device_salt)),
        }
    }
}

/// One cell's screeners — per cell, so each screener's sequencer and
/// stimulus table, and the cached RTL tops, reset in place across the
/// device-outer sweep order instead of rebuilding on every config
/// change.
struct Screens {
    behavioral: Screener,
    rtl: Screener<RtlBackend>,
    /// The unsequenced behavioural ground truth of a sequenced sweep.
    full: Option<Screener>,
    /// The current device's reports: behavioural, RTL, then full.
    reports: Vec<ScreenReport>,
}

/// One grid: its valid cells (cell, device source, workload), the
/// candidates config validation rejected, its streams and — for
/// sequenced sweeps — the sequencer policy both backends run under.
struct Grid<'a> {
    cells: Vec<(Cell, SourceSpec, Workload)>,
    skipped: Vec<SkippedCell>,
    streams: Streams<'a>,
    policy: Option<SequencerConfig>,
}

impl Grid<'_> {
    fn screens(&self) -> Vec<Screens> {
        self.cells
            .iter()
            .map(|&(.., workload)| {
                let sequenced = || match self.policy {
                    Some(policy) => Screener::new(workload).sequencer(policy),
                    None => Screener::new(workload),
                };
                Screens {
                    behavioral: sequenced(),
                    rtl: sequenced().backend(RtlBackend::new()),
                    full: self.policy.map(|_| Screener::new(workload)),
                    reports: Vec::with_capacity(3),
                }
            })
            .collect()
    }

    /// The device-outer loop behind every sweep: devices `from..to` ×
    /// every cell, each screened as a one-device stream by both backends
    /// (and the ground truth) on fresh copies of the same noise stream,
    /// compared and tallied.
    fn sweep(&self, screens: &mut [Screens], from: usize, to: usize) -> DifferentialResult {
        let mut result = DifferentialResult {
            per_scenario: self
                .cells
                .iter()
                .map(|&(id, ..)| CellTally::new(id))
                .collect(),
            skipped_cells: self.skipped.clone(),
            ..DifferentialResult::default()
        };
        for i in from..to {
            result.devices += 1;
            let shared = match self.streams {
                Streams::Batch(batch) => Some(batch.device(i)),
                Streams::Salted { .. } => None,
            };
            for (cell, ((id, source, _), s)) in self.cells.iter().zip(&mut *screens).enumerate() {
                let drawn;
                let adc = match &shared {
                    Some(tf) => tf,
                    None => {
                        drawn = self.streams.cell_device(source, i, cell);
                        &drawn
                    }
                };
                let one = || [BatchDevice::new(i, adc, self.streams.noise_rng(i, cell))];
                let reports = &mut s.reports;
                reports.clear();
                s.behavioral.screen(one(), reports);
                s.rtl.screen(one(), reports);
                if let Some(full) = &mut s.full {
                    full.screen(one(), reports);
                }
                let (b, r) = (reports[0].verdict, reports[1].verdict);
                // An unsequenced grid's behavioural verdict is its own
                // ground truth.
                let full = reports.get(2).map_or(b, |f| f.verdict);
                let agree = backends_agree(&b, &r);
                result.comparisons += 1;
                if agree {
                    result.agreements += 1;
                } else {
                    result.divergences.push(Divergence {
                        device: i,
                        scenario: *id,
                        behavioral: b,
                        rtl: r,
                    });
                }
                result.per_scenario[cell].record(agree, &b, &full);
            }
        }
        result
    }

    fn range(&self, from: usize, to: usize) -> DifferentialResult {
        self.sweep(&mut self.screens(), from, to)
    }

    /// Sweeps devices `0..devices` across `workers` threads (0 =
    /// available parallelism), one set of screeners per worker.
    /// Deterministic in the worker count: devices and RNG streams
    /// derive from `(seed, index, cell)` alone.
    fn run(&self, devices: usize, workers: usize) -> DifferentialResult {
        let parts = pool::map_ranges(
            devices,
            workers,
            || self.screens(),
            |screens, from, to| self.sweep(screens, from, to),
        );
        let mut total = DifferentialResult::default();
        for part in &parts {
            total.merge(part);
        }
        total
    }
}

/// A 6-bit paper-spec static configuration.
fn static_config(counter_bits: u32, deglitch: bool) -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(counter_bits)
        .deglitch(deglitch)
        .build()
        .expect("paper operating points are valid")
}

/// A flash source on the seed's 0.1 V/LSB convention and the coherent
/// sine workload it is screened with: driven at exactly full scale (the
/// default overdrive's clipping distortion, ~−37 dBc at any resolution,
/// would bury the 8-bit quantisation floor and reject even ideal
/// devices) under 2 mV input noise. Errs when the plan fails
/// validation.
fn dyn_cell(
    bits: u32,
    sigma_milli: u32,
    cycles: u32,
) -> Result<(SourceSpec, Workload), ConfigError> {
    let resolution = Resolution::new(bits).expect("sweep resolutions are valid");
    let high = Volts(0.1 * resolution.code_count() as f64);
    let flash = FlashConfig::new(resolution, Volts(0.0), high)
        .with_width_sigma_lsb(sigma_milli as f64 / 1000.0);
    let config = DynamicConfig::new(resolution, DYN_RECORD_LEN, cycles)?.with_overdrive(0.0);
    let noise = NoiseConfig::noiseless().with_input_noise(0.002);
    Ok((
        flash.into(),
        Workload::dynamic_sine(config).with_noise(noise),
    ))
}

/// The static grid: every counter width × deglitch × noise point over
/// the batch's devices, ramps skewed by `slope_error`.
fn static_grid(batch: &Batch, slope_error: f64) -> Grid<'_> {
    let mut cells = Vec::new();
    for &counter_bits in &COUNTER_BITS {
        for deglitch in [false, true] {
            let config = static_config(counter_bits, deglitch);
            for noise in NoisePoint::ALL {
                let id = Cell::Batch {
                    counter_bits,
                    deglitch,
                    noise,
                };
                let workload = Workload::static_ramp(config)
                    .with_noise(noise.config())
                    .with_slope_error(slope_error);
                cells.push((id, batch.source, workload));
            }
        }
    }
    Grid {
        cells,
        skipped: Vec::new(),
        streams: Streams::Batch(batch),
        policy: None,
    }
}

/// The dynamic grid: every resolution × mismatch σ × coherent-bin
/// choice.
fn dyn_grid(seed: u64) -> Grid<'static> {
    let mut cells = Vec::new();
    for &resolution_bits in &DYN_RESOLUTION_BITS {
        for &sigma_milli_lsb in &DYN_SIGMA_MILLI {
            for &cycles in &DYN_CYCLES {
                let id = Cell::Dynamic {
                    resolution_bits,
                    sigma_milli_lsb,
                    cycles,
                };
                let (source, workload) = dyn_cell(resolution_bits, sigma_milli_lsb, cycles)
                    .expect("sweep bins are valid");
                cells.push((id, source, workload));
            }
        }
    }
    Grid {
        cells,
        skipped: Vec::new(),
        streams: Streams::Salted {
            seed,
            device_salt: DYN_DEVICE_SALT,
            noise_salt: DYN_NOISE_SALT,
        },
        policy: None,
    }
}

/// The sequenced grid: static iid-width cells (counter width × mismatch
/// σ, plus one deglitched transition-noise cell) and dynamic flash cells
/// (resolution × mismatch σ at the paper bin, plus the Nyquist-folding
/// 1024-cycle candidates — of which the 8-bit one is rejected by the
/// fixed-point register audit and recorded as a skipped cell).
fn seq_grid(seed: u64, policy: &SequencerConfig) -> Grid<'static> {
    let iid_cell = |counter_bits, sigma_milli_lsb: u32, deglitch, noise: NoisePoint| {
        let dist = WidthDistribution::new(1.0, sigma_milli_lsb as f64 / 1000.0);
        let id = Cell::Static {
            counter_bits,
            sigma_milli_lsb,
            deglitch,
            noise,
        };
        let workload =
            Workload::static_ramp(static_config(counter_bits, deglitch)).with_noise(noise.config());
        (
            id,
            IidWidthSource::new(Resolution::SIX_BIT, dist).into(),
            workload,
        )
    };
    let mut cells = Vec::new();
    for &counter_bits in &SEQ_STATIC_COUNTER_BITS {
        for &sigma_milli in &SEQ_STATIC_SIGMA_MILLI {
            cells.push(iid_cell(
                counter_bits,
                sigma_milli,
                false,
                NoisePoint::Noiseless,
            ));
        }
    }
    // One deglitched, transition-noise cell: the filters and the quiet
    // dwell of the completion-accept rule under sequencing.
    cells.push(iid_cell(5, 210, true, NoisePoint::Transition));
    let mut skipped = Vec::new();
    for &resolution_bits in &SEQ_DYN_RESOLUTION_BITS {
        // The Nyquist-folding candidate comes last: valid at 6 bits,
        // rejected by the fixed-point register audit at 8 bits.
        let candidates = SEQ_DYN_SIGMA_MILLI.iter().map(|&s| (s, 1021));
        for (sigma_milli_lsb, cycles) in candidates.chain([(160, 1024)]) {
            let id = Cell::Dynamic {
                resolution_bits,
                sigma_milli_lsb,
                cycles,
            };
            match dyn_cell(resolution_bits, sigma_milli_lsb, cycles) {
                Ok((source, workload)) => cells.push((id, source, workload)),
                Err(e) => skipped.push(SkippedCell {
                    scenario: id,
                    reason: e.to_string(),
                }),
            }
        }
    }
    Grid {
        cells,
        skipped,
        streams: Streams::Salted {
            seed,
            device_salt: SEQ_DEVICE_SALT,
            noise_salt: SEQ_NOISE_SALT,
        },
        policy: Some(*policy),
    }
}

/// The per-architecture grid: every zoo paper preset (flash, iid-width,
/// SAR, pipeline) × counter width, all static-ramp noiseless cells.
fn arch_grid(seed: u64, policy: &SequencerConfig) -> Grid<'static> {
    let sources = [
        SourceSpec::paper_flash(),
        SourceSpec::paper_iid(),
        SourceSpec::paper_sar(),
        SourceSpec::paper_pipeline(),
    ];
    let mut cells = Vec::new();
    for &counter_bits in &ARCH_COUNTER_BITS {
        for source in sources {
            let id = Cell::Arch {
                arch: source.architecture(),
                counter_bits,
            };
            let workload = Workload::static_ramp(static_config(counter_bits, false))
                .with_noise(NoiseConfig::noiseless());
            cells.push((id, source, workload));
        }
    }
    Grid {
        cells,
        skipped: Vec::new(),
        streams: Streams::Salted {
            seed,
            device_salt: ARCH_DEVICE_SALT,
            noise_salt: ARCH_NOISE_SALT,
        },
        policy: Some(*policy),
    }
}

/// Runs the static differential sweep over a batch, fanned out across
/// `workers` threads (0 = available parallelism): every device × counter
/// width × deglitch × noise point, ramps skewed by `slope_error`,
/// demanding bit-exact verdicts.
pub fn run_differential(batch: &Batch, slope_error: f64, workers: usize) -> DifferentialResult {
    static_grid(batch, slope_error).run(batch.size, workers)
}

/// Runs the dynamic differential sweep over `devices` flash devices per
/// cell, fanned out across `workers` threads (0 = available
/// parallelism), demanding decision-exact dynamic verdicts.
pub fn run_dyn_differential(seed: u64, devices: usize, workers: usize) -> DifferentialResult {
    dyn_grid(seed).run(devices, workers)
}

/// Runs the sequenced differential sweep over the device range
/// `from..to` on the calling thread: for every device × valid cell, the
/// full sweep (behavioural ground truth), the sequenced behavioural path
/// and the sequenced RTL path on bit-identical streams. Backends must
/// latch identically; the sequenced decision is scored against the full
/// sweep for empirical type I/II drift and samples-to-decision.
pub fn run_seq_differential_range(
    seed: u64,
    policy: &SequencerConfig,
    from: usize,
    to: usize,
) -> DifferentialResult {
    seq_grid(seed, policy).range(from, to)
}

/// Runs the full sequenced differential sweep over `devices` devices,
/// fanned out across `workers` threads (0 = available parallelism).
pub fn run_seq_differential(
    seed: u64,
    policy: &SequencerConfig,
    devices: usize,
    workers: usize,
) -> DifferentialResult {
    seq_grid(seed, policy).run(devices, workers)
}

/// Runs the per-architecture sequenced differential over `devices`
/// devices, fanned out across `workers` threads (0 = available
/// parallelism): backends must latch identically for every architecture
/// — the paper's architecture-agnostic claim, checked at the gate level.
/// The per-cell tallies carry per-architecture samples-to-decision and
/// type I/II drift accounting.
pub fn run_arch_differential(
    seed: u64,
    policy: &SequencerConfig,
    devices: usize,
    workers: usize,
) -> DifferentialResult {
    arch_grid(seed, policy).run(devices, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_core::screener::Screener;

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
        let accepted: u64 = result.per_scenario.iter().map(|s| s.full_accepted).sum();
        assert!(accepted > 0);
        assert!(accepted < result.comparisons);
        check_unsequenced(&result, &static_grid(&batch, 0.0), 12);
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

    /// An unsequenced grid's tallies, on one tally type: no early stop,
    /// no drift, equal sample totals, and `full_accepted` equal to each
    /// cell's behavioural accept count — counted afresh by a pooled
    /// `Screener` over the cell's devices and noise streams.
    fn check_unsequenced(result: &DifferentialResult, grid: &Grid<'_>, devices: usize) {
        assert_eq!(result.per_scenario.len(), grid.cells.len());
        for (cell, (t, (id, source, workload))) in
            result.per_scenario.iter().zip(&grid.cells).enumerate()
        {
            assert_eq!(t.scenario, *id);
            assert_eq!(t.early_stops + t.early_accepts + t.early_rejects, 0, "{id}");
            assert_eq!(t.seq_samples_early, 0, "{id}");
            assert_eq!((t.drift_i, t.drift_ii), (0, 0), "{id}");
            assert_eq!(t.seq_samples, t.full_samples, "{id}");
            assert_eq!(t.seq_samples_accepted, t.full_samples_accepted, "{id}");
            let fleet = (0..devices).map(|i| {
                (
                    grid.streams.cell_device(source, i, cell),
                    grid.streams.noise_rng(i, cell),
                )
            });
            let reports = Screener::new(*workload).workers(2).run(fleet);
            let accepted = reports.iter().filter(|r| r.verdict.accepted()).count();
            assert_eq!(t.full_accepted, accepted as u64, "{id}");
        }
    }

    /// Devices 0..n swept whole equal 0..split merged with split..n,
    /// cell by cell.
    fn check_merge(grid: &Grid<'_>, split: usize, n: usize) {
        let whole = grid.range(0, n);
        let mut parts = grid.range(0, split);
        parts.merge(&grid.range(split, n));
        assert_eq!(whole.comparisons, parts.comparisons);
        assert_eq!(whole.agreements, parts.agreements);
        assert_eq!(whole.per_scenario, parts.per_scenario);
        assert_eq!(whole.skipped_cells, parts.skipped_cells);
    }

    /// A summary line names the device count plus `phrase`.
    fn check_says(r: &DifferentialResult, phrase: &str) {
        let s = r.to_string();
        assert!(s.contains("2 devices"), "{s}");
        assert!(s.contains(phrase), "{s}");
    }

    #[test]
    fn merge_accumulates_cellwise() {
        let batch = Batch::paper_simulation(43, 6);
        check_merge(&static_grid(&batch, 0.0), 2, 6);
        check_merge(&arch_grid(43, &SequencerConfig::default()), 1, 4);
    }

    #[test]
    fn dyn_merge_accumulates_cellwise() {
        check_merge(&dyn_grid(43), 1, 4);
    }

    #[test]
    fn seq_merge_accumulates_cellwise() {
        check_merge(&seq_grid(43, &SequencerConfig::default()), 1, 4);
    }

    #[test]
    fn display_summarises() {
        // One wording for every grid; an unsequenced grid reads no
        // early stops, no reduction and no drift.
        let unsequenced = "backends agree (0 divergences, 0% early stops, 1.00x samples overall, \
                           drift I 0.00e0 / II 0.00e0)";
        check_says(
            &run_differential(&Batch::paper_simulation(47, 2), 0.0, 1),
            unsequenced,
        );
        check_says(
            &run_arch_differential(61, &SequencerConfig::default(), 2, 1),
            "backends agree",
        );
    }

    #[test]
    fn dyn_display_summarises() {
        let r = run_dyn_differential(47, 2, 1);
        check_says(&r, "12 cells: 24/24 backends agree");
        check_says(&r, "0% early stops, 1.00x samples overall");
        assert!(r.per_scenario[0]
            .scenario
            .to_string()
            .starts_with("dynamic/"));
    }

    #[test]
    fn seq_display_summarises() {
        let r = run_seq_differential(61, &SequencerConfig::default(), 2, 1);
        check_says(&r, "backends agree");
        check_says(&r, "early stops");
        assert!(r.per_scenario[0].scenario.to_string().contains("static/"));
    }

    #[test]
    fn empty_sweep_is_not_clean() {
        assert!(!DifferentialResult::default().is_clean());
        let batch = Batch::paper_simulation(71, 2);
        let empty = static_grid(&batch, 0.0).range(1, 1);
        assert_eq!(empty.comparisons, 0);
        assert!(!empty.is_clean(), "{empty}");
    }

    #[test]
    fn mismatched_backends_are_caught() {
        // Cell 0 (4-bit/raw/noiseless) gets an RTL engine judging with
        // a 7-bit counter, and cell 1 (4-bit/raw/transition) a 7-bit
        // behavioural engine: the gate must flag both cells on every
        // device, whichever side is at fault, and only those cells.
        let batch = Batch::paper_simulation(67, 3);
        let grid = static_grid(&batch, 0.0);
        let mut screens = grid.screens();
        let seven_bit = Workload::static_ramp(static_config(7, false));
        screens[0].rtl = Screener::new(seven_bit).backend(RtlBackend::new());
        let noisy_seven_bit = seven_bit.with_noise(NoisePoint::Transition.config());
        screens[1].behavioral = Screener::new(noisy_seven_bit);
        let result = grid.sweep(&mut screens, 0, 3);
        assert!(!result.is_clean(), "{result}");
        let flagged: Vec<(usize, Cell)> = result
            .divergences
            .iter()
            .map(|d| (d.device, d.scenario))
            .collect();
        let (rtl_victim, behavioral_victim) = (grid.cells[0].0, grid.cells[1].0);
        let expected: Vec<_> = (0..3)
            .flat_map(|i| [(i, rtl_victim), (i, behavioral_victim)])
            .collect();
        assert_eq!(flagged, expected);
        assert_eq!(result.per_scenario[0].agreements, 0);
        assert_eq!(result.per_scenario[1].agreements, 0);
        assert!(result.per_scenario[2..]
            .iter()
            .all(|t| t.agreements == t.comparisons));
        for (d, cell) in [(0, "4-bit/raw/noiseless"), (1, "4-bit/raw/transition")] {
            let shown = result.divergences[d].to_string();
            assert!(shown.starts_with(&format!("device 0 [{cell}]")), "{shown}");
        }
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
        let accepted: u64 = result.per_scenario.iter().map(|s| s.full_accepted).sum();
        assert!(accepted > 0);
        assert!(accepted < result.comparisons, "nothing was rejected");
        check_unsequenced(&result, &dyn_grid(31), 8);
    }

    #[test]
    fn dyn_independent_of_worker_count() {
        let seq = run_dyn_differential(41, 6, 1);
        let par = run_dyn_differential(41, 6, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn dyn_cells_draw_independent_devices() {
        // Every cell has its own seeded device stream, so two cells at
        // the same device index see different silicon.
        use rand::RngCore;
        let mut a = cell_rng(7, 3, 0, DYN_DEVICE_SALT);
        let mut b = cell_rng(7, 3, 1, DYN_DEVICE_SALT);
        assert_ne!(a.next_u64(), b.next_u64());
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
    fn seq_min_samples_never_violated() {
        let policy = SequencerConfig {
            min_samples: 300,
            check_interval: 50,
            ..Default::default()
        };
        let result = run_seq_differential(59, &policy, 4, 0);
        assert!(result.is_clean());
        // Per-decision stop-sample checks live in
        // crates/core/tests/sequencer_equivalence.rs; here: no cell's
        // sequenced runs averaged fewer samples than the floor.
        for t in &result.per_scenario {
            if t.comparisons > 0 && t.early_stops == t.comparisons {
                assert!(t.seq_samples >= t.comparisons * 300);
            }
        }
    }

    #[test]
    fn sar_and_pipeline_fleets_are_bit_exact_through_rtl() {
        // The full (non-sequenced) fleet validator over the new
        // architectures: behavioural and RTL datapaths must agree on
        // every verdict field for SAR and pipeline silicon too.
        for source in [SourceSpec::paper_sar(), SourceSpec::paper_pipeline()] {
            let batch = Batch {
                size: 3,
                ..Batch::of(source).seed(53)
            };
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
                    .any(|t| matches!(t.scenario, Cell::Arch { arch: a, .. } if a == arch)),
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
}
