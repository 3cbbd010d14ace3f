//! The device-generation seam: one [`DeviceSource`] trait in front of
//! every converter architecture the fleet can screen.
//!
//! The paper's method is architecture-agnostic — it watches output bits,
//! not circuit internals — so fleet entry points should not care *how* a
//! device was mismatched. This module is the one seam they all sample
//! through:
//!
//! * [`SourceSpec`] — a `Copy` enum over the four device models:
//!   [`FlashConfig`] (resistor ladder + comparator offsets),
//!   [`IidWidthSource`] (the §3 iid-Gaussian theory model),
//!   [`SarConfig`] (binary-weighted capacitor mismatch) and
//!   [`PipelineConfig`] (inter-stage gain error). Fleet descriptors
//!   (`Batch`, experiments, sweep cells) embed it and pass it by value.
//! * [`DeviceSource`] — the trait [`SourceSpec`] implements:
//!   `sample_transfer(rng)` draws one device as a [`TransferFunction`],
//!   plus its architecture tag and resolution.
//! * [`Zoo`] — a mixed-architecture fleet with a stable per-device
//!   `(seed, index) → (architecture, rng)` assignment, so zoo reports
//!   are bit-identical for any workers × chunking, exactly like
//!   single-architecture batches.
//!
//! It also hosts the canonical seeded-RNG derivations ([`stream_rng`],
//! [`device_rng`], [`splitmix_finalize`]) that every reproducible stream
//! in the workspace builds on — `bist_mc::batch` re-exports them, so
//! existing streams are bit-identical to their pre-seam values.

use crate::analytic::WidthDistribution;
use bist_adc::flash::FlashConfig;
use bist_adc::pipeline::PipelineConfig;
use bist_adc::sar::SarConfig;
use bist_adc::transfer::{Adc, TransferFunction};
use bist_adc::types::{Resolution, Volts};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;

/// The converter architectures the zoo can draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Architecture {
    /// Full-parallel flash: resistor ladder + comparator bank.
    Flash,
    /// The §3 theory model: iid Gaussian code widths (no circuit).
    IidWidths,
    /// Successive approximation over a binary-weighted capacitor DAC.
    Sar,
    /// Two-stage pipeline with an inter-stage residue amplifier.
    Pipeline,
}

impl Architecture {
    /// Number of architectures (the length of [`Architecture::ALL`]).
    pub const COUNT: usize = 4;

    /// Every architecture, in [`Architecture::index`] order.
    pub const ALL: [Architecture; Architecture::COUNT] = [
        Architecture::Flash,
        Architecture::IidWidths,
        Architecture::Sar,
        Architecture::Pipeline,
    ];

    /// A dense index in `0..COUNT`, stable across releases — used for
    /// per-architecture count arrays (e.g. [`Zoo::census`]).
    pub fn index(self) -> usize {
        match self {
            Architecture::Flash => 0,
            Architecture::IidWidths => 1,
            Architecture::Sar => 2,
            Architecture::Pipeline => 3,
        }
    }

    /// A short stable label for reports and perf-record metric names.
    pub fn label(self) -> &'static str {
        match self {
            Architecture::Flash => "flash",
            Architecture::IidWidths => "iid",
            Architecture::Sar => "sar",
            Architecture::Pipeline => "pipeline",
        }
    }

    /// The DNL signature this architecture's dominant mismatch produces.
    pub fn dnl_signature(self) -> DnlSignature {
        match self {
            Architecture::Flash => DnlSignature::LadderCorrelated,
            Architecture::IidWidths => DnlSignature::IidPerCode,
            Architecture::Sar => DnlSignature::MajorCarry,
            Architecture::Pipeline => DnlSignature::CoarseBoundary,
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where an architecture concentrates its differential nonlinearity —
/// the structure the BIST's per-code width counter is exposed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnlSignature {
    /// Independent per-code width errors (the §3 theory model).
    IidPerCode,
    /// Errors correlated along the ladder: a resistor deviation shifts
    /// every tap above it (the Eq. 10 correlation).
    LadderCorrelated,
    /// Spikes at major carries — worst at the MSB transition, scaling
    /// with `√(2^i)` per bit (capacitor matching law).
    MajorCarry,
    /// Repeating spikes at each coarse-stage boundary from residue-gain
    /// and coarse-threshold error.
    CoarseBoundary,
}

impl DnlSignature {
    /// A short stable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            DnlSignature::IidPerCode => "iid-per-code",
            DnlSignature::LadderCorrelated => "ladder-correlated",
            DnlSignature::MajorCarry => "major-carry",
            DnlSignature::CoarseBoundary => "coarse-boundary",
        }
    }
}

impl fmt::Display for DnlSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The device generator fleet entry points sample through: draws
/// mismatched converter instances as [`TransferFunction`]s plus the
/// metadata fleet tooling keys on. [`SourceSpec`] is its one
/// implementor.
///
/// # Contract
///
/// `sample_transfer` must consume rng draws identically for a given
/// source value — the fleet's bit-exactness guarantees (same report for
/// any workers × chunking, scalar ≡ batched) rest on device `i`
/// being a pure function of `(source, rng_i)`.
pub trait DeviceSource {
    /// The architecture tag (stable; labels per-architecture cells).
    fn architecture(&self) -> Architecture;

    /// The resolution every sampled device states.
    fn resolution(&self) -> Resolution;

    /// Draws one device instance as its transfer function.
    fn sample_transfer(&self, rng: &mut dyn RngCore) -> TransferFunction;
}

/// The §3 theory model as a device source: iid Gaussian code widths at a
/// stated resolution (the simulation half of the paper's sim/measurement
/// split).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IidWidthSource {
    resolution: Resolution,
    dist: WidthDistribution,
}

impl IidWidthSource {
    /// An iid-width source at `resolution` drawing from `dist`.
    pub fn new(resolution: Resolution, dist: WidthDistribution) -> Self {
        IidWidthSource { resolution, dist }
    }

    /// The paper's worst-case simulation model: 6 bits, σ_w = 0.21 LSB.
    pub fn paper() -> Self {
        IidWidthSource::new(Resolution::SIX_BIT, WidthDistribution::paper_worst_case())
    }

    /// The width distribution devices draw from.
    pub fn distribution(&self) -> WidthDistribution {
        self.dist
    }
}

/// A `Copy` device source, enum-dispatched over every architecture —
/// the form fleet descriptors (`bist_mc::batch::Batch`, experiment
/// configs, sweep cells) embed and pass by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceSpec {
    /// Behavioural flash (ladder + comparator mismatch).
    Flash(FlashConfig),
    /// iid Gaussian code widths (theory model).
    IidWidths(IidWidthSource),
    /// SAR with binary-weighted capacitor mismatch.
    Sar(SarConfig),
    /// Two-stage pipeline with inter-stage gain error.
    Pipeline(PipelineConfig),
}

impl SourceSpec {
    /// The paper's physical flash source (σ_w = 0.21 LSB).
    pub fn paper_flash() -> Self {
        SourceSpec::Flash(FlashConfig::paper_device())
    }

    /// The paper's iid-width simulation source (σ = 0.21 LSB).
    pub fn paper_iid() -> Self {
        SourceSpec::IidWidths(IidWidthSource::paper())
    }

    /// A paper-scale SAR source (mid-range yield; MSB-carry DNL).
    pub fn paper_sar() -> Self {
        SourceSpec::Sar(SarConfig::paper_device())
    }

    /// A paper-scale pipeline source (mid-range yield; boundary DNL).
    pub fn paper_pipeline() -> Self {
        SourceSpec::Pipeline(PipelineConfig::paper_device())
    }
}

impl DeviceSource for SourceSpec {
    fn architecture(&self) -> Architecture {
        match self {
            SourceSpec::Flash(_) => Architecture::Flash,
            SourceSpec::IidWidths(_) => Architecture::IidWidths,
            SourceSpec::Sar(_) => Architecture::Sar,
            SourceSpec::Pipeline(_) => Architecture::Pipeline,
        }
    }

    fn resolution(&self) -> Resolution {
        match self {
            SourceSpec::Flash(c) => c.resolution(),
            SourceSpec::IidWidths(c) => c.resolution,
            SourceSpec::Sar(c) => c.resolution(),
            SourceSpec::Pipeline(c) => c.resolution(),
        }
    }

    fn sample_transfer(&self, rng: &mut dyn RngCore) -> TransferFunction {
        match self {
            SourceSpec::Flash(c) => c.sample(rng).transfer().expect("flash states its transfer"),
            SourceSpec::IidWidths(c) => iid_width_transfer(c.resolution, &c.dist, rng),
            SourceSpec::Sar(c) => c.sample(rng).transfer().expect("sar states its transfer"),
            SourceSpec::Pipeline(c) => c
                .sample(rng)
                .transfer()
                .expect("pipeline states its transfer"),
        }
    }
}

impl fmt::Display for SourceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceSpec::Flash(c) => {
                write!(f, "flash (σ_w {:.3} LSB)", c.code_width_sigma_lsb())
            }
            SourceSpec::IidWidths(c) => {
                write!(f, "iid widths (σ {} LSB)", c.distribution().sigma())
            }
            SourceSpec::Sar(c) => {
                write!(f, "sar (σ_unit {:.3})", c.unit_cap_sigma())
            }
            SourceSpec::Pipeline(c) => {
                write!(f, "pipeline (σ_gain {:.3})", c.gain_sigma())
            }
        }
    }
}

impl From<FlashConfig> for SourceSpec {
    fn from(c: FlashConfig) -> Self {
        SourceSpec::Flash(c)
    }
}

impl From<IidWidthSource> for SourceSpec {
    fn from(c: IidWidthSource) -> Self {
        SourceSpec::IidWidths(c)
    }
}

impl From<SarConfig> for SourceSpec {
    fn from(c: SarConfig) -> Self {
        SourceSpec::Sar(c)
    }
}

impl From<PipelineConfig> for SourceSpec {
    fn from(c: PipelineConfig) -> Self {
        SourceSpec::Pipeline(c)
    }
}

/// Stream salts for the zoo's derived RNG streams (distinct from every
/// experiment salt in `bist-mc`, so zoo fleets never collide with sweep
/// streams at the same master seed).
const ZOO_ARCH_SALT: u64 = 0x200_a51e;
const ZOO_DEVICE_SALT: u64 = 0x200_de71;
const ZOO_NOISE_SALT: u64 = 0x200_0153;

/// A mixed-architecture fleet: a set of sources plus a master seed,
/// with a stable per-device `(seed, index) → (architecture, rng)`
/// assignment.
///
/// Device `i`'s architecture pick, generation rng and acquisition-noise
/// rng are each pure functions of `(seed, i)` on independent
/// [`stream_rng`] streams — no draw-order coupling between devices — so
/// a zoo fleet screened through `Screener::run` produces bit-identical
/// reports for any workers × chunk size, and adding noise
/// draws to one device never perturbs its neighbours.
///
/// All sources must state the same resolution (one fleet is screened
/// against one BIST plan).
#[derive(Debug, Clone, PartialEq)]
pub struct Zoo {
    sources: Vec<SourceSpec>,
    seed: u64,
}

impl Zoo {
    /// A zoo drawing uniformly (per-device, seeded) from `sources`.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or resolutions disagree.
    pub fn new(sources: Vec<SourceSpec>) -> Self {
        assert!(!sources.is_empty(), "zoo needs at least one source");
        let r = sources[0].resolution();
        assert!(
            sources.iter().all(|s| s.resolution() == r),
            "zoo sources must share one resolution"
        );
        Zoo { sources, seed: 0 }
    }

    /// The paper-scale four-architecture zoo (flash, iid, SAR,
    /// pipeline), all 6-bit.
    pub fn paper() -> Self {
        Zoo::new(vec![
            SourceSpec::paper_flash(),
            SourceSpec::paper_iid(),
            SourceSpec::paper_sar(),
            SourceSpec::paper_pipeline(),
        ])
    }

    /// Sets the master seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The source set, in assignment-index order.
    pub fn sources(&self) -> &[SourceSpec] {
        &self.sources
    }

    /// Device `index`'s source pick — stable in `(seed, index)` only.
    pub fn source_of(&self, index: usize) -> &SourceSpec {
        let pick = stream_rng(self.seed, &[ZOO_ARCH_SALT, index as u64]).next_u64();
        &self.sources[(pick % self.sources.len() as u64) as usize]
    }

    /// Device `index`'s architecture tag.
    pub fn architecture_of(&self, index: usize) -> Architecture {
        self.source_of(index).architecture()
    }

    /// Device `index`'s generation RNG (independent of the pick stream).
    pub fn device_rng(&self, index: usize) -> StdRng {
        stream_rng(self.seed, &[ZOO_DEVICE_SALT, index as u64])
    }

    /// Device `index`'s acquisition-noise RNG (independent of both).
    pub fn noise_rng(&self, index: usize) -> StdRng {
        stream_rng(self.seed, &[ZOO_NOISE_SALT, index as u64])
    }

    /// Generates device `index`'s transfer function.
    pub fn device(&self, index: usize) -> TransferFunction {
        self.source_of(index)
            .sample_transfer(&mut self.device_rng(index))
    }

    /// A fleet of `n` `(device, noise rng)` pairs in index order — the
    /// shape `Screener::run` consumes.
    pub fn fleet(&self, n: usize) -> impl Iterator<Item = (TransferFunction, StdRng)> + '_ {
        (0..n).map(move |i| (self.device(i), self.noise_rng(i)))
    }

    /// How many of the first `n` devices land on each architecture
    /// (indexed by [`Architecture::index`]).
    pub fn census(&self, n: usize) -> [usize; Architecture::COUNT] {
        let mut counts = [0usize; Architecture::COUNT];
        for i in 0..n {
            counts[self.architecture_of(i).index()] += 1;
        }
        counts
    }
}

/// The SplitMix64 finaliser behind every derived RNG stream in the
/// workspace (`bist_mc::batch` re-exports it).
pub fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A reproducible RNG for an arbitrary tuple of stream coordinates —
/// the one mixing function behind every experiment-derived stream
/// (device generation, acquisition noise, per-cell sweeps), so stream
/// independence is auditable in one place.
///
/// Each coordinate is absorbed and finalised in turn, so streams differ
/// whenever any coordinate (or the coordinate order) differs; the empty
/// tuple just finalises the seed. Same-seed, same-coordinates calls are
/// bit-identical across threads, platforms and releases
/// ([`rand`]'s compat `StdRng` is pinned).
pub fn stream_rng(seed: u64, coords: &[u64]) -> StdRng {
    let mut z = seed;
    for &c in coords {
        z = splitmix_finalize(
            z.wrapping_add(0x9e3779b97f4a7c15)
                .wrapping_add(c.wrapping_mul(0x2545f4914f6cdd1d)),
        );
    }
    StdRng::seed_from_u64(splitmix_finalize(z))
}

/// The RNG for device `index` of a single-architecture batch (stable
/// golden-ratio mixing of seed and index — `bist_mc::batch::Batch`'s
/// historical stream, kept bit-identical).
pub fn device_rng(seed: u64, index: usize) -> StdRng {
    // SplitMix64 finaliser decorrelates consecutive indices.
    StdRng::seed_from_u64(splitmix_finalize(
        seed.wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(index as u64 + 1)),
    ))
}

/// Builds a transfer function whose inner-code widths are iid draws from
/// `dist` (clamped at zero — a negative draw becomes a missing code).
/// The first transition sits at its ideal position; the input range is
/// the ideal 6.4·(2ⁿ/64)-style span with 0.1 V/LSB.
pub fn iid_width_transfer<R: Rng + ?Sized>(
    resolution: Resolution,
    dist: &WidthDistribution,
    rng: &mut R,
) -> TransferFunction {
    let q = 0.1; // volts per LSB (arbitrary but fixed)
    let n_transitions = resolution.transition_count() as usize;
    let mut t = Vec::with_capacity(n_transitions);
    t.push(q); // T[1] ideal
    for _ in 1..n_transitions {
        let w_lsb = (dist.mean() + dist.sigma() * standard_normal(rng)).max(0.0);
        let prev = *t.last().expect("non-empty");
        t.push(prev + w_lsb * q);
    }
    // Keep the *nominal* range: accumulated width drift is a gain error,
    // and the LSB size (hence Δs) must stay referenced to the ideal LSB.
    // The harness ramp sweeps past the range far enough to close the
    // last code. Transitions above `high` are legal.
    let high = q * resolution.code_count() as f64;
    TransferFunction::from_transitions(resolution, Volts(0.0), Volts(high), t)
}

/// One standard-normal draw (Marsaglia polar method over `rand`).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0f64..1.0);
        let v: f64 = rng.gen_range(-1.0f64..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * ((-2.0 * s.ln()) / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_adc::spec::LinearitySpec;

    #[test]
    fn sources_state_their_resolution() {
        for s in [
            SourceSpec::paper_flash(),
            SourceSpec::paper_iid(),
            SourceSpec::paper_sar(),
            SourceSpec::paper_pipeline(),
        ] {
            assert_eq!(s.resolution(), Resolution::SIX_BIT);
            let tf = s.sample_transfer(&mut stream_rng(1, &[s.architecture().index() as u64]));
            assert_eq!(tf.resolution(), Resolution::SIX_BIT);
        }
    }

    #[test]
    fn architecture_index_is_dense_and_stable() {
        for (i, a) in Architecture::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
        assert_eq!(Architecture::ALL.len(), Architecture::COUNT);
    }

    #[test]
    fn sampling_is_a_pure_function_of_source_and_rng() {
        for s in [
            SourceSpec::paper_flash(),
            SourceSpec::paper_iid(),
            SourceSpec::paper_sar(),
            SourceSpec::paper_pipeline(),
        ] {
            let a = s.sample_transfer(&mut stream_rng(9, &[3]));
            let b = s.sample_transfer(&mut stream_rng(9, &[3]));
            assert_eq!(a.transitions(), b.transitions(), "{s}");
            let c = s.sample_transfer(&mut stream_rng(9, &[4]));
            assert_ne!(a.transitions(), c.transitions(), "{s}");
            // Each variant draws exactly what its own model draws.
            for seed in [1, 2, 3] {
                let own = match s {
                    SourceSpec::Flash(c) => c.sample(&mut device_rng(seed, 5)).transfer(),
                    SourceSpec::IidWidths(c) => Some(iid_width_transfer(
                        c.resolution,
                        &c.dist,
                        &mut device_rng(seed, 5),
                    )),
                    SourceSpec::Sar(c) => c.sample(&mut device_rng(seed, 5)).transfer(),
                    SourceSpec::Pipeline(c) => c.sample(&mut device_rng(seed, 5)).transfer(),
                }
                .expect("every model states its transfer");
                let spec = s.sample_transfer(&mut device_rng(seed, 5));
                let bits = |tf: &TransferFunction| -> Vec<u64> {
                    tf.transitions().iter().map(|t| t.to_bits()).collect()
                };
                assert_eq!(bits(&spec), bits(&own), "{s}, seed {seed}");
                assert_eq!(spec, own, "{s}, seed {seed}");
            }
        }
    }

    #[test]
    fn zoo_assignment_is_stable_and_covers_all_architectures() {
        let zoo = Zoo::paper().with_seed(42);
        let census = zoo.census(200);
        for (a, &n) in Architecture::ALL.iter().zip(census.iter()) {
            assert!(n > 20, "architecture {a} drew only {n}/200 devices");
        }
        // Assignment depends on (seed, index) only.
        let again = Zoo::paper().with_seed(42);
        for i in 0..50 {
            assert_eq!(zoo.architecture_of(i), again.architecture_of(i));
            assert_eq!(zoo.device(i).transitions(), again.device(i).transitions());
        }
        // A different seed reshuffles.
        let other = Zoo::paper().with_seed(43);
        assert_ne!(
            (0..50).map(|i| zoo.architecture_of(i)).collect::<Vec<_>>(),
            (0..50)
                .map(|i| other.architecture_of(i))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn paper_sources_have_mid_range_yield() {
        // Every architecture's paper preset must yield in (5%, 95%)
        // under the stringent spec: screening a zoo then exercises both
        // accept and reject paths on every architecture.
        let spec = LinearitySpec::paper_stringent();
        for s in [
            SourceSpec::paper_flash(),
            SourceSpec::paper_iid(),
            SourceSpec::paper_sar(),
            SourceSpec::paper_pipeline(),
        ] {
            let good = (0..200)
                .filter(|&i| {
                    let tf = s.sample_transfer(&mut device_rng(7, i));
                    spec.classify(&tf).good
                })
                .count();
            assert!(
                (10..190).contains(&good),
                "{s}: yield {good}/200 is degenerate"
            );
        }
    }

    #[test]
    fn dnl_signatures_are_architecture_specific() {
        for (s, signature) in [
            (SourceSpec::paper_sar(), DnlSignature::MajorCarry),
            (SourceSpec::paper_pipeline(), DnlSignature::CoarseBoundary),
            (SourceSpec::paper_flash(), DnlSignature::LadderCorrelated),
            (SourceSpec::paper_iid(), DnlSignature::IidPerCode),
        ] {
            assert_eq!(s.architecture().dnl_signature(), signature, "{s}");
        }
    }
}
