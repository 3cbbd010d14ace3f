//! Per-architecture empirical priors feeding the sequencer.
//!
//! Sequenced screening (the [`sequencer`](crate::sequencer) over either
//! workload) produces, per device, a samples-to-decision count and a
//! decision mode. Aggregated per [`Architecture`], those observations
//! are a *prior* on how quickly the next device of that architecture
//! will decide: a SAR fleet whose accepts all latch at the first
//! checkpoint is telling us the evidence floor is set too high for SAR.
//!
//! [`PriorsBank`] is that accumulator. Fleet drivers absorb
//! [`SeqTally`]s from calibration runs (e.g.
//! `bist_mc::differential::SeqDifferentialResult` maps its per-scenario
//! tallies straight in) and then ask [`PriorsBank::policy_for`] for an
//! architecture-conditioned [`SequencerConfig`]: the same drift budgets,
//! but `min_samples`/`check_interval` tightened toward where that
//! architecture's decisions actually land.
//!
//! The hints only ever move the *cadence* knobs, never α/β — the
//! type I/II budgets are a contract with the test plan, and the
//! Bonferroni split inside the sequencer re-divides them over whatever
//! checkpoint lattice the hint produces. The `arch_fleet` bench bin
//! gates the net effect: conditioned priors must reduce mean
//! samples-to-decision on at least one architecture with zero observed
//! type I/II drift against full-sweep ground truth.

use crate::sequencer::SequencerConfig;
use crate::source::Architecture;
use std::fmt;

/// Aggregated sequenced-screening observations (one architecture, any
/// number of devices). Mergeable, so tallies accumulate across sweep
/// cells, shards and sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqTally {
    /// Sequenced runs observed.
    pub runs: u64,
    /// Runs that latched `AcceptEarly`.
    pub early_accepts: u64,
    /// Runs that latched `RejectEarly` (the early failure mode).
    pub early_rejects: u64,
    /// Total samples-to-decision over all runs (early or full).
    pub seq_samples: u64,
    /// Samples-to-decision summed over early-stopped runs only.
    pub seq_samples_early: u64,
    /// What the same runs would have cost as full sweeps.
    pub full_samples: u64,
}

impl SeqTally {
    /// Early-stopped runs (accepts + rejects).
    pub fn early_stops(&self) -> u64 {
        self.early_accepts + self.early_rejects
    }

    /// Fraction of runs that stopped early (0 when empty).
    pub fn early_stop_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.early_stops() as f64 / self.runs as f64
        }
    }

    /// Mean samples-to-decision over all runs (0 when empty).
    pub fn mean_samples(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.seq_samples as f64 / self.runs as f64
        }
    }

    /// Mean samples-to-decision over early-stopped runs only (0 when
    /// none stopped early).
    pub fn mean_early_samples(&self) -> f64 {
        let early = self.early_stops();
        if early == 0 {
            0.0
        } else {
            self.seq_samples_early as f64 / early as f64
        }
    }

    /// Accumulates another tally.
    pub fn merge(&mut self, other: &SeqTally) {
        self.runs += other.runs;
        self.early_accepts += other.early_accepts;
        self.early_rejects += other.early_rejects;
        self.seq_samples += other.seq_samples;
        self.seq_samples_early += other.seq_samples_early;
        self.full_samples += other.full_samples;
    }
}

/// One architecture's accumulated prior plus the policy it implies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchPrior {
    /// The architecture this prior conditions on.
    pub architecture: Architecture,
    /// The accumulated observations.
    pub tally: SeqTally,
    /// The conditioned sequencer policy (the base policy until the
    /// tally clears the bank's evidence floor).
    pub policy: SequencerConfig,
}

/// Per-architecture priors bank: absorb calibration tallies, hand out
/// architecture-conditioned sequencer policies.
///
/// # Examples
///
/// ```
/// use bist_core::priors::{PriorsBank, SeqTally};
/// use bist_core::sequencer::SequencerConfig;
/// use bist_core::source::Architecture;
///
/// let mut bank = PriorsBank::new(SequencerConfig::default());
/// // 64 SAR devices all decided right at the first checkpoint (256).
/// let tally = SeqTally {
///     runs: 64,
///     early_accepts: 64,
///     early_rejects: 0,
///     seq_samples: 64 * 256,
///     seq_samples_early: 64 * 256,
///     full_samples: 64 * 1024,
/// };
/// bank.absorb(Architecture::Sar, tally);
/// let hint = bank.policy_for(Architecture::Sar);
/// assert!(hint.min_samples < 256); // evidence floor pulled down
/// assert_eq!(hint.alpha, 1e-3); // drift budgets untouched
/// assert!(hint.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorsBank {
    base: SequencerConfig,
    min_runs: u64,
    per_arch: [SeqTally; Architecture::COUNT],
}

/// Observations required before a hint departs from the base policy —
/// below this the prior is noise.
const DEFAULT_MIN_RUNS: u64 = 32;

/// The lowest evidence floor a hint will propose. Early checkpoints on
/// sparse evidence are wasted looks (the static judge needs
/// `MIN_CODES_FOR_STATS` complete codes, the dynamic judge whole
/// residual blocks) and every extra look spends Bonferroni budget.
const MIN_SAMPLES_FLOOR: u64 = 64;

/// The tightest checkpoint lattice a hint will propose.
const CHECK_INTERVAL_FLOOR: u64 = 16;

impl PriorsBank {
    /// An empty bank conditioning on `base`.
    pub fn new(base: SequencerConfig) -> Self {
        PriorsBank {
            base,
            min_runs: DEFAULT_MIN_RUNS,
            per_arch: [SeqTally::default(); Architecture::COUNT],
        }
    }

    /// Sets the evidence floor (observed runs per architecture) below
    /// which [`policy_for`](Self::policy_for) returns the base policy.
    pub fn with_min_runs(mut self, min_runs: u64) -> Self {
        self.min_runs = min_runs.max(1);
        self
    }

    /// Accumulates observations for `arch`.
    pub fn absorb(&mut self, arch: Architecture, tally: SeqTally) {
        self.per_arch[arch.index()].merge(&tally);
    }

    /// The accumulated tally for `arch`.
    pub fn tally(&self, arch: Architecture) -> SeqTally {
        self.per_arch[arch.index()]
    }

    /// The architecture-conditioned policy: the base drift budgets with
    /// `min_samples`/`check_interval` tightened toward where `arch`'s
    /// observed decisions land. Returns the base policy untouched while
    /// the prior is below the evidence floor or the architecture never
    /// stops early. The result always satisfies
    /// [`SequencerConfig::validate`].
    pub fn policy_for(&self, arch: Architecture) -> SequencerConfig {
        let t = self.tally(arch);
        if t.runs < self.min_runs || t.early_stops() == 0 {
            return self.base;
        }
        // Where this architecture's early decisions actually land. The
        // mean over early stops is dominated by the accept cluster (the
        // common case at production yield); full-sweep runs are excluded
        // so slow rejects don't drag the floor back up.
        let early_mean = t.mean_early_samples();
        // Pull the evidence floor to half the observed decision point:
        // decisions latching at the *first* checkpoint mean the evidence
        // was already sufficient when first examined, so earlier looks
        // are worth their Bonferroni cost. Clamp: never above the base
        // (priors only tighten), never below the statistical floor.
        let min_samples = ((early_mean / 2.0) as u64)
            .clamp(MIN_SAMPLES_FLOOR, self.base.min_samples)
            .max(1);
        // Tighten the lattice in proportion, so the first few looks
        // bracket the observed decision cluster instead of overshooting
        // it. An architecture that rarely stops early keeps the base
        // cadence — extra looks would only spend budget.
        let check_interval = if t.early_stop_rate() >= 0.5 {
            (self.base.check_interval / 2).max(CHECK_INTERVAL_FLOOR)
        } else {
            self.base.check_interval
        };
        SequencerConfig {
            min_samples,
            check_interval,
            ..self.base
        }
    }

    /// The full per-architecture view (tally + conditioned policy).
    pub fn prior(&self, arch: Architecture) -> ArchPrior {
        ArchPrior {
            architecture: arch,
            tally: self.tally(arch),
            policy: self.policy_for(arch),
        }
    }
}

impl fmt::Display for PriorsBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "priors (base min_samples {}, check_interval {})",
            self.base.min_samples, self.base.check_interval
        )?;
        for arch in Architecture::ALL {
            let p = self.prior(arch);
            writeln!(
                f,
                "  {:<8} runs {:>6}  early {:>5.1}%  mean-to-decision {:>8.1}  -> min {} / check {}",
                arch.label(),
                p.tally.runs,
                100.0 * p.tally.early_stop_rate(),
                p.tally.mean_samples(),
                p.policy.min_samples,
                p.policy.check_interval,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One observed run: `decision_samples` consumed, `full_samples`
    /// the full-sweep cost, and whether/how it stopped early.
    fn of_run(decision_samples: u64, full_samples: u64, early: Option<bool>) -> SeqTally {
        SeqTally {
            runs: 1,
            early_accepts: u64::from(early == Some(true)),
            early_rejects: u64::from(early == Some(false)),
            seq_samples: decision_samples,
            seq_samples_early: if early.is_some() { decision_samples } else { 0 },
            full_samples,
        }
    }

    #[test]
    fn empty_bank_returns_base_policy() {
        let bank = PriorsBank::new(SequencerConfig::default());
        for arch in Architecture::ALL {
            assert_eq!(bank.policy_for(arch), SequencerConfig::default());
        }
    }

    #[test]
    fn below_evidence_floor_returns_base() {
        let mut bank = PriorsBank::new(SequencerConfig::default());
        for _ in 0..DEFAULT_MIN_RUNS - 1 {
            bank.absorb(Architecture::Flash, of_run(256, 1024, Some(true)));
        }
        assert_eq!(
            bank.policy_for(Architecture::Flash),
            SequencerConfig::default()
        );
        bank.absorb(Architecture::Flash, of_run(256, 1024, Some(true)));
        assert_ne!(
            bank.policy_for(Architecture::Flash),
            SequencerConfig::default()
        );
    }

    #[test]
    fn hints_only_tighten_and_stay_valid() {
        let base = SequencerConfig::default();
        let mut bank = PriorsBank::new(base);
        // A spread of decision points, including slow ones.
        for (i, arch) in Architecture::ALL.iter().enumerate() {
            for k in 0..100u64 {
                let early = k % (i as u64 + 2) != 0;
                let s = if early { 256 + 64 * (k % 5) } else { 1500 };
                bank.absorb(*arch, of_run(s, 1500, early.then_some(k % 2 == 0)));
            }
        }
        for arch in Architecture::ALL {
            let p = bank.policy_for(arch);
            assert!(p.validate().is_ok());
            assert!(p.min_samples <= base.min_samples, "{arch}");
            assert!(p.check_interval <= base.check_interval, "{arch}");
            assert_eq!(p.alpha, base.alpha);
            assert_eq!(p.beta, base.beta);
        }
    }

    #[test]
    fn no_early_stops_means_no_hint() {
        let mut bank = PriorsBank::new(SequencerConfig::default());
        for _ in 0..100 {
            bank.absorb(Architecture::Pipeline, of_run(1024, 1024, None));
        }
        assert_eq!(
            bank.policy_for(Architecture::Pipeline),
            SequencerConfig::default()
        );
    }

    #[test]
    fn tallies_merge_additively() {
        let mut a = of_run(256, 1024, Some(true));
        a.merge(&of_run(512, 1024, Some(false)));
        a.merge(&of_run(1024, 1024, None));
        assert_eq!(a.runs, 3);
        assert_eq!(a.early_accepts, 1);
        assert_eq!(a.early_rejects, 1);
        assert_eq!(a.seq_samples, 256 + 512 + 1024);
        assert_eq!(a.seq_samples_early, 256 + 512);
        assert!((a.early_stop_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.mean_early_samples() - 384.0).abs() < 1e-12);
    }

    #[test]
    fn display_lists_every_architecture() {
        let bank = PriorsBank::new(SequencerConfig::default());
        let s = bank.to_string();
        for arch in Architecture::ALL {
            assert!(s.contains(arch.label()), "{s}");
        }
    }
}
