//! BIST configuration: ties together the spec, the counter size and the
//! ramp operating point.

use crate::limits::{plan_delta_s, CountLimits, PlanLimitsError};
use bist_adc::spec::LinearitySpec;
use bist_adc::types::{Lsb, Resolution};
use std::error::Error;
use std::fmt;

/// The one configuration-validation error shared by every builder in the
/// subsystem: [`crate::sequencer::SequencerConfig`] policies,
/// [`crate::dynamic::DynamicConfig`] plans and the experiment-level
/// checks all fail through this enum, so callers match one type instead
/// of three per-module conventions.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A static count-limit planning error (counter too small, empty
    /// window) from [`BistConfigBuilder::build`].
    StaticPlan(PlanLimitsError),
    /// Sequencer `alpha` must lie strictly inside (0, 1).
    BadAlpha(f64),
    /// Sequencer `beta` must lie strictly inside (0, 1).
    BadBeta(f64),
    /// Sequencer `min_samples` must be at least 1.
    BadMinSamples,
    /// Sequencer `check_interval` must be at least 1.
    BadCheckInterval,
    /// The dynamic fundamental must land strictly between DC and
    /// Nyquist.
    FundamentalOutOfRange {
        /// Requested cycles per record.
        cycles: u32,
        /// Record length in samples.
        record_len: usize,
    },
    /// The fixed-point RTL datapath cannot guarantee this dynamic plan
    /// (a resonator's worst-case excursion overflows its register). The
    /// behavioural bank could evaluate it, but the subsystem's contract
    /// is that every valid plan is judged by *either* backend, so the
    /// plan is rejected up front.
    FixedPointUnrealisable(bist_rtl::dyn_top::RegisterOverflowError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::StaticPlan(e) => write!(f, "{e}"),
            ConfigError::BadAlpha(a) => {
                write!(f, "alpha must be strictly inside (0, 1), got {a}")
            }
            ConfigError::BadBeta(b) => {
                write!(f, "beta must be strictly inside (0, 1), got {b}")
            }
            ConfigError::BadMinSamples => write!(f, "min_samples must be at least 1"),
            ConfigError::BadCheckInterval => write!(f, "check_interval must be at least 1"),
            ConfigError::FundamentalOutOfRange { cycles, record_len } => write!(
                f,
                "fundamental at {cycles} cycles must lie strictly between DC and Nyquist \
                 of a {record_len}-sample record"
            ),
            ConfigError::FixedPointUnrealisable(e) => {
                write!(f, "plan is unrealisable in the fixed-point datapath: {e}")
            }
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::StaticPlan(e) => Some(e),
            ConfigError::FixedPointUnrealisable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanLimitsError> for ConfigError {
    fn from(e: PlanLimitsError) -> Self {
        ConfigError::StaticPlan(e)
    }
}

/// Complete configuration of a static-linearity BIST run.
///
/// Build with [`BistConfig::builder`]; the builder derives the count
/// limits (Eqs. 3–4) and validates them against the counter width.
///
/// # Examples
///
/// ```
/// use bist_adc::spec::LinearitySpec;
/// use bist_adc::types::Resolution;
/// use bist_core::config::BistConfig;
///
/// # fn main() -> Result<(), bist_core::limits::PlanLimitsError> {
/// // The paper's Table 1 measurement point: 4-bit counter, ±0.5 LSB.
/// let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
///     .counter_bits(4)
///     .build()?;
/// assert_eq!(cfg.limits().i_max(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BistConfig {
    resolution: Resolution,
    spec: LinearitySpec,
    counter_bits: u32,
    delta_s: Lsb,
    limits: CountLimits,
    inl_limit_counts: Option<u64>,
    deglitch: bool,
    monitored_bit: u32,
}

/// Builder for [`BistConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BistConfigBuilder {
    resolution: Resolution,
    spec: LinearitySpec,
    counter_bits: u32,
    delta_s: Option<Lsb>,
    deglitch: bool,
    monitored_bit: u32,
}

impl BistConfig {
    /// Starts a builder with the paper's defaults: 4-bit counter, Δs
    /// planned to fill the counter, INL checking per the spec, no
    /// deglitcher, bit 0 monitored.
    pub fn builder(resolution: Resolution, spec: LinearitySpec) -> BistConfigBuilder {
        BistConfigBuilder {
            resolution,
            spec,
            counter_bits: 4,
            delta_s: None,
            deglitch: false,
            monitored_bit: 0,
        }
    }

    /// The converter resolution under test.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The linearity spec being screened.
    pub fn spec(&self) -> &LinearitySpec {
        &self.spec
    }

    /// The on-chip counter width in bits.
    pub fn counter_bits(&self) -> u32 {
        self.counter_bits
    }

    /// The voltage step between samples, in LSB (Eq. 5).
    pub fn delta_s(&self) -> Lsb {
        self.delta_s
    }

    /// The derived count limits (Eqs. 3–4).
    pub fn limits(&self) -> &CountLimits {
        &self.limits
    }

    /// The INL window in counter units, if the spec carries an INL limit.
    pub fn inl_limit_counts(&self) -> Option<u64> {
        self.inl_limit_counts
    }

    /// Whether the LSB deglitch filter is enabled.
    pub fn deglitch(&self) -> bool {
        self.deglitch
    }

    /// The monitored bit index (0 = LSB; `q − 1` in paper terms).
    pub fn monitored_bit(&self) -> u32 {
        self.monitored_bit
    }

    /// Expected number of complete measurements from one full ramp
    /// sweep: bit `b` toggles every `2^b` codes, giving `2^(n−b)` runs
    /// of which the first and last are partial — `2^(n−b) − 2` complete.
    /// For the paper's full BIST (bit 0, 6 bits) this is 62, one per
    /// inner code.
    pub fn expected_measurements(&self) -> u64 {
        (u64::from(self.resolution.code_count()) >> self.monitored_bit).saturating_sub(2)
    }

    /// The RTL datapath configuration equivalent to this config.
    pub fn to_rtl(&self) -> bist_rtl::datapath::LsbProcessorConfig {
        bist_rtl::datapath::LsbProcessorConfig {
            counter_bits: self.counter_bits,
            i_min: self.limits.i_min(),
            i_max: self.limits.i_max(),
            i_ideal: self.limits.i_ideal(),
            inl_limit_counts: self.inl_limit_counts,
            deglitch: self.deglitch,
        }
    }
}

impl fmt::Display for BistConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BIST {} {}: {}-bit counter, Δs {:.5} LSB, {}",
            self.resolution, self.spec, self.counter_bits, self.delta_s.0, self.limits
        )
    }
}

impl BistConfigBuilder {
    /// Sets the counter width (the paper sweeps 4–7).
    pub fn counter_bits(mut self, bits: u32) -> Self {
        self.counter_bits = bits;
        self
    }

    /// Overrides the step size Δs in LSB (default: planned so
    /// `i_max = 2^counter_bits`).
    pub fn delta_s(mut self, delta_s: Lsb) -> Self {
        self.delta_s = Some(delta_s);
        self
    }

    /// Inserts the majority-vote deglitcher in the monitored-bit path.
    pub fn deglitch(mut self, enable: bool) -> Self {
        self.deglitch = enable;
        self
    }

    /// Monitors bit `index` instead of the LSB (partial BIST with
    /// `q = index + 1`).
    pub fn monitored_bit(mut self, index: u32) -> Self {
        self.monitored_bit = index;
        self
    }

    /// Builds and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the planning error if the step size yields an empty count
    /// window or overflows the counter.
    pub fn build(self) -> Result<BistConfig, PlanLimitsError> {
        let delta_s = self
            .delta_s
            .unwrap_or_else(|| plan_delta_s(&self.spec, self.counter_bits));
        let limits = CountLimits::from_spec(&self.spec, delta_s.0)?;
        limits.check_counter(self.counter_bits)?;
        let inl_limit_counts = self
            .spec
            .inl_limit()
            .map(|l| (l.0 / delta_s.0).floor().max(1.0) as u64);
        Ok(BistConfig {
            resolution: self.resolution,
            spec: self.spec,
            counter_bits: self.counter_bits,
            delta_s,
            limits,
            inl_limit_counts,
            deglitch: self.deglitch,
            monitored_bit: self.monitored_bit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_plans_delta_s() {
        let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(4)
            .build()
            .unwrap();
        assert!((cfg.delta_s().0 - 1.5 / 16.5).abs() < 1e-12);
        assert_eq!(cfg.limits().i_max(), 16);
        assert_eq!(cfg.limits().i_min(), 6);
        assert!(!cfg.deglitch());
        assert_eq!(cfg.monitored_bit(), 0);
    }

    #[test]
    fn explicit_delta_s_respected() {
        let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(4)
            .delta_s(Lsb(0.091))
            .build()
            .unwrap();
        assert_eq!(cfg.delta_s().0, 0.091);
        assert_eq!(cfg.limits().i_ideal(), 11);
    }

    #[test]
    fn counter_overflow_is_error() {
        let err = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(4)
            .delta_s(Lsb(0.01)) // i_max = 150 > 16
            .build()
            .unwrap_err();
        assert!(matches!(err, PlanLimitsError::CounterTooSmall { .. }));
    }

    #[test]
    fn inl_limit_derived_from_spec() {
        let spec = LinearitySpec::new(0.5, 1.0);
        let cfg = BistConfig::builder(Resolution::SIX_BIT, spec)
            .counter_bits(4)
            .build()
            .unwrap();
        // INL ±1 LSB at the balanced Δs = 1.5/16.5: floor(16.5/1.5) = 11.
        assert_eq!(cfg.inl_limit_counts(), Some(11));
    }

    #[test]
    fn dnl_only_spec_has_no_inl_window() {
        let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .build()
            .unwrap();
        assert_eq!(cfg.inl_limit_counts(), None);
    }

    #[test]
    fn expected_measurements_by_monitored_bit() {
        let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(6)
            .build()
            .unwrap();
        assert_eq!(cfg.expected_measurements(), 62);
        let partial = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(6)
            .monitored_bit(1)
            .build()
            .unwrap();
        assert_eq!(partial.expected_measurements(), 30);
    }

    #[test]
    fn rtl_config_matches() {
        let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(4)
            .deglitch(true)
            .build()
            .unwrap();
        let rtl = cfg.to_rtl();
        assert_eq!(rtl.counter_bits, 4);
        assert_eq!(rtl.i_min, cfg.limits().i_min());
        assert_eq!(rtl.i_max, cfg.limits().i_max());
        assert!(rtl.deglitch);
    }

    #[test]
    fn display_mentions_counter() {
        let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(7)
            .build()
            .unwrap();
        assert!(cfg.to_string().contains("7-bit counter"));
    }
}
