//! On-chip offset and gain estimation from the same LSB-monitor sweep.
//!
//! §2 lists the static parameters as "offset voltage, gain, DNL and
//! INL". DNL/INL come from the count window; this module shows the same
//! sweep also yields offset and gain with no extra analog hardware:
//!
//! * **offset** — the sample index of the *first* LSB transition marks
//!   where the ramp crossed `T[1]`; against the ideal crossing index it
//!   gives the offset error in LSB.
//! * **gain** — the total sample count between the first and last
//!   transitions measures `T[2ⁿ−1] − T[1]`; against its ideal span it
//!   gives the gain error in LSB.

use crate::config::BistConfig;
use bist_adc::types::Lsb;
use std::fmt;

/// Offset/gain estimates from one monitored sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticEstimate {
    /// Offset error in LSB (deviation of the first transition).
    pub offset_lsb: Lsb,
    /// Gain error in LSB (deviation of the first-to-last transition
    /// span).
    pub gain_lsb: Lsb,
    /// Number of transitions observed.
    pub transitions: usize,
}

impl fmt::Display for StaticEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offset {:+.3} LSB, gain {:+.3} LSB ({} transitions)",
            self.offset_lsb.0, self.gain_lsb.0, self.transitions
        )
    }
}

/// Estimates offset and gain from the monitored-bit stream of a ramp
/// sweep.
///
/// `ramp_start_lsb` is the ramp voltage at sample 0, expressed in LSB
/// relative to the converter's low reference (the harness starts 2 LSB
/// below, i.e. −2.0).
///
/// Returns `None` when fewer than two transitions are visible.
///
/// # Examples
///
/// ```
/// use bist_adc::spec::LinearitySpec;
/// use bist_adc::types::Resolution;
/// use bist_core::config::BistConfig;
/// use bist_core::static_params::estimate_offset_gain;
///
/// # fn main() -> Result<(), bist_core::limits::PlanLimitsError> {
/// let cfg = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
///     .counter_bits(6)
///     .build()?;
/// // An ideal 8-code stream starting at the low reference (0 LSB):
/// // each code occupies one LSB, so the first transition sits at +1 LSB.
/// let ds = cfg.delta_s().0;
/// let samples_per_lsb = (1.0 / ds).round() as usize;
/// let mut stream = Vec::new();
/// for code in 0..8 {
///     stream.extend(std::iter::repeat(code % 2 == 1).take(samples_per_lsb));
/// }
/// let est = estimate_offset_gain(&cfg, &stream, 0.0).expect("transitions visible");
/// assert!(est.offset_lsb.0.abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn estimate_offset_gain(
    config: &BistConfig,
    stream: &[bool],
    ramp_start_lsb: f64,
) -> Option<StaticEstimate> {
    let ds = config.delta_s().0;
    let mut transitions = Vec::new();
    let mut level = *stream.first()?;
    for (i, &bit) in stream.iter().enumerate() {
        if bit != level {
            transitions.push(i);
            level = bit;
        }
    }
    if transitions.len() < 2 {
        return None;
    }
    let first = transitions[0];
    let last = *transitions.last().expect("non-empty");

    // Voltage (in LSB above `low`) at the first transition: the ramp
    // reached it between samples first−1 and first; mid-estimate.
    let v_first = ramp_start_lsb + (first as f64 - 0.5) * ds;
    // Ideal: T[1] is one LSB above low, shifted by the monitored bit's
    // granularity (bit b's first transition is at code 2^b's edge).
    let granularity = (1u64 << config.monitored_bit()) as f64;
    let ideal_first = granularity;
    let offset = v_first - ideal_first;

    // Span between first and last observed transitions.
    let span = (last - first) as f64 * ds;
    let n_transitions = transitions.len() as f64;
    let ideal_span = (n_transitions - 1.0) * granularity;
    let gain = span - ideal_span;

    Some(StaticEstimate {
        offset_lsb: Lsb(offset),
        gain_lsb: Lsb(gain),
        transitions: transitions.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_adc::sampler::acquire;
    use bist_adc::sampler::SamplingConfig;
    use bist_adc::signal::Ramp;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::transfer::TransferFunction;
    use bist_adc::types::{Resolution, Volts};

    /// A 6-bit converter over 0–6.4 V whose ideal transition levels
    /// (`k·0.1 V`) are mapped through `f`.
    fn transfer(f: impl Fn(f64) -> f64) -> TransferFunction {
        let t = (1..=63).map(|k| f(f64::from(k) * 0.1)).collect();
        TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t)
    }

    fn config() -> BistConfig {
        BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(6)
            .build()
            .expect("paper operating point")
    }

    /// Captures the LSB stream of a ramp over `adc`, starting 2 LSB low.
    fn sweep(adc: &TransferFunction, cfg: &BistConfig) -> Vec<bool> {
        let lsb = 0.1;
        let slope = cfg.delta_s().0 * lsb * 1.0e6;
        let samples = ((6.4 + 1.2) / slope * 1.0e6) as usize;
        acquire(
            adc,
            &Ramp::new(Volts(-0.2), slope),
            SamplingConfig::new(1.0e6, samples),
        )
        .bits(0)
        .collect()
    }

    #[test]
    fn ideal_device_zero_offset_gain() {
        let cfg = config();
        let adc = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        let est = estimate_offset_gain(&cfg, &sweep(&adc, &cfg), -2.0).expect("transitions");
        assert_eq!(est.transitions, 63);
        assert!(est.offset_lsb.0.abs() < 0.05, "offset {}", est.offset_lsb);
        assert!(est.gain_lsb.0.abs() < 0.05, "gain {}", est.gain_lsb);
    }

    #[test]
    fn detects_offset_error() {
        let cfg = config();
        let adc = transfer(|t| t + 0.05); // +0.5 LSB
        let est = estimate_offset_gain(&cfg, &sweep(&adc, &cfg), -2.0).expect("transitions");
        assert!(
            (est.offset_lsb.0 - 0.5).abs() < 0.05,
            "offset {}",
            est.offset_lsb
        );
        assert!(est.gain_lsb.0.abs() < 0.05);
    }

    #[test]
    fn detects_gain_error() {
        let cfg = config();
        let adc = transfer(|t| t * 1.02); // span stretches 2 %: 62 LSB → +1.24 LSB
        let est = estimate_offset_gain(&cfg, &sweep(&adc, &cfg), -2.0).expect("transitions");
        assert!((est.gain_lsb.0 - 1.24).abs() < 0.1, "gain {}", est.gain_lsb);
    }

    #[test]
    fn too_few_transitions_is_none() {
        let cfg = config();
        assert!(estimate_offset_gain(&cfg, &[], -2.0).is_none());
        assert!(estimate_offset_gain(&cfg, &[false; 100], -2.0).is_none());
        let one_edge: Vec<bool> = std::iter::repeat_n(false, 50)
            .chain(std::iter::repeat_n(true, 50))
            .collect();
        assert!(estimate_offset_gain(&cfg, &one_edge, -2.0).is_none());
    }

    #[test]
    fn display_mentions_offset() {
        let est = StaticEstimate {
            offset_lsb: Lsb(0.1),
            gain_lsb: Lsb(-0.2),
            transitions: 63,
        };
        assert!(est.to_string().contains("offset"));
    }
}
