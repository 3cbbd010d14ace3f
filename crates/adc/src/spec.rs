//! Linearity specifications and ground-truth classification.
//!
//! A device is *good* when every inner-code DNL and every INL value is
//! within the specified limits — evaluated on the **true** transfer
//! function. The BIST (which only sees sampled counts) is judged against
//! this classification: rejecting a good device is a type I error,
//! accepting a faulty one a type II error (§3).

use crate::metrics::{dnl, inl_from_dnl};
use crate::transfer::TransferFunction;
use crate::types::Lsb;
use std::fmt;

/// Symmetric DNL/INL limits in LSB.
///
/// # Examples
///
/// ```
/// use bist_adc::spec::LinearitySpec;
///
/// // The paper's stringent spec (±0.5 LSB DNL) and the device's actual
/// // spec (±1 LSB DNL):
/// let stringent = LinearitySpec::dnl_only(0.5);
/// let actual = LinearitySpec::dnl_only(1.0);
/// assert!(stringent.dnl_limit().0 < actual.dnl_limit().0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearitySpec {
    dnl_limit: Lsb,
    inl_limit: Option<Lsb>,
}

impl LinearitySpec {
    /// A spec with both DNL and INL limits (each `±limit` LSB).
    ///
    /// This is the only constructor of an INL limit: the LSB monitor's
    /// INL window, the sequencer's INL projection and the RTL's
    /// `inl_limit_counts` all start from a spec built here.
    ///
    /// # Panics
    ///
    /// Panics if either limit is not positive.
    pub fn new(dnl_limit: f64, inl_limit: f64) -> Self {
        assert!(dnl_limit > 0.0, "DNL limit must be positive");
        assert!(inl_limit > 0.0, "INL limit must be positive");
        LinearitySpec {
            dnl_limit: Lsb(dnl_limit),
            inl_limit: Some(Lsb(inl_limit)),
        }
    }

    /// A DNL-only spec (the paper's Table 1/2 experiments test DNL).
    ///
    /// # Panics
    ///
    /// Panics if `dnl_limit` is not positive.
    pub fn dnl_only(dnl_limit: f64) -> Self {
        assert!(dnl_limit > 0.0, "DNL limit must be positive");
        LinearitySpec {
            dnl_limit: Lsb(dnl_limit),
            inl_limit: None,
        }
    }

    /// The paper's *stringent* spec: ±0.5 LSB DNL (used so that only
    /// ~30 % of devices pass, giving statistically meaningful error
    /// rates from a 364-device batch).
    pub fn paper_stringent() -> Self {
        LinearitySpec::dnl_only(0.5)
    }

    /// The paper's *actual* production spec: ±1 LSB DNL.
    pub fn paper_actual() -> Self {
        LinearitySpec::dnl_only(1.0)
    }

    /// The DNL limit (±, LSB).
    pub fn dnl_limit(&self) -> Lsb {
        self.dnl_limit
    }

    /// The INL limit (±, LSB), if specified.
    pub fn inl_limit(&self) -> Option<Lsb> {
        self.inl_limit
    }

    /// The allowed code-width window `(ΔV_min, ΔV_max)` in LSB implied
    /// by the DNL limit: `1 ∓ limit`.
    pub fn width_window_lsb(&self) -> (Lsb, Lsb) {
        (
            Lsb((1.0 - self.dnl_limit.0).max(0.0)),
            Lsb(1.0 + self.dnl_limit.0),
        )
    }

    /// Classifies a transfer function against the spec.
    pub fn classify(&self, tf: &TransferFunction) -> GroundTruth {
        let d = dnl(tf);
        let worst_dnl = d.iter().map(|x| x.0.abs()).fold(0.0f64, f64::max);
        let dnl_ok = worst_dnl <= self.dnl_limit.0;
        let (worst_inl, inl_ok) = match self.inl_limit {
            Some(limit) => {
                let i = inl_from_dnl(&d);
                let worst = i.iter().map(|x| x.0.abs()).fold(0.0f64, f64::max);
                (worst, worst <= limit.0)
            }
            None => (0.0, true),
        };
        GroundTruth {
            good: dnl_ok && inl_ok,
            worst_dnl: Lsb(worst_dnl),
            worst_inl: Lsb(worst_inl),
            failing_codes: d
                .iter()
                .enumerate()
                .filter(|(_, x)| x.0.abs() > self.dnl_limit.0)
                .map(|(i, _)| i as u32 + 1)
                .collect(),
        }
    }
}

impl fmt::Display for LinearitySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inl_limit {
            Some(i) => write!(f, "DNL ±{} LSB, INL ±{} LSB", self.dnl_limit.0, i.0),
            None => write!(f, "DNL ±{} LSB", self.dnl_limit.0),
        }
    }
}

/// Ground-truth classification of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Whether the device meets the spec.
    pub good: bool,
    /// Worst |DNL| over the inner codes, LSB.
    pub worst_dnl: Lsb,
    /// Worst |INL| (accumulated-DNL convention), LSB; 0 when the spec has
    /// no INL limit.
    pub worst_inl: Lsb,
    /// Inner codes violating the DNL limit (1-based code indices).
    pub failing_codes: Vec<u32>,
}

impl fmt::Display for GroundTruth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (worst DNL {:.3} LSB, worst INL {:.3} LSB, {} failing codes)",
            if self.good { "GOOD" } else { "FAULTY" },
            self.worst_dnl.0,
            self.worst_inl.0,
            self.failing_codes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Resolution, Volts};

    fn ideal() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    fn with_dnl_spike(idx: usize, extra_lsb: f64) -> TransferFunction {
        let mut t: Vec<f64> = (1..=63).map(|k| k as f64 * 0.1).collect();
        // Raising transition t[idx] (= T[idx+1]) widens code `idx` and
        // narrows code `idx+1`, leaving all other widths unchanged.
        t[idx] += extra_lsb * 0.1;
        TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t)
    }

    #[test]
    fn ideal_is_good_under_any_spec() {
        for spec in [
            LinearitySpec::paper_stringent(),
            LinearitySpec::paper_actual(),
            LinearitySpec::new(0.1, 0.2),
        ] {
            let gt = spec.classify(&ideal());
            assert!(gt.good, "{spec}");
            assert!(gt.failing_codes.is_empty());
        }
    }

    #[test]
    fn dnl_spike_fails_stringent_passes_actual() {
        let tf = with_dnl_spike(10, 0.7); // code 10 gets +0.7, code 11 −0.7
        let stringent = LinearitySpec::paper_stringent().classify(&tf);
        assert!(!stringent.good);
        assert_eq!(stringent.failing_codes, vec![10, 11]);
        let actual = LinearitySpec::paper_actual().classify(&tf);
        assert!(actual.good);
        assert!((actual.worst_dnl.0 - 0.7).abs() < 1e-9);
    }

    #[test]
    fn width_window_matches_spec() {
        let (lo, hi) = LinearitySpec::paper_stringent().width_window_lsb();
        assert!((lo.0 - 0.5).abs() < 1e-12);
        assert!((hi.0 - 1.5).abs() < 1e-12);
        let (lo, hi) = LinearitySpec::paper_actual().width_window_lsb();
        assert!(lo.0.abs() < 1e-12);
        assert!((hi.0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn width_window_clamps_at_zero() {
        let (lo, _) = LinearitySpec::dnl_only(1.5).width_window_lsb();
        assert_eq!(lo.0, 0.0);
    }

    #[test]
    fn inl_limit_can_fail_when_dnl_passes() {
        // Many small same-sign DNLs accumulate into a large INL.
        let mut t: Vec<f64> = Vec::new();
        let mut acc = 0.0;
        for k in 1..=63 {
            // First 31 codes each 1.05 LSB wide: INL drifts to ~1.5 LSB.
            let w = if k <= 31 { 0.105 } else { 0.095 };
            acc += w;
            t.push(acc);
            let _ = k;
        }
        let tf = TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t);
        let spec = LinearitySpec::new(0.5, 1.0);
        let gt = spec.classify(&tf);
        assert!(gt.worst_dnl.0 < 0.5, "dnl {}", gt.worst_dnl.0);
        assert!(gt.worst_inl.0 > 1.0, "inl {}", gt.worst_inl.0);
        assert!(!gt.good);
    }

    #[test]
    #[should_panic(expected = "DNL limit must be positive")]
    fn zero_limit_panics() {
        LinearitySpec::dnl_only(0.0);
    }

    #[test]
    fn displays() {
        assert_eq!(LinearitySpec::paper_stringent().to_string(), "DNL ±0.5 LSB");
        assert!(LinearitySpec::new(0.5, 1.0).to_string().contains("INL"));
        let gt = LinearitySpec::paper_actual().classify(&ideal());
        assert!(gt.to_string().contains("GOOD"));
    }
}
