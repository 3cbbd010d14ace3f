//! Count limits and step size: Eqs. 3–5 of the paper.
//!
//! A ramp of slope `U` sampled at `f_sample` advances `Δs = U/f_sample`
//! volts between samples (Eq. 5). A code whose true width is `ΔV` then
//! collects `i = ⌊ΔV/Δs + u⌋` samples (`u` uniform — Figure 5), and the
//! DNL specification translates into count limits
//!
//! * `i_min = ⌈ΔV_min/Δs⌉` (Eq. 3)
//! * `i_max = ⌊ΔV_max/Δs⌋` (Eq. 4)
//!
//! The counter stores `count − 1` (the edge-to-edge gap minus the
//! transition sample), so a `k`-bit counter can represent counts up to
//! `2^k` — which is why the paper quotes `i_max = 16` for its 4-bit
//! counter.

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Lsb;
use std::error::Error;
use std::fmt;

/// Error from count-limit planning.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanLimitsError {
    /// The step size is not positive and finite.
    InvalidStep(f64),
    /// The window collapsed: no count satisfies both limits at this step
    /// size (Δs too coarse for the spec window).
    EmptyWindow {
        /// Computed lower limit.
        i_min: u64,
        /// Computed upper limit.
        i_max: u64,
    },
    /// The required `i_max` exceeds what the counter can represent.
    CounterTooSmall {
        /// Required maximum count.
        required: u64,
        /// Largest count a counter of the configured width can hold.
        capacity: u64,
    },
}

impl fmt::Display for PlanLimitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanLimitsError::InvalidStep(s) => {
                write!(f, "step size {s} LSB is not positive and finite")
            }
            PlanLimitsError::EmptyWindow { i_min, i_max } => {
                write!(f, "count window is empty: i_min {i_min} > i_max {i_max}")
            }
            PlanLimitsError::CounterTooSmall { required, capacity } => {
                write!(
                    f,
                    "counter capacity {capacity} cannot represent required i_max {required}"
                )
            }
        }
    }
}

impl Error for PlanLimitsError {}

/// The count window for one step size, plus the ideal count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountLimits {
    i_min: u64,
    i_max: u64,
    i_ideal: u64,
}

impl CountLimits {
    /// Computes Eqs. 3–4 for a spec window and step size `delta_s`
    /// (both in LSB).
    ///
    /// # Errors
    ///
    /// Returns [`PlanLimitsError::InvalidStep`] for a non-positive step
    /// and [`PlanLimitsError::EmptyWindow`] when no integer count lies
    /// inside the window.
    ///
    /// # Examples
    ///
    /// ```
    /// use bist_adc::spec::LinearitySpec;
    /// use bist_core::limits::CountLimits;
    ///
    /// # fn main() -> Result<(), bist_core::limits::PlanLimitsError> {
    /// // The paper's measurement point: ±0.5 LSB spec, Δs = 0.091 LSB.
    /// let lim = CountLimits::from_spec(&LinearitySpec::paper_stringent(), 0.091)?;
    /// assert_eq!(lim.i_min(), 6);
    /// assert_eq!(lim.i_max(), 16);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_spec(spec: &LinearitySpec, delta_s: f64) -> Result<Self, PlanLimitsError> {
        if !(delta_s.is_finite() && delta_s > 0.0) {
            return Err(PlanLimitsError::InvalidStep(delta_s));
        }
        let (lo, hi) = spec.width_window_lsb();
        let i_min = (lo.0 / delta_s).ceil() as u64;
        let i_max = (hi.0 / delta_s).floor() as u64;
        if i_min > i_max {
            return Err(PlanLimitsError::EmptyWindow { i_min, i_max });
        }
        let i_ideal = (1.0 / delta_s).round().max(1.0) as u64;
        Ok(CountLimits {
            i_min,
            i_max,
            i_ideal,
        })
    }

    /// The lower count limit (Eq. 3).
    pub fn i_min(&self) -> u64 {
        self.i_min
    }

    /// The upper count limit (Eq. 4).
    pub fn i_max(&self) -> u64 {
        self.i_max
    }

    /// The nominal count for an ideal (1 LSB) code width.
    pub fn i_ideal(&self) -> u64 {
        self.i_ideal
    }

    /// Checks the window against a `counter_bits`-bit counter that
    /// stores `count − 1` (capacity `2^k`).
    ///
    /// # Errors
    ///
    /// Returns [`PlanLimitsError::CounterTooSmall`] when `i_max` exceeds
    /// the capacity.
    pub fn check_counter(&self, counter_bits: u32) -> Result<(), PlanLimitsError> {
        let capacity = 1u64 << counter_bits;
        if self.i_max > capacity {
            Err(PlanLimitsError::CounterTooSmall {
                required: self.i_max,
                capacity,
            })
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for CountLimits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "counts [{}, {}] (ideal {})",
            self.i_min, self.i_max, self.i_ideal
        )
    }
}

/// The ramp slope (volts/second) that realises a step of `delta_s` LSB at
/// `sample_rate`: Eq. 5, `Δs = U/(f_sample·q)`, solved for `U`.
///
/// # Panics
///
/// Panics if any argument is not positive.
pub fn slope_for_delta_s(delta_s: Lsb, sample_rate: f64, lsb_size_volts: f64) -> f64 {
    assert!(delta_s.0 > 0.0, "step must be positive");
    assert!(sample_rate > 0.0, "sample rate must be positive");
    assert!(lsb_size_volts > 0.0, "LSB size must be positive");
    delta_s.0 * lsb_size_volts * sample_rate
}

/// Plans the paper's operating point for a `counter_bits`-bit counter:
/// the *balanced* step size `Δs = ΔV_max/(2^k + ½)`, at which the
/// counter is fully used (`i_max = 2^k`) **and** both spec bounds bisect
/// the acceptance trapezoid's transition edges, so neither window edge
/// systematically eats good or passes faulty devices.
///
/// This is exactly the paper's §4 choice: "an intermediate value for Δs
/// … in the region where i_max has \[the\] maximal counter value" —
/// for the 4-bit counter at ±0.5 LSB it gives `1.5/16.5 = 0.0909 ≈
/// 0.091 LSB`, reproducing the quoted `i_min = 6`, `i_max = 16`.
///
/// # Panics
///
/// Panics if `counter_bits` is 0 or greater than 32.
///
/// # Examples
///
/// ```
/// use bist_adc::spec::LinearitySpec;
/// use bist_core::limits::plan_delta_s;
///
/// let ds = plan_delta_s(&LinearitySpec::paper_stringent(), 4);
/// assert!((ds.0 - 0.0909).abs() < 1e-4); // the paper's 0.091 LSB
/// ```
pub fn plan_delta_s(spec: &LinearitySpec, counter_bits: u32) -> Lsb {
    assert!(
        (1..=32).contains(&counter_bits),
        "counter bits must be 1..=32"
    );
    let (_, hi) = spec.width_window_lsb();
    Lsb(hi.0 / ((1u64 << counter_bits) as f64 + 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_measurement_point() {
        // Δs = 0.091 LSB, ±0.5 LSB: i_min = ceil(0.5/0.091) = 6,
        // i_max = floor(1.5/0.091) = 16 — exactly the paper's numbers.
        let lim = CountLimits::from_spec(&LinearitySpec::paper_stringent(), 0.091).unwrap();
        assert_eq!(lim.i_min(), 6);
        assert_eq!(lim.i_max(), 16);
        assert_eq!(lim.i_ideal(), 11);
    }

    #[test]
    fn planned_delta_s_fills_counter_and_balances_edges() {
        for bits in 4..=7 {
            let spec = LinearitySpec::paper_stringent();
            let ds = plan_delta_s(&spec, bits);
            let lim = CountLimits::from_spec(&spec, ds.0).unwrap();
            assert_eq!(lim.i_max(), 1 << bits, "counter {bits}");
            assert!(lim.check_counter(bits).is_ok());
            // Balanced: ΔV_max sits mid-edge between i_max·Δs and
            // (i_max+1)·Δs, and ΔV_min mid-edge below i_min·Δs.
            let (lo, hi) = spec.width_window_lsb();
            let hi_center = (lim.i_max() as f64 + 0.5) * ds.0;
            assert!((hi_center - hi.0).abs() < 1e-12, "counter {bits}");
            let lo_center = (lim.i_min() as f64 - 0.5) * ds.0;
            assert!(
                (lo_center - lo.0).abs() < 0.02,
                "counter {bits}: {lo_center}"
            );
        }
    }

    #[test]
    fn paper_table2_max_error_column() {
        // Table 2's "max. error made" column quotes ΔV_max/2^k: 1/8,
        // 1/16, 1/32, 1/64 LSB; the balanced Δs is within 4 % of it.
        let expected = [0.125, 0.0625, 0.03125, 0.015625];
        for (i, bits) in (4..=7).enumerate() {
            let ds = plan_delta_s(&LinearitySpec::paper_actual(), bits);
            let rel = (ds.0 - expected[i]).abs() / expected[i];
            assert!(rel < 0.04, "counter {bits}: Δs {} vs {}", ds.0, expected[i]);
        }
    }

    #[test]
    fn invalid_step_rejected() {
        let spec = LinearitySpec::paper_stringent();
        assert!(matches!(
            CountLimits::from_spec(&spec, 0.0),
            Err(PlanLimitsError::InvalidStep(_))
        ));
        assert!(matches!(
            CountLimits::from_spec(&spec, f64::NAN),
            Err(PlanLimitsError::InvalidStep(_))
        ));
    }

    #[test]
    fn coarse_step_empties_window() {
        // Δs = 1.2 LSB with window [0.5, 1.5]: i_min = 1, i_max = 1 — OK;
        // Δs = 0.8: i_min = ceil(0.625) = 1, i_max = floor(1.875) = 1 OK;
        // window [0.9, 1.1] with Δs = 0.7: i_min = 2, i_max = 1 → empty.
        let tight = LinearitySpec::dnl_only(0.1);
        let err = CountLimits::from_spec(&tight, 0.7).unwrap_err();
        assert!(matches!(err, PlanLimitsError::EmptyWindow { .. }));
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn counter_capacity_check() {
        let lim = CountLimits::from_spec(&LinearitySpec::paper_stringent(), 0.01).unwrap();
        // i_max = 150 needs 8 bits (capacity 256), not 7 (capacity 128).
        assert_eq!(lim.i_max(), 150);
        assert!(lim.check_counter(8).is_ok());
        let err = lim.check_counter(7).unwrap_err();
        assert!(matches!(
            err,
            PlanLimitsError::CounterTooSmall {
                required: 150,
                capacity: 128
            }
        ));
    }

    #[test]
    fn delta_s_round_trip() {
        // 0.091 LSB per sample at 1 kHz with a 1 mV LSB ↔ 0.091 V/s.
        let slope = slope_for_delta_s(Lsb(0.091), 1000.0, 0.001);
        assert!((slope - 0.091).abs() < 1e-12);
        let ds = slope / 1000.0 / 0.001;
        assert!((ds - 0.091).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn delta_s_rejects_bad_rate() {
        slope_for_delta_s(Lsb(1.0), 0.0, 1.0);
    }

    #[test]
    fn display_formats() {
        let lim = CountLimits::from_spec(&LinearitySpec::paper_stringent(), 0.091).unwrap();
        assert_eq!(lim.to_string(), "counts [6, 16] (ideal 11)");
    }
}
