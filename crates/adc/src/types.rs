//! Newtypes shared by the converter models.
//!
//! Voltages, quantities measured in LSB units, output codes and converter
//! resolutions are distinct concepts that are all "just numbers"; the
//! newtypes keep them from being mixed up (paper quantities such as Δs
//! and ΔV are expressed in LSB).

use std::error::Error;
use std::fmt;

/// A voltage in volts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Volts(pub f64);

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} V", self.0)
    }
}

impl From<f64> for Volts {
    fn from(v: f64) -> Self {
        Volts(v)
    }
}

/// A quantity measured in units of one ideal LSB (e.g. DNL, INL, the
/// sampling step Δs, a code width ΔV).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Lsb(pub f64);

impl fmt::Display for Lsb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} LSB", self.0)
    }
}

impl From<f64> for Lsb {
    fn from(v: f64) -> Self {
        Lsb(v)
    }
}

/// An output code of a converter (0 ..= 2ⁿ−1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Code(pub u32);

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Binary for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u32> for Code {
    fn from(v: u32) -> Self {
        Code(v)
    }
}

/// Error returned when a resolution outside the supported range is
/// requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidResolutionError {
    bits: u32,
}

impl fmt::Display for InvalidResolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resolution of {} bits is outside the supported range {}..={}",
            self.bits,
            Resolution::MIN_BITS,
            Resolution::MAX_BITS
        )
    }
}

impl Error for InvalidResolutionError {}

/// Converter resolution in bits, restricted to a practical range.
///
/// # Examples
///
/// ```
/// use bist_adc::types::Resolution;
///
/// # fn main() -> Result<(), bist_adc::types::InvalidResolutionError> {
/// let r = Resolution::new(6)?;
/// assert_eq!(r.bits(), 6);
/// assert_eq!(r.code_count(), 64);
/// assert_eq!(r.transition_count(), 63);
/// assert_eq!(r.max_code().0, 63);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Resolution {
    bits: u32,
}

impl Resolution {
    /// Smallest supported resolution.
    pub const MIN_BITS: u32 = 1;
    /// Largest supported resolution (keeps `2^n` comfortably in `u32`
    /// and Monte-Carlo batches tractable).
    pub const MAX_BITS: u32 = 24;

    /// The paper's evaluation vehicle: a 6-bit flash converter.
    pub const SIX_BIT: Resolution = Resolution { bits: 6 };

    /// Creates a resolution of `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidResolutionError`] when `bits` is outside
    /// `MIN_BITS..=MAX_BITS`.
    pub fn new(bits: u32) -> Result<Self, InvalidResolutionError> {
        if (Self::MIN_BITS..=Self::MAX_BITS).contains(&bits) {
            Ok(Resolution { bits })
        } else {
            Err(InvalidResolutionError { bits })
        }
    }

    /// Number of bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of output codes, `2ⁿ`.
    pub fn code_count(&self) -> u32 {
        1 << self.bits
    }

    /// Number of transition levels, `2ⁿ − 1`.
    pub fn transition_count(&self) -> u32 {
        self.code_count() - 1
    }

    /// The highest output code, `2ⁿ − 1`.
    pub fn max_code(&self) -> Code {
        Code(self.code_count() - 1)
    }

    /// Number of *inner* codes (all codes except the two end codes, whose
    /// widths are unbounded): `2ⁿ − 2`.
    pub fn inner_code_count(&self) -> u32 {
        self.code_count().saturating_sub(2)
    }

    /// The ideal LSB size for a converter spanning `full_scale`.
    ///
    /// # Panics
    ///
    /// Panics if `full_scale` is not positive.
    pub fn lsb_size(&self, full_scale: Volts) -> Volts {
        assert!(full_scale.0 > 0.0, "full scale must be positive");
        Volts(full_scale.0 / self.code_count() as f64)
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits)
    }
}

impl TryFrom<u32> for Resolution {
    type Error = InvalidResolutionError;

    fn try_from(bits: u32) -> Result<Self, Self::Error> {
        Resolution::new(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_valid_range() {
        assert!(Resolution::new(0).is_err());
        assert!(Resolution::new(1).is_ok());
        assert!(Resolution::new(24).is_ok());
        assert!(Resolution::new(25).is_err());
    }

    #[test]
    fn resolution_error_reports_bits() {
        let err = Resolution::new(40).unwrap_err();
        assert_eq!(err.bits, 40);
        assert!(err.to_string().contains("40"));
    }

    #[test]
    fn resolution_derived_quantities() {
        let r = Resolution::new(8).unwrap();
        assert_eq!(r.code_count(), 256);
        assert_eq!(r.transition_count(), 255);
        assert_eq!(r.inner_code_count(), 254);
        assert_eq!(r.max_code(), Code(255));
    }

    #[test]
    fn one_bit_edge_case() {
        let r = Resolution::new(1).unwrap();
        assert_eq!(r.code_count(), 2);
        assert_eq!(r.transition_count(), 1);
        assert_eq!(r.inner_code_count(), 0);
    }

    #[test]
    fn six_bit_constant_matches_paper() {
        assert_eq!(Resolution::SIX_BIT.bits(), 6);
        assert_eq!(Resolution::SIX_BIT.code_count(), 64);
    }

    #[test]
    fn lsb_size_and_conversions() {
        let r = Resolution::new(6).unwrap();
        let lsb = r.lsb_size(Volts(6.4));
        assert!((lsb.0 - 0.1).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "full scale must be positive")]
    fn lsb_size_rejects_non_positive() {
        Resolution::SIX_BIT.lsb_size(Volts(0.0));
    }

    #[test]
    fn try_from_round_trip() {
        let r = Resolution::try_from(12).unwrap();
        assert_eq!(r.bits(), 12);
    }

    #[test]
    fn displays() {
        assert_eq!(Resolution::SIX_BIT.to_string(), "6-bit");
        assert_eq!(Volts(1.5).to_string(), "1.5 V");
        assert_eq!(Lsb(0.21).to_string(), "0.21 LSB");
        assert_eq!(Code(7).to_string(), "7");
        assert_eq!(format!("{:b}", Code(5)), "101");
    }
}
