//! Fault injection on converter outputs.
//!
//! §4 of the paper separates *parametric* variation (the subject of the
//! error theory) from *gross* faults caused by spot defects, noting that
//! gross faults "have such a large impact on the code widths … that these
//! faults will also be detected by the BIST method". The decorators here
//! inject gross digital faults so tests can verify that claim; analog
//! ladder/comparator faults live on `FlashAdc` itself.

use crate::transfer::{Adc, TransferFunction};
use crate::types::{Code, Resolution, Volts};
use std::fmt;

/// A digital fault applied to the output word of a converter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OutputFault {
    /// Output bit `bit` is stuck at `value`.
    StuckBit {
        /// Bit index, 0 = LSB.
        bit: u32,
        /// The stuck level.
        value: bool,
    },
    /// Two output bits are swapped (a routing defect).
    SwappedBits {
        /// First bit index.
        a: u32,
        /// Second bit index.
        b: u32,
    },
    /// The whole output bus is stuck at a constant code.
    StuckCode(Code),
    /// Output code offset by a constant (wraps within the code range) —
    /// e.g. a decoder miswire.
    CodeOffset(i32),
}

impl OutputFault {
    /// Applies the fault to a code of the given resolution.
    pub fn apply(&self, code: Code, resolution: Resolution) -> Code {
        let mask = resolution.max_code().0;
        match *self {
            OutputFault::StuckBit { bit, value } => {
                let b = 1u32 << bit;
                Code(if value { code.0 | b } else { code.0 & !b } & mask)
            }
            OutputFault::SwappedBits { a, b } => {
                let bit_a = (code.0 >> a) & 1;
                let bit_b = (code.0 >> b) & 1;
                let mut c = code.0 & !((1 << a) | (1 << b));
                c |= bit_a << b;
                c |= bit_b << a;
                Code(c & mask)
            }
            OutputFault::StuckCode(c) => Code(c.0 & mask),
            OutputFault::CodeOffset(d) => {
                let n = resolution.code_count() as i64;
                let v = (code.0 as i64 + d as i64).rem_euclid(n);
                Code(v as u32)
            }
        }
    }
}

impl fmt::Display for OutputFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OutputFault::StuckBit { bit, value } => {
                write!(f, "bit {bit} stuck at {}", u8::from(value))
            }
            OutputFault::SwappedBits { a, b } => write!(f, "bits {a} and {b} swapped"),
            OutputFault::StuckCode(c) => write!(f, "output stuck at code {c}"),
            OutputFault::CodeOffset(d) => write!(f, "code offset by {d}"),
        }
    }
}

/// An [`Adc`] decorator that applies an [`OutputFault`] to every
/// conversion.
///
/// # Examples
///
/// ```
/// use bist_adc::faults::{FaultyAdc, OutputFault};
/// use bist_adc::transfer::{Adc, TransferFunction};
/// use bist_adc::types::{Code, Resolution, Volts};
///
/// let good = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
/// let bad = FaultyAdc::new(good, OutputFault::StuckBit { bit: 0, value: false });
/// // Code 33 (0b100001) reads as 32 (0b100000).
/// assert_eq!(bad.convert(Volts(3.35)), Code(32));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyAdc<A> {
    inner: A,
    fault: OutputFault,
}

impl<A: Adc> FaultyAdc<A> {
    /// Wraps `inner` with `fault`.
    pub fn new(inner: A, fault: OutputFault) -> Self {
        FaultyAdc { inner, fault }
    }
}

impl<A: Adc> Adc for FaultyAdc<A> {
    fn resolution(&self) -> Resolution {
        self.inner.resolution()
    }

    fn convert(&self, v: Volts) -> Code {
        self.fault
            .apply(self.inner.convert(v), self.inner.resolution())
    }

    fn input_range(&self) -> (Volts, Volts) {
        self.inner.input_range()
    }

    fn transfer(&self) -> Option<TransferFunction> {
        // The faulted transfer is generally not expressible as monotone
        // transition levels; callers should characterise by sweeping.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    #[test]
    fn stuck_low_bit_halves_codes() {
        let bad = FaultyAdc::new(
            ideal(),
            OutputFault::StuckBit {
                bit: 0,
                value: false,
            },
        );
        for k in 0..64u32 {
            let v = Volts(k as f64 * 0.1 + 0.05);
            assert_eq!(bad.convert(v).0, k & !1);
        }
    }

    #[test]
    fn stuck_high_msb_forces_upper_half() {
        let bad = FaultyAdc::new(
            ideal(),
            OutputFault::StuckBit {
                bit: 5,
                value: true,
            },
        );
        assert_eq!(bad.convert(Volts(0.05)).0, 32);
        assert_eq!(bad.convert(Volts(6.35)).0, 63);
    }

    #[test]
    fn swapped_bits() {
        let f = OutputFault::SwappedBits { a: 0, b: 5 };
        // 0b000001 -> 0b100000
        assert_eq!(f.apply(Code(1), Resolution::SIX_BIT), Code(32));
        // symmetric
        assert_eq!(f.apply(Code(32), Resolution::SIX_BIT), Code(1));
        // invariant when bits equal
        assert_eq!(f.apply(Code(33), Resolution::SIX_BIT), Code(33));
    }

    #[test]
    fn stuck_code_is_constant() {
        let bad = FaultyAdc::new(ideal(), OutputFault::StuckCode(Code(17)));
        assert_eq!(bad.convert(Volts(0.0)), Code(17));
        assert_eq!(bad.convert(Volts(6.4)), Code(17));
    }

    #[test]
    fn code_offset_wraps() {
        let f = OutputFault::CodeOffset(3);
        assert_eq!(f.apply(Code(62), Resolution::SIX_BIT), Code(1));
        let f = OutputFault::CodeOffset(-1);
        assert_eq!(f.apply(Code(0), Resolution::SIX_BIT), Code(63));
    }

    #[test]
    fn faulty_adc_reports_no_transfer() {
        let bad = FaultyAdc::new(ideal(), OutputFault::CodeOffset(1));
        assert!(bad.transfer().is_none());
        assert_eq!(bad.resolution().bits(), 6);
        assert_eq!(bad.fault, OutputFault::CodeOffset(1));
    }

    #[test]
    fn into_inner_round_trip() {
        let bad = FaultyAdc::new(ideal(), OutputFault::CodeOffset(1));
        assert_eq!(bad.inner.convert(Volts(3.25)), Code(32));
    }

    #[test]
    fn fault_display() {
        assert_eq!(
            OutputFault::StuckBit {
                bit: 2,
                value: true
            }
            .to_string(),
            "bit 2 stuck at 1"
        );
        assert!(OutputFault::SwappedBits { a: 1, b: 2 }
            .to_string()
            .contains("swapped"));
    }
}
