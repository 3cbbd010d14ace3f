//! Width-checked digital words.
//!
//! The on-chip datapath works with small fixed-width buses (a 4–7 bit
//! counter is the paper's central cost knob). [`Bus`] carries a value
//! together with its width and enforces the hardware behaviours —
//! wrapping or saturating arithmetic, truncation — that `u64` alone would
//! hide.

use std::fmt;

/// A fixed-width digital word (1..=64 bits).
///
/// # Examples
///
/// ```
/// use bist_rtl::logic::Bus;
///
/// let b = Bus::new(4, 0b1010);
/// assert_eq!(b.bit(1), true);
/// assert_eq!(b.wrapping_add(8).value(), 0b0010); // 4-bit wrap
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bus {
    width: u32,
    value: u64,
}

impl Bus {
    /// Creates a bus of `width` bits holding `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64, or if `value` does not fit.
    pub fn new(width: u32, value: u64) -> Self {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        let b = Bus { width, value: 0 };
        assert!(
            value <= b.max_value(),
            "value {value} does not fit in {width} bits"
        );
        Bus { width, value }
    }

    /// A zeroed bus of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn zero(width: u32) -> Self {
        Bus::new(width, 0)
    }

    /// Creates a bus truncating `value` to `width` bits (hardware bus
    /// assignment semantics).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn truncate(width: u32, value: u64) -> Self {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Bus {
            width,
            value: value & mask,
        }
    }

    /// The bus width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The largest representable value, `2^width − 1`.
    pub fn max_value(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Whether the bus holds its maximum value.
    pub fn is_max(&self) -> bool {
        self.value == self.max_value()
    }

    /// Bit `i` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.width, "bit index {i} out of range");
        (self.value >> i) & 1 == 1
    }

    /// Wrapping addition within the bus width.
    pub fn wrapping_add(&self, rhs: u64) -> Bus {
        Bus::truncate(self.width, self.value.wrapping_add(rhs))
    }

    /// The bit slice `[hi:lo]` (inclusive, Verilog-style) as a new bus.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= width`.
    pub fn slice(&self, hi: u32, lo: u32) -> Bus {
        assert!(hi >= lo, "hi must be >= lo");
        assert!(hi < self.width, "hi {hi} out of range");
        Bus::truncate(hi - lo + 1, self.value >> lo)
    }
}

impl fmt::Display for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'d{}", self.width, self.value)
    }
}

impl fmt::Binary for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:0width$b}", self.value, width = self.width as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_limits() {
        let b = Bus::new(4, 15);
        assert_eq!(b.max_value(), 15);
        assert!(b.is_max());
        assert_eq!(Bus::zero(7).value(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        Bus::new(3, 8);
    }

    #[test]
    #[should_panic(expected = "width must be 1..=64")]
    fn zero_width_panics() {
        Bus::new(0, 0);
    }

    #[test]
    fn truncate_masks_value() {
        assert_eq!(Bus::truncate(4, 0x1F).value(), 0xF);
        assert_eq!(Bus::truncate(64, u64::MAX).value(), u64::MAX);
    }

    #[test]
    fn bit_access() {
        let b = Bus::new(6, 0b100101);
        assert!(b.bit(0));
        assert!(!b.bit(1));
        assert!(b.bit(2));
        assert!(b.bit(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        Bus::new(4, 0).bit(4);
    }

    #[test]
    fn wrapping_add_wraps() {
        let b = Bus::new(4, 14);
        assert_eq!(b.wrapping_add(1).value(), 15);
        assert_eq!(b.wrapping_add(2).value(), 0);
        assert_eq!(b.wrapping_add(18).value(), 0);
    }

    #[test]
    fn slice_extracts_fields() {
        let b = Bus::new(8, 0b1011_0110);
        assert_eq!(b.slice(7, 4).value(), 0b1011);
        assert_eq!(b.slice(3, 0).value(), 0b0110);
        assert_eq!(b.slice(4, 4).width(), 1);
        assert_eq!(b.slice(4, 4).value(), 1);
    }

    #[test]
    #[should_panic(expected = "hi must be >= lo")]
    fn slice_reversed_panics() {
        Bus::new(8, 0).slice(2, 3);
    }

    #[test]
    fn formatting() {
        let b = Bus::new(6, 37);
        assert_eq!(b.to_string(), "6'd37");
        assert_eq!(format!("{b:b}"), "100101");
    }
}
