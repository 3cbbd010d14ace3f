//! Sequential primitives: flip-flops, shift registers and a MISR.
//!
//! The MISR is classic logic-BIST furniture: it compacts a response
//! stream into a signature — the natural on-chip back-end when even the
//! pass/fail limits of the LSB monitor are to be checked off-chip from a
//! single signature read.

use crate::logic::Bus;
use std::fmt;

/// A D flip-flop with enable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dff {
    q: bool,
}

impl Dff {
    /// Clocks the flip-flop: captures `d` when `enable`, returns the
    /// *previous* output (the registered value visible during this
    /// cycle).
    pub fn tick(&mut self, d: bool, enable: bool) -> bool {
        let old = self.q;
        if enable {
            self.q = d;
        }
        old
    }

    /// The current stored value.
    pub fn q(&self) -> bool {
        self.q
    }

    /// Asynchronous clear.
    pub fn clear(&mut self) {
        self.q = false;
    }
}

/// A serial-in shift register of fixed length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftRegister {
    bits: Vec<bool>,
}

impl ShiftRegister {
    /// A register of `len` zeroed stages.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "length must be non-zero");
        ShiftRegister {
            bits: vec![false; len],
        }
    }

    /// Shifts `d` in at stage 0, returns the bit shifted out of the last
    /// stage.
    pub fn tick(&mut self, d: bool) -> bool {
        let out = *self.bits.last().expect("len > 0");
        for i in (1..self.bits.len()).rev() {
            self.bits[i] = self.bits[i - 1];
        }
        self.bits[0] = d;
        out
    }

    /// The current stage contents (stage 0 first).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Clears all stages.
    pub fn clear(&mut self) {
        self.bits.fill(false);
    }
}

/// A multiple-input signature register (MISR) compacting a word stream.
///
/// Standard type-2 MISR: the state is shifted as an LFSR and the input
/// word is XOR-ed in each cycle. Two streams differing anywhere are very
/// likely to produce different signatures (aliasing probability
/// ~`2^-width`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Misr {
    state: Bus,
    taps: u64,
}

impl Misr {
    /// Creates a MISR of `width` bits with feedback `taps`, state zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is zero or does not fit in `width` bits.
    pub fn new(width: u32, taps: u64) -> Self {
        assert!(taps != 0, "taps must be non-zero");
        let _check = Bus::new(width, taps);
        Misr {
            state: Bus::zero(width),
            taps,
        }
    }

    /// Absorbs one input word (truncated to the MISR width).
    pub fn tick(&mut self, input: u64) -> Bus {
        let fb = ((self.state.value() & self.taps).count_ones() & 1) as u64;
        let shifted = (self.state.value() << 1 | fb) & self.state.max_value();
        self.state = Bus::truncate(self.state.width(), shifted ^ input);
        self.state
    }

    /// The current signature.
    pub fn signature(&self) -> Bus {
        self.state
    }

    /// Resets the signature to zero.
    pub fn clear(&mut self) {
        self.state = Bus::zero(self.state.width());
    }
}

impl fmt::Display for Misr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MISR sig {:b}", self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dff_registers_with_enable() {
        let mut ff = Dff::default();
        assert!(!ff.tick(true, true)); // old value was 0
        assert!(ff.q());
        assert!(ff.tick(false, false)); // hold: returns 1, keeps 1
        assert!(ff.q());
        ff.clear();
        assert!(!ff.q());
    }

    #[test]
    fn shift_register_delays_by_len() {
        let mut sr = ShiftRegister::new(3);
        let input = [true, false, true, true, false];
        let mut out = Vec::new();
        for &b in &input {
            out.push(sr.tick(b));
        }
        // First 3 outputs are the zero reset state, then input delayed.
        assert_eq!(out, vec![false, false, false, true, false]);
        assert_eq!(sr.bits.len(), 3);
        assert!(!sr.bits.is_empty());
    }

    #[test]
    fn shift_register_clear() {
        let mut sr = ShiftRegister::new(2);
        sr.tick(true);
        sr.clear();
        assert_eq!(sr.bits(), &[false, false]);
    }

    #[test]
    #[should_panic(expected = "length must be non-zero")]
    fn zero_len_shift_register_panics() {
        ShiftRegister::new(0);
    }

    #[test]
    fn misr_distinguishes_streams() {
        let mut a = Misr::new(16, 0b1011_0100_0000_0001);
        let mut b = Misr::new(16, 0b1011_0100_0000_0001);
        let stream: Vec<u64> = (0..100).map(|i| (i * 37) % 64).collect();
        for &w in &stream {
            a.tick(w);
            b.tick(w);
        }
        assert_eq!(a.signature(), b.signature());
        // Flip one word in the stream: signatures diverge.
        b.clear();
        a.clear();
        for (i, &w) in stream.iter().enumerate() {
            a.tick(w);
            b.tick(if i == 50 { w ^ 1 } else { w });
        }
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn misr_clear_resets() {
        let mut m = Misr::new(8, 0b1001_0001);
        m.tick(0xFF);
        assert_ne!(m.signature().value(), 0);
        m.clear();
        assert_eq!(m.signature().value(), 0);
    }

    #[test]
    fn misr_display() {
        let m = Misr::new(4, 0b1001);
        assert!(m.to_string().contains("MISR"));
    }
}
