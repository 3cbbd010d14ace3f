//! Report checksums over a stable binary encoding: FNV-1a 64 folded over
//! little-endian field bytes in declaration order, with a one-byte tag
//! per enum variant. Renaming a field leaves the checksum unchanged;
//! reordering, adding or changing a field's value moves it.

use bist_core::dynamic::DynamicVerdict;
use bist_core::harness::BistVerdict;
use bist_core::screener::ScreenVerdict;
use bist_core::sequencer::{SeqDecision, SeqOutcome};

/// An FNV-1a 64 accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn decision(&mut self, d: SeqDecision) {
        match d {
            SeqDecision::Continue => self.bytes(&[0]),
            SeqDecision::AcceptEarly(at) => {
                self.bytes(&[1]);
                self.u64(at);
            }
            SeqDecision::RejectEarly(at) => {
                self.bytes(&[2]);
                self.u64(at);
            }
        }
    }

    pub fn static_verdict(&mut self, v: &BistVerdict) {
        for field in [
            v.codes_judged,
            v.dnl_failures,
            v.inl_failures,
            v.functional_checks,
            v.functional_mismatches,
            v.expected_codes,
            v.samples,
        ] {
            self.u64(field);
        }
    }

    pub fn dynamic_verdict(&mut self, v: &DynamicVerdict) {
        for field in [v.sinad_db, v.thd_db, v.enob, v.noise_power_lsb2] {
            self.f64(field);
        }
        self.u64(v.samples);
        self.u64(v.expected_samples);
        let c = v.checks;
        for check in [c.complete, c.sinad, c.thd, c.enob, c.noise] {
            self.bool(check);
        }
    }

    /// Folds one device's screening verdict.
    pub fn verdict(&mut self, v: &ScreenVerdict) {
        match v {
            ScreenVerdict::Static(SeqOutcome { decision, verdict }) => {
                self.bytes(&[0]);
                self.decision(*decision);
                self.static_verdict(verdict);
            }
            ScreenVerdict::Dynamic(SeqOutcome { decision, verdict }) => {
                self.bytes(&[1]);
                self.decision(*decision);
                self.dynamic_verdict(verdict);
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn decisions_hash_apart() {
        let hash = |d| {
            let mut h = Fnv::default();
            h.decision(d);
            h.finish()
        };
        let all = [
            hash(SeqDecision::Continue),
            hash(SeqDecision::AcceptEarly(7)),
            hash(SeqDecision::RejectEarly(7)),
            hash(SeqDecision::AcceptEarly(8)),
        ];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }
}
