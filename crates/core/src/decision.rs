//! Test decisions and type I/II error accounting.
//!
//! §3 frames test quality through four conditional probabilities:
//! `P(accept|good)`, `P(reject|good)` (type I), `P(accept|faulty)`
//! (type II) and `P(reject|faulty)`. [`ConfusionMatrix`] accumulates the
//! four outcomes over a batch and reports the conditional rates the
//! paper tabulates.

use std::fmt;

/// Outcome of one device test against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Good device accepted — correct.
    TrueAccept,
    /// Good device rejected — type I error (yield loss).
    TypeI,
    /// Faulty device accepted — type II error (test escape).
    TypeII,
    /// Faulty device rejected — correct.
    TrueReject,
}

impl Outcome {
    /// Classifies a single decision.
    pub fn classify(truth_good: bool, accepted: bool) -> Outcome {
        match (truth_good, accepted) {
            (true, true) => Outcome::TrueAccept,
            (true, false) => Outcome::TypeI,
            (false, true) => Outcome::TypeII,
            (false, false) => Outcome::TrueReject,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Outcome::TrueAccept => "true accept",
            Outcome::TypeI => "type I (good rejected)",
            Outcome::TypeII => "type II (faulty accepted)",
            Outcome::TrueReject => "true reject",
        };
        f.write_str(s)
    }
}

/// Counts of the four outcomes over a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    true_accept: u64,
    type_i: u64,
    type_ii: u64,
    true_reject: u64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        ConfusionMatrix::default()
    }

    /// Records one device.
    pub fn record(&mut self, truth_good: bool, accepted: bool) {
        match Outcome::classify(truth_good, accepted) {
            Outcome::TrueAccept => self.true_accept += 1,
            Outcome::TypeI => self.type_i += 1,
            Outcome::TypeII => self.type_ii += 1,
            Outcome::TrueReject => self.true_reject += 1,
        }
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_accept += other.true_accept;
        self.type_i += other.type_i;
        self.type_ii += other.type_ii;
        self.true_reject += other.true_reject;
    }

    /// Total devices recorded.
    pub fn total(&self) -> u64 {
        self.true_accept + self.type_i + self.type_ii + self.true_reject
    }

    /// Number of ground-truth-good devices.
    pub fn good(&self) -> u64 {
        self.true_accept + self.type_i
    }

    /// Number of ground-truth-faulty devices.
    pub fn faulty(&self) -> u64 {
        self.type_ii + self.true_reject
    }

    /// Raw type I count (good rejected).
    pub fn type_i_count(&self) -> u64 {
        self.type_i
    }

    /// Raw type II count (faulty accepted).
    pub fn type_ii_count(&self) -> u64 {
        self.type_ii
    }

    /// Conditional type I rate `P(reject | good)` — the paper's Table 1
    /// convention. `None` when no good devices were seen.
    pub fn type_i_rate(&self) -> Option<f64> {
        if self.good() == 0 {
            None
        } else {
            Some(self.type_i as f64 / self.good() as f64)
        }
    }

    /// Conditional type II rate `P(accept | faulty)`. `None` when no
    /// faulty devices were seen.
    pub fn type_ii_rate(&self) -> Option<f64> {
        if self.faulty() == 0 {
            None
        } else {
            Some(self.type_ii as f64 / self.faulty() as f64)
        }
    }

    /// The observed yield `P(good)`.
    pub fn yield_fraction(&self) -> Option<f64> {
        if self.total() == 0 {
            None
        } else {
            Some(self.good() as f64 / self.total() as f64)
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} (good {}, faulty {}): type I {}({}), type II {}({})",
            self.total(),
            self.good(),
            self.faulty(),
            self.type_i,
            self.type_i_rate()
                .map_or_else(|| "-".to_owned(), |r| format!("{r:.4}")),
            self.type_ii,
            self.type_ii_rate()
                .map_or_else(|| "-".to_owned(), |r| format!("{r:.4}")),
        )
    }
}

impl Extend<(bool, bool)> for ConfusionMatrix {
    fn extend<T: IntoIterator<Item = (bool, bool)>>(&mut self, iter: T) {
        for (truth, accepted) in iter {
            self.record(truth, accepted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification() {
        assert_eq!(Outcome::classify(true, true), Outcome::TrueAccept);
        assert_eq!(Outcome::classify(true, false), Outcome::TypeI);
        assert_eq!(Outcome::classify(false, true), Outcome::TypeII);
        assert_eq!(Outcome::classify(false, false), Outcome::TrueReject);
    }

    #[test]
    fn rates_from_known_counts() {
        let mut m = ConfusionMatrix::new();
        // 100 good (10 rejected), 50 faulty (5 accepted).
        for i in 0..100 {
            m.record(true, i >= 10);
        }
        for i in 0..50 {
            m.record(false, i < 5);
        }
        assert_eq!(m.total(), 150);
        assert_eq!(m.good(), 100);
        assert_eq!(m.faulty(), 50);
        assert!((m.type_i_rate().unwrap() - 0.1).abs() < 1e-12);
        assert!((m.type_ii_rate().unwrap() - 0.1).abs() < 1e-12);
        assert!((m.yield_fraction().unwrap() - 100.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_has_no_rates() {
        let m = ConfusionMatrix::new();
        assert!(m.type_i_rate().is_none());
        assert!(m.type_ii_rate().is_none());
        assert!(m.yield_fraction().is_none());
    }

    #[test]
    fn all_good_batch_no_type_ii_rate() {
        let mut m = ConfusionMatrix::new();
        m.record(true, true);
        assert!(m.type_ii_rate().is_none());
        assert_eq!(m.type_i_rate(), Some(0.0));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix::new();
        a.record(true, false);
        let mut b = ConfusionMatrix::new();
        b.record(false, true);
        b.record(true, true);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.type_i_count(), 1);
        assert_eq!(a.type_ii_count(), 1);
    }

    #[test]
    fn extend_from_pairs() {
        let mut m = ConfusionMatrix::new();
        m.extend([(true, true), (false, false), (true, false)]);
        assert_eq!(m.total(), 3);
        assert_eq!(m.type_i_count(), 1);
    }

    #[test]
    fn displays() {
        let mut m = ConfusionMatrix::new();
        m.record(true, false);
        assert!(m.to_string().contains("type I 1"));
        assert!(Outcome::TypeII.to_string().contains("faulty accepted"));
    }
}
