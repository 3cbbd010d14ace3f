//! Fixture: types that share a variant's name and are used as types.

/// Carried by the variant of its own name.
#[derive(Debug, Default)]
pub struct Histogram {
    total: u64,
}

/// Named by module path only.
#[derive(Debug, Default)]
pub struct Spectrum;

/// Named by `total` and `fresh`.
#[derive(Debug)]
pub enum Report {
    Histogram(Histogram),
    Spectrum,
}

fn total(r: &Report) -> u64 {
    match r {
        Report::Histogram(h) => h.total,
        Report::Spectrum => 0,
    }
}

fn fresh() -> (Report, crate::dsp::Spectrum) {
    (Report::Spectrum, crate::dsp::Spectrum)
}
