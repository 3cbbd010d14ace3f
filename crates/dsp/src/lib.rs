//! # bist-dsp
//!
//! Self-contained DSP and numerics substrate for the `adc-bist`
//! reproduction of R. de Vries et al., *Built-In Self-Test Methodology
//! for A/D Converters* (ED&TC 1997).
//!
//! The Rust DSP ecosystem is thin and the reproduction must be fully
//! self-contained, so this crate implements from scratch everything the
//! higher layers need:
//!
//! * [`complex`] / [`fft`] — radix-2 FFT for the dynamic (THD/SINAD) tests.
//! * [`window`] / [`spectrum`] — windowing and single-tone spectral metrics.
//! * [`goertzel`] — cheap single-bin DFT, the "simple digital function"
//!   flavour of on-chip processing the paper advocates.
//! * [`special`] — erfc and the normal distribution for the §3 error
//!   theory.
//! * [`integrate`] — quadrature used to evaluate Eqs. 6–7.
//! * [`stats`] — Welford moments.
//!
//! ## Example
//!
//! ```
//! use bist_dsp::spectrum::{analyze_tone, ToneAnalysisConfig};
//!
//! # fn main() -> Result<(), bist_dsp::fft::FftLengthError> {
//! // An ideal 6-bit quantized sine: ENOB should be close to 6 bits.
//! let n = 4096;
//! let record: Vec<f64> = (0..n)
//!     .map(|i| {
//!         let v = (std::f64::consts::TAU * 1021.0 * i as f64 / n as f64).sin();
//!         (((v + 1.0) / 2.0 * 64.0).floor().clamp(0.0, 63.0) + 0.5) / 32.0 - 1.0
//!     })
//!     .collect();
//! let analysis = analyze_tone(&record, &ToneAnalysisConfig::default())?;
//! assert!((analysis.enob - 6.0).abs() < 0.3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod complex;
pub mod fft;
pub mod goertzel;
pub mod integrate;
pub mod special;
pub mod spectrum;
pub mod stats;
pub mod window;

pub use complex::Complex64;
pub use fft::fft_in_place;
pub use goertzel::{harmonic_plan, Goertzel, GoertzelBank, HarmonicPlan, ToneMetrics, TonePowers};
pub use spectrum::{analyze_tone, SpectralAnalysis, ToneAnalysisConfig};
pub use window::Window;
