//! # bist-adc
//!
//! Behavioural A/D-converter modelling substrate for the `adc-bist`
//! reproduction of R. de Vries et al., *Built-In Self-Test Methodology
//! for A/D Converters* (ED&TC 1997).
//!
//! The paper evaluates its BIST on a batch of 364 six-bit **flash**
//! converters; silicon being unavailable, this crate recreates the batch
//! behaviourally:
//!
//! * [`transfer`] — transfer functions as transition levels, plus the
//!   [`transfer::Adc`] trait every converter model implements.
//! * [`flash`] — resistor-ladder + comparator-offset flash converter
//!   whose code widths are Gaussian with the paper's σ ≈ 0.16–0.21 LSB
//!   and correlation ρ ≈ −1/(N−1) (Eq. 10).
//! * [`sar`] — a SAR converter (different mismatch signature) showing the
//!   method is architecture-agnostic.
//! * [`signal`] / [`noise`] / [`stream`] / [`sampler`] — ramp/sine
//!   stimuli, the §3 noise sources (jitter, transition noise),
//!   the lazy single-pass acquisition stream ([`stream::CodeStream`])
//!   and its sampling plan ([`sampler::SamplingConfig`]).
//! * [`metrics`] / [`histogram`] — ground-truth DNL/INL and the
//!   conventional code-density test (ramp histogram).
//! * [`faults`] — gross spot-defect injection (stuck bits, stuck codes).
//! * [`spec`] — linearity specs (±0.5 / ±1 LSB) and good/faulty
//!   classification.
//!
//! ## Example
//!
//! ```
//! use bist_adc::flash::FlashConfig;
//! use bist_adc::spec::LinearitySpec;
//! use bist_adc::transfer::Adc;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let device = FlashConfig::paper_device().sample(&mut rng);
//! let truth = LinearitySpec::paper_stringent().classify(&device.transfer().expect("flash states its transfer"));
//! // Under the stringent ±0.5 LSB spec most devices fail (paper: ~70 %).
//! println!("device is {}", if truth.good { "good" } else { "faulty" });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod faults;
pub mod flash;
pub mod histogram;
pub mod metrics;
pub mod noise;
pub mod pipeline;
pub mod sampler;
pub mod sar;
pub mod signal;
pub mod spec;
pub mod stream;
pub mod transfer;
pub mod types;

pub use flash::{FlashAdc, FlashConfig};
pub use sampler::SamplingConfig;
pub use spec::{GroundTruth, LinearitySpec};
pub use stream::CodeStream;
pub use transfer::{Adc, TransferFunction};
pub use types::{Code, Lsb, Resolution, Volts};
