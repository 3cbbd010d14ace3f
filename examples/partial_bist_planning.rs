//! Partial-BIST planning: Eqs. 1–2 decide how many bits `q` must stay
//! off-chip for a given stimulus speed, and the Figure-2 architecture
//! verifies the on-chip bits with a counter clocked by bit `q`.
//!
//! This example plans `q_min` across stimulus speeds for the paper's
//! 6-bit device, then actually runs the upper-bit functional test while
//! monitoring bit 1 (q = 2) to show the partial configuration working.
//!
//! Run with: `cargo run --example partial_bist_planning`

use bist_adc::sampler::SamplingConfig;
use bist_adc::signal::Ramp;
use bist_adc::spec::LinearitySpec;
use bist_adc::stream::CodeStream;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Code, Resolution, Volts};
use bist_core::config::BistConfig;
use bist_core::functional::check_code_stream;
use bist_core::qmin::QminPlan;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plan = QminPlan::new(Resolution::SIX_BIT, 0.5, 1.0);
    let f_sample = 1.0e6;

    println!("q_min vs stimulus frequency (6-bit, DNL 0.5 / INL 1.0 LSB, f_sample = 1 MHz):");
    for f_stim in [1.0, 100.0, 1e3, 5e3, 2e4, 5e4, 1e5, 3e5] {
        match plan.q_min(f_stim, f_sample) {
            Some(1) => println!(
                "  {f_stim:>9.0} Hz → q_min = 1  (full BIST: only the LSB leaves the chip)"
            ),
            Some(q) => println!(
                "  {f_stim:>9.0} Hz → q_min = {q}  ({q} bits off-chip, {} on-chip)",
                6 - q
            ),
            None => println!("  {f_stim:>9.0} Hz → untestable (stimulus too fast for 6 bits)"),
        }
    }

    // Now exercise the q = 2 partial configuration: monitor bit 1 and
    // functionally verify bits 2..5 against the internal counter.
    println!("\npartial BIST with q = 2 (monitored bit = 1):");
    let adc = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(6)
        .monitored_bit(1)
        .build()?;
    let ramp = Ramp::new(Volts(-0.2), 8.0); // a faster ramp than the LSB test allows
    let sampling = SamplingConfig::new(f_sample, 900_000);
    let capture: Vec<Code> = CodeStream::noiseless(&adc, &ramp, sampling).collect();
    let functional = check_code_stream(&capture, config.monitored_bit());
    println!("  {functional}");
    println!(
        "  ({} falling edges of bit 1 checked the upper word's +1 continuity)",
        functional.checks.len()
    );

    // The same capture through a faulty device: bit 4 stuck low.
    let faulty = bist_adc::faults::FaultyAdc::new(
        adc,
        bist_adc::faults::OutputFault::StuckBit {
            bit: 4,
            value: false,
        },
    );
    let capture: Vec<Code> = CodeStream::noiseless(&faulty, &ramp, sampling).collect();
    let functional = check_code_stream(&capture, config.monitored_bit());
    println!("  with bit 4 stuck low: {functional}");
    Ok(())
}
