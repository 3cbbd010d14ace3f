//! RTL bring-up view: runs the cycle-accurate Figure-4 LSB processor on
//! a short ramp capture and renders the internal signals as an ASCII
//! waveform — the designer's eye view of the on-chip BIST.
//!
//! Run with: `cargo run --example rtl_trace`

use bist_adc::sampler::SamplingConfig;
use bist_adc::signal::Ramp;
use bist_adc::spec::LinearitySpec;
use bist_adc::stream::CodeStream;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use bist_core::config::BistConfig;
use bist_rtl::datapath::LsbProcessor;
use bist_rtl::sim::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3-bit ideal converter keeps the trace readable.
    let res = Resolution::new(3)?;
    let adc = TransferFunction::ideal(res, Volts(0.0), Volts(0.8));

    // ~9 samples per code.
    let config = BistConfig::builder(res, LinearitySpec::dnl_only(0.5))
        .counter_bits(4)
        .delta_s(bist_adc::types::Lsb(0.11))
        .build()?;
    let slope = 0.11 * 0.1 * 1000.0; // Δs · LSB · f_sample
    let ramp = Ramp::new(Volts(-0.05), slope);
    let capture = CodeStream::noiseless(&adc, &ramp, SamplingConfig::new(1000.0, 85));

    println!("config: {config}\n");
    let mut bist = LsbProcessor::new(config.to_rtl());
    let mut trace = Trace::new();
    let mut results = Vec::new();
    for (cycle, code) in capture.enumerate() {
        let lsb = code.0 & 1 == 1;
        trace.sample(cycle as u64, "code", u64::from(code.0));
        trace.sample(cycle as u64, "lsb", u64::from(lsb));
        let m = bist.tick(lsb);
        trace.sample(cycle as u64, "edge", u64::from(m.is_some()));
        if let Some(m) = m {
            trace.sample(cycle as u64, "count", m.count);
            trace.sample(cycle as u64, "pass", u64::from(m.dnl_verdict.is_pass()));
            results.push(m);
        }
    }

    println!("{}", trace.render());
    println!(
        "measurements (window [{}, {}]):",
        config.limits().i_min(),
        config.limits().i_max()
    );
    for m in &results {
        println!(
            "  code #{}: {} samples, {}{}, INL {} counts",
            m.index,
            m.count,
            m.dnl_verdict,
            if m.overflow {
                " (counter overflow)"
            } else {
                ""
            },
            m.inl_counts,
        );
    }
    println!("\n{bist}");
    Ok(())
}
