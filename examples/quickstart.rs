//! Quickstart: build a mismatched 6-bit flash converter, run the paper's
//! LSB-monitor BIST on it, and compare the verdict with ground truth.
//!
//! Run with: `cargo run --example quickstart`

use bist_adc::flash::FlashConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::Adc;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::screener::{Screener, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2024);

    // 1. One device from the paper's population: a 6-bit flash ADC whose
    //    resistor-ladder and comparator mismatch give code widths with
    //    σ = 0.21 LSB (the worst case §4 simulates).
    let device = FlashConfig::paper_device().sample(&mut rng);
    println!("device under test: {device}");

    // 2. The BIST configuration: the stringent ±0.5 LSB DNL spec and the
    //    smallest counter the paper evaluates (4 bits). The builder
    //    plans the balanced step size Δs and the count window (Eqs. 3-5).
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(4)
        .build()?;
    println!("configuration:     {config}");

    // 3. Run the BIST through the one front door: a `Screener` wraps
    //    the workload (here the static ramp — a slow sweep while the
    //    on-chip blocks watch the LSB and the upper bits) and screens
    //    devices one at a time or in batches.
    let mut screener = Screener::new(Workload::static_ramp(config));
    let verdict = screener.screen_one(&device, &mut rng);
    let outcome = screener
        .take_static_outcome(&verdict)
        .expect("static workload");
    println!("\nBIST outcome:      {outcome}");

    // 4. Per-code detail: the measured sample count per code is the code
    //    width in units of Δs.
    println!(
        "\nfirst judged codes (count ∈ [{}, {}] passes):",
        config.limits().i_min(),
        config.limits().i_max()
    );
    for code in outcome.monitor.codes.iter().take(8) {
        println!(
            "  code #{:2}: {:2} samples → width {:.3} LSB, DNL {:+.3} LSB, {}",
            code.index, code.count, code.width_lsb.0, code.dnl_lsb.0, code.dnl_verdict
        );
    }

    // 5. The same sweep also yields the other two static parameters of
    //    §2 — offset and gain — with no extra hardware.
    //    (The harness ramp starts 2 LSB below the input range.)
    let lsb_stream: Vec<bool> = {
        use bist_adc::sampler::SamplingConfig;
        use bist_adc::signal::Ramp;
        use bist_adc::stream::CodeStream;
        let slope = config.delta_s().0 * 0.1 * 1.0e6;
        let samples = ((6.4 + 1.2) / slope * 1.0e6) as usize;
        let ramp = Ramp::new(bist_adc::types::Volts(-0.2), slope);
        CodeStream::noiseless(&device, &ramp, SamplingConfig::new(1.0e6, samples))
            .map(|c| c.0 & 1 == 1)
            .collect()
    };
    if let Some(est) = bist_core::static_params::estimate_offset_gain(&config, &lsb_stream, -2.0) {
        println!("\nstatic parameters:  {est}");
    }

    // 6. Ground truth from the true transfer function (we simulate the
    //    silicon, so the exact answer is available).
    let transfer = device.transfer().expect("flash states its transfer");
    let truth = LinearitySpec::paper_stringent().classify(&transfer);
    println!("\nground truth:      {truth}");
    println!(
        "verdict agreement: BIST {} vs truth {} → {}",
        if outcome.accepted() {
            "accept"
        } else {
            "reject"
        },
        if truth.good { "good" } else { "faulty" },
        if outcome.accepted() == truth.good {
            "CORRECT"
        } else if truth.good {
            "TYPE I ERROR (good device rejected)"
        } else {
            "TYPE II ERROR (faulty device accepted)"
        }
    );
    Ok(())
}
