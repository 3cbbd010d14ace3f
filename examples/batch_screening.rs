//! Batch screening: reproduce the paper's §4 measurement campaign — a
//! batch of 364 six-bit flash converters screened by the BIST against a
//! reference measurement, under the stringent ±0.5 LSB spec.
//!
//! Run with: `cargo run --release --example batch_screening`

use bist_adc::noise::NoiseConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::decision::ConfusionMatrix;
use bist_core::harness::reference_measurement;
use bist_core::report::{fmt_prob, Table};
use bist_core::screener::{Screener, Workload};
use bist_mc::batch::Batch;

/// Device RNG salt shared with the fleet experiments, so this example
/// screens the exact population `bist_mc::experiment` would.
const DEVICE_SALT: usize = 0x5eed_0000_0000_0000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's batch: 364 devices (we regenerate them behaviourally;
    // gross spot defects excluded, parametric mismatch only).
    let batch = Batch::paper_measurement(364);
    println!("screening {} physically-modelled flash devices", batch.size);
    println!("source: {}\n", batch.source);

    let spec = LinearitySpec::paper_stringent();
    let mut table = Table::new(&["counter", "yield", "type I", "type II", "detail"])
        .with_title("BIST screening vs ~1000-sample/code reference (±0.5 LSB)");

    for bits in 4..=7 {
        let config = BistConfig::builder(Resolution::SIX_BIT, spec)
            .counter_bits(bits)
            .build()?;
        // Ground truth the way the paper did it: a high-accuracy
        // reference measurement, not an oracle — then the whole batch
        // in one `Screener::run` call, which dispatches the
        // lane-parallel batched engine.
        let mut truths = Vec::with_capacity(batch.size);
        let mut devices = Vec::with_capacity(batch.size);
        for i in 0..batch.size {
            let tf = batch.device(i);
            let mut rng = batch.device_rng(i ^ DEVICE_SALT);
            let truth =
                reference_measurement(&tf, &spec, 1000, &NoiseConfig::noiseless(), &mut rng)
                    .expect("reference sweep on a simulated device")
                    .accepted;
            truths.push(truth);
            devices.push((tf, rng));
        }
        let mut screener = Screener::new(Workload::static_ramp(config));
        let mut matrix = ConfusionMatrix::new();
        for report in screener.run(devices) {
            matrix.record(truths[report.device], report.verdict.accepted());
        }
        table.row_owned(vec![
            bits.to_string(),
            fmt_prob(matrix.yield_fraction()),
            fmt_prob(matrix.type_i_rate()),
            fmt_prob(matrix.type_ii_rate()),
            matrix.to_string(),
        ]);
    }
    println!("{table}");
    println!("paper's measured values: type I 0.13 / 0.06 / 0.04 / 0.02,");
    println!("                         type II 0.03 / 0.03 / 0.02 / 0.01");
    println!("(364 devices give wide confidence intervals — run the table1");
    println!(" binary for 4000-device batches with Wilson intervals.)");
    Ok(())
}
