//! Batch screening: reproduce the paper's §4 measurement campaign — a
//! batch of 364 six-bit flash converters screened by the BIST against a
//! reference measurement, under the stringent ±0.5 LSB spec.
//!
//! Run with: `cargo run --release --example batch_screening`

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::report::{fmt_prob, Table};
use bist_mc::batch::Batch;
use bist_mc::experiment::{Experiment, GroundTruthMode};

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
        // through the batched engine, on every core.
        let matrix = Experiment::new(batch, config)
            .with_ground_truth(GroundTruthMode::Reference {
                samples_per_code: 1000,
            })
            .run(0)
            .matrix;
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
