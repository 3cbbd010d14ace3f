//! Experiment E15: architecture-agnosticism — the BIST only watches
//! output bits, so the same configuration must screen flash, SAR and
//! pipeline converters, each with its own mismatch signature.
//!
//! For each architecture a 600-device population is tuned so that
//! roughly half the devices violate the ±0.5 LSB spec, then screened by
//! the 6-bit-counter BIST against exact ground truth.
//!
//! Knobs: `BIST_BATCH` (default 600). (Runs
//! sequentially by design: each population draws devices from one
//! shared RNG stream.)

use bist_adc::flash::FlashConfig;
use bist_adc::pipeline::PipelineConfig;
use bist_adc::sar::SarConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::{Adc, TransferFunction};
use bist_adc::types::{Resolution, Volts};
use bist_bench::{Scenario, SEED};
use bist_core::config::BistConfig;
use bist_core::decision::ConfusionMatrix;
use bist_core::report::{fmt_prob, Table};
use bist_core::screener::{Screener, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn screen<F>(
    name: &str,
    n: usize,
    seed: u64,
    config: &BistConfig,
    mut draw: F,
) -> (String, Vec<String>)
where
    F: FnMut(&mut StdRng) -> TransferFunction,
{
    let spec = *config.spec();
    let mut matrix = ConfusionMatrix::new();
    let mut screener = Screener::new(Workload::static_ramp(*config));
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let tf = draw(&mut rng);
        let truth = spec.classify(&tf).good;
        matrix.record(truth, screener.screen_one(&tf, &mut rng).accepted());
    }
    let row = vec![
        name.to_owned(),
        fmt_prob(matrix.yield_fraction()),
        fmt_prob(matrix.type_i_rate()),
        fmt_prob(matrix.type_ii_rate()),
        matrix.total().to_string(),
    ];
    (name.to_owned(), row)
}

fn main() {
    Scenario::run("architectures", run);
}

fn run(sc: &mut Scenario) {
    let n = sc.usize_knob("BIST_BATCH", 600);
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(6)
        .build()
        .expect("paper operating point");
    eprintln!("architectures: {n} devices per population, 6-bit counter");

    let mut t = Table::new(&["architecture", "yield", "type I", "type II", "devices"])
        .with_title("One BIST, three converter architectures (±0.5 LSB spec)");
    let mut csv = Vec::new();

    let flash_cfg = FlashConfig::paper_device();
    let (_, row) = screen("flash (ladder σ)", n, SEED, &config, |rng| {
        flash_cfg
            .sample(rng)
            .transfer()
            .expect("flash states transfer")
    });
    csv.push(row.clone());
    t.row_owned(row);

    let sar_cfg =
        SarConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).with_unit_cap_sigma(0.09);
    let (_, row) = screen("SAR (cap mismatch)", n, SEED ^ 1, &config, |rng| {
        sar_cfg.sample(rng).transfer().expect("sar characterises")
    });
    csv.push(row.clone());
    t.row_owned(row);

    let pipe_cfg = PipelineConfig::new(Resolution::SIX_BIT, 3, Volts(0.0), Volts(6.4))
        .with_gain_sigma(0.08)
        .with_coarse_sigma_lsb(0.3);
    let (_, row) = screen("pipeline (gain err)", n, SEED ^ 2, &config, |rng| {
        pipe_cfg
            .sample(rng)
            .transfer()
            .expect("pipeline characterises")
    });
    csv.push(row.clone());
    t.row_owned(row);

    println!("{t}");
    println!("reading: error rates stay in the same band across architectures even though");
    println!("the DNL signatures differ completely (iid widths vs binary-weighted steps vs");
    println!("coarse-boundary gaps) — the method never looks inside the converter.");
    let path = sc.csv(
        "architectures.csv",
        &["architecture", "yield", "type_i", "type_ii", "devices"],
        &csv,
    );
    eprintln!("wrote {}", path.display());
}
