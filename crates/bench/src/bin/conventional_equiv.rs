//! Experiment E10: §4's closing claim — *"The quality of the
//! conventional test, where 4096 samples are taken for the test of all
//! the codes, can be compared to the BIST with a 7-bit counter."*
//!
//! Runs both tests on the same device batches and compares their
//! confusion matrices and device-level agreement, for counter sizes 4–7.
//!
//! Knobs: `BIST_BATCH` (default 2000), `BIST_WORKERS` (0 = all
//! cores).

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_bench::{Scenario, SEED};
use bist_core::config::BistConfig;
use bist_core::report::{fmt_prob, Table};
use bist_mc::batch::Batch;
use bist_mc::experiment::run_equivalence;

fn main() {
    Scenario::run("conventional_equiv", run);
}

fn run(sc: &mut Scenario) {
    let n = sc.usize_knob("BIST_BATCH", 2000);
    let workers = sc.workers();
    let spec = LinearitySpec::paper_stringent();
    eprintln!("conventional_equiv: {n} iid-width devices, spec {spec}");

    let mut t = Table::new(&[
        "counter",
        "BIST type I",
        "BIST type II",
        "conv type I",
        "conv type II",
        "agreement",
    ])
    .with_title("BIST vs conventional 4096-sample histogram test (same devices)");
    let mut csv = Vec::new();
    for bits in 4..=7u32 {
        let cfg = BistConfig::builder(Resolution::SIX_BIT, spec)
            .counter_bits(bits)
            .build()
            .expect("paper operating points are valid");
        let batch = Batch::paper_simulation(SEED, n);
        let res = run_equivalence(&batch, &cfg, 4096, workers);
        t.row_owned(vec![
            bits.to_string(),
            fmt_prob(res.bist.type_i_rate()),
            fmt_prob(res.bist.type_ii_rate()),
            fmt_prob(res.conventional.type_i_rate()),
            fmt_prob(res.conventional.type_ii_rate()),
            format!("{:.3}", res.agreement_rate()),
        ]);
        csv.push(vec![
            bits.to_string(),
            fmt_prob(res.bist.type_i_rate()),
            fmt_prob(res.bist.type_ii_rate()),
            fmt_prob(res.conventional.type_i_rate()),
            fmt_prob(res.conventional.type_ii_rate()),
            res.agreement_rate().to_string(),
        ]);
        if bits == 7 {
            println!(
                "paper's claim at 7 bits: BIST ≈ conventional — type I {} vs {}, type II {} vs {}, agreement {:.1}%",
                fmt_prob(res.bist.type_i_rate()),
                fmt_prob(res.conventional.type_i_rate()),
                fmt_prob(res.bist.type_ii_rate()),
                fmt_prob(res.conventional.type_ii_rate()),
                res.agreement_rate() * 100.0
            );
        }
    }
    println!("{t}");
    let path = sc.csv(
        "conventional_equiv.csv",
        &[
            "counter_bits",
            "bist_type_i",
            "bist_type_ii",
            "conv_type_i",
            "conv_type_ii",
            "agreement",
        ],
        &csv,
    );
    eprintln!("wrote {}", path.display());
}
