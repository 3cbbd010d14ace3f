//! Experiments E6/E7: the two yield anchors of §4.
//!
//! * E6 — "only 30 % of the flash A/D converters are good under the
//!   increased DNL specifications of ±0.5 LSB".
//! * E7 — "the probability that an A/D converter is faulty on the actual
//!   DNL specifications of ±1 LSB is very small (1.4×10⁻⁴)".
//!
//! Both are checked three ways: the closed-form yield model, a batch of
//! iid-width devices, and a batch of physically-modelled flash devices.
//!
//! Knobs: `BIST_BATCH` (default 20000), `BIST_WORKERS` (0 = all
//! cores).

use bist_adc::spec::LinearitySpec;
use bist_bench::{Scenario, SEED};
use bist_core::report::{fmt_prob, Table};
use bist_core::yield_model::YieldModel;
use bist_mc::batch::Batch;
use bist_mc::estimate::Proportion;

fn main() {
    Scenario::run("yield30", run);
}

fn run(sc: &mut Scenario) {
    let n = sc.usize_knob("BIST_BATCH", 20_000);
    let workers = sc.workers();
    let model = YieldModel::paper_device();
    let stringent = LinearitySpec::paper_stringent();
    let actual = LinearitySpec::paper_actual();

    let iid = Batch::paper_simulation(SEED, n);
    let mut flash = Batch::paper_measurement(SEED ^ 0xF1A5);
    flash.size = n;

    let iid_stringent = iid.classify(&stringent, workers);
    let flash_stringent = flash.classify(&stringent, workers);
    let iid_actual_faulty = Proportion::new(
        iid.size as u64 - iid.classify(&actual, workers).successes(),
        iid.size as u64,
    );
    let flash_actual_faulty = Proportion::new(
        flash.size as u64 - flash.classify(&actual, workers).successes(),
        flash.size as u64,
    );

    let mut t = Table::new(&["quantity", "paper", "theory", "iid MC", "flash MC"])
        .with_title(format!("Yield anchors (σ = 0.21 LSB, {n} devices/batch)").as_str());
    t.row_owned(vec![
        "P(good) @ ±0.5 LSB".into(),
        "~0.30".into(),
        format!("{:.4}", model.p_device_good(&stringent)),
        fmt_prob(iid_stringent.point()),
        fmt_prob(flash_stringent.point()),
    ]);
    t.row_owned(vec![
        "P(faulty) @ ±1 LSB".into(),
        "1.4e-4".into(),
        fmt_prob(Some(model.p_device_faulty(&actual))),
        fmt_prob(iid_actual_faulty.point()),
        fmt_prob(flash_actual_faulty.point()),
    ]);
    println!("{t}");
    println!("flash MC stringent yield interval: {flash_stringent}");
    println!("iid MC  stringent yield interval: {iid_stringent}");

    // Yield curve across spec limits (context for the two anchors).
    let limits: Vec<f64> = (3..=15).map(|i| i as f64 * 0.1).collect();
    let curve = model.yield_curve(&limits);
    println!("\nyield vs DNL limit (theory):");
    for (l, y) in &curve {
        println!("  ±{l:.1} LSB: {y:.6}");
    }
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|(l, y)| vec![l.to_string(), y.to_string()])
        .collect();
    let path = sc.csv(
        "yield_curve.csv",
        &["dnl_limit_lsb", "p_device_good"],
        &rows,
    );
    eprintln!("wrote {}", path.display());
}
