//! Device zoo: one mixed fleet of flash, iid-width, SAR and pipeline
//! converters screened end-to-end through the `DeviceSource` seam —
//! the paper's architecture-agnostic claim, exercised literally. The
//! BIST only watches output bits, so the same screener (full-sweep and
//! sequenced), the same batch engines and the same worker pool judge
//! every architecture; only the mismatch physics behind each transfer
//! function differs.
//!
//! The second act runs a per-architecture differential sweep: every
//! architecture's sequenced verdicts latch identically on the
//! behavioural and the gate-accurate RTL backends.
//!
//! Run with: `cargo run --release --example device_zoo`

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::report::{fmt_prob, Table};
use bist_core::screener::{Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_core::source::{Architecture, Zoo};
use bist_mc::differential::run_arch_differential;

const FLEET: usize = 240;
const ZOO_SEED: u64 = 7;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let zoo = Zoo::paper().with_seed(ZOO_SEED);
    let census = zoo.census(FLEET);
    println!(
        "device zoo: {FLEET} devices dealt across {} architectures",
        zoo.sources().len()
    );
    for arch in Architecture::ALL {
        println!(
            "  {:<8} {:>4} devices  (DNL signature: {})",
            arch.label(),
            census[arch.index()],
            arch.dnl_signature(),
        );
    }
    println!();

    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()?;
    let workload = Workload::static_ramp(config);

    // Act one: the whole mixed fleet through one `Screener::run` —
    // full sweep first (ground truth), then sequenced. The engine
    // neither knows nor cares which architecture each device is.
    let full = Screener::new(workload).workers(0).run(zoo.fleet(FLEET));
    let seq = Screener::new(workload)
        .sequencer(SequencerConfig::default())
        .workers(0)
        .run(zoo.fleet(FLEET));

    let mut table = Table::new(&[
        "arch",
        "devices",
        "yield",
        "early stops",
        "mean samples",
        "agree",
    ])
    .with_title("mixed fleet, full sweep vs sequenced (counter 5, ±0.5 LSB)");
    for arch in Architecture::ALL {
        let (mut n, mut good, mut stops, mut samples, mut agree) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for (f, s) in full.iter().zip(&seq) {
            assert_eq!(f.device, s.device);
            if zoo.architecture_of(f.device) != arch {
                continue;
            }
            let outcome = s.verdict.as_static().expect("static workload");
            n += 1;
            good += u64::from(f.verdict.accepted());
            stops += u64::from(outcome.decision.stops());
            samples += outcome.samples_consumed();
            agree += u64::from(f.verdict.accepted() == s.verdict.accepted());
        }
        table.row_owned(vec![
            arch.label().to_string(),
            n.to_string(),
            fmt_prob(Some(good as f64 / n as f64)),
            fmt_prob(Some(stops as f64 / n as f64)),
            format!("{:.0}", samples as f64 / n as f64),
            format!("{agree}/{n}"),
        ]);
    }
    println!("{table}");

    // Act two: per-architecture differential sweep (full behavioural
    // ground truth + sequenced behavioural + sequenced RTL on
    // bit-identical streams).
    let diff = run_arch_differential(ZOO_SEED, &SequencerConfig::default(), 6, 0);
    assert!(diff.is_clean(), "behavioural↔RTL divergence: {diff}");
    println!(
        "differential: {} comparisons, {} divergences, drift I {:.2e} / II {:.2e}",
        diff.comparisons,
        diff.divergences.len(),
        diff.type_i_drift(),
        diff.type_ii_drift(),
    );
    Ok(())
}
