//! Experiment E13 (illustrative): regenerates **Figure 3** — "LSB
//! contains linearity information".
//!
//! Sweeps a ramp through an ideal and a non-ideal converter and plots
//! the resulting LSB waveform against input voltage: for the ideal
//! transfer the LSB is a uniform square wave; code-width errors show up
//! directly as stretched/compressed LSB half-periods — the observation
//! the whole BIST rests on.

use bist_adc::sampler::SamplingConfig;
use bist_adc::signal::Ramp;
use bist_adc::stream::CodeStream;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use bist_bench::Scenario;

fn lsb_row(adc: &TransferFunction, samples: usize) -> (Vec<u32>, Vec<bool>) {
    let ramp = Ramp::new(Volts(-0.02), 1.0);
    let codes: Vec<u32> = CodeStream::noiseless(adc, &ramp, SamplingConfig::new(1000.0, samples))
        .map(|c| c.0)
        .collect();
    let lsb = codes.iter().map(|c| c & 1 == 1).collect();
    (codes, lsb)
}

fn render(label: &str, bits: &[bool]) -> String {
    let wave: String = bits.iter().map(|&b| if b { '▔' } else { '▁' }).collect();
    format!("{label:>9} {wave}")
}

fn main() {
    Scenario::run("figure3", run);
}

fn run(sc: &mut Scenario) {
    // A 3-bit world keeps the figure readable, like the paper's sketch.
    let res = Resolution::new(3).expect("3 bits valid");
    let ideal = TransferFunction::ideal(res, Volts(0.0), Volts(0.8));

    // Non-ideal: code 2 wide (+0.5 LSB), code 3 narrow (−0.5 LSB),
    // mirroring Figure 3's "actual transfer function".
    let mut t: Vec<f64> = (1..=7).map(|k| k as f64 * 0.1).collect();
    t[2] += 0.05;
    let actual = TransferFunction::from_transitions(res, Volts(0.0), Volts(0.8), t);

    let samples = 900;
    let (ideal_codes, ideal_lsb) = lsb_row(&ideal, samples);
    let (actual_codes, actual_lsb) = lsb_row(&actual, samples);

    println!("Figure 3 — the LSB waveform under a ramp carries the code widths\n");
    let stride = 10; // compress for display
    let compress = |bits: &[bool]| -> Vec<bool> { bits.iter().step_by(stride).copied().collect() };
    println!("{}", render("ideal", &compress(&ideal_lsb)));
    println!("{}", render("actual", &compress(&actual_lsb)));
    println!("\n(code 2 widened by +0.5 LSB: its LSB half-period stretches; code 3");
    println!(" narrows correspondingly — measuring those run lengths IS the DNL test)");

    // Run-length summary, the quantitative content of the figure.
    let run_lengths = |bits: &[bool]| -> Vec<usize> {
        let mut runs = Vec::new();
        let mut len = 1;
        for w in bits.windows(2) {
            if w[0] == w[1] {
                len += 1;
            } else {
                runs.push(len);
                len = 1;
            }
        }
        runs
    };
    println!("\nLSB run lengths (samples per code):");
    println!("  ideal : {:?}", run_lengths(&ideal_lsb));
    println!("  actual: {:?}", run_lengths(&actual_lsb));

    let rows: Vec<Vec<String>> = ideal_codes
        .iter()
        .zip(&actual_codes)
        .enumerate()
        .map(|(i, (ic, ac))| {
            vec![
                (i as f64 * 0.001).to_string(),
                ic.to_string(),
                ac.to_string(),
            ]
        })
        .collect();
    let path = sc.csv(
        "figure3.csv",
        &["time_s", "ideal_code", "actual_code"],
        &rows,
    );
    eprintln!("wrote {}", path.display());
}
