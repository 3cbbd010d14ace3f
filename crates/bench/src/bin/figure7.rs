//! Experiment E5: regenerates **Figure 7** — P(type I) and P(type II) as
//! a function of the step size Δs over the 4-bit-counter region, under
//! the stringent ±0.5 LSB spec.
//!
//! The curves oscillate as the count window [i_min, i_max] snaps across
//! integer boundaries — exactly why the paper warns the error rates are
//! "sensitive to small changes in the step size" and why its measured
//! ramp (Δs off by ~0.002 LSB) doubled the type-I rate. A Monte-Carlo
//! overlay validates the theory at selected points.
//!
//! Knobs: `BIST_MC_BATCH` (devices per MC point, default 3000; 0
//! disables the overlay), `BIST_WORKERS` (0 = all cores).

use bist_bench::{AsciiPlot, Scenario, SEED};
use bist_mc::tables::{figure7, figure7_mc};

fn main() {
    Scenario::run("figure7", run);
}

fn run(sc: &mut Scenario) {
    let pts = figure7(4, 161);
    let mc_batch = sc.usize_knob("BIST_MC_BATCH", 3000);
    let workers = sc.workers();

    let ti: Vec<(f64, f64)> = pts.iter().map(|p| (p.delta_s, p.type_i)).collect();
    let tii: Vec<(f64, f64)> = pts.iter().map(|p| (p.delta_s, p.type_ii)).collect();
    let mut plot = AsciiPlot::new(
        "Figure 7 — P(type I) = I, P(type II) = 2 vs Δs [LSB] (4-bit counter region)",
        100,
        24,
    )
    .series('I', &ti)
    .series('2', &tii);

    let mut mc_rows = Vec::new();
    if mc_batch > 0 {
        let probe: Vec<f64> = [0.0895, 0.0909, 0.0953, 0.1034, 0.1120, 0.125, 0.1395]
            .into_iter()
            .collect();
        let mc = figure7_mc(&probe, mc_batch, SEED, workers);
        let mc_ti: Vec<(f64, f64)> = mc
            .iter()
            .filter_map(|(ds, p1, _)| p1.point().map(|p| (*ds, p)))
            .collect();
        plot = plot.series('*', &mc_ti);
        println!("Monte-Carlo overlay ({mc_batch} devices/point): * = type I");
        for (ds, p1, p2) in &mc {
            println!("  Δs {ds:.4}: type I {p1}, type II {p2}");
            mc_rows.push(vec![
                ds.to_string(),
                p1.point().unwrap_or(f64::NAN).to_string(),
                p2.point().unwrap_or(f64::NAN).to_string(),
            ]);
        }
        println!();
    }
    println!("{}", plot.render());

    // Highlight the paper's chosen operating point.
    let near = pts
        .iter()
        .min_by(|a, b| {
            (a.delta_s - 0.091)
                .abs()
                .partial_cmp(&(b.delta_s - 0.091).abs())
                .expect("finite")
        })
        .expect("non-empty sweep");
    println!(
        "paper's operating point Δs≈0.091: window [{}, {}], type I {:.4}, type II {:.4}",
        near.i_min, near.i_max, near.type_i, near.type_ii
    );

    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.delta_s.to_string(),
                p.type_i.to_string(),
                p.type_ii.to_string(),
                p.i_min.to_string(),
                p.i_max.to_string(),
            ]
        })
        .collect();
    let path = sc.csv(
        "figure7.csv",
        &["delta_s_lsb", "type_i", "type_ii", "i_min", "i_max"],
        &rows,
    );
    eprintln!("wrote {}", path.display());
    if !mc_rows.is_empty() {
        let path = sc.csv(
            "figure7_mc.csv",
            &["delta_s_lsb", "mc_type_i", "mc_type_ii"],
            &mc_rows,
        );
        eprintln!("wrote {}", path.display());
    }
}
