//! Runs the 15 paper-reproduction binaries in sequence with reduced
//! batch sizes suitable for a quick end-to-end regeneration, capturing
//! each binary's stdout into `bench/out/repro_all.txt` and the
//! per-experiment wall times into `bench/out/repro_all.json`.
//!
//! The children inherit `BIST_WORKERS` (default: all cores), so the
//! whole sweep runs parallel by default. For publication-quality
//! intervals, run the individual binaries with larger `BIST_*` batch
//! knobs instead.

use bist_bench::Scenario;
use std::fs;
use std::io::Write as _;
use std::process::Command;
use std::time::Instant;

const BINS: [&str; 14] = [
    "table1",
    "table2",
    "figure6",
    "figure7",
    "yield30",
    "qmin_table",
    "counter_tradeoff",
    "sigma_sweep",
    "noise_ablation",
    "figure3",
    "test_economics",
    "architectures",
    "resolution_scaling",
    "dynamic_screening",
];
const SLOW_EXTRA: &str = "conventional_equiv";

fn main() {
    // Exit AFTER the scenario completes so a failing experiment still
    // leaves the repro_all.json perf record (with the wall times of the
    // experiments that did succeed) on disk.
    let mut ok = true;
    Scenario::run("repro_all", |sc| ok = run(sc));
    if !ok {
        std::process::exit(1);
    }
}

fn run(sc: &mut Scenario) -> bool {
    let out_path = bist_bench::out_dir().join("repro_all.txt");
    let mut log = fs::File::create(&out_path).expect("create log");
    let quick_env = [
        ("BIST_SIM_BATCH", "1500"),
        ("BIST_MEAS_BATCH", "1500"),
        ("BIST_FAULTY_DEVICES", "1500"),
        ("BIST_MC_BATCH", "1500"),
        ("BIST_BATCH", "6000"),
    ];
    let mut failures = Vec::new();
    for bin in BINS.iter().chain(std::iter::once(&SLOW_EXTRA)) {
        // The equivalence experiment runs 4096-sample histograms per
        // device; trim its batch further.
        let mut cmd = Command::new(
            std::env::current_exe()
                .expect("self path")
                .with_file_name(bin),
        );
        for (k, v) in quick_env {
            cmd.env(k, v);
        }
        if *bin == SLOW_EXTRA {
            cmd.env("BIST_BATCH", "400");
        }
        println!("=== {bin} ===");
        let start = Instant::now();
        match cmd.output() {
            Ok(output) => {
                let secs = start.elapsed().as_secs_f64();
                let stdout = String::from_utf8_lossy(&output.stdout);
                println!("{stdout}");
                println!("--- {bin}: {secs:.2} s");
                writeln!(log, "=== {bin} ===\n{stdout}--- {bin}: {secs:.2} s\n")
                    .expect("write log");
                sc.metric(bin, secs);
                if !output.status.success() {
                    failures.push(bin.to_string());
                    let stderr = String::from_utf8_lossy(&output.stderr);
                    eprintln!("{bin} FAILED:\n{stderr}");
                }
            }
            Err(e) => {
                failures.push(bin.to_string());
                eprintln!("could not launch {bin}: {e} (build with `cargo build -p bist-bench --bins` first)");
            }
        }
    }
    println!("log written to {}", out_path.display());
    if !failures.is_empty() {
        eprintln!("failed experiments: {failures:?}");
        sc.metric_str("failed_experiments", &failures.join(","));
        return false;
    }
    true
}
