//! fleetbench — the repository's end-to-end fleet-screening benchmark.
//!
//! ```text
//! fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, so `setup_s` and `peak_rss_mib` belong to
//! that workload alone. With `--trace 0` it sets up (several times,
//! reporting the median), runs the timed phase, checks every verdict,
//! and prints the end-to-end metrics. With `--trace 1` it runs the
//! traced layer profile instead and prints the per-layer metrics. The
//! last line of standard output is always one JSON record; a run that
//! fails a check prints `"correct": false` and exits with code 1. See
//! README.md for the workloads, metrics and noise notes.

mod checksum;
mod record;
mod recorded;
mod serve;
mod stats;
mod trace;
mod tracer;
mod workloads;

use std::process::ExitCode;

use record::Record;
use tracer::Tracer;
use workloads::{
    cycle, timed_setup, FlashFullTest, Timed, ZooScreen, FLASH_BATCH, FLASH_DEVICES, ZOO_BATCH,
    ZOO_DEVICES,
};

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 3] = ["zoo_screen", "flash_full_test", "serve_tcp"];

/// Length of the timed slices whose median rate is `devices_per_s`.
const RATE_SLICE_S: f64 = 0.5;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--steady <runs>`: run the workload `runs` times as child
    /// processes on seeds `seed..seed + runs` and print each metric's
    /// spread instead of measuring in this process.
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut steady = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--steady" => {
                let runs: usize = value.parse().map_err(|e| format!("--steady: {e}"))?;
                if runs < 2 {
                    return Err("--steady needs at least 2 runs".into());
                }
                steady = Some(runs);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(recorded::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        steady,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            eprintln!(
                "usage: fleetbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--steady <runs>]",
                WORKLOADS.join("|")
            );
            eprintln!(
                "seeds {} (default) and {} (held out) have recorded digests",
                recorded::DEFAULT_SEED,
                recorded::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady(&args, runs);
    }
    let record = if args.trace {
        trace::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args)
    };
    println!("{}", record.to_json());
    if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Sets up, runs the timed phase and reports the end-to-end metrics.
fn end_to_end(args: &Args) -> Record {
    let (seed, seconds) = (args.seed, args.seconds);
    let off = Tracer::off();
    let (setups, timed) = match args.workload {
        "zoo_screen" => {
            let (setups, mut w) = timed_setup(SETUP_REPS, || ZooScreen::setup(seed), drop);
            (
                setups,
                cycle(seconds, ZOO_DEVICES, ZOO_BATCH, |r| w.screen(r, &off)),
            )
        }
        "flash_full_test" => {
            let (setups, mut w) = timed_setup(SETUP_REPS, || FlashFullTest::setup(seed), drop);
            (
                setups,
                cycle(seconds, FLASH_DEVICES, FLASH_BATCH, |r| w.screen(r, &off)),
            )
        }
        "serve_tcp" => {
            let (setups, mut w) = timed_setup(
                SETUP_REPS,
                || serve::ServeTcp::setup(seed),
                serve::ServeTcp::close,
            );
            let log = w.run(seconds);
            let timed = serve::timed(&w, &log);
            eprintln!(
                "serve_tcp: {} sent, acks {:?}, generator late p99 {:.1} us over {} sends",
                log.sent,
                log.acks,
                stats::percentile(&log.late_us, 99.0),
                log.late_us.len()
            );
            w.close();
            (setups, timed)
        }
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    };
    report(args, &setups, &timed)
}

fn report(args: &Args, setups: &[f64], timed: &Timed) -> Record {
    let t = timed.tally;
    let mut correct = timed.failed == 0 && t.devices > 0;
    if let Some(expected) = recorded::lookup(args.workload, args.seed) {
        if expected != recorded::Digest::of(&t) {
            eprintln!(
                "fleetbench: {} seed {} diverged from its recorded digest: got {:?}, recorded {:?}",
                args.workload,
                args.seed,
                recorded::Digest::of(&t),
                expected
            );
            correct = false;
        }
    }
    let rates = stats::slice_rates(&timed.batches, RATE_SLICE_S);
    let mut r = Record {
        correct,
        attempted: timed.attempted.max(1),
        failed: timed.failed,
        metrics: Vec::new(),
    };
    r.push("devices_per_s", stats::median(&rates), "devices/s");
    r.push(
        "mean_test_samples",
        t.samples as f64 / t.devices.max(1) as f64,
        "samples/device",
    );
    r.push(
        "escape_ppm",
        stats::jeffreys_ppm(t.escapes, t.devices),
        "ppm",
    );
    r.push(
        "overkill_ppm",
        stats::jeffreys_ppm(t.overkills, t.devices),
        "ppm",
    );
    r.push("setup_s", stats::median(setups), "s");
    r.push("peak_rss_mib", peak_rss_mib(), "MiB");
    let p50 = match timed.latency_window {
        Some(w) => stats::windowed_percentile(&timed.latencies_us, w, 50.0),
        None => stats::percentile(&timed.latencies_us, 50.0),
    };
    r.push("verdict_p50_us", p50, "us");
    eprintln!(
        "{} seed {}: {:?}, {} attempted, {} failed, rate slices {:.0?}, \
         {} latency samples, set-ups {:.3?} s",
        args.workload,
        args.seed,
        recorded::Digest::of(&t),
        timed.attempted,
        timed.failed,
        rates,
        timed.latencies_us.len(),
        setups
    );
    r
}

/// Runs the untraced workload `runs` times, one child process per seed,
/// and prints each end-to-end metric's median and interquartile spread
/// (as a share of the median) — the figures a benchmark bound is
/// checked against. Fails if any run fails.
fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut records = Vec::with_capacity(runs);
    for k in 0..runs as u64 {
        let seed = args.seed + k;
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run the benchmark as a child process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.lines().last().map(Record::from_json);
        match parsed {
            Some(Ok(r)) if out.status.success() && r.correct => records.push(r),
            other => {
                eprintln!("fleetbench: seed {seed} failed ({}): {other:?}", out.status);
                return ExitCode::from(1);
            }
        }
    }
    println!(
        "{} x {runs} seeds from {}, {} s each",
        args.workload, args.seed, args.seconds
    );
    println!(
        "{:<20} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for m in &records[0].metrics {
        let values: Vec<f64> = records.iter().filter_map(|r| r.get(&m.name)).collect();
        let [q1, q2, q3] = stats::quartiles(&values);
        println!(
            "{:<20} {q1:>14.4} {q2:>14.4} {q3:>14.4} {:>8.4}",
            m.name,
            stats::relative_spread(&values)
        );
    }
    ExitCode::SUCCESS
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
