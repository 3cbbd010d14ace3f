//! Shared helpers for the reproduction binaries: the [`scenario`]
//! runner, ASCII plotting, CSV emission and output-directory management.
//!
//! Every binary in this crate regenerates one table or figure of the
//! ED&TC 1997 paper (`repro_all` runs the whole set; the README's
//! reproduction section lists them), prints
//! it next to the published values, and drops a CSV plus a
//! machine-readable `<name>.json` record under `bench/out/`. The fleet
//! binaries check verdicts: each exits 1 on a divergence, and the only
//! speeds they gate are ratios of two engines timed in the same run
//! ([`speed_ratio`]); absolute devices/s are fleetbench's to measure.
//! The binaries run their Monte-Carlo batches in parallel by default;
//! `BIST_WORKERS` overrides the worker count (0 = available
//! parallelism) alongside the `BIST_*` batch knobs. A knob set to a value
//! that does not parse stops the binary. Every binary seeds its devices
//! from [`SEED`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod scenario;

pub use scenario::Scenario;

use std::fmt::{self, Write as _};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Returns the output directory for experiment artifacts (`bench/out/`
/// next to the workspace root), creating it if needed.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir).expect("create bench/out");
    dir
}

/// Writes rows of `(header, rows)` as a CSV file under [`out_dir`].
///
/// # Panics
///
/// Panics on I/O errors (acceptable in experiment binaries).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = out_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    path
}

/// The master seed every reproduction binary draws its devices from.
pub const SEED: u64 = 1997;

/// Reads an environment variable as usize with a default — the knob used
/// by the binaries for batch sizes (e.g. `BIST_BATCH=500 cargo run ...`).
///
/// # Panics
///
/// Panics, naming the variable and its value, if it is set but does not
/// parse as a `usize`.
pub fn env_usize(name: &str, default: usize) -> usize {
    parse_knob(name, env_raw(name).as_deref(), default)
}

/// The raw value of an environment variable, `None` when unset. A value
/// that is not UTF-8 comes back lossily converted, so it fails to parse
/// rather than reading as unset.
fn env_raw(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// Parses a knob's raw value: unset takes `default`, and a set value that
/// does not parse panics, so a mistyped knob never runs as the default.
fn parse_knob(name: &str, raw: Option<&str>, default: usize) -> usize {
    match raw {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} does not parse as a number")),
    }
}

/// Extracts the numeric metrics of a `Scenario` perf record (the flat
/// JSON written to `bench/out/<name>.json`): every `"key": number`
/// pair of its `"metrics"` object, in file order. String and `null`
/// metrics are skipped. Tolerant of the record's exact whitespace but
/// specific to this crate's own flat format — not a general JSON
/// parser.
pub fn record_metrics(json: &str) -> Vec<(String, f64)> {
    let Some(start) = json.find("\"metrics\":") else {
        return Vec::new();
    };
    let rest = &json[start + "\"metrics\":".len()..];
    let Some(open) = rest.find('{') else {
        return Vec::new();
    };
    let body = &rest[open + 1..];
    let Some(end) = flat_object_end(body) else {
        return Vec::new();
    };
    parse_flat_pairs(&body[..end])
}

/// Index of the `}` closing a flat (depth-1) object body, respecting
/// string quoting.
fn flat_object_end(body: &str) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '}' if !in_string => return Some(i),
            _ => {}
        }
    }
    None
}

/// Splits a flat object body into `(key, numeric value)` pairs.
fn parse_flat_pairs(body: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(k0) = rest.find('"') {
        let after_key = &rest[k0 + 1..];
        let Some(k1) = after_key.find('"') else { break };
        let key = &after_key[..k1];
        let after = &after_key[k1 + 1..];
        let Some(colon) = after.find(':') else { break };
        let value_str = &after[colon + 1..];
        // The value ends at the next comma outside quotes, or the end.
        let mut in_string = false;
        let mut escaped = false;
        let mut end = value_str.len();
        for (i, c) in value_str.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                ',' if !in_string => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        let raw = value_str[..end].trim();
        if let Ok(v) = raw.parse::<f64>() {
            out.push((key.to_owned(), v));
        }
        rest = &value_str[end..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    out
}

/// The fleet bins' `report_checksum`: FNV-1a over the text written
/// into it. Each report is written as one `"{device}:{verdict:?};"`
/// record ([`Fnv::fold_reports`]), so the checksum is order-sensitive
/// and two runs at different worker counts can be diffed from their
/// JSON records alone.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one `"{device}:{verdict:?};"` record per report, in order.
    pub fn fold_reports<V: fmt::Debug>(&mut self, reports: &[(usize, V)]) {
        for (device, verdict) in reports {
            write!(self, "{device}:{verdict:?};").expect("hashing text cannot fail");
        }
    }

    /// The checksum of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// Pairs of passes [`speed_ratio`] times; odd, so the median is one
/// pair's ratio.
const RATIO_PAIRS: usize = 15;

/// How many times faster `candidate` runs than `base`, where one call of
/// either screens the same devices: the median, over `RATIO_PAIRS` (15)
/// pairs, of one `base` pass's wall time over one `candidate` pass's.
/// One warm-up pass of each runs first, and the side that runs first
/// alternates from pair to pair, so a shift in host load falls on both
/// sides alike and one disturbed pair cannot move the result.
pub fn speed_ratio(mut base: impl FnMut(), mut candidate: impl FnMut()) -> f64 {
    fn timed(pass: &mut impl FnMut()) -> f64 {
        let start = Instant::now();
        pass();
        start.elapsed().as_secs_f64().max(1e-9)
    }
    base();
    candidate();
    let mut ratios: Vec<f64> = (0..RATIO_PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let b = timed(&mut base);
                b / timed(&mut candidate)
            } else {
                let c = timed(&mut candidate);
                timed(&mut base) / c
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[RATIO_PAIRS / 2]
}

/// Prints a differential sweep's first ten divergences, then how many
/// more there were. A non-empty `label` tags every line (`DIVERGENCE
/// (label): …`).
pub fn report_divergences<D: fmt::Display>(divergences: &[D], label: &str) {
    let tag = if label.is_empty() {
        String::new()
    } else {
        format!(" ({label})")
    };
    for d in divergences.iter().take(10) {
        println!("DIVERGENCE{tag}: {d}");
    }
    if divergences.len() > 10 {
        println!("... and {} more{tag}", divergences.len() - 10);
    }
}

/// A minimal ASCII scatter/line plot for the figure binaries.
#[derive(Debug, Clone)]
pub struct AsciiPlot {
    width: usize,
    height: usize,
    log_y: bool,
    series: Vec<(char, Vec<(f64, f64)>)>,
    title: String,
}

impl AsciiPlot {
    /// Creates a plot canvas.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is below 8.
    pub fn new(title: &str, width: usize, height: usize) -> Self {
        assert!(width >= 8 && height >= 8, "canvas too small");
        AsciiPlot {
            width,
            height,
            log_y: false,
            series: Vec::new(),
            title: title.to_owned(),
        }
    }

    /// Switches the y axis to log scale (non-positive values dropped).
    pub fn log_y(mut self) -> Self {
        self.log_y = true;
        self
    }

    /// Adds a series drawn with `marker`.
    pub fn series(mut self, marker: char, points: &[(f64, f64)]) -> Self {
        self.series.push((marker, points.to_vec()));
        self
    }

    /// Renders the plot.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .filter(|&(_, y)| !self.log_y || y > 0.0)
            .collect();
        if pts.is_empty() {
            return format!("{}\n(no data)\n", self.title);
        }
        let tx = |y: f64| if self.log_y { y.log10() } else { y };
        let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &pts {
            x_lo = x_lo.min(x);
            x_hi = x_hi.max(x);
            y_lo = y_lo.min(tx(y));
            y_hi = y_hi.max(tx(y));
        }
        if (x_hi - x_lo).abs() < 1e-300 {
            x_hi = x_lo + 1.0;
        }
        if (y_hi - y_lo).abs() < 1e-300 {
            y_hi = y_lo + 1.0;
        }
        let mut grid = vec![vec![' '; self.width]; self.height];
        for (marker, series) in &self.series {
            for &(x, y) in series {
                if self.log_y && y <= 0.0 {
                    continue;
                }
                let cx = ((x - x_lo) / (x_hi - x_lo) * (self.width - 1) as f64).round() as usize;
                let cy =
                    ((tx(y) - y_lo) / (y_hi - y_lo) * (self.height - 1) as f64).round() as usize;
                grid[self.height - 1 - cy][cx] = *marker;
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let y_label = |v: f64| {
            if self.log_y {
                format!("{:>9.2e}", 10f64.powf(v))
            } else {
                format!("{v:>9.4}")
            }
        };
        for (i, row) in grid.iter().enumerate() {
            let frac = 1.0 - i as f64 / (self.height - 1) as f64;
            let yv = y_lo + frac * (y_hi - y_lo);
            let label = if i == 0 || i == self.height - 1 || i == self.height / 2 {
                y_label(yv)
            } else {
                " ".repeat(9)
            };
            out.push_str(&format!("{label} |{}\n", row.iter().collect::<String>()));
        }
        out.push_str(&format!(
            "{} +{}\n{} {:<12.4}{:>width$.4}\n",
            " ".repeat(9),
            "-".repeat(self.width),
            " ".repeat(9),
            x_lo,
            x_hi,
            width = self.width.saturating_sub(12),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_exists() {
        assert!(out_dir().is_dir());
    }

    #[test]
    fn csv_round_trip() {
        let p = write_csv("test_tmp.csv", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let content = fs::read_to_string(&p).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        fs::remove_file(p).ok();
    }

    #[test]
    fn env_usize_default() {
        assert_eq!(env_usize("BIST_SURELY_UNSET_VAR", 42), 42);
    }

    #[test]
    fn knob_parses_set_values() {
        assert_eq!(parse_knob("BIST_WORKERS", Some("4"), 0), 4);
        assert_eq!(parse_knob("BIST_DEVICES", None, 600), 600);
    }

    #[test]
    fn knob_rejects_unparsable_values() {
        for raw in ["four", "1e3", ""] {
            let panic = std::panic::catch_unwind(|| parse_knob("BIST_DEVICES", Some(raw), 0))
                .expect_err(raw);
            let msg = panic.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains(&format!("BIST_DEVICES={raw:?}")), "{msg}");
        }
    }

    #[test]
    fn speed_ratio_reads_candidate_speed_over_base_speed() {
        let (mut base_passes, mut candidate_passes) = (0, 0);
        let ratio = speed_ratio(
            || {
                base_passes += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
            || candidate_passes += 1,
        );
        assert!(
            ratio > 10.0,
            "a 2 ms base against an empty candidate: {ratio}"
        );
        // One warm-up pass of each, then one pass of each per pair.
        assert_eq!(base_passes, RATIO_PAIRS + 1);
        assert_eq!(candidate_passes, RATIO_PAIRS + 1);
    }

    #[test]
    fn record_metrics_parses_the_scenario_format() {
        let json = "{\n  \"scenario\": \"x\",\n  \"elapsed_seconds\": 1.5,\n  \
                    \"knobs\": {\"BIST_DEVICES\": 100},\n  \
                    \"metrics\": {\"divergences\": 0, \"rate\": 0.975, \
                    \"note\": \"has, comma and } brace\", \"nan_metric\": null, \
                    \"devices_per_s\": 1234.5},\n  \"artifacts\": []\n}\n";
        let m = record_metrics(json);
        assert_eq!(
            m,
            vec![
                ("divergences".to_owned(), 0.0),
                ("rate".to_owned(), 0.975),
                ("devices_per_s".to_owned(), 1234.5),
            ]
        );
        assert!(record_metrics("not json").is_empty());
    }

    #[test]
    fn plot_renders_markers() {
        let p = AsciiPlot::new("demo", 40, 10)
            .series('x', &[(0.0, 0.0), (1.0, 1.0)])
            .series('o', &[(0.5, 0.5)]);
        let r = p.render();
        assert!(r.contains('x'));
        assert!(r.contains('o'));
        assert!(r.starts_with("demo\n"));
    }

    #[test]
    fn log_plot_drops_nonpositive() {
        let p = AsciiPlot::new("log", 40, 10)
            .log_y()
            .series('x', &[(0.0, 0.0), (1.0, 0.1), (2.0, 0.01)]);
        let r = p.render();
        assert!(r.contains('x'));
    }

    #[test]
    fn empty_plot_safe() {
        let p = AsciiPlot::new("empty", 40, 10);
        assert!(p.render().contains("no data"));
    }
}
