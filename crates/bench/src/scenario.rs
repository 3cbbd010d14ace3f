//! Shared scenario runner for the reproduction binaries.
//!
//! Every binary in this crate follows the same shape: read a few
//! `BIST_*` environment knobs, run an experiment (parallel by default —
//! `BIST_WORKERS` overrides the worker count, `0` meaning the available
//! parallelism), print a table or figure, and drop artifacts under
//! `bench/out/`. [`Scenario`] centralises that boilerplate and, on top
//! of it, records a machine-readable perf record
//! (`bench/out/<name>.json`) with the wall-clock time, the knob values
//! actually used, any metrics the binary reports, and the artifact
//! paths — the run-over-run trajectory the CI uploads.

use crate::{env_usize, out_dir, write_csv};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
enum Value {
    Num(f64),
    Int(u64),
    Str(String),
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::Num(x) if x.is_finite() => format!("{x}"),
            Value::Num(_) => "null".to_owned(),
            Value::Int(n) => format!("{n}"),
            Value::Str(s) => format!("\"{}\"", escape(s)),
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_object(pairs: &[(String, Value)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", escape(k), v.render()))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One reproduction run: knob handling, wall-clock accounting and the
/// `bench/out/<name>.json` perf record.
#[derive(Debug)]
pub struct Scenario {
    name: &'static str,
    start: Instant,
    knobs: Vec<(String, Value)>,
    metrics: Vec<(String, Value)>,
    artifacts: Vec<String>,
}

impl Scenario {
    /// Runs `body` as the scenario `name`, then emits the perf record
    /// and a wall-time line.
    pub fn run(name: &'static str, body: impl FnOnce(&mut Scenario)) {
        let mut sc = Scenario {
            name,
            start: Instant::now(),
            knobs: Vec::new(),
            metrics: Vec::new(),
            artifacts: Vec::new(),
        };
        body(&mut sc);
        let path = sc.finish();
        eprintln!("wrote {}", path.display());
    }

    /// Reads a `usize` environment knob with a default, recording the
    /// value used in the perf record.
    pub fn usize_knob(&mut self, env: &str, default: usize) -> usize {
        let v = env_usize(env, default);
        self.knobs.push((env.to_owned(), Value::Int(v as u64)));
        v
    }

    /// The worker-thread knob (`BIST_WORKERS`, default 0 = available
    /// parallelism) — the binaries hand this to the `bist-mc` fan-out.
    pub fn workers(&mut self) -> usize {
        self.usize_knob("BIST_WORKERS", 0)
    }

    /// Records a numeric metric (throughput, agreement rate, …).
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.push((key.to_owned(), Value::Num(value)));
    }

    /// Records a count metric.
    pub fn metric_count(&mut self, key: &str, value: u64) {
        self.metrics.push((key.to_owned(), Value::Int(value)));
    }

    /// Records a string metric.
    pub fn metric_str(&mut self, key: &str, value: &str) {
        self.metrics
            .push((key.to_owned(), Value::Str(value.to_owned())));
    }

    /// Writes a CSV artifact under `bench/out/` (see
    /// [`crate::write_csv`]) and records it in the perf record.
    pub fn csv(&mut self, name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
        let path = write_csv(name, header, rows);
        self.artifacts.push(name.to_owned());
        path
    }

    /// Seconds elapsed since the scenario started.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn finish(self) -> PathBuf {
        let elapsed = self.elapsed_seconds();
        println!("[{}] wall time {elapsed:.2} s", self.name);
        let artifacts: Vec<String> = self
            .artifacts
            .iter()
            .map(|a| format!("\"{}\"", escape(a)))
            .collect();
        let json = format!(
            "{{\n  \"scenario\": \"{}\",\n  \"elapsed_seconds\": {elapsed},\n  \
             \"knobs\": {},\n  \"metrics\": {},\n  \"artifacts\": [{}]\n}}\n",
            escape(self.name),
            render_object(&self.knobs),
            render_object(&self.metrics),
            artifacts.join(", "),
        );
        let path = out_dir().join(format!("{}.json", self.name));
        fs::write(&path, json).expect("write perf record");
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_emits_perf_record() {
        Scenario::run("scenario_selftest", |sc| {
            let n = sc.usize_knob("BIST_SURELY_UNSET_VAR", 7);
            assert_eq!(n, 7);
            sc.metric("throughput", 123.5);
            sc.metric_count("devices", 7);
            sc.metric_str("note", "quoted \"text\"");
            let p = sc.csv("scenario_selftest.csv", &["a"], &[vec!["1".into()]]);
            assert!(p.is_file());
        });
        let record = out_dir().join("scenario_selftest.json");
        let json = fs::read_to_string(&record).unwrap();
        assert!(json.contains("\"scenario\": \"scenario_selftest\""));
        assert!(json.contains("\"BIST_SURELY_UNSET_VAR\": 7"));
        assert!(json.contains("\"throughput\": 123.5"));
        assert!(json.contains("\"note\": \"quoted \\\"text\\\"\""));
        assert!(json.contains("\"scenario_selftest.csv\""));
        assert!(json.contains("\"elapsed_seconds\": "));
        fs::remove_file(record).ok();
        fs::remove_file(out_dir().join("scenario_selftest.csv")).ok();
    }

    #[test]
    fn json_escaping_handles_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_metric_renders_null() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(1.5).render(), "1.5");
    }
}
