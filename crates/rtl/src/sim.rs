//! Minimal synchronous-simulation scaffolding: a clocked-block
//! convention and a text waveform tracer.
//!
//! Every sequential block in this crate follows the same convention: a
//! `tick(...)` method receives the cycle's input values, updates internal
//! state as a flip-flop would on the active clock edge, and returns the
//! *registered* outputs. Combinational helpers are plain `&self` methods.
//! Composition order inside a parent block therefore defines the netlist
//! topology explicitly — no global scheduler is needed for these shallow
//! datapaths, which keeps the simulation deterministic and fast.

use std::collections::BTreeMap;
use std::fmt;

/// Records named digital signals per cycle and renders them as an ASCII
/// waveform — a debugging aid for datapath bring-up and the `rtl_trace`
/// example.
///
/// # Examples
///
/// ```
/// use bist_rtl::sim::Trace;
///
/// let mut t = Trace::new();
/// for cycle in 0..4 {
///     t.sample(cycle, "lsb", (cycle % 2) as u64);
/// }
/// let wave = t.render();
/// assert!(wave.contains("lsb"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// signal name → (cycle, value) samples, kept sorted by insertion.
    signals: BTreeMap<String, Vec<(u64, u64)>>,
    last_cycle: u64,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records `value` for `signal` at `cycle`.
    pub fn sample(&mut self, cycle: u64, signal: &str, value: u64) {
        self.signals
            .entry(signal.to_owned())
            .or_default()
            .push((cycle, value));
        self.last_cycle = self.last_cycle.max(cycle);
    }

    /// Renders single-bit signals as `▁▔` waveforms and multi-bit
    /// signals as value sequences, one line per signal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self.signals.keys().map(|k| k.len()).max().unwrap_or(0);
        for (name, samples) in &self.signals {
            let is_single_bit = samples.iter().all(|&(_, v)| v <= 1);
            let mut line = format!("{name:>width$} ");
            if is_single_bit {
                let mut by_cycle = vec![None; (self.last_cycle + 1) as usize];
                for &(c, v) in samples {
                    by_cycle[c as usize] = Some(v);
                }
                let mut last = 0;
                for v in by_cycle {
                    let v = v.unwrap_or(last);
                    line.push(if v == 1 { '▔' } else { '▁' });
                    last = v;
                }
            } else {
                for &(c, v) in samples {
                    line.push_str(&format!("[{c}]{v} "));
                }
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_and_lists() {
        let mut t = Trace::new();
        t.sample(0, "a", 1);
        t.sample(1, "a", 0);
        t.sample(0, "count", 12);
        assert!(t.signals.keys().eq(["a", "count"]));
        assert_eq!(t.signals["a"], [(0, 1), (1, 0)]);
        assert!(!t.signals.contains_key("missing"));
    }

    #[test]
    fn render_bit_waveform() {
        let mut t = Trace::new();
        for c in 0..6 {
            t.sample(c, "clk", c % 2);
        }
        let r = t.render();
        assert!(r.contains("▁▔▁▔▁▔"), "{r}");
    }

    #[test]
    fn render_bus_values() {
        let mut t = Trace::new();
        t.sample(0, "cnt", 5);
        t.sample(1, "cnt", 6);
        let r = t.render();
        assert!(r.contains("[0]5"), "{r}");
        assert!(r.contains("[1]6"), "{r}");
    }

    #[test]
    fn render_holds_last_value_for_gaps() {
        let mut t = Trace::new();
        t.sample(0, "en", 1);
        t.sample(3, "en", 0);
        let r = t.render();
        // Cycles 1-2 hold the previous high level.
        assert!(r.contains("▔▔▔▁"), "{r}");
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert_eq!(Trace::new().render(), "");
    }
}
