//! Machine-readable report rendering: the flat-JSON record shape of
//! the bench binaries (`"metrics"` is a flat object of numeric gauges —
//! parseable by `bist_bench::record_metrics`), plus a `diagnostics`
//! array for tooling.

use crate::rules::Rule;
use crate::workspace::Analysis;

/// Minimal JSON string escaping for messages and paths.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the analysis as a flat-JSON perf-record-shaped report.
///
/// Layout mirrors the `Scenario` records under `bench/out/`: a
/// `"scenario"` name, a flat `"metrics"` object (every value numeric —
/// the part `record_metrics` reads), then the diagnostics array.
pub fn render_json(a: &Analysis) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"scenario\": \"bist_lint\",\n  \"metrics\": {\n");
    s.push_str(&format!("    \"violations\": {},\n", a.diagnostics.len()));
    for rule in Rule::ALL {
        s.push_str(&format!(
            "    \"violations_{}\": {},\n",
            rule.name().replace('-', "_"),
            a.count(rule)
        ));
    }
    s.push_str(&format!("    \"files_scanned\": {},\n", a.files_scanned));
    s.push_str(&format!(
        "    \"hot_path_regions\": {},\n",
        a.stats.hot_regions
    ));
    s.push_str(&format!(
        "    \"allow_markers\": {},\n",
        a.stats.allow_markers
    ));
    s.push_str(&format!(
        "    \"unsafe_sites\": {},\n",
        a.stats.unsafe_sites
    ));
    s.push_str(&format!(
        "    \"ordering_sites\": {},\n",
        a.stats.ordering_sites
    ));
    s.push_str(&format!(
        "    \"target_feature_kernels\": {},\n",
        a.index.kernels.len()
    ));
    s.push_str(&format!(
        "    \"target_feature_call_sites\": {},\n",
        a.stats.kernel_calls
    ));
    s.push_str(&format!("    \"pub_items\": {},\n", a.stats.pub_items));
    for (krate, lines) in &a.rust_lines {
        s.push_str(&format!("    \"rust_lines_{krate}\": {lines},\n"));
    }
    let total: usize = a.rust_lines.values().sum();
    s.push_str(&format!("    \"rust_lines_total\": {total}\n"));
    s.push_str("  },\n  \"diagnostics\": [");
    for (i, d) in a.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            d.rule,
            esc(&d.file),
            d.line,
            esc(&d.message)
        ));
    }
    if !a.diagnostics.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    #[test]
    fn clean_report_is_flat_and_zero() {
        let a = Analysis {
            files_scanned: 3,
            ..Analysis::default()
        };
        let json = render_json(&a);
        assert!(json.contains("\"violations\": 0"));
        assert!(json.contains("\"violations_hot_path_alloc\": 0"));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"diagnostics\": []"));
    }

    #[test]
    fn diagnostics_render_with_escapes() {
        let mut a = Analysis::default();
        a.diagnostics.push(Diagnostic {
            file: "a.rs".into(),
            line: 7,
            rule: Rule::Determinism,
            message: "uses \"quotes\"".into(),
        });
        let json = render_json(&a);
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"violations_determinism\": 1"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"line\": 7"));
    }
}
