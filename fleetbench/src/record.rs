//! The result line: `{"correct", "attempted", "failed", "metrics"}`,
//! rendered as one JSON object and parsed back by the same module, so
//! the round trip is tested rather than assumed.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Record {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: JSON has no spelling for it and a
    /// benchmark must never report one.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        });
    }

    /// The value of metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One-line JSON. Values print with Rust's shortest round-trip
    /// formatting, so every measured digit survives.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// Parses a line produced by [`Record::to_json`].
    pub fn from_json(line: &str) -> Result<Record, String> {
        let mut p = Parser {
            bytes: line.as_bytes(),
            at: 0,
        };
        let mut record = Record {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        let mut seen = 0u8;
        p.object(|p, key| {
            match key.as_str() {
                "correct" => record.correct = p.boolean()?,
                "attempted" => record.attempted = p.count()?,
                "failed" => record.failed = p.count()?,
                "metrics" => p.object(|p, name| {
                    let (mut value, mut unit) = (None, None);
                    p.object(|p, field| {
                        match field.as_str() {
                            "value" => value = Some(p.number()?),
                            "unit" => unit = Some(p.string()?),
                            other => return Err(format!("unknown metric field {other}")),
                        }
                        Ok(())
                    })?;
                    record.metrics.push(Metric {
                        name,
                        value: value.ok_or("metric without value")?,
                        unit: unit.ok_or("metric without unit")?,
                    });
                    Ok(())
                })?,
                other => return Err(format!("unknown key {other}")),
            }
            seen += 1;
            Ok(())
        })?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err("trailing bytes".into());
        }
        if seen != 4 {
            return Err(format!("expected 4 keys, found {seen}"));
        }
        Ok(record)
    }
}

/// A parser for exactly the JSON subset [`Record::to_json`] emits:
/// objects, plain strings (no escapes), numbers and booleans.
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            field(self, key)?;
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.at;
        while self.at < self.bytes.len() && self.bytes[self.at] != b'"' {
            if self.bytes[self.at] == b'\\' {
                return Err("escapes are not part of the record format".into());
            }
            self.at += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        self.eat(b'"')?;
        Ok(s.to_owned())
    }

    fn token(&mut self) -> &str {
        self.skip_ws();
        let start = self.at;
        while self.at < self.bytes.len()
            && !matches!(
                self.bytes[self.at],
                b',' | b'}' | b' ' | b'\n' | b'\t' | b'\r'
            )
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("")
    }

    fn number(&mut self) -> Result<f64, String> {
        let t = self.token();
        t.parse().map_err(|_| format!("bad number {t:?}"))
    }

    fn count(&mut self) -> Result<u64, String> {
        let t = self.token();
        t.parse().map_err(|_| format!("bad count {t:?}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        match self.token() {
            "true" => Ok(true),
            "false" => Ok(false),
            t => Err(format!("bad boolean {t:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut r = Record {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("devices_per_s", 3_412.718_281_828_459, "devices/s");
        r.push("setup_s", 0.812_7, "s");
        r.push("escape_ppm", 0.0, "ppm");
        r.push("tiny", 1.25e-7, "ratio");
        r
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let r = sample();
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = Record::from_json(&line).expect("parses");
        assert_eq!(back, r);
        for (a, b) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
        }
    }

    #[test]
    fn record_has_exactly_the_contract_keys() {
        let line = sample().to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        let empty = Record {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        };
        assert_eq!(Record::from_json(&empty.to_json()), Ok(empty));
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert!(Record::from_json("").is_err());
        assert!(Record::from_json("{\"correct\": true}").is_err());
        let line = sample().to_json();
        assert!(Record::from_json(&format!("{line} x")).is_err());
        assert!(Record::from_json(&line.replace("1000", "-3")).is_err());
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        sample().push("bad", f64::NAN, "s");
    }
}
