//! The one JSON writer of the benchmark: enough for the result line and the
//! span dump.

use std::fmt::Write;

/// Appends `s` to `out` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number with all its digits; JSON has no NaN or
/// infinity, so those are written as `0`.
pub fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The result line the driver reads: one JSON object on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        write_num(&mut out, m.value);
        out.push_str(", \"unit\": ");
        write_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\te\u{1}é");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001é\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        let mut s = String::new();
        write_num(&mut s, 1.203_456_789_012);
        s.push(' ');
        write_num(&mut s, f64::NAN);
        s.push(' ');
        write_num(&mut s, 3.0);
        assert_eq!(s, "1.203456789012 0 3");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("ops_per_s", 12.5, "ops/s"),
                Metric::new("setup_s", 0.25, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
