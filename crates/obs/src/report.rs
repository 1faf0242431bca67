//! Run-report JSON: a hand-rolled emitter (the workspace has a
//! no-serde rule) and a minimal validating parser used by the CI obs
//! smoke gate and the `obs_check` binary.
//!
//! # Schema (`aeropack-obs-report/v1`)
//!
//! ```json
//! {
//!   "schema": "aeropack-obs-report/v1",
//!   "enabled": true,
//!   "counters": {"solver.pcg.iterations": 1234},
//!   "histograms": {
//!     "solver.pcg.final_residual": {
//!       "count": 12, "sum": 1.2e-11, "min": 9.1e-13, "max": 1.1e-12,
//!       "outliers": 0,
//!       "buckets": [{"ge": 9.09e-13, "lt": 1.81e-12, "count": 12}]
//!     }
//!   },
//!   "spans": {
//!     "seb.power_sweep/seb.point{config=0}": {
//!       "count": 11, "total_s": 0.004, "mean_s": 3.6e-4, "max_s": 6.1e-4
//!     }
//!   }
//! }
//! ```

use std::fmt;

use crate::registry::Snapshot;

/// The schema tag stamped into (and required from) every run report.
pub const SCHEMA: &str = "aeropack-obs-report/v1";

/// Escapes `s` for use inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON number (finite inputs only; the registry
/// never stores non-finite aggregates).
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        format!("{:e}", v)
    }
}

/// Renders a registry snapshot as run-report JSON.
pub fn render(snap: &Snapshot, enabled: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"enabled\": {enabled},\n"));

    out.push_str("  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", escape(name), value));
    }
    if !snap.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"histograms\": {");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"outliers\": {}, \"buckets\": [",
            escape(&h.name),
            h.count,
            num(h.sum),
            num(h.min),
            num(h.max),
            h.outliers,
        ));
        for (j, (lo, hi, c)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"ge\": {}, \"lt\": {}, \"count\": {}}}",
                num(*lo),
                num(*hi),
                c
            ));
        }
        out.push_str("]}");
    }
    if !snap.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"spans\": {");
    for (i, s) in snap.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let total = s.total.as_secs_f64();
        let mean = if s.count > 0 {
            total / s.count as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"total_s\": {}, \"mean_s\": {}, \"max_s\": {}}}",
            escape(&s.path),
            s.count,
            num(total),
            num(mean),
            num(s.max.as_secs_f64()),
        ));
    }
    if !snap.spans.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

/// A parsed JSON value — the minimal model the validator needs.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object pairs, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            Self::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The items, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Why parsing or validation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError {
    /// Human-readable description with a byte offset where relevant.
    pub message: String,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ReportError {}

fn err<T>(message: impl Into<String>) -> Result<T, ReportError> {
    Err(ReportError {
        message: message.into(),
    })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, ReportError> {
        err(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ReportError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", b as char))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, ReportError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.fail("expected a JSON value"),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ReportError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return self.fail("expected ',' or '}' in object"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ReportError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.fail("expected ',' or ']' in array"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ReportError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.fail("bad \\u escape"),
                            }
                        }
                        _ => return self.fail("unsupported escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input came from a
                    // &str, so boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| ReportError {
                            message: format!("invalid UTF-8 at byte {}", self.pos),
                        })?
                        .chars()
                        .next()
                        .expect("non-empty rest");
                    out.push(s);
                    self.pos += s.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ReportError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            _ => self.fail("invalid number"),
        }
    }
}

/// Parses a JSON document (objects, arrays, strings, finite numbers,
/// booleans, null — everything the run report uses).
///
/// # Errors
///
/// Returns a [`ReportError`] naming the first offending byte offset.
pub fn parse(input: &str) -> Result<JsonValue, ReportError> {
    let mut p = Parser::new(input);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.fail("trailing garbage after document");
    }
    Ok(v)
}

/// What a validated run report contained.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSummary {
    /// Whether the report was produced with observability enabled.
    pub enabled: bool,
    /// Counter name → value pairs.
    pub counters: Vec<(String, u64)>,
    /// Number of histogram entries.
    pub histograms: usize,
    /// Number of span paths.
    pub spans: usize,
}

impl fmt::Display for ReportSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "enabled={} counters={} histograms={} spans={}",
            self.enabled,
            self.counters.len(),
            self.histograms,
            self.spans
        )
    }
}

impl ReportSummary {
    /// Value of a named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum over counters whose name starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Parses *and structurally validates* a run report: the schema tag,
/// the three top-level sections, non-negative integer counters, and
/// per-histogram/span field shapes.
///
/// # Errors
///
/// Returns a [`ReportError`] describing the first violation.
pub fn validate_report(input: &str) -> Result<ReportSummary, ReportError> {
    let doc = parse(input)?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .unwrap_or_default();
    if schema != SCHEMA {
        return err(format!("schema tag {schema:?} is not {SCHEMA:?}"));
    }
    let enabled = match doc.get("enabled") {
        Some(JsonValue::Bool(b)) => *b,
        _ => return err("missing boolean 'enabled'"),
    };
    let counters_obj = doc
        .get("counters")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| ReportError {
            message: "missing 'counters' object".into(),
        })?;
    let mut counters = Vec::with_capacity(counters_obj.len());
    for (name, value) in counters_obj {
        let n = value.as_number().ok_or_else(|| ReportError {
            message: format!("counter {name:?} is not a number"),
        })?;
        if n < 0.0 || n.fract() != 0.0 {
            return err(format!("counter {name:?} is not a non-negative integer"));
        }
        counters.push((name.clone(), n as u64));
    }
    let histograms = doc
        .get("histograms")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| ReportError {
            message: "missing 'histograms' object".into(),
        })?;
    for (name, h) in histograms {
        for field in ["count", "sum", "min", "max", "outliers"] {
            if h.get(field).and_then(JsonValue::as_number).is_none() {
                return err(format!("histogram {name:?} missing numeric {field:?}"));
            }
        }
        match h.get("buckets") {
            Some(JsonValue::Array(buckets)) => {
                for b in buckets {
                    for field in ["ge", "lt", "count"] {
                        if b.get(field).and_then(JsonValue::as_number).is_none() {
                            return err(format!(
                                "histogram {name:?} bucket missing numeric {field:?}"
                            ));
                        }
                    }
                }
            }
            _ => return err(format!("histogram {name:?} missing 'buckets' array")),
        }
    }
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| ReportError {
            message: "missing 'spans' object".into(),
        })?;
    for (path, s) in spans {
        for field in ["count", "total_s", "mean_s", "max_s"] {
            if s.get(field).and_then(JsonValue::as_number).is_none() {
                return err(format!("span {path:?} missing numeric {field:?}"));
            }
        }
    }
    Ok(ReportSummary {
        enabled,
        counters,
        histograms: histograms.len(),
        spans: spans.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::time::Duration;

    fn populated_registry() -> Registry {
        let r = Registry::new();
        r.counter_add("solver.pcg.iterations", 42);
        r.counter_add("sweep.scenarios", 600);
        r.histogram_record("solver.pcg.final_residual", 3.2e-11);
        r.histogram_record("solver.pcg.final_residual", 8.9e-12);
        r.span_record("seb.power_sweep", Duration::from_millis(12));
        r.span_record(
            "seb.power_sweep/seb.point{config=0}",
            Duration::from_micros(340),
        );
        r
    }

    #[test]
    fn report_roundtrips_through_the_validator() {
        let r = populated_registry();
        let json = render(&r.snapshot(), true);
        let summary = validate_report(&json).expect("report validates");
        assert!(summary.enabled);
        assert_eq!(summary.counter("solver.pcg.iterations"), 42);
        assert_eq!(summary.counter_prefix_sum("solver."), 42);
        assert_eq!(summary.histograms, 1);
        assert_eq!(summary.spans, 2);
    }

    #[test]
    fn empty_registry_still_renders_valid_json() {
        let json = render(&Registry::new().snapshot(), false);
        let summary = validate_report(&json).expect("empty report validates");
        assert!(!summary.enabled);
        assert!(summary.counters.is_empty());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = parse(r#"{"a\n\"b": [1, -2.5, 1e-12, true, null, "A"]}"#).unwrap();
        let arr = v.get("a\n\"b").unwrap();
        match arr {
            JsonValue::Array(items) => {
                assert_eq!(items[0], JsonValue::Number(1.0));
                assert_eq!(items[1], JsonValue::Number(-2.5));
                assert_eq!(items[2], JsonValue::Number(1e-12));
                assert_eq!(items[3], JsonValue::Bool(true));
                assert_eq!(items[4], JsonValue::Null);
                assert_eq!(items[5], JsonValue::String("A".into()));
            }
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse(r#"{"a": 1,}"#).is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn validator_rejects_wrong_shapes() {
        assert!(validate_report("{}").is_err());
        assert!(validate_report(
            r#"{"schema": "other", "enabled": true, "counters": {}, "histograms": {}, "spans": {}}"#
        )
        .is_err());
        let bad_counter = format!(
            r#"{{"schema": "{SCHEMA}", "enabled": true, "counters": {{"x": -1}}, "histograms": {{}}, "spans": {{}}}}"#
        );
        assert!(validate_report(&bad_counter).is_err());
        let bad_span = format!(
            r#"{{"schema": "{SCHEMA}", "enabled": true, "counters": {{}}, "histograms": {{}}, "spans": {{"p": {{"count": 1}}}}}}"#
        );
        assert!(validate_report(&bad_span).is_err());
    }

    #[test]
    fn bench_style_json_with_nested_tables_parses() {
        // The emitter's own BENCH-style sibling files must also parse,
        // so the validator can be pointed at them for smoke checks.
        let doc = parse(
            r#"{"hardware_threads": 1, "sweeps": [{"name": "x", "wall_seconds": {"1": 0.5}}]}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("hardware_threads").and_then(JsonValue::as_number),
            Some(1.0)
        );
    }
}
