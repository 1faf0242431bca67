//! Golden-snapshot regression gating.
//!
//! A [`Snapshot`] is a named set of scalar quantities, each tagged with
//! its own drift tolerance, serialized as JSON under `tests/golden/`.
//! [`Snapshot::gate`] compares freshly computed values against the
//! committed golden file and fails with a per-quantity drift table when
//! anything moved beyond tolerance; setting `AEROPACK_SNAPSHOT_UPDATE=1`
//! (what `scripts/snapshot.sh` does) rewrites the golden file instead.
//!
//! Acceptance per quantity: `|current − golden| ≤ tol_abs + tol_rel·|golden|`.
//! A quantity present on only one side is always a failure — silently
//! appearing or vanishing physics is drift too.

use std::fmt::Write as _;
use std::path::Path;

use aeropack_obs::report::{escape, parse, JsonValue};

/// Environment variable that switches [`Snapshot::gate`] into update
/// mode.
pub const UPDATE_ENV: &str = "AEROPACK_SNAPSHOT_UPDATE";

/// One tolerance-tagged scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantity {
    /// Stable identifier, e.g. `fig10/lhp/p060_dt`.
    pub name: String,
    /// The recorded value.
    pub value: f64,
    /// Absolute drift allowance.
    pub tol_abs: f64,
    /// Relative drift allowance (fraction of the golden magnitude).
    pub tol_rel: f64,
}

/// A named collection of quantities — one golden JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot name (matches the file stem by convention).
    pub name: String,
    /// The recorded quantities, in insertion order.
    pub quantities: Vec<Quantity>,
}

/// One row of a golden-vs-current comparison.
#[derive(Debug, Clone)]
pub struct Drift {
    /// Quantity name.
    pub name: String,
    /// Golden value (`None`: the quantity is new).
    pub golden: Option<f64>,
    /// Current value (`None`: the quantity vanished).
    pub current: Option<f64>,
    /// Allowed absolute deviation for this quantity.
    pub allowed: f64,
    /// Whether the row is within tolerance.
    pub ok: bool,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            quantities: Vec::new(),
        }
    }

    /// Records one quantity.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values or negative tolerances — a golden
    /// file must be comparable.
    pub fn push(&mut self, name: impl Into<String>, value: f64, tol_abs: f64, tol_rel: f64) {
        assert!(value.is_finite(), "snapshot values must be finite");
        assert!(
            tol_abs >= 0.0 && tol_rel >= 0.0,
            "tolerances must be non-negative"
        );
        self.quantities.push(Quantity {
            name: name.into(),
            value,
            tol_abs,
            tol_rel,
        });
    }

    /// Serializes to the golden JSON format.
    pub fn to_json(&self) -> String {
        let quantities = self
            .quantities
            .iter()
            .map(|q| {
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(q.name.clone())),
                    ("value".into(), JsonValue::Number(q.value)),
                    ("tol_abs".into(), JsonValue::Number(q.tol_abs)),
                    ("tol_rel".into(), JsonValue::Number(q.tol_rel)),
                ])
            })
            .collect();
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::String(self.name.clone())),
            ("quantities".into(), JsonValue::Array(quantities)),
        ]);
        let mut out = String::new();
        write_indented(&mut out, &doc, 0);
        out.push('\n');
        out
    }

    /// Parses the golden JSON format.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a missing/ill-typed
    /// field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let name = doc
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("snapshot missing 'name'")?
            .to_string();
        let mut snapshot = Self::new(name);
        let items = doc
            .get("quantities")
            .and_then(JsonValue::as_array)
            .ok_or("snapshot missing 'quantities'")?;
        for item in items {
            let field = |key: &str| {
                item.get(key)
                    .and_then(JsonValue::as_number)
                    .ok_or_else(|| format!("quantity missing '{key}'"))
            };
            snapshot.push(
                item.get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("quantity missing 'name'")?,
                field("value")?,
                field("tol_abs")?,
                field("tol_rel")?,
            );
        }
        Ok(snapshot)
    }

    /// Reads a golden file.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O or parse failures.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }

    /// Writes this snapshot as a golden file.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Compares `current` against this golden snapshot, row per
    /// quantity. Tolerances come from the *golden* side (the committed
    /// file is the contract); quantities only on one side are failed
    /// rows.
    pub fn diff(&self, current: &Snapshot) -> Vec<Drift> {
        let mut rows = Vec::new();
        for g in &self.quantities {
            let allowed = g.tol_abs + g.tol_rel * g.value.abs();
            match current.quantities.iter().find(|c| c.name == g.name) {
                Some(c) => rows.push(Drift {
                    name: g.name.clone(),
                    golden: Some(g.value),
                    current: Some(c.value),
                    allowed,
                    ok: (c.value - g.value).abs() <= allowed,
                }),
                None => rows.push(Drift {
                    name: g.name.clone(),
                    golden: Some(g.value),
                    current: None,
                    allowed,
                    ok: false,
                }),
            }
        }
        for c in &current.quantities {
            if !self.quantities.iter().any(|g| g.name == c.name) {
                rows.push(Drift {
                    name: c.name.clone(),
                    golden: None,
                    current: Some(c.value),
                    allowed: 0.0,
                    ok: false,
                });
            }
        }
        rows
    }

    /// Gates `current` against the golden file at `path`: in update
    /// mode (`AEROPACK_SNAPSHOT_UPDATE=1`) rewrites the file; otherwise
    /// compares and returns the readable per-quantity drift table as
    /// the error on any out-of-tolerance row.
    ///
    /// # Errors
    ///
    /// Returns the drift table when any quantity drifted, or an I/O /
    /// parse message (including a hint to run `scripts/snapshot.sh`
    /// when the golden file does not exist yet).
    pub fn gate(path: &Path, current: &Snapshot) -> Result<(), String> {
        if std::env::var(UPDATE_ENV).as_deref() == Ok("1") {
            current.write(path)?;
            eprintln!("updated golden snapshot {}", path.display());
            return Ok(());
        }
        if !path.exists() {
            return Err(format!(
                "golden snapshot {} does not exist — run scripts/snapshot.sh to create it",
                path.display()
            ));
        }
        let golden = Self::read(path)?;
        let rows = golden.diff(current);
        let table = drift_table(&current.name, &rows);
        eprintln!("{table}");
        if rows.iter().all(|r| r.ok) {
            Ok(())
        } else {
            Err(format!(
                "snapshot '{}' drifted beyond tolerance (update with scripts/snapshot.sh if intended)\n{table}",
                current.name
            ))
        }
    }
}

/// Writes `v` in the golden-file layout: two-space indentation, one
/// item or field per line, and numbers in Rust's shortest round-trip
/// form, so write → parse is lossless.
fn write_indented(out: &mut String, v: &JsonValue, depth: usize) {
    let pad_in = "  ".repeat(depth + 1);
    let close = |out: &mut String, bracket: char| {
        out.push_str(&"  ".repeat(depth));
        out.push(bracket);
    };
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        JsonValue::Number(x) => {
            debug_assert!(x.is_finite(), "JSON numbers must be finite");
            let _ = write!(out, "{x}");
        }
        JsonValue::String(s) => write_escaped(out, s),
        JsonValue::Array(items) if items.is_empty() => out.push_str("[]"),
        JsonValue::Array(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_indented(out, item, depth + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            close(out, ']');
        }
        JsonValue::Object(fields) if fields.is_empty() => out.push_str("{}"),
        JsonValue::Object(fields) => {
            out.push_str("{\n");
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(&pad_in);
                write_escaped(out, k);
                out.push_str(": ");
                write_indented(out, v, depth + 1);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            close(out, '}');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

/// Formats comparison rows as a fixed-width per-quantity table.
pub fn drift_table(name: &str, rows: &[Drift]) -> String {
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(8).max(8);
    let mut out = String::new();
    let _ = writeln!(out, "snapshot '{name}': {} quantities", rows.len());
    let _ = writeln!(
        out,
        "  {:<width$}  {:>16}  {:>16}  {:>10}  {:>10}  status",
        "quantity", "golden", "current", "|drift|", "allowed"
    );
    for r in rows {
        let fmt_opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:>16.9e}"),
            None => format!("{:>16}", "(missing)"),
        };
        let drift = match (r.golden, r.current) {
            (Some(g), Some(c)) => format!("{:>10.3e}", (c - g).abs()),
            _ => format!("{:>10}", "-"),
        };
        let _ = writeln!(
            out,
            "  {:<width$}  {}  {}  {}  {:>10.3e}  {}",
            r.name,
            fmt_opt(r.golden),
            fmt_opt(r.current),
            drift,
            r.allowed,
            if r.ok { "ok" } else { "DRIFT" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new("demo");
        s.push("alpha", 1.25, 0.0, 1e-6);
        s.push("beta", -40.0, 0.5, 0.0);
        s
    }

    #[test]
    fn json_round_trip_is_exact() {
        let s = sample();
        let back = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn floats_and_escaped_names_round_trip_exactly() {
        let mut s = Snapshot::new("line\nbreak \"quoted\" \\slash\ttab");
        for v in [
            0.1,
            -3.25e-17,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            12345.678901234567,
            37.251_234_567_891,
        ] {
            s.push(format!("p/{v}"), v, 1e-9, 0.0);
        }
        let back = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back.name, s.name);
        for (b, q) in back.quantities.iter().zip(&s.quantities) {
            assert_eq!(b.name, q.name);
            assert_eq!(b.value.to_bits(), q.value.to_bits(), "{}", q.value);
        }
    }

    #[test]
    fn malformed_golden_files_are_errors() {
        assert!(Snapshot::from_json("{").is_err());
        assert!(Snapshot::from_json("{} trailing").is_err());
        assert!(Snapshot::from_json(r#"{"name": "x"}"#).is_err());
    }

    #[test]
    fn diff_flags_out_of_tolerance_and_missing() {
        let golden = sample();
        let mut current = Snapshot::new("demo");
        current.push("alpha", 1.25 + 1e-3, 0.0, 1e-6); // beyond 1e-6 rel
        current.push("gamma", 7.0, 0.0, 0.0); // new quantity
        let rows = golden.diff(&current);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert!(!by_name("alpha").ok, "drift beyond tolerance");
        assert!(!by_name("beta").ok, "vanished quantity");
        assert!(!by_name("gamma").ok, "unexpected quantity");
        let table = drift_table("demo", &rows);
        assert!(table.contains("DRIFT"), "{table}");
        assert!(table.contains("(missing)"), "{table}");
    }

    #[test]
    fn diff_passes_within_tolerance() {
        let golden = sample();
        let mut current = Snapshot::new("demo");
        current.push("alpha", 1.25 + 1e-7, 0.0, 1e-6);
        current.push("beta", -40.3, 0.5, 0.0);
        assert!(golden.diff(&current).iter().all(|r| r.ok));
    }

    #[test]
    fn gate_reports_missing_golden_with_hint() {
        let path = std::env::temp_dir().join("aeropack-missing-golden.json");
        let _ = std::fs::remove_file(&path);
        let err = Snapshot::gate(&path, &sample()).unwrap_err();
        assert!(err.contains("snapshot.sh"), "{err}");
    }

    #[test]
    fn gate_round_trips_through_a_written_file() {
        let path = std::env::temp_dir().join("aeropack-golden-roundtrip.json");
        sample().write(&path).unwrap();
        // Same values pass; a drifted value fails with the table.
        Snapshot::gate(&path, &sample()).unwrap();
        let mut drifted = sample();
        drifted.quantities[0].value += 1.0;
        let err = Snapshot::gate(&path, &drifted).unwrap_err();
        assert!(err.contains("alpha"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
