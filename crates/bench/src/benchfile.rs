//! The one `BENCH_*.json` writer, shared by every scaling bench
//! (`allocscale`, `txscale`, `kvscale`, `recovery`) and read back by
//! [`crate::gate`].
//!
//! All numbers are integers (speedups in thousandths) because the
//! repository's telemetry JSON parser — which the gate reads these files
//! with — rejects floats by design.

use std::path::{Path, PathBuf};

/// A bench document: a small header and one or more named series of
/// rows. Every row gains a derived `speedup_milli` — its work per
/// nanosecond over the series' first row's, in thousandths, truncated —
/// written right after the throughput field.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// File name at the repository root, e.g. `BENCH_svc.json`.
    pub file: &'static str,
    /// The `bench` header field.
    pub bench: &'static str,
    /// The `unit` header field: what the throughput counts.
    pub unit: &'static str,
    /// The one run-wide parameter recorded in the header.
    pub param: (&'static str, u64),
    /// Row keys, in file order; every row holds one value per key.
    pub keys: &'static [&'static str],
    /// Key of the work a point completed.
    pub work_key: &'static str,
    /// Key of the critical-path nanoseconds that work took.
    pub ns_key: &'static str,
    /// Key of the throughput, the field a
    /// [`ScalingGate`](crate::ScalingGate) reads.
    pub value_key: &'static str,
    /// `(top-level key, rows)`, in file order.
    pub series: Vec<(&'static str, Vec<Vec<u64>>)>,
}

impl BenchFile {
    fn column(&self, key: &str) -> usize {
        let found = self.keys.iter().position(|k| *k == key);
        found.unwrap_or_else(|| panic!("{}: no row key '{key}'", self.file))
    }

    /// Serialises the document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (work, ns) = (self.column(self.work_key), self.column(self.ns_key));
        let mut out = format!(
            "{{\n  \"bench\": \"{}\",\n  \"unit\": \"{}\",\n  \"{}\": {}",
            self.bench, self.unit, self.param.0, self.param.1
        );
        for (name, rows) in &self.series {
            out.push_str(&format!(",\n  \"{name}\": ["));
            for (i, row) in rows.iter().enumerate() {
                // Exact work/time ratio to the first row; u128 keeps the
                // cross-multiplication from overflowing.
                let [w, t, w0, t0] =
                    [row[work], row[ns], rows[0][work], rows[0][ns]].map(u128::from);
                let speedup = w * t0 * 1000 / (t * w0).max(1);
                out.push_str(if i > 0 { ",\n    {" } else { "\n    {" });
                for (j, (key, value)) in self.keys.iter().zip(row).enumerate() {
                    out.push_str(&format!(
                        "{}\"{key}\": {value}",
                        if j > 0 { ", " } else { "" }
                    ));
                    if *key == self.value_key {
                        out.push_str(&format!(", \"speedup_milli\": {speedup}"));
                    }
                }
                out.push('}');
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Where the document lives: the repository root (the bench crate
    /// is at `crates/bench`).
    #[must_use]
    pub fn path(&self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(self.file)
    }

    /// Writes the document; a failure is a warning, not an error — the
    /// table was already printed.
    pub fn write(&self) {
        let path = self.path();
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("bench json: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::exp::{allocscale, kvscale, recovery, txscale};
    use mnemosyne_scm::obs::parse_json;

    /// Every committed bench file, read back through the gate's parser
    /// into its bench's (empty) document, is byte for byte what the
    /// writer makes of it.
    #[test]
    fn committed_files_round_trip_through_the_gate_parser() {
        for mut file in [
            allocscale::bench_file(&[]),
            txscale::bench_file(&[], &[]),
            recovery::bench_file(&[]),
            kvscale::bench_file(&[]),
        ] {
            let text = std::fs::read_to_string(file.path()).unwrap();
            let doc = parse_json(&text).unwrap();
            for (name, rows) in &mut file.series {
                let parsed = doc.as_obj().unwrap()[*name].as_arr().unwrap();
                *rows = parsed
                    .iter()
                    .map(|row| {
                        let value = |k: &&str| row.as_obj().unwrap()[*k].as_u64().unwrap();
                        file.keys.iter().map(value).collect()
                    })
                    .collect();
            }
            assert_eq!(file.to_json(), text, "{}", file.file);
        }
    }
}
