//! The part of `BENCHMARK.json` the program itself needs: which metrics
//! each section promises, and the regression bound of each.
//!
//! The file is read with a scanner, not a JSON parser (the repository's
//! own parser takes no floats): it relies on `BENCHMARK.json` keeping
//! one metric object per line, which a unit test pins.

use crate::daemon::repo_root;
use crate::report::Metric;

#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub name: String,
    /// 0 for `per_layer` entries, which have no bound.
    pub bound: f64,
}

/// The raw text after `"key":` on `line`, up to the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn entries(text: &str, section: &str) -> Result<Vec<Entry>, String> {
    let open = format!("\"{section}\": [");
    let body = text
        .split_once(&open)
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(body, _)| body)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| {
            let name = field(l, "name").ok_or_else(|| format!("no name in: {l}"))?;
            let bound = match field(l, "bound") {
                Some(b) => b.parse().map_err(|_| format!("bad bound in: {l}"))?,
                None => 0.0,
            };
            Ok(Entry {
                name: name.to_string(),
                bound,
            })
        })
        .collect()
}

/// The metrics `BENCHMARK.json` lists under `section`, in file order.
pub fn read(section: &str) -> Result<Vec<Entry>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    entries(&text, section)
}

/// Fails unless `metrics` are exactly the section's metrics, in order.
pub fn check_names(section: &str, metrics: &[Metric]) -> Result<(), String> {
    let want: Vec<String> = read(section)?.into_iter().map(|e| e.name).collect();
    let have: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    if want == have {
        Ok(())
    } else {
        Err(format!(
            "metrics differ from BENCHMARK.json {section}:\n  file:    {want:?}\n  program: {have:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_reads_names_and_bounds() {
        let text = r#"{
  "end_to_end": [
    {"name": "a_b", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
  ],
  "per_layer": [
    {"name": "scm.fences_per_op", "unit": "count", "better": "lower"}
  ]
}"#;
        let e2e = entries(text, "end_to_end").unwrap();
        assert_eq!(e2e.len(), 2);
        assert_eq!((e2e[0].name.as_str(), e2e[0].bound), ("a_b", 0.1));
        assert_eq!((e2e[1].name.as_str(), e2e[1].bound), ("setup_s", 0.25));
        let layers = entries(text, "per_layer").unwrap();
        assert_eq!(
            layers,
            [Entry {
                name: "scm.fences_per_op".into(),
                bound: 0.0
            }]
        );
        assert!(entries(text, "missing").is_err());
    }

    #[test]
    fn the_real_file_keeps_the_shape_the_scanner_needs() {
        let e2e = read("end_to_end").unwrap();
        assert!(e2e.iter().any(|e| e.name == "setup_s"));
        assert!(
            e2e.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25),
            "{e2e:?}"
        );
        let layers = read("per_layer").unwrap();
        assert!(layers.iter().any(|e| e.name == "scm.fences_per_op"));
        assert!(layers.len() <= 128);
    }
}
