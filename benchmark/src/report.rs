//! Printing: every metric by name and unit, the machine facts, and the
//! one-line JSON result the benchmark contract asks for.

use std::fmt::Write;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// A float as JSON: all its digits, and never `NaN`/`inf`, which JSON
/// cannot carry.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Facts about the machine and the run that a number means nothing
/// without, as `(key, value)` pairs and as one JSON object.
pub struct Facts(pub Vec<(&'static str, String)>);

impl Facts {
    /// Facts every run shares; the caller appends the run's own.
    pub fn machine() -> Facts {
        let read = |path: &str| {
            std::fs::read_to_string(path)
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string())
        };
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(crate::daemon::repo_root())
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Facts(vec![
            ("nproc", nproc.to_string()),
            ("kernel", read("/proc/sys/kernel/osrelease")),
            (
                "build_profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
            ("git_commit", git),
        ])
    }

    pub fn push(&mut self, key: &'static str, value: impl ToString) {
        self.0.push((key, value.to_string()));
    }

    pub fn print(&self) {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        println!("facts {{{}}}", body.join(", "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_line_with_exactly_the_contract_keys() {
        let metrics = [
            Metric::new("throughput_ops_s", 12345.678901, "1/s"),
            Metric::new("odd\"name", f64::NAN, "ms"),
        ];
        assert_eq!(
            result_line(true, 10, 0, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"throughput_ops_s\": {\"value\": 12345.678901, \"unit\": \"1/s\"}, \
             \"odd\\\"name\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
