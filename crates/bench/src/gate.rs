//! The consolidated bench smoke gate: one declarative scaling check per
//! bench, shared by the `--smoke` mode of every scaling binary and by
//! `repro_all`.
//!
//! A gate re-reads the `BENCH_*.json` the bench just wrote — so it
//! exercises exactly what trajectory tooling consumes — and enforces two
//! things:
//!
//! 1. **Absolute scaling floor.** The throughput ratio between the `hi`
//!    and `lo` thread counts must reach `min_ratio_milli` (thousandths;
//!    2000 = "at least 2×").
//! 2. **No regression vs. baseline.** When `BENCH_BASELINE_DIR` names a
//!    directory holding a previous run's JSON (CI stashes the committed
//!    repo-root copy there before the bench overwrites it), the current
//!    ratio must stay within [`BASELINE_SLACK_MILLI`] of the baseline's
//!    ratio. An absent or unparsable baseline file is skipped, not
//!    failed — first runs and schema migrations shouldn't wedge CI.

use std::path::Path;

use mnemosyne_scm::obs::{parse_json, JsonValue};

/// Tolerated fractional drop vs. the baseline ratio, in thousandths
/// (100 = a 10% regression fails the gate; scaling ratios on a shared
/// CI box genuinely wobble a few percent run to run).
pub const BASELINE_SLACK_MILLI: u64 = 100;

/// Environment variable naming the directory that holds baseline
/// `BENCH_*.json` files to compare against.
pub const BASELINE_DIR_ENV: &str = "BENCH_BASELINE_DIR";

/// A declarative scaling check over one series of one `BENCH_*.json`.
#[derive(Debug, Clone, Copy)]
pub struct ScalingGate {
    /// Gate name, for messages and [`gate_for`] lookup. Unique.
    pub bench: &'static str,
    /// The bench binary whose `--smoke` run enforces this gate; one
    /// binary can carry several gates ([`gates_for_binary`]), e.g.
    /// `kvscale` is gated at both 4 and 8 workers.
    pub binary: &'static str,
    /// File name at the repository root (also looked up in the baseline
    /// directory), e.g. `BENCH_svc.json`.
    pub json_file: &'static str,
    /// Top-level key of the points array, e.g. `"points"`.
    pub series: &'static str,
    /// Per-point key holding the swept parallelism, e.g. `"threads"`.
    pub axis_key: &'static str,
    /// Per-point key holding the throughput, e.g. `"tx_per_vsec"`.
    pub value_key: &'static str,
    /// Axis value of the denominator point (usually 1).
    pub lo: u64,
    /// Axis value of the numerator point; `None` takes the best point
    /// with axis > `lo` (the historical allocscale semantics).
    pub hi: Option<u64>,
    /// Required `hi/lo` throughput ratio in thousandths.
    pub min_ratio_milli: u64,
}

/// The gates CI runs. The `kvscale` binary carries two: the group-commit
/// dividend at 4 workers (2×) and at 8 (3×).
pub const GATES: [ScalingGate; 5] = [
    ScalingGate {
        bench: "allocscale",
        binary: "allocscale",
        json_file: "BENCH_pheap.json",
        series: "points",
        axis_key: "threads",
        value_key: "ops_per_vsec",
        lo: 1,
        hi: None,
        min_ratio_milli: 1000,
    },
    ScalingGate {
        bench: "txscale",
        binary: "txscale",
        json_file: "BENCH_mtm.json",
        series: "disjoint",
        axis_key: "threads",
        value_key: "tx_per_vsec",
        lo: 1,
        hi: Some(4),
        min_ratio_milli: 1000,
    },
    ScalingGate {
        bench: "kvscale",
        binary: "kvscale",
        json_file: "BENCH_svc.json",
        series: "points",
        axis_key: "workers",
        value_key: "req_per_vsec",
        lo: 1,
        hi: Some(4),
        min_ratio_milli: 2000,
    },
    ScalingGate {
        bench: "kvscale8",
        binary: "kvscale",
        json_file: "BENCH_svc.json",
        series: "points",
        axis_key: "workers",
        value_key: "req_per_vsec",
        lo: 1,
        hi: Some(8),
        min_ratio_milli: 3000,
    },
    ScalingGate {
        bench: "recovery",
        binary: "recovery",
        json_file: "BENCH_recovery.json",
        series: "points",
        axis_key: "threads",
        value_key: "bytes_per_vsec",
        lo: 1,
        hi: Some(4),
        min_ratio_milli: 2000,
    },
];

/// Looks up a gate by its (unique) gate name.
pub fn gate_for(bench: &str) -> Option<ScalingGate> {
    GATES.into_iter().find(|g| g.bench == bench)
}

/// Every gate a bench binary's `--smoke` run must enforce.
pub fn gates_for_binary(binary: &str) -> Vec<ScalingGate> {
    GATES.into_iter().filter(|g| g.binary == binary).collect()
}

/// `main` of a scaling bench binary: runs the experiment (writing its
/// `BENCH_*.json` and telemetry sidecar) and, with `--smoke`, enforces
/// every gate the binary carries, exiting 1 at the first one violated.
pub fn bench_main(binary: &str, run: fn(crate::Scale)) {
    crate::util::run_experiment(binary, crate::Scale::from_env(), run);
    if !std::env::args().any(|a| a == "--smoke") {
        return;
    }
    let gates = gates_for_binary(binary);
    assert!(!gates.is_empty(), "{binary} gates missing");
    for gate in gates {
        if let Err(why) = gate.enforce_repo_root() {
            eprintln!("smoke FAILED: {why}");
            std::process::exit(1);
        }
    }
    println!("smoke OK");
}

/// Runs `measure` three times and returns the run with the median
/// `key`. Gated experiments compare single points, so one descheduled
/// worker thread on a loaded CI box can sink a whole run; the median of
/// three is robust to a single outlier in either direction while
/// staying honest (no best-of cherry-picking).
pub fn median_of_3<T>(mut measure: impl FnMut() -> T, key: impl Fn(&T) -> u64) -> T {
    let mut runs = vec![measure(), measure(), measure()];
    runs.sort_by_key(&key);
    runs.swap_remove(1)
}

fn field(p: &JsonValue, k: &str) -> Option<u64> {
    p.as_obj().and_then(|o| o.get(k)).and_then(|x| x.as_u64())
}

impl ScalingGate {
    /// Extracts the `hi/lo` throughput ratio (thousandths) from a bench
    /// JSON document.
    ///
    /// # Errors
    /// A description of whatever makes the document unusable (parse
    /// failure, missing series or points).
    pub fn ratio_milli(&self, json: &str) -> Result<u64, String> {
        let v = parse_json(json).map_err(|e| format!("{}: unparsable JSON: {e}", self.bench))?;
        let points = v
            .as_obj()
            .and_then(|o| o.get(self.series))
            .and_then(|s| s.as_arr())
            .ok_or_else(|| format!("{}: no '{}' array", self.bench, self.series))?;
        let at_lo = points
            .iter()
            .find(|p| field(p, self.axis_key) == Some(self.lo))
            .and_then(|p| field(p, self.value_key))
            .ok_or_else(|| format!("{}: no {}={} point", self.bench, self.axis_key, self.lo))?
            .max(1);
        let at_hi = match self.hi {
            Some(hi) => points
                .iter()
                .find(|p| field(p, self.axis_key) == Some(hi))
                .and_then(|p| field(p, self.value_key))
                .ok_or_else(|| format!("{}: no {}={} point", self.bench, self.axis_key, hi))?,
            None => points
                .iter()
                .filter(|p| field(p, self.axis_key).unwrap_or(0) > self.lo)
                .filter_map(|p| field(p, self.value_key))
                .max()
                .ok_or_else(|| format!("{}: no {}>{} point", self.bench, self.axis_key, self.lo))?,
        };
        Ok(at_hi * 1000 / at_lo)
    }

    /// Reads the bench's JSON at `root` and enforces the scaling floor
    /// and — when `BENCH_BASELINE_DIR` provides one — the
    /// no-regression-vs-baseline check.
    ///
    /// # Errors
    /// A human-readable description of the first violated check.
    pub fn enforce(&self, root: &Path) -> Result<(), String> {
        let path = root.join(self.json_file);
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: cannot read {}: {e}", self.bench, path.display()))?;
        let ratio = self.ratio_milli(&json)?;
        let hi_label = match self.hi {
            Some(hi) => format!("{}={hi}", self.axis_key),
            None => format!("best {}>{}", self.axis_key, self.lo),
        };
        println!(
            "smoke[{}]: {hi_label} vs {}={} scaling ratio {}.{:03}x (floor {}.{:03}x)",
            self.bench,
            self.axis_key,
            self.lo,
            ratio / 1000,
            ratio % 1000,
            self.min_ratio_milli / 1000,
            self.min_ratio_milli % 1000,
        );
        if ratio < self.min_ratio_milli {
            return Err(format!(
                "{}: scaling ratio {ratio} milli below the {} floor",
                self.bench, self.min_ratio_milli
            ));
        }
        if let Some(base_dir) = std::env::var_os(BASELINE_DIR_ENV) {
            let base_path = Path::new(&base_dir).join(self.json_file);
            match std::fs::read_to_string(&base_path) {
                Ok(base_json) => match self.ratio_milli(&base_json) {
                    Ok(base_ratio) => {
                        let floor =
                            base_ratio.saturating_sub(base_ratio * BASELINE_SLACK_MILLI / 1000);
                        println!(
                            "smoke[{}]: baseline ratio {base_ratio} milli, regression floor {floor}",
                            self.bench
                        );
                        if ratio < floor {
                            return Err(format!(
                                "{}: ratio {ratio} milli regressed below baseline \
                                 {base_ratio} (floor {floor} after 10% slack)",
                                self.bench
                            ));
                        }
                    }
                    Err(why) => println!(
                        "smoke[{}]: baseline {} skipped ({why})",
                        self.bench,
                        base_path.display()
                    ),
                },
                Err(_) => println!(
                    "smoke[{}]: no baseline at {}, skipping regression check",
                    self.bench,
                    base_path.display()
                ),
            }
        }
        Ok(())
    }

    /// [`ScalingGate::enforce`] against the repository root (where the
    /// bench binaries write their JSON).
    ///
    /// # Errors
    /// See [`ScalingGate::enforce`].
    pub fn enforce_repo_root(&self) -> Result<(), String> {
        self.enforce(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "bench": "kvscale",
      "points": [
        {"workers": 1, "req_per_vsec": 1000},
        {"workers": 2, "req_per_vsec": 1800},
        {"workers": 4, "req_per_vsec": 2600}
      ]
    }"#;

    fn kv() -> ScalingGate {
        gate_for("kvscale").unwrap()
    }

    #[test]
    fn ratio_extraction() {
        assert_eq!(kv().ratio_milli(GOOD).unwrap(), 2600);
    }

    #[test]
    fn best_multi_semantics() {
        let g = ScalingGate { hi: None, ..kv() };
        // Best point above lo is workers=4 at 2600.
        assert_eq!(g.ratio_milli(GOOD).unwrap(), 2600);
    }

    #[test]
    fn missing_series_is_an_error() {
        let g = kv();
        assert!(g.ratio_milli("{\"bench\": \"kvscale\"}").is_err());
        assert!(g.ratio_milli("not json").is_err());
        assert!(g
            .ratio_milli("{\"points\": [{\"workers\": 4, \"req_per_vsec\": 5}]}")
            .is_err());
    }

    #[test]
    fn every_gate_has_a_distinct_bench_and_check() {
        for (i, a) in GATES.iter().enumerate() {
            for b in &GATES[i + 1..] {
                assert_ne!(a.bench, b.bench, "gate names must be unique");
                assert!(
                    a.json_file != b.json_file || a.series != b.series || a.hi != b.hi,
                    "gates {} and {} check the same (file, series, hi) point",
                    a.bench,
                    b.bench
                );
            }
        }
        // Every gate belongs to a binary that exists in GATES' namespace.
        for g in &GATES {
            assert!(
                gates_for_binary(g.binary)
                    .iter()
                    .any(|x| x.bench == g.bench),
                "gate {} not reachable via its binary {}",
                g.bench,
                g.binary
            );
        }
    }

    #[test]
    fn kvscale_binary_carries_the_4_and_8_worker_gates() {
        let gates = gates_for_binary("kvscale");
        assert_eq!(gates.len(), 2);
        for hi in [4, 8] {
            assert!(gates
                .iter()
                .any(|g| g.series == "points" && g.hi == Some(hi)));
        }
    }

    #[test]
    fn enforce_applies_floor_and_baseline() {
        let dir = std::env::temp_dir().join(format!(
            "mnemo-gate-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_svc.json"), GOOD).unwrap();
        let g = kv();
        // 2.6x beats the 2.0x floor.
        assert!(g.enforce(&dir).is_ok());
        // A 3.0x floor fails it.
        let strict = ScalingGate {
            min_ratio_milli: 3000,
            ..g
        };
        assert!(strict.enforce(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
