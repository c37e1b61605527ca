//! Shared experiment plumbing: scale, rigs, telemetry sidecars and printing.

use std::path::PathBuf;
use std::sync::Arc;

use bdbstore::{BdbStore, StoreConfig};
use mnemosyne::{EmulationMode, Mnemosyne, ScmConfig, Telemetry, Truncation};
use pcmdisk::{DiskConfig, PcmDisk, SimpleFs};

/// Experiment scale: `Quick` keeps the whole suite under a few minutes;
/// `Full` approaches the paper's iteration counts. Selected with the
/// `REPRO_SCALE=full` environment variable or a `--full` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced iteration counts (CI-friendly).
    Quick,
    /// Paper-sized runs.
    Full,
}

impl Scale {
    /// Reads the scale from `REPRO_SCALE` / argv.
    ///
    /// # Panics
    /// If `REPRO_SCALE` is set to anything but `quick` or `full`: a
    /// mistyped value must not quietly run the quick suite.
    pub fn from_env() -> Scale {
        let env = std::env::var("REPRO_SCALE").ok();
        let scale = Scale::parse(env.as_deref()).unwrap_or_else(|why| panic!("{why}"));
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            scale
        }
    }

    /// Parses a `REPRO_SCALE` value; unset means quick.
    ///
    /// # Errors
    /// A message naming the value when it is neither `quick` nor `full`.
    fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "REPRO_SCALE={other:?} is not a scale: use \"quick\" or \"full\""
            )),
        }
    }

    /// Picks a count by scale.
    pub fn pick(self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A disposable experiment rig: fresh temp directory per instantiation,
/// removed on drop.
pub struct TestRig {
    /// Backing-file directory.
    pub dir: PathBuf,
}

impl Default for TestRig {
    fn default() -> Self {
        Self::new()
    }
}

impl TestRig {
    /// Creates a fresh rig directory.
    pub fn new() -> TestRig {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mnemo-bench-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TestRig { dir }
    }

    /// Boots a Mnemosyne stack with the paper's §6.1 emulation (spin
    /// delays, `latency_ns` extra write latency, 4 GB/s).
    pub fn mnemosyne(
        &self,
        scm_mb: u64,
        latency_ns: u64,
        truncation: Truncation,
    ) -> Arc<Mnemosyne> {
        self.mnemosyne_in(scm_mb, latency_ns, truncation, EmulationMode::Spin)
    }

    /// [`TestRig::mnemosyne`] in emulation mode `mode`: under
    /// [`EmulationMode::None`] no delay is inserted, so timings are what
    /// the simulator's software costs.
    pub fn mnemosyne_in(
        &self,
        scm_mb: u64,
        latency_ns: u64,
        truncation: Truncation,
        mode: EmulationMode,
    ) -> Arc<Mnemosyne> {
        let mut config = ScmConfig::paper_default(scm_mb << 20);
        config.write_latency_ns = latency_ns;
        config.mode = mode;
        Arc::new(
            Mnemosyne::builder(&self.dir.join(format!("m{latency_ns}")))
                .scm_config(config)
                .heap_sizes(scm_mb.saturating_sub(16).max(8) << 19, scm_mb.max(8) << 19)
                .max_threads(18)
                .log_words(1 << 16)
                .truncation(truncation)
                .open()
                .expect("boot mnemosyne rig"),
        )
    }

    /// Creates a PCM-disk + SimpleFs with the §6.1 block-device model.
    pub fn pcmdisk_fs(&self, blocks: u64, latency_ns: u64) -> SimpleFs {
        let disk = Arc::new(PcmDisk::new(
            DiskConfig::paper_default(blocks).with_write_latency_ns(latency_ns),
        ));
        SimpleFs::format(disk).expect("format pcm-disk")
    }

    /// Opens a transactional Berkeley-DB-like store on a fresh PCM-disk.
    pub fn bdb(&self, blocks: u64, latency_ns: u64) -> Arc<BdbStore> {
        let fs = self.pcmdisk_fs(blocks, latency_ns);
        Arc::new(BdbStore::open(fs, "bench", StoreConfig::default()).expect("open bdb store"))
    }
}

impl Drop for TestRig {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Directory experiment sidecars land in: `$REPRO_OUT`, or
/// `target/repro` relative to the working directory.
pub fn repro_out_dir() -> PathBuf {
    std::env::var_os("REPRO_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("repro"))
}

/// Runs one experiment and writes its machine-readable telemetry
/// sidecar to `<repro_out_dir>/<name>/telemetry.json`.
///
/// The sidecar holds the *delta* of the process-wide telemetry across
/// the call — crash/reboot cycles inside the experiment rebuild the
/// machine (and its registry), so per-machine snapshots would miss the
/// pre-crash half; [`Telemetry::process_snapshot`] aggregates retired
/// and live registries, and `since()` subtracts whatever earlier
/// experiments in the same process (e.g. `repro_all`) already counted.
/// See METRICS.md for the schema and every metric's meaning.
pub fn run_experiment(name: &str, scale: Scale, f: impl FnOnce(Scale)) {
    let before = Telemetry::process_snapshot();
    f(scale);
    let delta = Telemetry::process_snapshot().since(&before);
    let scale_tag = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let json = delta.to_json_with(&[("experiment", name), ("scale", scale_tag)]);
    let dir = repro_out_dir().join(name);
    let path = dir.join("telemetry.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!(
            "warning: could not write telemetry sidecar {}: {e}",
            path.display()
        );
    } else {
        println!("telemetry: {}", path.display());
    }
}

/// Like [`run_experiment`], but contains the experiment's failures
/// instead of letting them take down the whole suite: a panic inside `f`
/// is caught and reported as `Err`. The telemetry sidecar is written
/// either way — a partial sidecar is exactly what you want when
/// diagnosing the failure.
///
/// # Errors
/// The experiment's panic message.
pub fn run_experiment_checked(
    name: &str,
    scale: Scale,
    f: impl FnOnce(Scale),
) -> Result<(), String> {
    let mut result = Ok(());
    run_experiment(name, scale, |scale| {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(scale)));
        if let Err(payload) = outcome {
            let why = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            result = Err(format!("{name}: {why}"));
        }
    });
    result
}

/// Prints an experiment banner.
pub fn banner(title: &str, scale: Scale) {
    println!();
    println!("=== {title} [{:?} scale] ===", scale);
}

/// Formats a number with thousands separators.
pub fn commas(v: f64) -> String {
    let n = v.round() as i64;
    let s = n.abs().to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    if n < 0 {
        format!("-{out}")
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(10, 100), 10);
        assert_eq!(Scale::Full.pick(10, 100), 100);
    }

    #[test]
    fn scale_parse_rejects_unknown_values() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        for typo in ["FULL", "Full", "", "ful"] {
            let why = Scale::parse(Some(typo)).unwrap_err();
            assert!(why.contains(&format!("{typo:?}")), "{why}");
        }
    }

    #[test]
    fn commas_formats() {
        assert_eq!(commas(1234567.0), "1,234,567");
        assert_eq!(commas(42.0), "42");
    }

    #[test]
    fn rig_cleans_up() {
        let dir = {
            let rig = TestRig::new();
            assert!(rig.dir.exists());
            rig.dir.clone()
        };
        assert!(!dir.exists());
    }
}
