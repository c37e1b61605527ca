//! Systematic crash-point sweep over the full stack.
//!
//! [`crash_sweep`] answers the question "does recovery hold at *every*
//! instant of this workload?" mechanically: it runs the workload once on a
//! clean machine counting every durability primitive it issues (stores,
//! streaming stores, flushes, fences), then re-executes it on a fresh
//! machine per crash point, killing the machine at the chosen primitive
//! with a [`FaultPlan`], rebooting from the post-crash media image, and
//! running a caller-supplied invariant check against the recovered state.
//!
//! With [`SweepConfig::recovery_points`] set, each crash point is followed
//! by a *double-crash* pass: recovery itself is re-run with a crash
//! scheduled mid-replay (the plan is attached before any layer boots, so
//! the primitives issued while scanning logs and replaying records are
//! crash targets too), after which a clean reboot must still satisfy the
//! invariant.
//!
//! With synchronous truncation and a single-threaded workload the primitive
//! counter is deterministic: it counts primitives, not time, and recovery
//! replays the logs on the opening thread, so the same seed, plan, and
//! workload reproduce the same crash point on every run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use crate::{CrashPolicy, CrashRequested, Error, FaultPlan, Mnemosyne, MnemosyneBuilder, ScmSim};

/// Injected crashes unwind with a panic; without this, every one of the
/// hundreds of crash points would print a "thread panicked" report. The
/// wrapping hook swallows [`CrashRequested`] payloads (they are the
/// expected mechanism, not bugs) and defers everything else to the
/// previous hook.
fn silence_injected_crash_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashRequested>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Tuning for [`crash_sweep`].
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Upper bound on distinct workload crash points; the sweep strides
    /// evenly through the primitive count to respect it.
    pub max_points: usize,
    /// For each workload crash point, also crash recovery itself at this
    /// many evenly-spread points (0 disables the double-crash pass).
    pub recovery_points: usize,
    /// How in-flight writes resolve at each injected crash.
    pub policy: CrashPolicy,
    /// Keep the scratch directory of a failing crash point for inspection
    /// (passing points always remove theirs).
    pub keep_failing_dirs: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            max_points: 256,
            recovery_points: 0,
            policy: CrashPolicy::DropAll,
            keep_failing_dirs: true,
        }
    }
}

/// One crash point whose recovery or invariant check failed.
#[derive(Debug)]
pub struct SweepFailure {
    /// Workload primitive index the machine died at
    /// ([`SweepReport::workload_primitives`] for the crash-free baseline).
    pub crash_index: u64,
    /// Recovery primitive index, for double-crash points.
    pub recovery_index: Option<u64>,
    /// Which stage failed: `workload-error`, `workload-panic`,
    /// `recovery-error`, `recovery-panic`, `invariant`, or their
    /// `baseline-`/`recovery-crash-` variants.
    pub stage: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "crash point {}", self.crash_index)?;
        if let Some(j) = self.recovery_index {
            write!(f, " (recovery point {j})")?;
        }
        write!(f, ": {} — {}", self.stage, self.detail)
    }
}

/// What a sweep covered and what, if anything, broke.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Durability primitives the workload issues on a crash-free run.
    pub workload_primitives: u64,
    /// Distinct workload crash points tested.
    pub points_tested: usize,
    /// Points at which the plan actually fired (the rest ran to
    /// completion before their scheduled primitive — possible when
    /// background-thread scheduling shifts the count).
    pub crashes_fired: usize,
    /// Points whose workload completed without the plan firing.
    pub completed_runs: usize,
    /// Double-crash (mid-recovery) points tested.
    pub recovery_points_tested: usize,
    /// Every failed point; empty means the sweep passed.
    pub failures: Vec<SweepFailure>,
}

impl SweepReport {
    /// Whether every crash point recovered and satisfied the invariant.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "swept {} crash points over {} primitives ({} fired, {} ran to \
             completion), {} mid-recovery points, {} failures",
            self.points_tested,
            self.workload_primitives,
            self.crashes_fired,
            self.completed_runs,
            self.recovery_points_tested,
            self.failures.len()
        )
    }
}

fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Sweeps injected crashes across a workload and verifies recovery after
/// each one. See the [module docs](self) for the full procedure.
///
/// * `build` configures a stack rooted at the directory it is given; it is
///   called for every boot, so it must be deterministic.
/// * `workload` mutates persistent state; under an injected crash it
///   unwinds (the sweep catches that), so it must not rely on destructors
///   for correctness — exactly the discipline crash-safe code needs
///   anyway.
/// * `check` judges a recovered stack, returning a description of any
///   invariant violation. It must accept *any* crash-consistent state:
///   every prefix of the workload's committed transactions is legal.
///
/// # Errors
/// Fails fast on harness errors (scratch-dir I/O, a clean boot failing, a
/// crash-free workload run failing). Crash-point failures do **not**
/// short-circuit; they are collected in [`SweepReport::failures`].
pub fn crash_sweep<B, W, C>(
    base: &Path,
    config: &SweepConfig,
    build: B,
    workload: W,
    check: C,
) -> Result<SweepReport, Error>
where
    B: Fn(&Path) -> MnemosyneBuilder,
    W: Fn(&Mnemosyne) -> Result<(), Error>,
    C: Fn(&Mnemosyne) -> Result<(), String>,
{
    silence_injected_crash_panics();
    std::fs::create_dir_all(base)?;
    let mut report = SweepReport::default();

    // Enumeration pass: count the workload's durability primitives, then
    // make sure power loss *after* a completed workload recovers — if the
    // baseline is broken, per-point results would be noise.
    let count_dir = base.join("count");
    std::fs::remove_dir_all(&count_dir).ok();
    let m = build(&count_dir).open()?;
    let scm_config = m.sim().config().clone();
    let counter = FaultPlan::count_only();
    m.sim().set_fault_plan(counter.clone());
    workload(&m)?;
    let total = counter.primitives();
    m.sim().clear_fault_plan();
    report.workload_primitives = total;
    let (dir, img) = m.crash(config.policy);
    match build(&dir).from_image(img).open() {
        Ok(m2) => {
            if let Err(msg) = check(&m2) {
                report.failures.push(SweepFailure {
                    crash_index: total,
                    recovery_index: None,
                    stage: "baseline-invariant",
                    detail: msg,
                });
            }
        }
        Err(e) => report.failures.push(SweepFailure {
            crash_index: total,
            recovery_index: None,
            stage: "baseline-recovery",
            detail: e.to_string(),
        }),
    }
    std::fs::remove_dir_all(&count_dir).ok();

    let stride = (total / config.max_points.max(1) as u64).max(1);
    let mut idx = 0u64;
    while idx < total {
        let before = report.failures.len();
        let run_dir = base.join(format!("p{idx}"));
        std::fs::remove_dir_all(&run_dir).ok();
        run_point(
            &run_dir,
            idx,
            config,
            &scm_config,
            &build,
            &workload,
            &check,
            &mut report,
        )?;
        let failed = report.failures.len() > before;
        if !failed || !config.keep_failing_dirs {
            std::fs::remove_dir_all(&run_dir).ok();
        }
        idx += stride;
    }
    Ok(report)
}

/// One crash point: boot fresh, die at primitive `idx`, reboot, check —
/// then optionally crash recovery itself.
#[allow(clippy::too_many_arguments)]
fn run_point<B, W, C>(
    run_dir: &Path,
    idx: u64,
    config: &SweepConfig,
    scm_config: &crate::ScmConfig,
    build: &B,
    workload: &W,
    check: &C,
    report: &mut SweepReport,
) -> Result<(), Error>
where
    B: Fn(&Path) -> MnemosyneBuilder,
    W: Fn(&Mnemosyne) -> Result<(), Error>,
    C: Fn(&Mnemosyne) -> Result<(), String>,
{
    let m = build(run_dir).open()?;
    let plan = FaultPlan::crash_at(idx);
    m.sim().set_fault_plan(plan.clone());
    let run = catch_unwind(AssertUnwindSafe(|| workload(&m)));
    report.points_tested += 1;
    match &run {
        // A background thread (log manager) can absorb the crash while the
        // workload thread completes; `fired` is the ground truth.
        Ok(Ok(())) | Ok(Err(_)) if plan.fired().is_some() => report.crashes_fired += 1,
        Ok(Ok(())) => report.completed_runs += 1,
        Ok(Err(e)) => {
            report.failures.push(SweepFailure {
                crash_index: idx,
                recovery_index: None,
                stage: "workload-error",
                detail: e.to_string(),
            });
            return Ok(());
        }
        Err(payload) => {
            if crate::crash_payload(&**payload).is_some() {
                report.crashes_fired += 1;
            } else {
                report.failures.push(SweepFailure {
                    crash_index: idx,
                    recovery_index: None,
                    stage: "workload-panic",
                    detail: payload_str(&**payload),
                });
                return Ok(());
            }
        }
    }

    let (dir, img) = m.crash(config.policy);
    let reboot = catch_unwind(AssertUnwindSafe(|| {
        build(&dir).from_image(img.clone()).open()
    }));
    let mut recovered = false;
    match reboot {
        Ok(Ok(m2)) => {
            recovered = true;
            if let Err(msg) = check(&m2) {
                report.failures.push(SweepFailure {
                    crash_index: idx,
                    recovery_index: None,
                    stage: "invariant",
                    detail: msg,
                });
            }
        }
        // A bare crash leaves no corruption, so recovery returning a typed
        // error — or worse, panicking — is a hardening bug, not noise.
        Ok(Err(e)) => report.failures.push(SweepFailure {
            crash_index: idx,
            recovery_index: None,
            stage: "recovery-error",
            detail: e.to_string(),
        }),
        Err(payload) => report.failures.push(SweepFailure {
            crash_index: idx,
            recovery_index: None,
            stage: "recovery-panic",
            detail: payload_str(&*payload),
        }),
    }

    if config.recovery_points == 0 || !recovered {
        return Ok(());
    }

    // Double-crash pass: enumerate recovery's own primitives from this
    // image, then kill recovery mid-replay at evenly-spread points. The
    // sweep keeps its own handle on the machine so the mutated media is
    // still reachable after `open()` unwinds.
    let rcount = FaultPlan::count_only();
    let m2 = match build(&dir)
        .from_image(img.clone())
        .fault_plan(rcount.clone())
        .open()
    {
        Ok(m2) => m2,
        Err(e) => {
            report.failures.push(SweepFailure {
                crash_index: idx,
                recovery_index: None,
                stage: "recovery-error",
                detail: format!("recovery failed on re-run: {e}"),
            });
            return Ok(());
        }
    };
    let r_total = rcount.primitives();
    m2.sim().clear_fault_plan();
    drop(m2);

    for k in 0..config.recovery_points {
        let j = r_total * (2 * k as u64 + 1) / (2 * config.recovery_points as u64);
        let sim = ScmSim::from_image(&img, scm_config.clone());
        let rplan = FaultPlan::crash_at(j);
        sim.set_fault_plan(rplan.clone());
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            build(&dir).with_sim(sim.clone()).open()
        }));
        report.recovery_points_tested += 1;
        let img2 = match attempt {
            Ok(Ok(m3)) => m3.crash(config.policy).1,
            Ok(Err(e)) if rplan.fired().is_none() => {
                report.failures.push(SweepFailure {
                    crash_index: idx,
                    recovery_index: Some(j),
                    stage: "recovery-crash-error",
                    detail: e.to_string(),
                });
                continue;
            }
            Err(ref payload) if crate::crash_payload(&**payload).is_none() => {
                report.failures.push(SweepFailure {
                    crash_index: idx,
                    recovery_index: Some(j),
                    stage: "recovery-crash-panic",
                    detail: payload_str(&**payload),
                });
                continue;
            }
            // The plan fired mid-recovery (typed error or unwind): the
            // machine is dead, but our clone still reaches the media.
            _ => {
                sim.crash(config.policy);
                sim.image()
            }
        };
        match catch_unwind(AssertUnwindSafe(|| build(&dir).from_image(img2).open())) {
            Ok(Ok(m4)) => {
                if let Err(msg) = check(&m4) {
                    report.failures.push(SweepFailure {
                        crash_index: idx,
                        recovery_index: Some(j),
                        stage: "invariant",
                        detail: msg,
                    });
                }
            }
            Ok(Err(e)) => report.failures.push(SweepFailure {
                crash_index: idx,
                recovery_index: Some(j),
                stage: "recovery-error",
                detail: e.to_string(),
            }),
            Err(payload) => report.failures.push(SweepFailure {
                crash_index: idx,
                recovery_index: Some(j),
                stage: "recovery-panic",
                detail: payload_str(&*payload),
            }),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mnemo-sweep-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    /// A small monotone-counter workload: each transaction bumps the
    /// counter by exactly 1, so any recovered value in `0..=N` is legal
    /// and anything else is corruption.
    fn bump_workload(m: &Mnemosyne, bumps: u64) -> Result<(), Error> {
        let cell = m.pstatic("sweepcell", 8)?;
        let mut th = m.register_thread()?;
        for _ in 0..bumps {
            th.atomic(|tx| {
                let v = tx.read_u64(cell)?;
                tx.write_u64(cell, v + 1)?;
                Ok(())
            })?;
        }
        Ok(())
    }

    fn check_counter(m: &Mnemosyne, max: u64) -> Result<(), String> {
        let cell = m.pstatic("sweepcell", 8).map_err(|e| e.to_string())?;
        let mut th = m.register_thread().map_err(|e| e.to_string())?;
        let v = th
            .atomic(|tx| tx.read_u64(cell))
            .map_err(|e| e.to_string())?;
        if v <= max {
            Ok(())
        } else {
            Err(format!(
                "counter {v} exceeds the {max} increments ever made"
            ))
        }
    }

    #[test]
    fn small_sweep_passes_and_is_deterministic() {
        let d = dir("small");
        let cfg = SweepConfig {
            max_points: 12,
            recovery_points: 0,
            ..SweepConfig::default()
        };
        let run = |base: &Path| {
            crash_sweep(
                base,
                &cfg,
                |p| {
                    Mnemosyne::builder(p)
                        .scm_config(crate::ScmConfig::for_testing(8 << 20))
                        .truncation(crate::Truncation::Sync)
                },
                |m| bump_workload(m, 3),
                |m| check_counter(m, 3),
            )
            .unwrap()
        };
        let r1 = run(&d.join("a"));
        assert!(r1.passed(), "failures: {:?}", r1.failures);
        assert!(r1.points_tested >= 10);
        assert!(r1.crashes_fired > 0);
        let r2 = run(&d.join("b"));
        assert_eq!(r1.workload_primitives, r2.workload_primitives);
        assert_eq!(r1.crashes_fired, r2.crashes_fired);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn sweep_with_recovery_crashes_passes() {
        let d = dir("double");
        let cfg = SweepConfig {
            max_points: 4,
            recovery_points: 2,
            ..SweepConfig::default()
        };
        let report = crash_sweep(
            &d,
            &cfg,
            |p| {
                Mnemosyne::builder(p)
                    .scm_config(crate::ScmConfig::for_testing(8 << 20))
                    .truncation(crate::Truncation::Sync)
            },
            |m| bump_workload(m, 2),
            |m| check_counter(m, 2),
        )
        .unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.recovery_points_tested > 0);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn sweep_surfaces_invariant_violations() {
        // A checker that rejects everything must produce a failure per
        // reboot, proving the sweep doesn't swallow violations.
        let d = dir("viol");
        let cfg = SweepConfig {
            max_points: 2,
            recovery_points: 0,
            keep_failing_dirs: false,
            ..SweepConfig::default()
        };
        let report = crash_sweep(
            &d,
            &cfg,
            |p| Mnemosyne::builder(p).scm_config(crate::ScmConfig::for_testing(8 << 20)),
            |m| bump_workload(m, 1),
            |_| Err("always unhappy".to_string()),
        )
        .unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.stage.contains("invariant")));
        // No scratch dirs left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&d)
            .map(|it| it.filter_map(|e| e.ok()).collect())
            .unwrap_or_default();
        assert!(
            leftovers.is_empty(),
            "scratch dirs left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn report_display_is_informative() {
        let r = SweepReport {
            workload_primitives: 100,
            points_tested: 10,
            crashes_fired: 9,
            completed_runs: 1,
            recovery_points_tested: 0,
            failures: vec![],
        };
        let s = r.to_string();
        assert!(s.contains("10 crash points"));
        assert!(s.contains("100 primitives"));
    }
}
