//! One run of one workload: set-up, the measured window, the restart
//! cycles and the durability sweep, and the metrics they yield.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mnemosyne_obs::TelemetrySnapshot;
use mnemosyne_svc::Client;

use crate::daemon::{self, Daemon, ScratchDir, DAEMON_FLAGS};
use crate::gen::{self, Workload, CONNS, KEYS, VALUE_LEN, ZIPF_THETA};
use crate::load::{self, ConnResult, Plan};
use crate::report::{Facts, Metric};
use crate::stats::{mean, median, percentile};
use crate::verify::{Checker, Flag};
use crate::{probes, wire};

/// Load applied before the measured window opens, so the window sees a
/// daemon whose caches, logs and checkpoint cadence have settled.
pub const WARMUP: Duration = Duration::from_secs(3);
/// Fresh daemons set up per untraced run; `setup_s` is their median and
/// the last one serves the run.
const SETUPS: usize = 3;
/// Graceful restart cycles per untraced run; `restart_s` is their median.
const RESTARTS: usize = 5;
/// A p99 needs ten samples beyond it.
const P99_MIN_SAMPLES: usize = 1000;

/// Where a run finds its daemon binary and keeps its files.
pub struct Env {
    daemon_bin: PathBuf,
    /// `<target>/kvload/run-<pid>`, removed when the command ends.
    pub scratch: ScratchDir,
}

/// What one run of one workload produced.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the mode that ran, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Numbers printed for the reader but not part of the contract.
    pub extra: Vec<Metric>,
    pub facts: Facts,
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// Spawns a daemon on a fresh `dir` and loads the key space into it.
fn set_up(env: &Env, dir: &Path) -> Result<Daemon, String> {
    std::fs::remove_dir_all(dir).ok();
    let d = Daemon::spawn(&env.daemon_bin, dir)?;
    load::preload(&d.addr)?;
    Ok(d)
}

/// What the main thread samples at the window's edges while the
/// connection threads run.
struct Edges {
    /// The daemon's CPU time at every slice boundary of the window.
    cpu_us: Vec<u64>,
    rss_peak_kb: u64,
    /// `(before, after)` STATS snapshots, traced runs only.
    stats: Option<(String, String)>,
}

/// The main thread's part of a measured run: joins the start barrier,
/// then samples the daemon at the window's slice boundaries.
fn sample_edges(
    d: &Daemon,
    plan: &Plan,
    admin: &mut Client,
    start: &Barrier,
) -> Result<Edges, String> {
    let mut stats = || admin.stats().map_err(|e| format!("STATS: {e}"));
    start.wait();
    let win_start = Instant::now() + plan.warmup;
    sleep_until(win_start);
    let before = plan.trace.then(&mut stats).transpose()?;
    let mut cpu_us = vec![d.cpu_us()?];
    for slice in 1..=load::slices(plan) {
        sleep_until(win_start + load::SLICE * slice as u32);
        cpu_us.push(d.cpu_us()?);
    }
    let after = plan.trace.then(&mut stats).transpose()?;
    Ok(Edges {
        cpu_us,
        rss_peak_kb: d.rss_peak_kb()?,
        stats: before.zip(after),
    })
}

fn measure(
    d: &Daemon,
    w: &Workload,
    seed: u64,
    plan: &Plan,
    checkers: &mut [Checker],
) -> Result<(Vec<ConnResult>, Edges), String> {
    // Connected before any thread waits on the barrier, so a failure
    // here cannot leave them waiting.
    let mut admin = Client::connect(&d.addr).map_err(|e| format!("admin connect: {e}"))?;
    let start = Barrier::new(CONNS + 1);
    std::thread::scope(|s| {
        let drivers: Vec<_> = checkers
            .iter_mut()
            .enumerate()
            .map(|(c, checker)| {
                let (addr, start) = (d.addr.as_str(), &start);
                s.spawn(move || load::drive(addr, c, w, seed, plan, start, checker))
            })
            .collect();
        let edges = sample_edges(d, plan, &mut admin, &start);
        let results = drivers
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>();
        Ok((results?, edges?))
    })
}

/// Gracefully restarts the daemon; returns it with the seconds from
/// spawn to the first GET answered and the redo records the boot replayed.
fn restart(env: &Env, d: Daemon, dir: &Path) -> Result<(Daemon, f64, u64), String> {
    if !d.shutdown()? {
        eprintln!(
            "kvload: note: the daemon closed the socket before its SHUTDOWN ack; it exited cleanly"
        );
    }
    let t = Instant::now();
    let d = Daemon::spawn(&env.daemon_bin, dir)?;
    let mut client = Client::connect(&d.addr).map_err(|e| format!("after restart: {e}"))?;
    let found = client
        .get(&gen::key_bytes(0))
        .map_err(|e| format!("first GET after restart: {e}"))?;
    let seconds = t.elapsed().as_secs_f64();
    if found.is_none() {
        return Err("first GET after restart: key 0 is gone".into());
    }
    // Not timed: how many redo records this boot replayed (see
    // `Daemon::shutdown` for why the answer should be none).
    let replayed = client
        .stats()
        .map_err(|e| e.to_string())
        .and_then(|json| TelemetrySnapshot::from_json(&json).map_err(|e| e.to_string()))
        .map_err(|e| format!("STATS after restart: {e}"))?
        .counter("mtm.replayed");
    Ok((d, seconds, replayed))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

pub fn run_workload(
    env: &Env,
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunReport, String> {
    let epoch = Instant::now();
    let plan = Plan {
        warmup: WARMUP,
        window: Duration::from_secs(seconds),
        trace,
    };
    let dir = env.scratch.0.join("data");

    // Set-up. Only an untraced run reports `setup_s`, so only it pays
    // for repeats; the earlier daemons are killed, the last one serves.
    let mut setup_s = Vec::new();
    let mut d = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(d.take());
        let t = Instant::now();
        d = Some(set_up(env, &dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut d = d.expect("at least one set-up");

    let mut checkers = vec![Checker::new(); CONNS];
    let (results, edges) = measure(&d, w, seed, &plan, &mut checkers)?;

    // Durability across graceful restarts. (The simulated SCM is process
    // memory, so a killed daemon loses acknowledged writes by
    // construction; only the graceful path can be held to zero loss.)
    let mut restart_s = Vec::new();
    let mut redo_replayed = 0;
    for _ in 0..if trace { 1 } else { RESTARTS } {
        let (next, s, replayed) = restart(env, d, &dir)?;
        d = next;
        restart_s.push(s);
        redo_replayed += replayed;
    }
    let bad_keys = load::sweep(&d.addr, &checkers)?;
    drop(d);

    // Client-side numbers.
    let mut get_ns: Vec<u64> = results
        .iter()
        .flat_map(|r| r.get_ns.iter().copied())
        .collect();
    let mut put_ns: Vec<u64> = results
        .iter()
        .flat_map(|r| r.put_ns.iter().copied())
        .collect();
    let mut all_ns: Vec<u64> = get_ns.iter().chain(&put_ns).copied().collect();
    for v in [&mut get_ns, &mut put_ns, &mut all_ns] {
        v.sort_unstable();
    }
    let acked = all_ns.len() as u64;
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let attempted = acked + failed;
    let flags: Vec<(u64, Flag)> = results
        .iter()
        .flat_map(|r| r.flags.iter().copied())
        .collect();
    let lost = bad_keys
        .iter()
        .filter(|(_, f)| matches!(f, Flag::Stale | Flag::Missing))
        .count();
    for (key, flag) in flags.iter().chain(&bad_keys).take(10) {
        eprintln!("kvload: key {key}: {flag:?}");
    }
    if acked == 0 {
        return Err("no request was acknowledged inside the window".into());
    }
    let p99 = |v: &[u64]| {
        if v.len() >= P99_MIN_SAMPLES {
            us(percentile(v, 99.0))
        } else {
            0.0
        }
    };

    let mut facts = Facts::machine();
    facts.push("workload", w.name);
    facts.push("seed", seed);
    facts.push("trace", trace);
    facts.push("daemon_flags", DAEMON_FLAGS.join(" "));
    facts.push("engine", "stm");
    facts.push("emulation_mode", "none");
    facts.push("keys", KEYS);
    facts.push("value_bytes", VALUE_LEN);
    facts.push("connections", CONNS);
    facts.push("window_per_connection", w.window);
    facts.push("get_pct", w.get_pct);
    facts.push("key_distribution", format!("{:?}", w.dist));
    facts.push("zipf_theta", ZIPF_THETA);
    facts.push("warmup_s", WARMUP.as_secs());
    facts.push("measured_s", seconds);
    facts.push("samples", acked);
    facts.push("get_samples", get_ns.len());
    facts.push("put_samples", put_ns.len());
    facts.push("setup_s_each", format!("{setup_s:.3?}"));
    facts.push("restart_s_each", format!("{restart_s:.3?}"));
    facts.push("redo_records_replayed_at_restart", redo_replayed);

    // Throughput and CPU cost are medians over the window's slices: the
    // host's speed shifts for seconds at a time, and a median ignores a
    // burst where a mean absorbs it.
    let by_slice: Vec<u64> = (0..load::slices(&plan))
        .map(|i| results.iter().map(|r| r.acked_by_slice[i]).sum())
        .collect();
    let slice_rates: Vec<f64> = by_slice
        .iter()
        .map(|&n| n as f64 / load::SLICE.as_secs_f64())
        .collect();
    let throughput = median(&slice_rates);
    let cpu_per_op: Vec<f64> = edges
        .cpu_us
        .windows(2)
        .zip(&by_slice)
        .filter(|(_, &n)| n > 0)
        .map(|(cpu, &n)| (cpu[1] - cpu[0]) as f64 / n as f64)
        .collect();
    let client = vec![
        Metric::new("cpu_us_per_op", median(&cpu_per_op), "us"),
        Metric::new("lat_p50_us", us(percentile(&all_ns, 50.0)), "us"),
        Metric::new("lat_p99_us", p99(&all_ns), "us"),
        Metric::new("get_p50_us", us(percentile(&get_ns, 50.0)), "us"),
        Metric::new("get_p99_us", p99(&get_ns), "us"),
        Metric::new("put_p50_us", us(percentile(&put_ns, 50.0)), "us"),
        Metric::new("put_p99_us", p99(&put_ns), "us"),
        Metric::new(
            "failed_ops_pct",
            failed as f64 * 100.0 / attempted as f64,
            "%",
        ),
        Metric::new("lost_acked_writes", lost as f64, "count"),
    ];
    let (metrics, extra) = if let Some((before, after)) = &edges.stats {
        let parse =
            |s: &str| TelemetrySnapshot::from_json(s).map_err(|e| format!("STATS reply: {e}"));
        let delta = parse(after)?.since(&parse(before)?);
        let totals = wire::WindowTotals {
            acked,
            puts: put_ns.len() as u64,
            seconds: plan.window.as_secs_f64(),
            mean_latency_ns: mean(&all_ns),
        };
        let mut metrics = wire::layer_metrics(&delta, &totals);
        let probed = probes::run(&env.scratch.0, seed, epoch)?;
        metrics.extend(probed.metrics);
        metrics.extend(client);
        // Spans are recorded in the odd slices, which cover half the
        // window, as the even ones do.
        let [untraced, traced] =
            [0, 1].map(|parity| by_slice.iter().skip(parity).step_by(2).sum::<u64>() as f64);
        metrics.push(Metric::new(
            "trace_overhead_pct",
            (untraced - traced) * 100.0 / untraced,
            "%",
        ));
        let spans: Vec<load::Span> = results
            .iter()
            .flat_map(|r| r.spans.iter().copied())
            .collect();
        let window_ns = (
            plan.warmup.as_nanos() as u64,
            (plan.warmup + plan.window).as_nanos() as u64,
        );
        let trace_path = env
            .scratch
            .0
            .parent()
            .expect("scratch lives under the target directory")
            .join("trace.jsonl");
        wire::write_trace(&trace_path, w.name, window_ns, &spans, &probed.spans)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        facts.push("trace_file", trace_path.display());
        facts.push("trace_spans", spans.len());
        let extra = vec![Metric::new("throughput_ops_s", throughput, "1/s")];
        (metrics, extra)
    } else {
        let metrics = vec![
            Metric::new("throughput_ops_s", throughput, "1/s"),
            Metric::new("rss_peak_mb", edges.rss_peak_kb as f64 / 1024.0, "MB"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("restart_s", median(&restart_s), "s"),
        ];
        (metrics, client)
    };

    Ok(RunReport {
        correct: failed == 0 && flags.is_empty() && bad_keys.is_empty(),
        attempted,
        failed,
        metrics,
        extra,
        facts,
    })
}

/// Builds the daemon, makes the scratch directory and arms the watchdog
/// for `planned` seconds of work.
pub fn prepare(planned: Duration) -> Result<Env, String> {
    let target = daemon::target_dir()?;
    let daemon_bin = daemon::build_daemon(&target)?;
    let run_dir = target
        .join("kvload")
        .join(format!("run-{}", std::process::id()));
    let scratch = ScratchDir::create(run_dir)?;
    daemon::arm_watchdog(planned * 3, scratch.0.clone());
    Ok(Env {
        daemon_bin,
        scratch,
    })
}
