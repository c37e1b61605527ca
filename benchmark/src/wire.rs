//! Per-layer costs of a traced window, from the daemon's own telemetry
//! (a STATS snapshot before and after, diffed) and the client's spans.

use std::io::{BufWriter, Write};
use std::path::Path;

use mnemosyne_obs::TelemetrySnapshot;

use crate::gen::VALUE_LEN;
use crate::load::{Outcome, Span};
use crate::report::Metric;

/// Bytes of user data one PUT carries: the 16-byte key and the value.
const USER_BYTES_PER_PUT: f64 = 16.0 + VALUE_LEN as f64;

/// What the client measured over the traced window.
pub struct WindowTotals {
    pub acked: u64,
    pub puts: u64,
    pub seconds: f64,
    pub mean_latency_ns: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Turns the telemetry accumulated over the window into per-operation
/// costs. `d` is `after.since(&before)`.
pub fn layer_metrics(d: &TelemetrySnapshot, w: &WindowTotals) -> Vec<Metric> {
    let c = |name: &str| d.counter(name) as f64;
    let hist_mean = |name: &str| {
        d.histogram(name)
            .map_or(0.0, |h| ratio(h.sum as f64, h.count as f64))
    };
    let ops = w.acked as f64;
    let kops = ops / 1000.0;
    let commits = c("mtm.commits");
    let media_bytes = 64.0 * c("scm.dirty_flushes") + 8.0 * c("scm.wtstore_words");
    let batch_exec = hist_mean("svc.request_ns");

    let mut out = Vec::new();
    let mut m =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));
    m("scm.fences_per_op", ratio(c("scm.fences"), ops), "count");
    m("scm.flushes_per_op", ratio(c("scm.flushes"), ops), "count");
    m(
        "scm.dirty_flush_ratio",
        ratio(c("scm.dirty_flushes"), c("scm.flushes")),
        "ratio",
    );
    m("scm.reads_per_op", ratio(c("scm.reads"), ops), "count");
    m("scm.stores_per_op", ratio(c("scm.stores"), ops), "count");
    m(
        "scm.wtstore_words_per_op",
        ratio(c("scm.wtstore_words"), ops),
        "words",
    );
    m(
        "scm.write_amp",
        ratio(media_bytes, w.puts as f64 * USER_BYTES_PER_PUT),
        "ratio",
    );
    m(
        "region.page_ins_per_kop",
        ratio(c("region.page_ins"), kops),
        "count",
    );
    m(
        "rawl.appends_per_op",
        ratio(c("rawl.appends"), ops),
        "count",
    );
    m(
        "rawl.append_words_per_op",
        ratio(c("rawl.append_words"), ops),
        "words",
    );
    m(
        "rawl.flushes_per_op",
        ratio(c("rawl.flushes"), ops),
        "count",
    );
    m(
        "rawl.truncations_per_op",
        ratio(c("rawl.truncations"), ops),
        "count",
    );
    m(
        "pheap.allocs_per_op",
        ratio(c("pheap.allocs"), ops),
        "count",
    );
    m("pheap.frees_per_op", ratio(c("pheap.frees"), ops), "count");
    m(
        "pheap.shard_lock_contended_per_kop",
        ratio(c("pheap.shard_lock_contended"), kops),
        "count",
    );
    m("mtm.commits_per_op", ratio(commits, ops), "count");
    m(
        "mtm.aborts_per_commit",
        ratio(c("mtm.aborts"), commits),
        "count",
    );
    m(
        "mtm.commit_ratio",
        ratio(commits, c("mtm.tx_begins")),
        "ratio",
    );
    m(
        "mtm.lock_conflicts_per_commit",
        ratio(c("mtm.lock_conflicts"), commits),
        "count",
    );
    m(
        "mtm.group_fences_per_commit",
        ratio(c("mtm.group_fences"), commits),
        "count",
    );
    m("mtm.commit_ns_mean", hist_mean("mtm.commit_ns"), "ns");
    for phase in ["validate", "log", "writeback", "truncate"] {
        m(
            &format!("mtm.commit.{phase}_ns_mean"),
            hist_mean(&format!("mtm.commit.{phase}_ns")),
            "ns",
        );
    }
    m(
        "mtm.ckpt.runs_per_s",
        ratio(c("mtm.ckpt.runs"), w.seconds),
        "1/s",
    );
    m("mtm.ckpt.run_ns_mean", hist_mean("mtm.ckpt.run_ns"), "ns");
    m("svc.batch_size_mean", hist_mean("svc.batch_size"), "count");
    // `svc.request_ns` stamps every request with its whole batch's
    // execution time, so its mean is a batch time, not a request time.
    m("svc.batch_exec_ns_mean", batch_exec, "ns");
    // What the client waits for that is not batch execution: TCP, parse,
    // queue, the group-commit window, write-back of the reply.
    m(
        "svc.outside_worker_share",
        1.0 - ratio(batch_exec, w.mean_latency_ns),
        "ratio",
    );
    m(
        "svc.shed_per_kop",
        ratio(c("svc.overload.shed"), kops),
        "count",
    );
    out
}

/// Writes the trace: the workload's root span, then one span per request
/// recorded, then the layer probes' spans.
pub fn write_trace(
    path: &Path,
    workload: &str,
    window_ns: (u64, u64),
    spans: &[Span],
    probe_spans: &[String],
) -> std::io::Result<()> {
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        r#"{{"id":0,"span":"workload","name":"{workload}","t_start_ns":{},"t_end_ns":{}}}"#,
        window_ns.0, window_ns.1
    )?;
    for s in spans {
        let outcome = match s.outcome {
            Outcome::Ok => "ok".to_string(),
            Outcome::Refused => "refused".to_string(),
            Outcome::Lost => "lost".to_string(),
            Outcome::Wrong(flag) => format!("wrong:{flag:?}"),
        };
        writeln!(
            f,
            r#"{{"parent":0,"span":"request","conn":{},"seq":{},"op":"{}","t_send_ns":{},"t_recv_ns":{},"outcome":"{outcome}"}}"#,
            s.conn,
            s.seq,
            s.op.as_str(),
            s.t_send,
            s.t_recv
        )?;
    }
    writeln!(f, r#"{{"id":"probes","span":"layer_probes"}}"#)?;
    for line in probe_spans {
        writeln!(f, "{line}")?;
    }
    f.flush()
}
