//! `mnemosyned` — the persistent key-value daemon.
//!
//! ```text
//! mnemosyned --dir DATA [--addr 127.0.0.1:7077] [--max-batch 64]
//!            [--scm-mb 64] [--max-conns 256] [--max-queue 1024]
//!            [--max-admin 4]
//! ```
//!
//! First run creates the persistent heap under `--dir`; later runs
//! resume it (a graceful shutdown — `kvctl ADDR shutdown` — drains the
//! request queue, empties the redo logs and saves the media image; an
//! abrupt kill loses the simulated SCM, which is process memory). The
//! daemon prints `listening on ADDR` once it is serving.
//!
//! Operationally the daemon degrades rather than stalls: past
//! `--max-conns` connections or `--max-queue` queued requests it
//! answers `Overloaded` (shed before enqueueing, safe to retry). Every
//! commit empties its own redo log before it is acknowledged, so there
//! is no log backlog to manage.
//!
//! Operators watch and steer the daemon over the same socket through
//! the admin verbs — `kvctl ADDR stats | health | checkpoint |
//! grow BYTES` — which run on a bounded side path (`--max-admin`
//! concurrent, 0 unbounded) that never queues behind data-plane traffic,
//! so STATS and HEALTH answer even when the daemon is saturated or
//! draining. See OPERATIONS.md for the runbook and PROTOCOL.md for the
//! wire format.

use std::path::PathBuf;
use std::process::ExitCode;

use mnemosyne::Mnemosyne;
use mnemosyne_svc::{KvServer, KvService, SvcConfig};

/// Transaction-runtime slots. The service holds one (its combiner), but
/// recovery replays exactly this many redo logs, so it stays at 4 — what
/// earlier daemons booted with by default — and a `--dir` they wrote
/// reopens with every log that can still hold records.
const MAX_THREADS: usize = 4;

struct Args {
    dir: PathBuf,
    addr: String,
    max_batch: usize,
    scm_mb: u64,
    max_conns: usize,
    max_queue: usize,
    max_admin: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: mnemosyned --dir DATA [--addr 127.0.0.1:7077] [--max-batch 64] \
         [--scm-mb 64] [--max-conns 256] [--max-queue 1024] [--max-admin 4]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: PathBuf::new(),
        addr: "127.0.0.1:7077".to_string(),
        max_batch: 64,
        scm_mb: 64,
        max_conns: 256,
        max_queue: 1024,
        max_admin: SvcConfig::default().max_admin,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--dir" => args.dir = PathBuf::from(val()),
            "--addr" => args.addr = val(),
            "--max-batch" => args.max_batch = val().parse().unwrap_or_else(|_| usage()),
            "--scm-mb" => args.scm_mb = val().parse().unwrap_or_else(|_| usage()),
            "--max-conns" => args.max_conns = val().parse().unwrap_or_else(|_| usage()),
            "--max-queue" => args.max_queue = val().parse().unwrap_or_else(|_| usage()),
            "--max-admin" => args.max_admin = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if args.dir.as_os_str().is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let m = match Mnemosyne::builder(&args.dir)
        .scm_size(args.scm_mb << 20)
        .max_threads(MAX_THREADS)
        .open()
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mnemosyned: cannot open {}: {e}", args.dir.display());
            return ExitCode::FAILURE;
        }
    };
    let svc = match KvService::start(
        &m,
        SvcConfig {
            max_batch: args.max_batch,
            max_conns: args.max_conns,
            max_queue: args.max_queue,
            max_admin: args.max_admin,
            ..SvcConfig::default()
        },
    ) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("mnemosyned: cannot start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match KvServer::bind(svc.clone(), &args.addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mnemosyned: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());

    server.wait_shutdown_requested();
    eprintln!("mnemosyned: shutdown requested, powering down");
    server.stop();
    svc.stop();
    if let Err(e) = m.shutdown() {
        eprintln!("mnemosyned: shutdown failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
