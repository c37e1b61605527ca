//! `kvctl` — one-shot CLI client for `mnemosyned`.
//!
//! ```text
//! kvctl ADDR ping
//! kvctl ADDR put KEY VALUE
//! kvctl ADDR get KEY
//! kvctl ADDR del KEY
//! kvctl ADDR scan PREFIX [LIMIT]
//! kvctl ADDR shutdown
//! kvctl ADDR stats [--json]
//! kvctl ADDR checkpoint [--json]
//! kvctl ADDR health [--json]
//! kvctl ADDR grow BYTES [--json]     # BYTES accepts k/m/g suffixes
//! ```
//!
//! Keys/values are taken as UTF-8 from the command line; `get` prints
//! the value (lossily) to stdout. Exit code 1 means "not found", 2 a
//! usage error, 3 an I/O or server failure, 4 the server shedding load
//! (`Overloaded`/`Draining` — the request was not applied; retry later).
//!
//! The admin verbs (`stats`, `checkpoint`, `health`, `grow`) run on the
//! server's admin side path, so `stats` and `health` answer even while
//! the daemon is saturated or draining. `--json` switches from the
//! human-readable rendering to machine-readable JSON (for `stats`, the
//! raw `mnemosyne-telemetry-v1` snapshot exactly as the server sent it).
//!
//! Transient failures are retried with bounded exponential backoff:
//! connect attempts cover a daemon restart window, and `Overloaded`
//! replies (which are shed before enqueueing, so retrying is safe) are
//! retried a few times before giving up with exit code 4.

use std::process::ExitCode;
use std::time::Duration;

use mnemosyne_obs::TelemetrySnapshot;
use mnemosyne_svc::{Client, ClientError};

fn usage() -> ExitCode {
    eprintln!(
        "usage: kvctl ADDR ping | put KEY VALUE | get KEY | del KEY | \
         scan PREFIX [LIMIT] | shutdown | stats [--json] | \
         checkpoint [--json] | health [--json] | grow BYTES [--json]"
    );
    ExitCode::from(2)
}

/// Parses a byte count with an optional k/m/g suffix (powers of 1024).
fn parse_bytes(s: &str) -> Option<u64> {
    let lower = s.to_ascii_lowercase();
    let (num, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(n) => match lower.as_bytes()[lower.len() - 1] {
            b'k' => (n, 10),
            b'm' => (n, 20),
            _ => (n, 30),
        },
        None => (lower.as_str(), 0),
    };
    let v: u64 = num.parse().ok()?;
    v.checked_mul(1 << shift)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let json = raw.iter().any(|a| a == "--json");
    let args: Vec<String> = raw.into_iter().filter(|a| a != "--json").collect();
    let (Some(addr), Some(cmd)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let mut client = match Client::connect_with_retry(addr, 4, Duration::from_millis(25)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("kvctl: cannot connect to {addr}: {e}");
            return ExitCode::from(3);
        }
    };
    client.set_retry(4, Duration::from_millis(5));
    let result = match (cmd.as_str(), args.get(2), args.get(3)) {
        ("ping", None, None) => client.ping().map(|()| {
            println!("PONG");
            ExitCode::SUCCESS
        }),
        ("put", Some(k), Some(v)) => client.put(k.as_bytes(), v.as_bytes()).map(|()| {
            println!("OK");
            ExitCode::SUCCESS
        }),
        ("get", Some(k), None) => client.get(k.as_bytes()).map(|v| match v {
            Some(v) => {
                println!("{}", String::from_utf8_lossy(&v));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("kvctl: not found");
                ExitCode::FAILURE
            }
        }),
        ("del", Some(k), None) => client.del(k.as_bytes()).map(|existed| {
            if existed {
                println!("OK");
                ExitCode::SUCCESS
            } else {
                eprintln!("kvctl: not found");
                ExitCode::FAILURE
            }
        }),
        ("scan", Some(p), limit) => {
            let limit: u32 = match limit.map(|l| l.parse()) {
                Some(Ok(n)) => n,
                None => 0,
                Some(Err(_)) => return usage(),
            };
            client.scan(p.as_bytes(), limit).map(|entries| {
                for (k, v) in entries {
                    println!(
                        "{}\t{}",
                        String::from_utf8_lossy(&k),
                        String::from_utf8_lossy(&v)
                    );
                }
                ExitCode::SUCCESS
            })
        }
        ("shutdown", None, None) => client.shutdown().map(|()| {
            println!("OK");
            ExitCode::SUCCESS
        }),
        ("stats", None, None) => client.stats().and_then(|raw| {
            if json {
                println!("{raw}");
                return Ok(ExitCode::SUCCESS);
            }
            match TelemetrySnapshot::from_json(&raw) {
                Ok(snap) => {
                    print!("{}", snap.to_text());
                    Ok(ExitCode::SUCCESS)
                }
                Err(e) => Err(ClientError::Unexpected(format!(
                    "unparseable telemetry snapshot: {e}"
                ))),
            }
        }),
        ("checkpoint", None, None) => client.checkpoint().map(|s| {
            if json {
                println!(
                    "{{\"reclaimed_words\": {}, \"outstanding_before\": {}, \
                     \"outstanding_after\": {}, \"duration_ns\": {}}}",
                    s.reclaimed_words, s.outstanding_before, s.outstanding_after, s.duration_ns
                );
            } else {
                println!(
                    "checkpoint: reclaimed {} log words ({} -> {} outstanding) in {:.3} ms",
                    s.reclaimed_words,
                    s.outstanding_before,
                    s.outstanding_after,
                    s.duration_ns as f64 / 1e6
                );
            }
            ExitCode::SUCCESS
        }),
        ("health", None, None) => client.health().map(|h| {
            if json {
                println!(
                    "{{\"uptime_ms\": {}, \"conns\": {}, \"queue_depth\": {}, \
                     \"inflight\": {}, \"outstanding_log_words\": {}, \"draining\": {}}}",
                    h.uptime_ms,
                    h.conns,
                    h.queue_depth,
                    h.inflight,
                    h.outstanding_log_words,
                    h.draining
                );
            } else {
                println!(
                    "up {:.1}s  conns {}  queue {} (+{} in flight)  \
                     outstanding log words {}  {}",
                    h.uptime_ms as f64 / 1e3,
                    h.conns,
                    h.queue_depth,
                    h.inflight,
                    h.outstanding_log_words,
                    if h.draining { "DRAINING" } else { "serving" }
                );
            }
            ExitCode::SUCCESS
        }),
        ("grow", Some(b), None) => {
            let Some(bytes) = parse_bytes(b) else {
                return usage();
            };
            client.grow(bytes).map(|g| {
                if json {
                    println!(
                        "{{\"grown_bytes\": {}, \"large_capacity_bytes\": {}}}",
                        g.grown_bytes, g.large_capacity_bytes
                    );
                } else {
                    println!(
                        "grew heap by {} bytes (large capacity now {} bytes)",
                        g.grown_bytes, g.large_capacity_bytes
                    );
                }
                ExitCode::SUCCESS
            })
        }
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e @ (ClientError::Overloaded | ClientError::Draining)) => {
            eprintln!("kvctl: {e}");
            ExitCode::from(4)
        }
        Err(e) => {
            eprintln!("kvctl: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_bytes;

    #[test]
    fn parse_bytes_scales_suffixes() {
        assert_eq!(parse_bytes("0"), Some(0));
        assert_eq!(parse_bytes("4k"), Some(4 << 10));
        assert_eq!(parse_bytes("1g"), Some(1 << 30));
    }

    #[test]
    fn parse_bytes_rejects_overflowing_sizes() {
        assert_eq!(parse_bytes("17179869185g"), None);
        assert_eq!(parse_bytes("18014398509481985k"), None);
    }
}
