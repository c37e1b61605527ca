//! Layer probes: each layer of the stack exercised alone, in process, on
//! one thread, through its public functions — median time per call plus
//! the exact telemetry counts the calls caused.
//!
//! The stack is booted the way `mnemosyned` boots it. The checkpoint
//! thread stays off (`SvcConfig::default()`), so nothing but the probing
//! thread touches the simulated SCM and every count repeats exactly.

use std::path::Path;
use std::time::Instant;

use mnemosyne::{Mnemosyne, Telemetry, TelemetrySnapshot, TornbitLog};
use mnemosyne_pds::{LfHashTable, PHashTable};
use mnemosyne_rawl::LOG_HEADER_BYTES;
use mnemosyne_svc::{Client, KvServer, KvService, Request, Response, SvcConfig};

use crate::gen::{encode_value, key_bytes, put_request, Rng, KEYS};
use crate::report::Metric;
use crate::stats::percentile;

/// Bytes of the scratch region the primitive probes write into.
const AREA_BYTES: u64 = 64 * 1024;
/// Words in the probe's own tornbit log: room for every append of a
/// probe, so no truncation lands inside a timed span.
const LOG_WORDS: u64 = 1 << 17;

#[derive(Default)]
pub struct Probes {
    pub metrics: Vec<Metric>,
    /// One JSON line per probe for `trace.jsonl`.
    pub spans: Vec<String>,
}

/// The telemetry a probe's calls accumulated.
struct Counts {
    delta: TelemetrySnapshot,
    calls: u64,
}

struct Bench<'a> {
    telemetry: &'a Telemetry,
    epoch: Instant,
    out: &'a mut Probes,
}

impl Bench<'_> {
    /// Runs `spans` timed spans of `calls` calls each and reports the
    /// median span, per call, as `<name>_ns`. Cheap calls are grouped so
    /// the clock reads do not dominate the span.
    fn time(&mut self, name: &str, spans: usize, calls: usize, mut f: impl FnMut(u64)) -> Counts {
        let before = self.telemetry.snapshot();
        let start = self.epoch.elapsed();
        let mut per_span = Vec::with_capacity(spans);
        let mut i = 0u64;
        for _ in 0..spans {
            let t = Instant::now();
            for _ in 0..calls {
                f(i);
                i += 1;
            }
            per_span.push(t.elapsed().as_nanos() as u64);
        }
        let end = self.epoch.elapsed();
        let delta = self.telemetry.snapshot().since(&before);
        per_span.sort_unstable();
        let median = percentile(&per_span, 50.0) as f64 / calls as f64;
        self.out
            .metrics
            .push(Metric::new(&format!("{name}_ns"), median, "ns"));
        self.out.spans.push(format!(
            r#"{{"parent":"probes","span":"probe","name":"{name}","t_start_ns":{},"t_end_ns":{},"calls":{i},"median_ns_per_call":{median:?}}}"#,
            start.as_nanos(),
            end.as_nanos()
        ));
        Counts { delta, calls: i }
    }

    /// Reports how far `counter` moved per call.
    fn count(&mut self, name: &str, counts: &Counts, counter: &str) {
        let per_call = counts.delta.counter(counter) as f64 / counts.calls as f64;
        let unit = if counter.ends_with("_words") {
            "words"
        } else {
            "count"
        };
        self.out.metrics.push(Metric::new(name, per_call, unit));
    }
}

fn err(e: impl std::fmt::Display) -> String {
    format!("layer probe: {e}")
}

fn boot(dir: &Path) -> Result<Mnemosyne, String> {
    // As `mnemosyned` does with its default flags (64 MB SCM, 2 workers).
    Mnemosyne::builder(dir)
        .scm_size(64 << 20)
        .max_threads(4)
        .open()
        .map_err(err)
}

/// Runs every probe. `dir` is scratch space for the two stacks' backing
/// files; `seed` picks the keys the table probes touch.
pub fn run(dir: &Path, seed: u64, epoch: Instant) -> Result<Probes, String> {
    let mut out = Probes::default();
    probe_stm_stack(&dir.join("probe-stm"), seed, epoch, &mut out)?;
    probe_lockfree_table(&dir.join("probe-lf"), seed, epoch, &mut out)?;
    Ok(out)
}

fn probe_stm_stack(dir: &Path, seed: u64, epoch: Instant, out: &mut Probes) -> Result<(), String> {
    let m = boot(dir)?;
    let mut b = Bench {
        telemetry: m.telemetry(),
        epoch,
        out,
    };
    let pmem = m.pmem_handle();
    let area = m
        .regions()
        .pmap("probe", AREA_BYTES, &pmem)
        .map_err(err)?
        .addr;
    let lines = AREA_BYTES / 64;

    // scm: the raw device, addressed physically within one resident page.
    let mem = m.sim().handle();
    let page = pmem.try_translate(area).map_err(err)?;
    b.time("scm.store_flush_fence", 400, 16, |i| {
        let p = page.add(i % 64 * 64);
        mem.store_u64(p, i);
        mem.flush(p);
        mem.fence();
    });
    b.time("scm.wtstore8_fence", 400, 16, |i| {
        let p = page.add(i % 64 * 64);
        for w in 0..8 {
            mem.wtstore_u64(p.add(w * 8), i);
        }
        mem.fence();
    });

    // region: a read through the virtual-address translation.
    b.time("region.read_u64", 400, 64, |i| {
        std::hint::black_box(pmem.read_u64(area.add(i % lines * 64)));
    });

    // rawl: append + flush on a log of the probe's own.
    let log_base = m
        .regions()
        .pmap("probe-log", LOG_HEADER_BYTES + LOG_WORDS * 8, &pmem)
        .map_err(err)?
        .addr;
    let mut log = TornbitLog::create(m.pmem_handle(), log_base, LOG_WORDS).map_err(err)?;
    let c = b.time("rawl.append8_flush", 500, 4, |i| {
        log.append(&[i; 8]).expect("log sized for the probe");
        log.flush();
    });
    b.count("rawl.append8_fences", &c, "scm.fences");
    log.truncate_all();
    b.time("rawl.append64_flush", 250, 4, |i| {
        log.append(&[i; 64]).expect("log sized for the probe");
        log.flush();
    });

    // pheap: one allocation and its release, anchored in a pstatic cell.
    let cell = m.pstatic("probe-cell", 8).map_err(err)?;
    let heap = m.heap();
    let c = b.time("pheap.alloc_free_128", 500, 4, |_| {
        heap.pmalloc(128, cell)
            .expect("heap has room for one block");
        heap.pfree(cell).expect("the cell holds the block");
    });
    b.count("pheap.alloc_free_128_fences", &c, "scm.fences");

    // mtm: durable transactions writing 1, 8 and 64 consecutive words.
    let mut th = m.register_thread().map_err(err)?;
    let mut commit = |b: &mut Bench, words: u64, spans: usize, calls: usize| {
        let slots = AREA_BYTES / (words * 8);
        b.time(&format!("mtm.commit{words}"), spans, calls, |i| {
            let base = area.add(i % slots * words * 8);
            th.atomic(|tx| {
                for w in 0..words {
                    tx.write_u64(base.add(w * 8), i)?;
                }
                Ok(())
            })
            .expect("uncontended transaction");
        })
    };
    commit(&mut b, 1, 500, 2);
    let c = commit(&mut b, 8, 500, 2);
    b.count("mtm.commit8_fences", &c, "scm.fences");
    b.count("mtm.commit8_log_words", &c, "rawl.append_words");
    commit(&mut b, 64, 200, 1);
    b.time("mtm.ro8", 500, 4, |i| {
        let base = area.add(i % (AREA_BYTES / 64) * 64);
        th.atomic(|tx| {
            let mut sum = 0u64;
            for w in 0..8 {
                sum = sum.wrapping_add(tx.read_u64(base.add(w * 8))?);
            }
            Ok(sum)
        })
        .expect("read-only transaction");
    });

    // pds::phash: the daemon's table, same name and bucket count, at the
    // benchmark's 20 000 keys.
    let config = SvcConfig::default();
    let table = PHashTable::open(&m, &mut th, &config.table, config.buckets).map_err(err)?;
    for k in 0..KEYS {
        table
            .put(&mut th, &key_bytes(k), &encode_value(k, 0))
            .map_err(err)?;
    }
    let mut rng = Rng::new(seed);
    let c = b.time("pds.phash_get", 1000, 1, |_| {
        let found = table.get(&mut th, &key_bytes(rng.below(KEYS)));
        assert!(matches!(found, Ok(Some(_))), "preloaded key: {found:?}");
    });
    b.count("pds.phash_get_reads", &c, "scm.reads");
    let c = b.time("pds.phash_put", 1000, 1, |i| {
        let k = rng.below(KEYS);
        table
            .put(&mut th, &key_bytes(k), &encode_value(k, i + 1))
            .expect("replace of a preloaded key");
    });
    b.count("pds.phash_put_fences", &c, "scm.fences");
    drop(th);

    // svc: the batcher without TCP, the codec alone, then TCP alone.
    let svc = KvService::start(&m, config).map_err(err)?;
    b.time("svc.call_get", 300, 1, |_| {
        let resp = svc.call(Request::Get(key_bytes(rng.below(KEYS))));
        assert!(matches!(resp, Response::Value(_)), "GET answered {resp:?}");
    });
    b.time("svc.call_put", 300, 1, |i| {
        let resp = svc.call(put_request(rng.below(KEYS), i + 1));
        assert!(matches!(resp, Response::Ok), "PUT answered {resp:?}");
    });
    let put = put_request(7, 1);
    b.time("svc.proto_roundtrip", 500, 16, |_| {
        let wire = std::hint::black_box(&put).encode();
        std::hint::black_box(Request::decode(&wire).expect("own encoding"));
        let wire = std::hint::black_box(Response::Ok).encode();
        std::hint::black_box(Response::decode(&wire).expect("own encoding"));
    });
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").map_err(err)?;
    let mut client = Client::connect(server.local_addr()).map_err(err)?;
    b.time("net.ping_rtt", 500, 1, |_| {
        client.ping().expect("PING over loopback")
    });
    drop(client);
    server.stop();
    svc.stop();
    Ok(())
}

fn probe_lockfree_table(
    dir: &Path,
    seed: u64,
    epoch: Instant,
    out: &mut Probes,
) -> Result<(), String> {
    let m = boot(dir)?;
    let mut b = Bench {
        telemetry: m.telemetry(),
        epoch,
        out,
    };
    // The name `mnemosyned --engine lockfree` gives its table.
    let table = LfHashTable::open(&m, "kv.lf").map_err(err)?;
    let mut h = table.handle(&m).map_err(err)?;
    for k in 0..KEYS {
        h.put(&key_bytes(k), &encode_value(k, 0)).map_err(err)?;
    }
    let mut rng = Rng::new(seed);
    b.time("pds.lfhash_get", 1000, 1, |_| {
        let found = h.get(&key_bytes(rng.below(KEYS)));
        assert!(matches!(found, Ok(Some(_))), "preloaded key: {found:?}");
    });
    let c = b.time("pds.lfhash_put", 1000, 1, |i| {
        let k = rng.below(KEYS);
        h.put(&key_bytes(k), &encode_value(k, i + 1))
            .expect("replace of a preloaded key");
    });
    b.count("pds.lfhash_put_fences", &c, "scm.fences");
    b.count("pds.lfhash_put_cas", &c, "scm.cas");
    Ok(())
}

/// Names of the probe metrics that are counts: `check-repeat` requires
/// them to be identical across runs, not merely close.
pub fn is_count(name: &str) -> bool {
    ["_fences", "_cas", "_log_words", "_reads"]
        .iter()
        .any(|suffix| name.ends_with(suffix))
}
