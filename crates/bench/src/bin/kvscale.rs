//! KV-service scaling bench: acknowledged requests per virtual second
//! for a live `mnemosyned` service at 1/2/4/8 batcher workers, driven by
//! 8 pipelined loopback TCP clients. Emits `BENCH_svc.json` at the
//! repository root and the standard `target/repro/kvscale/telemetry.json`
//! sidecar.
//!
//! With `--smoke`, exits non-zero unless both kvscale gates hold — 2× at
//! 4 workers and 3× at 8 (the group-commit dividend) — or if either
//! ratio regressed more than 10% below the `BENCH_BASELINE_DIR` baseline.

fn main() {
    mnemosyne_bench::gate::bench_main("kvscale", mnemosyne_bench::exp::kvscale::run);
}
