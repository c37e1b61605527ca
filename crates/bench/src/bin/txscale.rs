//! Transaction scaling bench: durable-transaction commit throughput at
//! 1/2/4/8 threads over disjoint and contended working sets, in the
//! emulator's virtual time domain. Emits `BENCH_mtm.json` at the
//! repository root and the standard `target/repro/txscale/telemetry.json`
//! sidecar.
//!
//! With `--smoke`, exits non-zero if 4-thread disjoint commit throughput
//! drops below single-thread throughput, or if the scaling ratio
//! regressed more than 10% below the `BENCH_BASELINE_DIR` baseline — the
//! anti-regression gate CI runs over the commit pipeline.

fn main() {
    mnemosyne_bench::gate::bench_main("txscale", mnemosyne_bench::exp::txscale::run);
}
