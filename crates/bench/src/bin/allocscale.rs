//! Allocator scaling bench: sharded-heap `pmalloc`/`pfree` throughput at
//! 1/2/4/8 threads, in the emulator's virtual time domain. Emits
//! `BENCH_pheap.json` at the repository root and the standard
//! `target/repro/allocscale/telemetry.json` sidecar.
//!
//! With `--smoke`, exits non-zero if the best multi-thread throughput
//! fails to beat the single-thread throughput, or if the scaling ratio
//! regressed more than 10% below the `BENCH_BASELINE_DIR` baseline — the
//! coarse anti-regression gate CI runs.

fn main() {
    mnemosyne_bench::gate::bench_main("allocscale", mnemosyne_bench::exp::allocscale::run);
}
