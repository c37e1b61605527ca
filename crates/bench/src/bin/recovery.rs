//! Recovery SLO bench: outstanding-log bytes replayed per virtual
//! second at 1/2/4 parallel replay threads, rebooting one crash image
//! with a known redo backlog. Emits `BENCH_recovery.json` at the
//! repository root and the standard `target/repro/recovery/telemetry.json`
//! sidecar.
//!
//! With `--smoke`, exits non-zero unless 4-thread replay reaches at
//! least 2× the single-threaded recovery rate, or if the scaling ratio
//! regressed more than 10% below the `BENCH_BASELINE_DIR` baseline.

fn main() {
    mnemosyne_bench::gate::bench_main("recovery", mnemosyne_bench::exp::recovery::run);
}
