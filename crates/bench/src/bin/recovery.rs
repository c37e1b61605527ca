//! Recovery SLO bench: outstanding-log bytes replayed per virtual
//! second at 1/2/4 parallel replay threads, rebooting one crash image
//! with a known redo backlog. Emits `BENCH_recovery.json` at the
//! repository root and the standard `target/repro/recovery/telemetry.json`
//! sidecar. Its exact counts and its scaling floor are checked by the
//! `exp::recovery` unit tests.

fn main() {
    let scale = mnemosyne_bench::Scale::from_env();
    mnemosyne_bench::util::run_experiment("recovery", scale, mnemosyne_bench::exp::recovery::run);
}
