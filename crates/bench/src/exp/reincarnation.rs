//! §6.3.2 reincarnation costs: OS boot, process start, and replay.
//!
//! The paper measures (i) reconstructing persistent regions at OS boot
//! (~734 ms per GB of claimed SCM), and (ii) process start: remapping
//! regions (~1.1 ms), scavenging the heap (~89 ms), and replaying a
//! committed-but-unflushed transaction (3-76 µs each).

use std::time::Instant;

use mnemosyne::{CrashPolicy, Mnemosyne, ScmConfig, Truncation};
use mnemosyne_region::{RegionManager, Regions};
use mnemosyne_scm::ScmSim;

use crate::util::{banner, Scale, TestRig};

const PAPER_NOTE: &str = "paper: boot reconstruction ~734 ms/GB; remap ~1.1 ms; heap \
scavenge ~89 ms; replay 3-76 us per transaction";

/// Runs and prints the reincarnation measurements.
pub fn run(scale: Scale) {
    banner("§6.3.2 reincarnation costs", scale);
    println!("{PAPER_NOTE}");

    // (i) OS-boot reconstruction: claim every frame, then time boot.
    let device_mb = scale.pick(64, 512);
    {
        let rig = TestRig::new();
        let sim = ScmSim::new(ScmConfig::for_testing(device_mb << 20));
        let mgr = RegionManager::boot(&sim, &rig.dir).expect("boot");
        let (regions, pmem) = Regions::open(&mgr, 1 << 16).expect("regions");
        // Claim (nearly) all frames with one big region.
        let free = mgr.free_frames() as u64;
        let r = regions
            .pmap("fill", free.saturating_sub(64) * 4096, &pmem)
            .expect("fill region");
        regions.aspace().prefault(r.addr).expect("prefault");
        let img = sim.image();
        let sim2 = ScmSim::from_image(&img, ScmConfig::for_testing(device_mb << 20));
        let t0 = Instant::now();
        let _mgr2 = RegionManager::boot(&sim2, &rig.dir).expect("reboot");
        let boot = t0.elapsed();
        let per_gb = boot.as_secs_f64() * 1024.0 / device_mb as f64;
        println!(
            "\nOS boot reconstruction ({device_mb} MB claimed): {:.1} ms  (~{:.0} ms/GB)",
            boot.as_secs_f64() * 1e3,
            per_gb * 1e3
        );
    }

    // (ii) process start: remap + heap scavenge + transaction replay.
    let rig = TestRig::new();
    let dir = rig.dir.join("stack");
    let allocs = scale.pick(2_000, 50_000);
    let txs = scale.pick(50, 500);
    let img = {
        let m = Mnemosyne::builder(&dir)
            .scm_size(256 << 20)
            .heap_sizes(64 << 20, 32 << 20)
            .truncation(Truncation::Async)
            .open()
            .expect("open");
        // No log manager: every transaction below stays in its log.
        m.mtm().kill();
        let area = m.pstatic("cells", 8 * 4096).expect("cells");
        let heap = m.heap();
        for i in 0..allocs {
            heap.pmalloc(64, area.add((i % 4096) * 8)).expect("pmalloc");
        }
        // Committed-but-unflushed transactions for replay.
        let mut th = m.register_thread().expect("thread");
        for i in 0..txs {
            th.atomic(|tx| {
                for w in 0..16u64 {
                    tx.write_u64(area.add(((i * 16 + w) % 4096) * 8), i * w)?;
                }
                Ok(())
            })
            .expect("tx");
        }
        drop(th);
        let (_, img) = m.crash(CrashPolicy::ApplyAll);
        img
    };

    let t0 = Instant::now();
    let m2 = Mnemosyne::builder(&dir)
        .scm_size(256 << 20)
        .heap_sizes(64 << 20, 32 << 20)
        .from_image(img)
        .open()
        .expect("recover");
    let total = t0.elapsed();
    let replayed = m2.mtm().stats().replayed;
    println!(
        "process start after crash ({allocs} live allocations, {replayed} transactions replayed):"
    );
    println!(
        "  total open (remap + heap scavenge + log replay): {:.1} ms",
        total.as_secs_f64() * 1e3
    );
    if replayed > 0 {
        println!(
            "  (averaged over the whole open: {:.0} us per replayed transaction, upper bound)",
            total.as_secs_f64() * 1e6 / replayed as f64
        );
    }

    // Isolate the replay cost: same crash image, no heap traffic.
    let rig2 = TestRig::new();
    let dir2 = rig2.dir.join("replay");
    let img2 = {
        let m = Mnemosyne::builder(&dir2)
            .scm_size(64 << 20)
            .truncation(Truncation::Async)
            .open()
            .expect("open");
        m.mtm().kill();
        let area = m.pstatic("cells", 8 * 4096).expect("cells");
        let mut th = m.register_thread().expect("thread");
        for i in 0..txs {
            th.atomic(|tx| {
                for w in 0..16u64 {
                    tx.write_u64(area.add(((i * 16 + w) % 4096) * 8), i)?;
                }
                Ok(())
            })
            .expect("tx");
        }
        drop(th);
        let (_, img) = m.crash(CrashPolicy::ApplyAll);
        img
    };
    // Baseline open with nothing to replay.
    let t_base = {
        let t0 = Instant::now();
        let m = Mnemosyne::builder(&dir2)
            .scm_size(64 << 20)
            .from_image(img2.clone())
            .open()
            .expect("recover");
        let dt = t0.elapsed();
        assert!(
            m.mtm().stats().replayed > 0,
            "expected pending transactions"
        );
        // Second boot from the *recovered* state has nothing to replay.
        let (_, img3) = m.crash(CrashPolicy::DropAll);
        let t1 = Instant::now();
        let _m2 = Mnemosyne::builder(&dir2)
            .scm_size(64 << 20)
            .from_image(img3)
            .open()
            .expect("reopen");
        (dt, t1.elapsed())
    };
    let (with_replay, without) = t_base;
    let per_tx = (with_replay.as_secs_f64() - without.as_secs_f64()).max(0.0) * 1e6 / txs as f64;
    println!(
        "  isolated replay cost: {per_tx:.1} us per transaction ({txs} x 16-word transactions)"
    );
}
