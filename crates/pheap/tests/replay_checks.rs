//! Recovery of the allocator log checks every redo record before it
//! replays any.

use std::fs;

use mnemosyne_pheap::{HeapConfig, HeapError, PHeap};
use mnemosyne_rawl::{LogError, TornbitLog};
use mnemosyne_region::{RegionManager, Regions};
use mnemosyne_scm::{ScmConfig, ScmSim};

/// A record that passes its checksum but is malformed is typed
/// corruption, and the well-formed record in front of it is not replayed
/// either.
#[test]
fn malformed_allocator_records_are_refused_before_any_replay() {
    let dir = std::env::temp_dir().join(format!("pheap-replay-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    let sim = ScmSim::new(ScmConfig::for_testing(32 << 20));
    let mgr = RegionManager::boot(&sim, &dir).unwrap();
    let (regions, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
    let config = HeapConfig::default().with_sizes(1 << 20, 1 << 20);
    let (cell, _) = regions.static_area();
    drop(PHeap::open(&regions, config.clone()).unwrap());
    // Mapped after the logs, so no later region reuses its range.
    let gone = regions.pmap("gone", 4096, &pmem).unwrap().addr;
    regions.punmap("gone", &pmem).unwrap();
    let log0 = regions.find("pheap.log0").unwrap().addr;
    let logged = |records: &[&[u64]]| {
        let (mut log, _) = TornbitLog::recover(regions.pmem_handle(), log0).unwrap();
        log.truncate_all();
        for rec in records {
            log.append(rec).unwrap();
        }
        log.flush();
    };
    // [(addr, val)*]: an odd length cuts a pair.
    for bad in [&[cell.0, 9, cell.0][..], &[gone.0, 9]] {
        logged(&[&[cell.0, 7], bad]);
        let err = PHeap::open(&regions, config.clone()).unwrap_err();
        assert!(
            matches!(err, HeapError::Log(LogError::Corrupt { .. })),
            "{bad:?}: {err}"
        );
        assert_eq!(pmem.read_u64(cell), 0, "{bad:?}: a record was replayed");
    }
    logged(&[&[cell.0, 7]]);
    let heap = PHeap::open(&regions, config).unwrap();
    assert_eq!(heap.stats().replayed, 1);
    assert_eq!(pmem.read_u64(cell), 7);
    drop(heap);
    fs::remove_dir_all(&dir).ok();
}
