//! Crash sweep over two concurrent [`LfHandle`]s (the sweeps in
//! `lfhash`'s unit tests drive one). Two threads, one handle each, play
//! puts, same-key replaces and deletes over keys private to the thread
//! while the machine is killed at chosen durability primitives, including
//! inside recovery itself. After every reboot each key must read back in
//! an allowed state, and a full scan must hold no key twice: a detectable
//! op applied twice would surface as a resurrected delete or a second
//! version of a key.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use mnemosyne::{crash_payload, crash_sweep, Mnemosyne, ScmConfig, SweepConfig, Truncation};
use mnemosyne_pds::lfhash::LfHandle;
use mnemosyne_pds::LfHashTable;

const THREADS: u8 = 2;
const KEYS_PER_THREAD: u8 = 6;

/// States a key may legally recover in; `None` means absent.
type Allowed = Vec<Option<Vec<u8>>>;

/// Plays thread `t`'s tape until it ends or the machine dies, returning
/// each touched key with its allowed recovery states.
fn play(h: &mut LfHandle, t: u8) -> Vec<(Vec<u8>, Allowed)> {
    let mut done = Vec::new();
    for i in 0..KEYS_PER_THREAD {
        let key = vec![b'l', t, i];
        // The key's tape, as post-op states.
        let mut states = vec![Some(vec![t, i]), Some(vec![t ^ i, i, t])];
        if i % 2 == 0 {
            states.push(None);
        }
        let mut reached = None; // before the first op: absent
        for after in states {
            let op = catch_unwind(AssertUnwindSafe(|| match &after {
                Some(v) => h.put(&key, v).expect("put"),
                None => assert!(h.del(&key).expect("del"), "{key:?} was put"),
            }));
            match op {
                Ok(()) => reached = after,
                // The machine died with this op in flight: either side of
                // it is a legal recovery, and nothing further is issued.
                Err(payload) if crash_payload(&*payload).is_some() => {
                    done.push((key, vec![reached, after]));
                    return done;
                }
                Err(payload) => resume_unwind(payload),
            }
        }
        done.push((key, vec![reached]));
    }
    done
}

fn workload(
    m: &Mnemosyne,
    expected: &Mutex<HashMap<Vec<u8>, Allowed>>,
) -> Result<(), mnemosyne::Error> {
    expected.lock().unwrap().clear();
    let table = LfHashTable::open(m, "lf")?;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        handles.push(table.handle(m)?);
    }
    std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .zip(0..)
            .map(|(mut h, t)| s.spawn(move || play(&mut h, t)))
            .collect();
        for j in joins {
            let played = j.join().unwrap_or_else(|payload| resume_unwind(payload));
            expected.lock().unwrap().extend(played);
        }
    });
    Ok(())
}

fn check(m: &Mnemosyne, expected: &Mutex<HashMap<Vec<u8>, Allowed>>) -> Result<(), String> {
    let table = LfHashTable::open(m, "lf").map_err(|e| e.to_string())?;
    let mut h = table.handle(m).map_err(|e| e.to_string())?;
    for (key, allowed) in expected.lock().unwrap().iter() {
        let got = h.get(key).map_err(|e| e.to_string())?;
        if !allowed.contains(&got) {
            return Err(format!(
                "key {key:?} recovered as {got:?} (allowed {allowed:?})"
            ));
        }
    }
    let scan = h.scan_prefix(b"", 0).map_err(|e| e.to_string())?;
    let distinct: HashSet<_> = scan.iter().map(|(k, _)| k).collect();
    if distinct.len() != scan.len() {
        return Err(format!("duplicate keys after recovery: {scan:?}"));
    }
    Ok(())
}

#[test]
fn two_handle_crash_sweep_never_loses_or_duplicates_acked_ops() {
    let base = std::env::temp_dir().join(format!("pds-lf-sweep2-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let expected = Mutex::new(HashMap::new());
    // recovery_points re-crashes recovery itself at each surviving point,
    // which is where an op resolved once must not resolve again.
    let cfg = SweepConfig {
        max_points: 12,
        recovery_points: 2,
        ..SweepConfig::default()
    };
    let report = crash_sweep(
        &base,
        &cfg,
        |p| {
            Mnemosyne::builder(p)
                .scm_config(ScmConfig::for_testing(16 << 20))
                .truncation(Truncation::Sync)
        },
        |m| workload(m, &expected),
        |m| check(m, &expected),
    )
    .expect("sweep harness");
    assert!(report.passed(), "failures: {:?}", report.failures);
    assert!(report.points_tested >= 8, "report: {report}");
    assert!(report.crashes_fired > 0, "report: {report}");
    assert!(report.recovery_points_tested > 0, "report: {report}");
    std::fs::remove_dir_all(&base).ok();
}
