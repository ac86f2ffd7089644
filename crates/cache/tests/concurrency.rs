//! Concurrency contracts of the artifact store: many workers on one
//! cache directory, with single-flight leases, crashed-peer litter,
//! and injected I/O faults — each artifact computed once, every reader
//! seeing identical bytes, never a torn frame, never a deadlock.

use disengage_cache::{
    lock, ArtifactStore, Fingerprint, Flight, Fp, IoFault, IoFaults, IoOp, Lookup,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A unique, self-cleaning store directory per test.
struct TempStore(PathBuf);

impl TempStore {
    fn new(name: &str) -> TempStore {
        let dir = std::env::temp_dir().join(format!(
            "disengage-cache-concurrency-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempStore(dir)
    }

    fn store(&self) -> ArtifactStore {
        ArtifactStore::at(self.0.clone(), 1)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key(i: u64) -> Fingerprint {
    let mut f = Fp::new();
    f.write_str("concurrency").write_u64(i);
    f.finish()
}

/// The deterministic "expensive computation" for `key(i)` — big enough
/// to span several write chunks.
fn payload(i: u64) -> Vec<u8> {
    (0..4096u64).flat_map(|j| (i ^ j).to_le_bytes()).collect()
}

/// One session's probe-or-compute cycle for a key, through the same
/// load → single-flight → compute → commit discipline the pipeline's
/// `cached_stage` uses. Returns the bytes this worker ended up with.
fn probe_or_compute(store: &ArtifactStore, i: u64, computes: &AtomicUsize) -> Vec<u8> {
    loop {
        match store.load("stage", key(i)) {
            Lookup::Hit(bytes) => return bytes,
            Lookup::Miss | Lookup::Corrupt => {}
        }
        match store.join_flight("stage", key(i), Duration::from_secs(30)) {
            Flight::Ready(bytes) => return bytes,
            Flight::Leader(guard) => {
                // Double-check under the lock: a peer may have
                // committed between our probe and the acquisition.
                if let Lookup::Hit(bytes) = store.load("stage", key(i)) {
                    drop(guard);
                    return bytes;
                }
                computes.fetch_add(1, Ordering::SeqCst);
                let bytes = payload(i);
                store.save("stage", key(i), &bytes);
                drop(guard);
                return bytes;
            }
            Flight::TimedOut => {}
        }
    }
}

#[test]
fn eight_workers_compute_each_artifact_exactly_once() {
    const WORKERS: usize = 8;
    const KEYS: u64 = 4;
    let tmp = TempStore::new("stress");
    // Unbounded: 4 keys would fit the default cap, but the point here
    // is single-flight, not eviction.
    let store = tmp.store().with_cap(0);

    // Mixed traffic: key 0 starts as a torn frame on disk (the first
    // prober takes the Corrupt path), key 1 is pre-committed (pure
    // warm hits), keys 2–3 are cold.
    let dir = tmp.0.join("stage");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("{}.art", key(0).to_hex())), b"not a frame").unwrap();
    store.save("stage", key(1), &payload(1));

    let computes = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(WORKERS));
    let results: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let store = store.clone();
                let computes = Arc::clone(&computes);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Each worker walks the keys in a different
                    // rotation, so leaders and waiters interleave.
                    (0..KEYS)
                        .map(|k| probe_or_compute(&store, (k + w as u64) % KEYS, &computes))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every worker got byte-identical results for every key.
    for (w, worker) in results.iter().enumerate() {
        for (j, bytes) in worker.iter().enumerate() {
            let i = (j as u64 + w as u64) % KEYS;
            assert_eq!(bytes, &payload(i), "worker {w} got wrong bytes for key {i}");
        }
    }
    // Key 1 was pre-committed; the other three were computed by
    // exactly one worker each, however the race went.
    assert_eq!(computes.load(Ordering::SeqCst), KEYS as usize - 1);
    // The directory holds only intact committed frames — no torn
    // files, no tmp, no locks.
    let audit = store.audit_files();
    assert!(
        audit.is_clean(),
        "torn {:?} tmp {:?} locks {:?}",
        audit.torn,
        audit.tmp,
        audit.locks
    );
    assert_eq!(audit.intact, KEYS as usize);
}

#[test]
fn wedged_peer_times_out_instead_of_deadlocking() {
    let tmp = TempStore::new("wedged");
    let store = tmp.store();
    // A live peer (our own pid, fresh lease) holds the lock and never
    // finishes. The watchdog must hand the flight back, not hang.
    let dir = tmp.0.join("stage");
    std::fs::create_dir_all(&dir).unwrap();
    let lock_path = dir.join(format!("{}.lock", key(9).to_hex()));
    std::fs::write(
        &lock_path,
        lock::compose(std::process::id(), lock::now_millis()),
    )
    .unwrap();

    let started = std::time::Instant::now();
    match store.join_flight("stage", key(9), Duration::from_millis(200)) {
        Flight::TimedOut => {}
        other => panic!("expected a watchdog timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "watchdog failed to bound the wait"
    );
    // The caller recovers by computing locally; the wedged peer's lock
    // never blocks the commit (the rename is atomic regardless).
    store.save("stage", key(9), &payload(9));
    assert!(matches!(store.load("stage", key(9)), Lookup::Hit(b) if b == payload(9)));
}

#[test]
fn dead_peers_stale_lock_is_reclaimed() {
    let tmp = TempStore::new("stale-lock");
    let store = tmp.store();
    // A provably-dead pid far beyond Linux's pid_max: the lease is
    // unexpired but the holder cannot be alive.
    let dir = tmp.0.join("stage");
    std::fs::create_dir_all(&dir).unwrap();
    let lock_path = dir.join(format!("{}.lock", key(5).to_hex()));
    std::fs::write(&lock_path, lock::compose(3_999_999_999, lock::now_millis())).unwrap();

    // The flight breaks the stale lock and leads immediately.
    match store.join_flight("stage", key(5), Duration::from_secs(5)) {
        Flight::Leader(guard) => {
            store.save("stage", key(5), &payload(5));
            drop(guard);
        }
        other => panic!("expected leadership after stale-lock reclaim, got {other:?}"),
    }
    assert!(!lock_path.exists(), "stale lock must be gone");
    assert!(matches!(store.load("stage", key(5)), Lookup::Hit(b) if b == payload(5)));
}

/// Fails every rename for the first `n` consultations — the commit
/// step dying over and over, as on a full or flaky disk.
struct RenameStorm {
    left: AtomicU64,
}

impl IoFaults for RenameStorm {
    fn inject(&self, op: IoOp) -> Option<IoFault> {
        if op == IoOp::RenameCommit
            && self
                .left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            return Some(IoFault::Error);
        }
        None
    }
}

#[test]
fn failed_commits_never_leave_tmp_files_or_torn_frames() {
    let tmp = TempStore::new("rename-storm");
    // Exactly one save's retry budget of rename failures: the save
    // gives up (the run degrades to recompute-next-time), but the
    // directory stays clean and the next save commits normally.
    let store = tmp.store().with_faults(Arc::new(RenameStorm {
        left: AtomicU64::new(3),
    }));
    store.save("stage", key(7), &payload(7));
    assert!(
        matches!(store.load("stage", key(7)), Lookup::Miss),
        "commit was supposed to fail under the storm"
    );
    let audit = store.audit_files();
    assert!(audit.is_clean(), "failed save left debris: {audit:?}");
    assert_eq!(audit.intact, 0);

    // The storm has blown over (fault budget exhausted): the same save
    // now commits, and the counters account for every fired fault.
    store.save("stage", key(7), &payload(7));
    assert!(matches!(store.load("stage", key(7)), Lookup::Hit(b) if b == payload(7)));
    let counters: std::collections::BTreeMap<_, _> = store.take_counters().into_iter().collect();
    let fired = counters.get("cache.io.fault.total").copied().unwrap_or(0);
    let retried = counters.get("cache.io.retried").copied().unwrap_or(0);
    let absorbed = counters.get("cache.io.absorbed").copied().unwrap_or(0);
    assert!(fired > 0, "storm never fired");
    assert_eq!(fired, retried + absorbed, "a fired fault went unaccounted");
}
