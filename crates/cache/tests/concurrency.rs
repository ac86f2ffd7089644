//! Concurrency contracts of the artifact store: many workers on one
//! cache directory, coordinated by nothing but the atomic commit, with
//! and without injected I/O faults — every worker ends with identical
//! bytes, never a torn frame, never tmp litter, and every injected
//! fault is accounted for.

use disengage_cache::{ArtifactStore, Fingerprint, Fp, IoFault, IoFaults, IoOp, Lookup};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

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

/// One session's probe-or-compute cycle for a key, the discipline the
/// pipeline's `cached_stage` follows: replay a hit, otherwise compute
/// and commit. Returns the bytes this worker ended up with.
fn probe_or_compute(store: &ArtifactStore, i: u64) -> Vec<u8> {
    if let Lookup::Hit(bytes) = store.load("stage", key(i)) {
        return bytes;
    }
    let bytes = payload(i);
    store.save("stage", key(i), &bytes);
    bytes
}

/// A seeded fault schedule drawn from `(seed, op, artifact, attempt)`
/// alone, like `disengage-chaos`'s injector: the same operation on the
/// same artifact faults alike in every worker, whatever the
/// interleaving.
struct SeededFaults {
    seed: u64,
    rate: f64,
}

impl IoFaults for SeededFaults {
    fn inject(&self, op: IoOp, artifact: &str, attempt: u32) -> Option<IoFault> {
        let mut f = Fp::new();
        f.write_u64(self.seed)
            .write_str(&format!("{op:?}"))
            .write_str(artifact)
            .write_u32(attempt);
        let r = f.finish().0;
        if (r >> 11) as f64 / (1u64 << 53) as f64 >= self.rate {
            return None;
        }
        Some(match op {
            IoOp::ReadArtifact if r & 1 == 1 => IoFault::BitFlip,
            IoOp::WriteTmp if r & 1 == 1 => IoFault::ShortWrite,
            _ => IoFault::Error,
        })
    }
}

/// Eight workers race over four shared keys on `store`. Mixed traffic:
/// key 0 starts as a torn frame on disk (the first prober takes the
/// Corrupt path), key 1 is pre-committed (pure warm hits), keys 2–3
/// are cold. Returns how many faults fired and how many frames the
/// directory ends with.
fn eight_workers_on_shared_keys(tmp: &TempStore, store: &ArtifactStore) -> (u64, usize) {
    const WORKERS: usize = 8;
    const KEYS: u64 = 4;
    let dir = tmp.0.join("stage");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("{}.art", key(0).to_hex())), b"not a frame").unwrap();
    tmp.store().save("stage", key(1), &payload(1));

    let barrier = Arc::new(Barrier::new(WORKERS));
    let results: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let store = store.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Each worker walks the keys in a different
                    // rotation, so computes and commits interleave.
                    (0..KEYS)
                        .map(|k| probe_or_compute(&store, (k + w as u64) % KEYS))
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
    // The directory holds only intact committed frames — no torn
    // files, no tmp — and each is the one deterministic artifact,
    // however many workers renamed it into place.
    let audit = store.audit_files();
    assert!(
        audit.is_clean(),
        "torn {:?} tmp {:?}",
        audit.torn,
        audit.tmp
    );
    for i in 0..KEYS {
        match tmp.store().load("stage", key(i)) {
            Lookup::Hit(bytes) => assert_eq!(bytes, payload(i), "key {i} committed wrong bytes"),
            Lookup::Miss => {}
            Lookup::Corrupt => panic!("key {i} left a corrupt frame"),
        }
    }
    let counters: BTreeMap<_, _> = store.take_counters().into_iter().collect();
    let fired = counters.get("cache.io.fault.total").copied().unwrap_or(0);
    let retried = counters.get("cache.io.retried").copied().unwrap_or(0);
    let absorbed = counters.get("cache.io.absorbed").copied().unwrap_or(0);
    assert_eq!(fired, retried + absorbed, "a fired fault went unaccounted");
    (fired, audit.intact)
}

#[test]
fn eight_workers_on_shared_keys_end_identical_and_clean() {
    // Unbounded: 4 keys would fit the default cap, but the point here
    // is racing commits, not eviction.
    let tmp = TempStore::new("shared");
    let (fired, intact) = eight_workers_on_shared_keys(&tmp, &tmp.store().with_cap(0));
    assert_eq!(fired, 0);
    assert_eq!(intact, 4, "every key committed");

    // Under a seeded fault plan a key whose every commit faults stays
    // uncached (the next session recomputes it); nothing else changes.
    let tmp = TempStore::new("shared-faults");
    let faults = Arc::new(SeededFaults {
        seed: 7,
        rate: 0.25,
    });
    let (fired, _) =
        eight_workers_on_shared_keys(&tmp, &tmp.store().with_cap(0).with_faults(faults));
    assert!(fired > 0, "the fault plan never fired");
}

/// Fails every rename for the first `n` consultations — the commit
/// step dying over and over, as on a full or flaky disk.
struct RenameStorm {
    left: AtomicU64,
}

impl IoFaults for RenameStorm {
    fn inject(&self, op: IoOp, _artifact: &str, _attempt: u32) -> Option<IoFault> {
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
