//! On-disk content-addressed artifact store.
//!
//! Layout: `<root>/<stage>/<fingerprint>.art`, one file per artifact,
//! each wrapped in the checksummed frame from [`crate::codec`]. The
//! store is a cache, not a database: every failure mode (unreadable
//! directory, corrupt frame, full disk, a crashed or racing peer)
//! degrades to "recompute", never to an error the pipeline has to
//! handle.
//!
//! # Crash safety
//!
//! A save is a two-phase atomic commit: the frame is written to a
//! uniquely named dot-prefixed `*.tmp` sibling (`.<fp>.<pid>.<seq>.tmp`),
//! fsynced, then renamed into place (and the directory fsynced,
//! best-effort). Readers therefore only ever observe either no entry
//! or a complete frame — a crash at any instant leaves at worst a tmp
//! file, which [`ArtifactStore::reclaim`] (run at session start) and
//! the per-save sweep remove once its owner is provably dead or aged
//! out. Torn frames that do reach disk (e.g. planted by a fault
//! campaign) are caught by the frame checksum and recomputed.
//!
//! # Concurrency
//!
//! Multiple sessions — threads or processes — may share one root.
//! Per-fingerprint advisory lock files ([`crate::lock`]) give
//! single-flight: [`ArtifactStore::join_flight`] elects one leader to
//! compute while the rest back off exponentially, re-probing until the
//! artifact appears, a stale lock is reclaimed, or a watchdog timeout
//! fires — at which point the waiter falls back to computing locally.
//! Locks are an optimization, never a correctness dependency: commits
//! are atomic and deterministic, so duplicated work writes identical
//! bytes.
//!
//! # Fault injection
//!
//! Every filesystem touch first consults the optional [`IoFaults`]
//! surface. Transient faults are
//! absorbed by bounded retry with backoff; persistent ones degrade to
//! recompute. Every degraded path is counted (see
//! [`ArtifactStore::take_counters`]) under `cache.io.*` / `cache.tmp.*` /
//! `lock.*`, with the invariant that every injected fault resolves as
//! exactly one of `cache.io.retried` or `cache.io.absorbed`.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::codec::{frame, unframe};
use crate::faults::{IoFault, IoFaults, IoOp};
use crate::fp::Fingerprint;
use crate::lock::{self, LockGuard};

/// Default artifacts kept per stage directory before the least-recently
/// modified entries are evicted. Each stage has a handful of live
/// configurations in practice; the cap bounds disk usage for sweeps.
/// Override per store with [`ArtifactStore::with_cap`] (0 = unbounded).
pub const DEFAULT_PER_STAGE_CAP: usize = 8;

/// Total write/rename/read attempts before a fault stops being
/// "transient" and the operation degrades.
const IO_ATTEMPTS: u32 = 3;

/// Process-wide tmp-name uniquifier (pid alone is not enough: threads
/// of one session may save concurrently).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Result of a cache probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Entry present and frame-valid; the decoded payload bytes.
    Hit(Vec<u8>),
    /// No entry under this fingerprint.
    Miss,
    /// An entry exists but is truncated, bit-flipped, or from another
    /// format version. The caller recomputes; the bad file has been
    /// removed so the recomputed artifact can take its place.
    Corrupt,
}

/// The role a session plays for one in-flight fingerprint.
#[derive(Debug)]
pub enum Flight {
    /// This session holds the lock and must compute (then save, then
    /// drop the guard).
    Leader(LockGuard),
    /// Another session computed it first; here are the bytes.
    Ready(Vec<u8>),
    /// The watchdog fired before the artifact appeared — compute
    /// locally, without the lock (correct, merely duplicated work).
    TimedOut,
}

/// What [`ArtifactStore::audit_files`] found on disk.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StoreAudit {
    /// `.art` files whose frame fails to validate (torn commits).
    pub torn: Vec<PathBuf>,
    /// Leftover `*.tmp` write intermediates.
    pub tmp: Vec<PathBuf>,
    /// Leftover `*.lock` files.
    pub locks: Vec<PathBuf>,
    /// Frame-valid `.art` entries.
    pub intact: usize,
}

impl StoreAudit {
    /// Whether the store is clean: no torn frames, no tmp/lock litter.
    pub fn is_clean(&self) -> bool {
        self.torn.is_empty() && self.tmp.is_empty() && self.locks.is_empty()
    }
}

/// A content-addressed artifact store rooted at one directory, or a
/// disabled store that never hits and never writes. Clones share the
/// fault surface and the counter ledger.
#[derive(Clone)]
pub struct ArtifactStore {
    root: Option<PathBuf>,
    version: u32,
    cap: usize,
    lock_ttl: Duration,
    faults: Option<Arc<dyn IoFaults>>,
    counters: Arc<Mutex<BTreeMap<&'static str, u64>>>,
    events: Arc<Mutex<Vec<(&'static str, String)>>>,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("root", &self.root)
            .field("version", &self.version)
            .field("cap", &self.cap)
            .field("lock_ttl", &self.lock_ttl)
            .field("faults", &self.faults.as_ref().map(|_| "armed"))
            .finish()
    }
}

impl ArtifactStore {
    /// A store rooted at `dir` (created lazily on first save).
    /// `version` is the artifact format version baked into every
    /// frame; bumping it invalidates all prior entries.
    pub fn at(dir: impl Into<PathBuf>, version: u32) -> ArtifactStore {
        ArtifactStore {
            root: Some(dir.into()),
            version,
            cap: DEFAULT_PER_STAGE_CAP,
            lock_ttl: lock::DEFAULT_LOCK_TTL,
            faults: None,
            counters: Arc::new(Mutex::new(BTreeMap::new())),
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A store that never hits and never writes — the default when no
    /// `--cache-dir` is configured.
    pub fn disabled() -> ArtifactStore {
        ArtifactStore {
            root: None,
            version: 0,
            cap: DEFAULT_PER_STAGE_CAP,
            lock_ttl: lock::DEFAULT_LOCK_TTL,
            faults: None,
            counters: Arc::new(Mutex::new(BTreeMap::new())),
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Sets the per-stage entry cap (0 = unbounded).
    #[must_use]
    pub fn with_cap(mut self, cap: usize) -> ArtifactStore {
        self.cap = cap;
        self
    }

    /// Sets the lock lease TTL (staleness threshold for reclaiming
    /// crashed peers' locks and tmp files).
    #[must_use]
    pub fn with_lock_ttl(mut self, ttl: Duration) -> ArtifactStore {
        self.lock_ttl = ttl;
        self
    }

    /// Arms a deterministic I/O fault surface; every filesystem
    /// operation consults it first.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<dyn IoFaults>) -> ArtifactStore {
        self.faults = Some(faults);
        self
    }

    /// Whether this store can hold artifacts.
    pub fn is_enabled(&self) -> bool {
        self.root.is_some()
    }

    /// The root directory, when enabled.
    pub fn root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// The per-stage entry cap (0 = unbounded).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Drains the counter ledger accumulated since the last drain:
    /// `cache.io.fault.*` (faults fired, by site), `cache.io.retried` /
    /// `cache.io.absorbed` (how each resolved), `cache.tmp.reclaimed`,
    /// `lock.acquired` / `lock.contended` / `lock.wait_hit` /
    /// `lock.timeout` / `lock.reclaimed`. Callers feed these into
    /// their own telemetry; all land under prefixes the canonical
    /// report strips, so byte-identity contracts are untouched.
    pub fn take_counters(&self) -> Vec<(&'static str, u64)> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let drained: Vec<_> = map.iter().map(|(&k, &v)| (k, v)).collect();
        map.clear();
        drained
    }

    fn bump(&self, name: &'static str, delta: u64) {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        *map.entry(name).or_insert(0) += delta;
    }

    /// Drains the named-event ledger: one `(event, file)` entry per
    /// reclaimed torn frame, reclaimed tmp/lock litter file, and
    /// evicted entry, in occurrence order. Like the counters, these
    /// are environment facts (a warm store reclaims, a cold one
    /// doesn't), so consumers must keep them out of canonical output.
    pub fn take_events(&self) -> Vec<(&'static str, String)> {
        let mut ledger = self.events.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *ledger)
    }

    fn note(&self, name: &'static str, path: &Path) {
        let file = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut ledger = self.events.lock().unwrap_or_else(|e| e.into_inner());
        ledger.push((name, file));
    }

    /// Consults the fault surface; counts a fired fault and how it
    /// will resolve (`retries_left` ⇒ retried, otherwise absorbed —
    /// except reads of flipped bytes, which always degrade).
    fn inject(&self, op: IoOp, retries_left: bool) -> Option<IoFault> {
        let fault = self.faults.as_ref()?.inject(op)?;
        self.bump("cache.io.fault.total", 1);
        self.bump(
            match op {
                IoOp::ReadArtifact => "cache.io.fault.read",
                IoOp::WriteTmp => "cache.io.fault.write",
                IoOp::RenameCommit => "cache.io.fault.rename",
                IoOp::RemoveEvict => "cache.io.fault.evict",
            },
            1,
        );
        let retryable = fault == IoFault::Error || fault == IoFault::ShortWrite;
        if retryable && retries_left {
            self.bump("cache.io.retried", 1);
        } else {
            self.bump("cache.io.absorbed", 1);
        }
        Some(fault)
    }

    fn stage_dir(&self, stage: &str) -> Option<PathBuf> {
        Some(self.root.as_ref()?.join(stage))
    }

    fn entry_path(&self, stage: &str, key: Fingerprint) -> Option<PathBuf> {
        Some(self.stage_dir(stage)?.join(format!("{}.art", key.to_hex())))
    }

    fn lock_path(&self, stage: &str, key: Fingerprint) -> Option<PathBuf> {
        Some(self.stage_dir(stage)?.join(format!("{}.lock", key.to_hex())))
    }

    /// Reads an artifact file through the fault surface with bounded
    /// retry. `None` means "treat as absent".
    fn read_artifact(&self, path: &Path) -> Option<Vec<u8>> {
        for attempt in 0..IO_ATTEMPTS {
            let bytes = match fs::read(path) {
                Ok(b) => b,
                Err(e) if e.kind() == ErrorKind::NotFound => return None,
                // A real read error: retry, then degrade to a miss.
                Err(_) if attempt + 1 < IO_ATTEMPTS => {
                    backoff(attempt);
                    continue;
                }
                Err(_) => return None,
            };
            match self.inject(IoOp::ReadArtifact, attempt + 1 < IO_ATTEMPTS) {
                None => return Some(bytes),
                Some(IoFault::Error) if attempt + 1 < IO_ATTEMPTS => {
                    backoff(attempt);
                    continue;
                }
                Some(IoFault::Error) => return None,
                // Silent corruption: hand back flipped bytes; the
                // frame checksum downstream turns this into Corrupt.
                Some(IoFault::BitFlip | IoFault::ShortWrite) => {
                    let mut bad = bytes;
                    if !bad.is_empty() {
                        let mid = bad.len() / 2;
                        bad[mid] ^= 0x10;
                    }
                    return Some(bad);
                }
            }
        }
        None
    }

    /// Probes the store for `<stage>/<key>`.
    pub fn load(&self, stage: &str, key: Fingerprint) -> Lookup {
        let Some(path) = self.entry_path(stage, key) else {
            return Lookup::Miss;
        };
        let Some(bytes) = self.read_artifact(&path) else {
            return Lookup::Miss;
        };
        match unframe(self.version, &bytes) {
            Some(payload) => Lookup::Hit(payload.to_vec()),
            None => {
                // Drop the damaged entry so the recompute can replace
                // it; ignore failures (read-only cache is still a
                // cache).
                let _ = fs::remove_file(&path);
                Lookup::Corrupt
            }
        }
    }

    /// Writes `bytes` to `tmp` and fsyncs, through the fault surface.
    fn write_tmp(&self, tmp: &Path, bytes: &[u8], retries_left: bool) -> bool {
        match self.inject(IoOp::WriteTmp, retries_left) {
            Some(IoFault::Error) => return false,
            Some(IoFault::ShortWrite) => {
                // A torn write: persist a prefix, then report failure
                // (ENOSPC mid-frame). The retry path must clean up.
                let _ = fs::write(tmp, &bytes[..bytes.len() / 2]);
                return false;
            }
            Some(IoFault::BitFlip) | None => {}
        }
        let Ok(mut file) = File::create(tmp) else {
            return false;
        };
        if file.write_all(bytes).is_err() {
            return false;
        }
        // The commit protocol requires the data durable before the
        // rename publishes it; a failed fsync means the frame may be
        // torn after a crash, so treat it as a failed write.
        file.sync_all().is_ok()
    }

    /// Renames `tmp` into `path`, through the fault surface.
    fn rename_commit(&self, tmp: &Path, path: &Path, retries_left: bool) -> bool {
        if let Some(IoFault::Error | IoFault::ShortWrite | IoFault::BitFlip) =
            self.inject(IoOp::RenameCommit, retries_left)
        {
            return false;
        }
        fs::rename(tmp, path).is_ok()
    }

    /// Stores `payload` under `<stage>/<key>` via the atomic commit
    /// protocol: unique tmp sibling, write + fsync, rename into place,
    /// directory fsync (best-effort). Transient I/O faults are retried
    /// with backoff; a persistent failure degrades to "not cached"
    /// (the next run recomputes) and leaves no tmp litter. Returns the
    /// number of older entries evicted to stay under the per-stage cap.
    pub fn save(&self, stage: &str, key: Fingerprint, payload: &[u8]) -> usize {
        let Some(path) = self.entry_path(stage, key) else {
            return 0;
        };
        let Some(dir) = path.parent().map(Path::to_path_buf) else {
            return 0;
        };
        if fs::create_dir_all(&dir).is_err() {
            return 0;
        }
        let framed = frame(self.version, payload);
        let tmp = dir.join(format!(
            ".{}.{}.{}.tmp",
            key.to_hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut committed = false;
        for attempt in 0..IO_ATTEMPTS {
            let retries_left = attempt + 1 < IO_ATTEMPTS;
            if attempt > 0 {
                backoff(attempt - 1);
            }
            if !self.write_tmp(&tmp, &framed, retries_left) {
                let _ = fs::remove_file(&tmp);
                continue;
            }
            if self.rename_commit(&tmp, &path, retries_left) {
                committed = true;
                break;
            }
            let _ = fs::remove_file(&tmp);
        }
        if !committed {
            // Degraded cleanly: no artifact, but also no litter.
            let _ = fs::remove_file(&tmp);
            return 0;
        }
        // Publish the rename itself (best-effort: not all platforms
        // let a directory be fsynced).
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        self.sweep(&dir, &path)
    }

    /// Takes the per-fingerprint advisory lock without waiting,
    /// breaking a stale holder if needed.
    pub fn try_lock(&self, stage: &str, key: Fingerprint) -> Option<LockGuard> {
        let path = self.lock_path(stage, key)?;
        let dir = path.parent()?;
        if fs::create_dir_all(dir).is_err() {
            return None;
        }
        let acquired = lock::try_acquire(&path, self.lock_ttl);
        if acquired.reclaimed > 0 {
            self.bump("lock.reclaimed", acquired.reclaimed);
        }
        if acquired.guard.is_some() {
            self.bump("lock.acquired", 1);
        }
        acquired.guard
    }

    /// Joins the single-flight for `<stage>/<key>` after a missed
    /// probe: returns [`Flight::Leader`] holding the lock (compute,
    /// save, then drop the guard), [`Flight::Ready`] when a peer's
    /// artifact appeared while waiting, or [`Flight::TimedOut`] when
    /// the watchdog fired — the caller then recomputes locally so a
    /// wedged peer can never deadlock the pipeline.
    pub fn join_flight(&self, stage: &str, key: Fingerprint, watchdog: Duration) -> Flight {
        if !self.is_enabled() {
            return Flight::TimedOut;
        }
        let deadline = Instant::now() + watchdog;
        let mut wait = Duration::from_millis(1);
        let mut contended = false;
        loop {
            if let Some(guard) = self.try_lock(stage, key) {
                // Double-check under the lock: the previous holder may
                // have committed between our probe and this acquire.
                return match self.load(stage, key) {
                    Lookup::Hit(bytes) => {
                        self.bump("lock.wait_hit", 1);
                        Flight::Ready(bytes)
                    }
                    _ => Flight::Leader(guard),
                };
            }
            if !contended {
                contended = true;
                self.bump("lock.contended", 1);
            }
            let now = Instant::now();
            if now >= deadline {
                self.bump("lock.timeout", 1);
                return Flight::TimedOut;
            }
            // Bounded exponential backoff, capped so reclaim of a
            // crashed leader is noticed promptly.
            std::thread::sleep(wait.min(deadline - now));
            wait = (wait * 2).min(Duration::from_millis(50));
            if let Lookup::Hit(bytes) = self.load(stage, key) {
                self.bump("lock.wait_hit", 1);
                return Flight::Ready(bytes);
            }
        }
    }

    /// Reclaims stale litter (crashed peers' `*.tmp` intermediates,
    /// expired `*.lock` files, and torn `.art` frames) across every
    /// stage directory. Run at session start; the per-save sweep keeps
    /// the tmp/lock part incremental afterwards. Returns how many
    /// files were removed.
    pub fn reclaim(&self) -> u64 {
        let Some(root) = self.root.as_ref() else {
            return 0;
        };
        let Ok(stages) = fs::read_dir(root) else {
            return 0;
        };
        let mut removed = 0;
        for stage in stages.flatten() {
            let dir = stage.path();
            if dir.is_dir() {
                removed += self.reclaim_litter(&dir);
                removed += self.reclaim_torn(&dir);
            }
        }
        removed
    }

    /// Removes `.art` entries whose frame fails to validate — garbage
    /// from external corruption or a foreign format version; the
    /// atomic commit protocol never publishes one itself. Startup-only
    /// (frame-validating every entry is too heavy for the per-save
    /// sweep) and deliberately outside the fault surface: an injected
    /// read fault must never delete a good artifact.
    fn reclaim_torn(&self, dir: &Path) -> u64 {
        let Ok(entries) = fs::read_dir(dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            if !has_ext(&path, "art") {
                continue;
            }
            let valid = fs::read(&path)
                .ok()
                .and_then(|b| unframe(self.version, &b).map(|_| ()))
                .is_some();
            if !valid && fs::remove_file(&path).is_ok() {
                self.bump("cache.torn.reclaimed", 1);
                self.note("cache.reclaim.torn", &path);
                removed += 1;
            }
        }
        removed
    }

    /// Removes stale tmp/lock files in one stage directory.
    fn reclaim_litter(&self, dir: &Path) -> u64 {
        let Ok(entries) = fs::read_dir(dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            if is_tmp(&path) {
                if tmp_is_stale(&path, self.lock_ttl) && fs::remove_file(&path).is_ok() {
                    self.bump("cache.tmp.reclaimed", 1);
                    self.note("cache.reclaim.tmp", &path);
                    removed += 1;
                }
            } else if has_ext(&path, "lock")
                && lock::is_stale(&path, self.lock_ttl)
                && fs::remove_file(&path).is_ok()
            {
                self.bump("lock.reclaimed", 1);
                self.note("lock.reclaim", &path);
                removed += 1;
            }
        }
        removed
    }

    /// Post-commit sweep of one stage directory: reclaim stale litter,
    /// then evict the least-recently-modified `.art` entries beyond
    /// the cap — never `keep` (the entry just committed) and never an
    /// entry whose fingerprint holds a live lock (a peer is reading or
    /// just committed it). A racing `remove_file` losing to a peer
    /// (NotFound) is not an error and not counted. Returns how many
    /// entries this call evicted.
    fn sweep(&self, dir: &Path, keep: &Path) -> usize {
        self.reclaim_litter(dir);
        if self.cap == 0 {
            return 0;
        }
        let Ok(entries) = fs::read_dir(dir) else {
            return 0;
        };
        let mut arts: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if !has_ext(&path, "art") || path == *keep {
                continue;
            }
            let modified = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            arts.push((modified, path));
        }
        // +1 for `keep`, which always survives.
        if arts.len() + 1 <= self.cap {
            return 0;
        }
        arts.sort();
        let excess = arts.len() + 1 - self.cap;
        let mut evicted = 0;
        for (_, path) in arts.into_iter().take(excess) {
            let lock_sibling = path.with_extension("lock");
            if lock_sibling.exists() && !lock::is_stale(&lock_sibling, self.lock_ttl) {
                // In flight for a concurrent session — not evictable.
                self.bump("cache.evict.skipped_locked", 1);
                continue;
            }
            if let Some(IoFault::Error | IoFault::ShortWrite | IoFault::BitFlip) =
                self.inject(IoOp::RemoveEvict, false)
            {
                continue; // absorbed: the entry outlives its welcome
            }
            match fs::remove_file(&path) {
                Ok(()) => {
                    self.note("cache.evict", &path);
                    evicted += 1;
                }
                // A peer evicted (or recomputed over) it first.
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(_) => {}
            }
        }
        evicted
    }

    /// Audits every file under the root: frame-validates each `.art`
    /// and lists tmp/lock litter. Campaign runners assert
    /// [`StoreAudit::is_clean`] after recovery.
    pub fn audit_files(&self) -> StoreAudit {
        let mut audit = StoreAudit::default();
        let Some(root) = self.root.as_ref() else {
            return audit;
        };
        let Ok(stages) = fs::read_dir(root) else {
            return audit;
        };
        for stage in stages.flatten() {
            let dir = stage.path();
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if is_tmp(&path) {
                    audit.tmp.push(path);
                } else if has_ext(&path, "lock") {
                    audit.locks.push(path);
                } else if has_ext(&path, "art") {
                    let valid = fs::read(&path)
                        .ok()
                        .and_then(|b| unframe(self.version, &b).map(|_| ()))
                        .is_some();
                    if valid {
                        audit.intact += 1;
                    } else {
                        audit.torn.push(path);
                    }
                }
            }
        }
        audit
    }
}

/// Short, bounded backoff between I/O retry attempts.
fn backoff(attempt: u32) {
    std::thread::sleep(Duration::from_millis(1 << attempt.min(4)));
}

fn has_ext(path: &Path, ext: &str) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some(ext)
}

/// Whether `path` is a store write intermediate (`.<fp>.<pid>.<seq>.tmp`).
fn is_tmp(path: &Path) -> bool {
    has_ext(path, "tmp")
        && path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with('.'))
}

/// A tmp file is stale when its writer is provably dead (the pid baked
/// into its name has no `/proc` entry) or it has aged past `ttl` (a
/// live writer renames within milliseconds).
fn tmp_is_stale(path: &Path, ttl: Duration) -> bool {
    let pid: Option<u32> = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.split('.').nth(2))
        .and_then(|p| p.parse().ok());
    if let Some(pid) = pid {
        if Path::new("/proc").is_dir() && !Path::new(&format!("/proc/{pid}")).exists() {
            return true;
        }
    }
    fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|m| std::time::SystemTime::now().duration_since(m).ok())
        .is_some_and(|age| age > ttl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "disengage-cache-store-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let root = scratch("roundtrip");
        let store = ArtifactStore::at(&root, 1);
        let key = Fingerprint(0xdead_beef);
        assert_eq!(store.load("corpus", key), Lookup::Miss);
        store.save("corpus", key, b"payload");
        assert_eq!(store.load("corpus", key), Lookup::Hit(b"payload".to_vec()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entry_detected_and_removed() {
        let root = scratch("corrupt");
        let store = ArtifactStore::at(&root, 1);
        let key = Fingerprint(42);
        store.save("tag", key, b"the artifact");
        let path = root.join("tag").join(format!("{}.art", key.to_hex()));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load("tag", key), Lookup::Corrupt);
        // The damaged file was removed, so the next probe is a miss.
        assert_eq!(store.load("tag", key), Lookup::Miss);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_bump_invalidates() {
        let root = scratch("version");
        let key = Fingerprint(7);
        ArtifactStore::at(&root, 1).save("norm", key, b"old format");
        assert_eq!(ArtifactStore::at(&root, 2).load("norm", key), Lookup::Corrupt);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disabled_store_is_inert() {
        let store = ArtifactStore::disabled();
        assert!(!store.is_enabled());
        assert_eq!(store.save("corpus", Fingerprint(1), b"x"), 0);
        assert_eq!(store.load("corpus", Fingerprint(1)), Lookup::Miss);
        assert!(matches!(
            store.join_flight("corpus", Fingerprint(1), Duration::from_millis(1)),
            Flight::TimedOut
        ));
    }

    #[test]
    fn lru_eviction_keeps_newest() {
        let root = scratch("evict");
        let store = ArtifactStore::at(&root, 1);
        let mut evicted_total = 0;
        for i in 0..(DEFAULT_PER_STAGE_CAP as u64 + 3) {
            evicted_total += store.save("digitize", Fingerprint(i), b"x");
        }
        assert_eq!(evicted_total, 3);
        let live = fs::read_dir(root.join("digitize"))
            .unwrap()
            .flatten()
            .filter(|e| has_ext(&e.path(), "art"))
            .count();
        assert_eq!(live, DEFAULT_PER_STAGE_CAP);
        // The most recent write always survives.
        assert!(matches!(
            store.load("digitize", Fingerprint(DEFAULT_PER_STAGE_CAP as u64 + 2)),
            Lookup::Hit(_)
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_cap_is_unbounded() {
        let root = scratch("uncapped");
        let store = ArtifactStore::at(&root, 1).with_cap(0);
        for i in 0..40u64 {
            assert_eq!(store.save("digitize", Fingerprint(i), b"x"), 0);
        }
        let live = fs::read_dir(root.join("digitize")).unwrap().count();
        assert_eq!(live, 40);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn eviction_skips_locked_entries() {
        let root = scratch("evict-locked");
        let store = ArtifactStore::at(&root, 1).with_cap(2);
        store.save("tag", Fingerprint(1), b"oldest");
        // A live peer holds fingerprint 1 (fresh lease, our pid).
        let guard = store.try_lock("tag", Fingerprint(1)).expect("lock");
        store.save("tag", Fingerprint(2), b"mid");
        store.save("tag", Fingerprint(3), b"new");
        // Cap 2 with three entries: the oldest would go, but it is
        // locked — the unlocked middle entry goes instead.
        assert!(matches!(store.load("tag", Fingerprint(1)), Lookup::Hit(_)));
        drop(guard);
        let counters: BTreeMap<_, _> = store.take_counters().into_iter().collect();
        assert!(counters.get("cache.evict.skipped_locked").copied().unwrap_or(0) >= 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn save_leaves_no_tmp_behind() {
        let root = scratch("no-tmp");
        let store = ArtifactStore::at(&root, 1);
        for i in 0..5u64 {
            store.save("corpus", Fingerprint(i), b"bytes");
        }
        let audit = store.audit_files();
        assert!(audit.is_clean(), "{audit:?}");
        assert_eq!(audit.intact, 5);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dead_writer_tmp_is_reclaimed() {
        let root = scratch("reclaim-tmp");
        let store = ArtifactStore::at(&root, 1);
        store.save("corpus", Fingerprint(1), b"x");
        // A crashed peer's torn intermediate: dead pid in the name.
        let litter = root.join("corpus").join(".aaaa.3999999999.0.tmp");
        fs::write(&litter, b"torn").unwrap();
        if Path::new("/proc").is_dir() {
            assert_eq!(store.reclaim(), 1);
            assert!(!litter.exists());
            let counters: BTreeMap<_, _> = store.take_counters().into_iter().collect();
            assert_eq!(counters.get("cache.tmp.reclaimed"), Some(&1));
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_artifact_is_reclaimed_at_startup() {
        let root = scratch("reclaim-torn");
        let store = ArtifactStore::at(&root, 1);
        store.save("corpus", Fingerprint(1), b"good");
        let torn = root.join("corpus").join("aaaaaaaaaaaaaaaa.art");
        fs::write(&torn, b"DART").unwrap();
        assert_eq!(store.reclaim(), 1);
        assert!(!torn.exists());
        // The frame-valid entry survives.
        assert!(matches!(store.load("corpus", Fingerprint(1)), Lookup::Hit(_)));
        let counters: BTreeMap<_, _> = store.take_counters().into_iter().collect();
        assert_eq!(counters.get("cache.torn.reclaimed"), Some(&1));
        let events = store.take_events();
        assert_eq!(
            events,
            vec![("cache.reclaim.torn", "aaaaaaaaaaaaaaaa.art".to_owned())]
        );
        assert!(store.take_events().is_empty(), "take_events drains");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn our_own_fresh_tmp_survives_reclaim() {
        let root = scratch("fresh-tmp");
        let store = ArtifactStore::at(&root, 1);
        fs::create_dir_all(root.join("corpus")).unwrap();
        let mine = root
            .join("corpus")
            .join(format!(".bbbb.{}.7.tmp", std::process::id()));
        fs::write(&mine, b"in flight").unwrap();
        assert_eq!(store.reclaim(), 0, "live writer's tmp must survive");
        assert!(mine.exists());
        let _ = fs::remove_dir_all(&root);
    }
}
