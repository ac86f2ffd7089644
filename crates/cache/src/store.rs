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
//! the first save into its stage remove once its owner is provably
//! dead or aged out. Torn frames that do reach disk (e.g. planted by a
//! fault campaign) are removed and recomputed: at startup when the
//! 24-byte header already disagrees with the file, otherwise at the
//! first [`ArtifactStore::load`], the one place the payload checksum
//! is verified.
//!
//! # Concurrency
//!
//! Multiple sessions — threads or processes — may share one root with
//! no coordination beyond the commit protocol. Two sessions that miss
//! the same key both compute it and both rename a complete frame into
//! place; stage computations are deterministic, so the frames are
//! byte-identical and whichever rename lands last is the same
//! artifact. The cost is duplicated work, never different bytes. A
//! racing eviction that finds its victim already gone is not an error.
//! A store evicts from the list of its stage's entries it took at its
//! first save there, so entries another session commits afterwards are
//! left to the next session's listing.
//! (A `*.lock` file an older build left behind is a file this store
//! never writes, and every pass ignores it.)
//!
//! # Fault injection
//!
//! Every filesystem touch first consults the optional [`IoFaults`]
//! surface. Transient faults are
//! absorbed by bounded retry with backoff; persistent ones degrade to
//! recompute. Every degraded path is counted (see
//! [`ArtifactStore::take_counters`]) under `cache.io.*` / `cache.tmp.*`,
//! with the invariant that every injected fault resolves as exactly one
//! of `cache.io.retried` or `cache.io.absorbed`.

use std::collections::{BTreeMap, VecDeque};
use std::ffi::OsString;
use std::fs::{self, File};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::codec::{frame, header_matches, unframe, HEADER_LEN};
use crate::faults::{IoFault, IoFaults, IoOp};
use crate::fp::Fingerprint;

/// Default artifacts kept per stage directory before the least recently
/// written entries are evicted. Each stage has a handful of live
/// configurations in practice; the cap bounds disk usage for sweeps.
/// Override per store with [`ArtifactStore::with_cap`] (0 = unbounded).
pub const DEFAULT_PER_STAGE_CAP: usize = 8;

/// Total write/rename/read attempts before a fault stops being
/// "transient" and the operation degrades.
const IO_ATTEMPTS: u32 = 3;

/// Age past which a `*.tmp` intermediate is litter even when its
/// writer's pid is still running: a live writer renames within
/// milliseconds, and a minute covers any fsync stall.
const TMP_TTL: Duration = Duration::from_secs(60);

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
    /// removed so the recomputed artifact can take its place — unless
    /// the damage was a bit flip the fault surface injected into the
    /// read, which leaves the file on disk as it was.
    Corrupt,
}

/// What [`ArtifactStore::audit_files`] found on disk.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StoreAudit {
    /// `.art` files whose frame fails to validate (torn commits).
    pub torn: Vec<PathBuf>,
    /// Leftover `*.tmp` write intermediates.
    pub tmp: Vec<PathBuf>,
    /// Frame-valid `.art` entries.
    pub intact: usize,
}

impl StoreAudit {
    /// Whether the store is clean: no torn frames, no tmp litter.
    pub fn is_clean(&self) -> bool {
        self.torn.is_empty() && self.tmp.is_empty()
    }
}

/// A content-addressed artifact store rooted at one directory, or a
/// disabled store that never hits and never writes. Clones share the
/// fault surface, the counter ledger and the eviction lists.
#[derive(Clone)]
pub struct ArtifactStore {
    root: Option<PathBuf>,
    version: u32,
    cap: usize,
    faults: Option<Arc<dyn IoFaults>>,
    counters: Arc<Mutex<BTreeMap<&'static str, u64>>>,
    events: Arc<Mutex<Vec<(&'static str, String)>>>,
    /// Per stage: the `.art` file names in its directory, oldest first,
    /// listed at the first save into that stage and kept in step with
    /// this store's commits and evictions since.
    listed: Arc<Mutex<BTreeMap<String, VecDeque<OsString>>>>,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("root", &self.root)
            .field("version", &self.version)
            .field("cap", &self.cap)
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
            faults: None,
            counters: Arc::new(Mutex::new(BTreeMap::new())),
            events: Arc::new(Mutex::new(Vec::new())),
            listed: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// A store that never hits and never writes — the default when no
    /// `--cache-dir` is configured.
    pub fn disabled() -> ArtifactStore {
        ArtifactStore {
            root: None,
            version: 0,
            cap: DEFAULT_PER_STAGE_CAP,
            faults: None,
            counters: Arc::new(Mutex::new(BTreeMap::new())),
            events: Arc::new(Mutex::new(Vec::new())),
            listed: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Sets the per-stage entry cap (0 = unbounded).
    #[must_use]
    pub fn with_cap(mut self, cap: usize) -> ArtifactStore {
        self.cap = cap;
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

    /// Drains the counter ledger accumulated since the last drain:
    /// `cache.io.fault.*` (faults fired, by site), `cache.io.retried` /
    /// `cache.io.absorbed` (how each resolved), `cache.tmp.reclaimed`,
    /// `cache.torn.reclaimed`. Callers feed these into their own
    /// telemetry; all land under the `cache.` prefix the canonical
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
    /// reclaimed torn frame, reclaimed tmp litter file, and
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

    /// Consults the fault surface for the `attempt`-th `op` on the
    /// entry at `path`; counts a fired fault and how it will resolve
    /// (retried while a read, write or rename has attempts left,
    /// otherwise absorbed — reads of flipped bytes and evictions never
    /// retry).
    fn inject(&self, op: IoOp, path: &Path, attempt: u32) -> Option<IoFault> {
        let faults = self.faults.as_ref()?;
        let fault = faults.inject(op, &artifact_name(path), attempt)?;
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
        if retryable && op != IoOp::RemoveEvict && attempt + 1 < IO_ATTEMPTS {
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

    /// Reads an artifact file through the fault surface with bounded
    /// retry. `None` means "treat as absent"; the flag beside the bytes
    /// says the fault surface flipped a bit of this copy, not of the
    /// file.
    fn read_artifact(&self, path: &Path) -> Option<(Vec<u8>, bool)> {
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
            match self.inject(IoOp::ReadArtifact, path, attempt) {
                None => return Some((bytes, false)),
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
                    return Some((bad, true));
                }
            }
        }
        None
    }

    /// Probes the store for `<stage>/<key>`, verifying the whole frame
    /// and its payload checksum. A frame that fails is removed and
    /// counted like the frames [`ArtifactStore::reclaim`] removes at
    /// startup for a torn header, so each torn artifact counts once.
    pub fn load(&self, stage: &str, key: Fingerprint) -> Lookup {
        let Some(path) = self.entry_path(stage, key) else {
            return Lookup::Miss;
        };
        let Some((bytes, flipped)) = self.read_artifact(&path) else {
            return Lookup::Miss;
        };
        match unframe(self.version, &bytes) {
            Some(payload) => Lookup::Hit(payload.to_vec()),
            // The fault surface damaged this copy, not the file: an
            // injected read fault must never delete a good artifact.
            None if flipped => Lookup::Corrupt,
            None => {
                // Drop the damaged entry so the recompute can replace
                // it; a failed removal is fine (a read-only cache is
                // still a cache).
                self.remove_torn(&path);
                Lookup::Corrupt
            }
        }
    }

    /// Writes `bytes` to `tmp`, the intermediate of the entry at
    /// `path`, and fsyncs, through the fault surface.
    fn write_tmp(&self, tmp: &Path, path: &Path, bytes: &[u8], attempt: u32) -> bool {
        match self.inject(IoOp::WriteTmp, path, attempt) {
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
    fn rename_commit(&self, tmp: &Path, path: &Path, attempt: u32) -> bool {
        if let Some(IoFault::Error | IoFault::ShortWrite | IoFault::BitFlip) =
            self.inject(IoOp::RenameCommit, path, attempt)
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
    ///
    /// Eviction works from the store's list of the stage's entries,
    /// oldest first. The first save into a stage lists its directory
    /// once: it removes stale tmp litter and orders the `.art` entries
    /// by modification time, then name. Every commit then moves its
    /// own entry to the newest end, so a later save makes only its own
    /// file's syscalls and its victims' unlinks. Entries another
    /// session commits after that listing are not this store's to
    /// evict; the next session's listing sees them.
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
            if attempt > 0 {
                backoff(attempt - 1);
            }
            if !self.write_tmp(&tmp, &path, &framed, attempt) {
                let _ = fs::remove_file(&tmp);
                continue;
            }
            if self.rename_commit(&tmp, &path, attempt) {
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
        self.evict_past_cap(stage, &dir, &path)
    }

    /// Reclaims stale litter (crashed peers' `*.tmp` intermediates and
    /// `.art` files whose header is torn) across every stage directory.
    /// Run at session start; the first save into each stage reclaims
    /// its tmp litter once more. Returns how many files were removed.
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

    /// Removes `.art` entries whose header fails [`header_matches`] —
    /// truncated or over-long files, garbage, and frames of another
    /// layout or format version; the atomic commit protocol never
    /// publishes one itself. Reads only each header, never a payload:
    /// damage inside a payload is left to the checksum in
    /// [`ArtifactStore::load`], so a warm run reads every artifact
    /// once. Deliberately outside the fault surface: an injected read
    /// fault must never delete a good artifact.
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
            if !self.header_ok(&path) && self.remove_torn(&path) {
                removed += 1;
            }
        }
        removed
    }

    /// Removes a torn `.art` file and, if it was removed, counts it under
    /// `cache.torn.reclaimed` with its `cache.reclaim.torn` event.
    fn remove_torn(&self, path: &Path) -> bool {
        let removed = fs::remove_file(path).is_ok();
        if removed {
            self.bump("cache.torn.reclaimed", 1);
            self.note("cache.reclaim.torn", path);
        }
        removed
    }

    /// Whether the file at `path` opens with this store's frame header
    /// and is exactly as long as that header declares.
    fn header_ok(&self, path: &Path) -> bool {
        let Ok(mut file) = File::open(path) else {
            return false;
        };
        let mut header = [0u8; HEADER_LEN];
        match (file.metadata(), file.read_exact(&mut header)) {
            (Ok(meta), Ok(())) => header_matches(self.version, &header, meta.len()),
            _ => false,
        }
    }

    /// Removes stale tmp files in one stage directory.
    fn reclaim_litter(&self, dir: &Path) -> u64 {
        let Ok(entries) = fs::read_dir(dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            if self.reclaim_tmp(&entry.path()) {
                removed += 1;
            }
        }
        removed
    }

    /// Removes `path` if it is stale tmp litter, counting it under
    /// `cache.tmp.reclaimed` with its `cache.reclaim.tmp` event.
    fn reclaim_tmp(&self, path: &Path) -> bool {
        let removed = is_tmp(path) && tmp_is_stale(path) && fs::remove_file(path).is_ok();
        if removed {
            self.bump("cache.tmp.reclaimed", 1);
            self.note("cache.reclaim.tmp", path);
        }
        removed
    }

    /// Lists `committed` (the entry just renamed into `dir`) as its
    /// stage's newest entry, then tries to unlink the oldest entries
    /// past the cap, never `committed` itself. A victim already gone (a
    /// peer or a torn-frame removal got there first) is dropped and not
    /// counted; one whose unlink faulted or failed stays listed at the
    /// oldest end, so the next save retries it. Returns how many
    /// entries this call evicted.
    fn evict_past_cap(&self, stage: &str, dir: &Path, committed: &Path) -> usize {
        if self.cap == 0 {
            return 0;
        }
        let Some(name) = committed.file_name() else {
            return 0;
        };
        let mut listed = self.listed.lock().unwrap_or_else(|e| e.into_inner());
        if !listed.contains_key(stage) {
            let Some(list) = self.list_stage(dir) else {
                return 0;
            };
            listed.insert(stage.to_owned(), list);
        }
        let list = listed.get_mut(stage).expect("the stage was listed above");
        // An entry already listed (the first listing saw the commit, or
        // the key was committed again: a recompute over a corrupt frame,
        // a peer's identical commit) is listed once, as the newest.
        if let Some(at) = list.iter().position(|n| n == name) {
            list.remove(at);
        }
        list.push_back(name.to_owned());
        // With `cap >= 1` the `excess` oldest never reach `committed`,
        // the last entry.
        let excess = list.len().saturating_sub(self.cap);
        let (mut at, mut evicted) = (0, 0);
        for _ in 0..excess {
            let victim = dir.join(&list[at]);
            // An injected fault is absorbed: the victim stays listed, as
            // does one whose unlink fails, for the next save to retry.
            let gone = self.inject(IoOp::RemoveEvict, &victim, 0).is_none()
                && match fs::remove_file(&victim) {
                    Ok(()) => {
                        self.note("cache.evict", &victim);
                        evicted += 1;
                        true
                    }
                    // A peer evicted (or recomputed over) it first.
                    Err(e) => e.kind() == ErrorKind::NotFound,
                };
            if gone {
                list.remove(at);
            } else {
                at += 1;
            }
        }
        evicted
    }

    /// The one listing of a stage directory a store makes, at its first
    /// save there: removes stale tmp litter and returns the `.art`
    /// names, oldest first by (modification time, name). `None` when
    /// the directory cannot be read.
    fn list_stage(&self, dir: &Path) -> Option<VecDeque<OsString>> {
        let mut arts = Vec::new();
        for entry in fs::read_dir(dir).ok()?.flatten() {
            let path = entry.path();
            if self.reclaim_tmp(&path) || !has_ext(&path, "art") {
                continue;
            }
            let modified = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            arts.push((modified, entry.file_name()));
        }
        arts.sort();
        Some(arts.into_iter().map(|(_, name)| name).collect())
    }

    /// Audits every file under the root: frame-validates each `.art`
    /// and lists tmp litter. Campaign runners assert
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

/// The `<stage>/<fingerprint>` name of the entry at
/// `<root>/<stage>/<fingerprint>.art`, the key a fault injector draws on.
fn artifact_name(path: &Path) -> String {
    let stage = path.parent().and_then(Path::file_name).unwrap_or_default();
    let key = path.file_stem().unwrap_or_default();
    format!("{}/{}", stage.to_string_lossy(), key.to_string_lossy())
}

/// A tmp file is stale when its writer is provably dead (the pid baked
/// into its name has no `/proc` entry) or it has aged past [`TMP_TTL`].
fn tmp_is_stale(path: &Path) -> bool {
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
        .is_some_and(|age| age > TMP_TTL)
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
        // Header and length are intact, so startup recovery keeps it ...
        assert_eq!(store.reclaim(), 0);
        assert!(path.exists());
        // ... and the checksum at load catches, removes and counts it.
        assert_eq!(store.load("tag", key), Lookup::Corrupt);
        // The damaged file was removed, so the next probe is a miss.
        assert_eq!(store.load("tag", key), Lookup::Miss);
        let counters: BTreeMap<_, _> = store.take_counters().into_iter().collect();
        assert_eq!(counters.get("cache.torn.reclaimed"), Some(&1));
        assert_eq!(
            store.take_events(),
            vec![("cache.reclaim.torn", format!("{}.art", key.to_hex()))]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_bump_invalidates() {
        let root = scratch("version");
        let key = Fingerprint(7);
        ArtifactStore::at(&root, 1).save("norm", key, b"old format");
        assert_eq!(
            ArtifactStore::at(&root, 2).load("norm", key),
            Lookup::Corrupt
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disabled_store_is_inert() {
        let store = ArtifactStore::disabled();
        assert!(!store.is_enabled());
        assert_eq!(store.save("corpus", Fingerprint(1), b"x"), 0);
        assert_eq!(store.load("corpus", Fingerprint(1)), Lookup::Miss);
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
        // Even when every other entry looks newer (mtimes an hour
        // ahead), the sweep after a commit never evicts that commit.
        let ahead = std::time::SystemTime::now() + Duration::from_secs(3600);
        for entry in fs::read_dir(root.join("digitize")).unwrap().flatten() {
            let file = File::options().write(true).open(entry.path()).unwrap();
            file.set_modified(ahead).unwrap();
        }
        let just_committed = Fingerprint(1_000);
        assert_eq!(store.save("digitize", just_committed, b"x"), 1);
        assert!(matches!(
            store.load("digitize", just_committed),
            Lookup::Hit(_)
        ));
        let _ = fs::remove_dir_all(&root);
    }

    fn art(root: &Path, stage: &str, i: u64) -> PathBuf {
        root.join(stage)
            .join(format!("{}.art", Fingerprint(i).to_hex()))
    }

    fn evicted(events: &[(&'static str, String)]) -> Vec<String> {
        events
            .iter()
            .filter(|(name, _)| *name == "cache.evict")
            .map(|(_, file)| file.clone())
            .collect()
    }

    #[test]
    fn a_later_store_lists_the_disk_and_evicts_oldest_first() {
        let root = scratch("later-store");
        let first = ArtifactStore::at(&root, 1).with_cap(3);
        for i in 0..3u64 {
            assert_eq!(first.save("tag", Fingerprint(i), b"x"), 0);
        }
        // Ages that follow neither the keys nor the commit order: 2 is
        // the oldest, then 0, then 1.
        let now = std::time::SystemTime::now();
        for (i, age) in [(2u64, 300), (0, 200), (1, 100)] {
            let file = File::options()
                .write(true)
                .open(art(&root, "tag", i))
                .unwrap();
            file.set_modified(now - Duration::from_secs(age)).unwrap();
        }
        // A later session's store knows nothing of the first's commits
        // but what its one listing of the directory finds.
        let later = ArtifactStore::at(&root, 1).with_cap(3);
        for i in 10..13u64 {
            assert_eq!(later.save("tag", Fingerprint(i), b"x"), 1);
        }
        let name = |i: u64| format!("{}.art", Fingerprint(i).to_hex());
        assert_eq!(
            evicted(&later.take_events()),
            vec![name(2), name(0), name(1)]
        );
        for i in 10..13u64 {
            assert!(art(&root, "tag", i).exists(), "entry {i} was evicted");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_recommitted_key_is_listed_once() {
        let root = scratch("recommit");
        let store = ArtifactStore::at(&root, 1).with_cap(3);
        for i in 0..3u64 {
            store.save("tag", Fingerprint(i), b"x");
        }
        // Committing 1 again (a recompute over a corrupt frame) takes no
        // second slot against the cap, and makes 1 the newest entry.
        assert_eq!(store.save("tag", Fingerprint(1), b"x"), 0);
        assert_eq!(store.save("tag", Fingerprint(3), b"x"), 1);
        assert!(!art(&root, "tag", 0).exists());
        assert_eq!(store.save("tag", Fingerprint(4), b"x"), 1);
        assert!(!art(&root, "tag", 2).exists(), "2 outlived the newer 1");
        assert!(art(&root, "tag", 1).exists());
        // A later store's first save of a key its listing finds on disk
        // lists that key once too.
        let later = ArtifactStore::at(&root, 1).with_cap(3);
        assert_eq!(later.save("tag", Fingerprint(3), b"x"), 0);
        for i in [1, 3, 4] {
            assert!(art(&root, "tag", i).exists(), "entry {i} was evicted");
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// Fails the first eviction unlink it is consulted on; every other
    /// operation runs.
    #[derive(Default)]
    struct FailFirstEvict(std::sync::atomic::AtomicBool);

    impl IoFaults for FailFirstEvict {
        fn inject(&self, op: IoOp, _artifact: &str, _attempt: u32) -> Option<IoFault> {
            (op == IoOp::RemoveEvict && !self.0.swap(true, Ordering::SeqCst))
                .then_some(IoFault::Error)
        }
    }

    #[test]
    fn a_faulted_eviction_stays_listed_and_the_next_save_evicts_it() {
        let root = scratch("evict-fault");
        let store = ArtifactStore::at(&root, 1)
            .with_cap(2)
            .with_faults(Arc::new(FailFirstEvict::default()));
        store.save("tag", Fingerprint(0), b"x");
        store.save("tag", Fingerprint(1), b"x");
        assert_eq!(store.save("tag", Fingerprint(2), b"x"), 0);
        assert!(art(&root, "tag", 0).exists(), "the faulted victim went");
        // Still the oldest listed entry: the next save evicts it along
        // with the entry now past the cap.
        assert_eq!(store.save("tag", Fingerprint(3), b"x"), 2);
        assert!(!art(&root, "tag", 0).exists());
        assert!(!art(&root, "tag", 1).exists());
        let counters: BTreeMap<_, _> = store.take_counters().into_iter().collect();
        let count = |name| counters.get(name).copied().unwrap_or(0);
        assert_eq!(count("cache.io.fault.evict"), 1);
        assert_eq!(count("cache.io.fault.total"), 1);
        assert_eq!(
            count("cache.io.fault.total"),
            count("cache.io.retried") + count("cache.io.absorbed")
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_victim_removed_behind_the_stores_back_is_dropped_uncounted() {
        let root = scratch("evict-gone");
        let record = Arc::new(RecordOps::default());
        let store = ArtifactStore::at(&root, 1)
            .with_cap(2)
            .with_faults(record.clone());
        store.save("tag", Fingerprint(0), b"x");
        store.save("tag", Fingerprint(1), b"x");
        fs::remove_file(art(&root, "tag", 0)).unwrap();
        assert_eq!(store.save("tag", Fingerprint(2), b"x"), 0);
        assert!(evicted(&store.take_events()).is_empty());
        assert_eq!(store.save("tag", Fingerprint(3), b"x"), 1);
        assert!(!art(&root, "tag", 1).exists());
        // The vanished victim was dropped from the list: no later save
        // tries it again.
        let tried: Vec<String> = record
            .0
            .lock()
            .unwrap()
            .iter()
            .filter(|(op, _, _)| *op == IoOp::RemoveEvict)
            .map(|(_, name, _)| name.clone())
            .collect();
        let name = |i: u64| format!("tag/{}", Fingerprint(i).to_hex());
        assert_eq!(tried, vec![name(0), name(1)]);
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
        let good = root
            .join("corpus")
            .join(format!("{}.art", Fingerprint(1).to_hex()));
        let good = fs::read(good).unwrap();
        // Three headers that disagree with their files: a bare magic,
        // a frame cut after an intact header (the declared length no
        // longer fits), and a whole frame under the old "DART" magic.
        let mut old_magic = good.clone();
        old_magic[..4].copy_from_slice(b"DART");
        let torn = [
            ("aaaaaaaaaaaaaaaa.art", b"DART".to_vec()),
            ("bbbbbbbbbbbbbbbb.art", good[..HEADER_LEN + 2].to_vec()),
            ("cccccccccccccccc.art", old_magic),
        ];
        for (name, bytes) in &torn {
            fs::write(root.join("corpus").join(name), bytes).unwrap();
        }
        assert_eq!(store.reclaim(), 3);
        for (name, _) in &torn {
            assert!(!root.join("corpus").join(name).exists(), "{name} survived");
        }
        // The frame-valid entry survives.
        assert!(matches!(
            store.load("corpus", Fingerprint(1)),
            Lookup::Hit(_)
        ));
        let counters: BTreeMap<_, _> = store.take_counters().into_iter().collect();
        assert_eq!(counters.get("cache.torn.reclaimed"), Some(&3));
        let mut events = store.take_events();
        events.sort();
        assert_eq!(
            events,
            torn.iter()
                .map(|(name, _)| ("cache.reclaim.torn", (*name).to_owned()))
                .collect::<Vec<_>>()
        );
        assert!(store.take_events().is_empty(), "take_events drains");
        let _ = fs::remove_dir_all(&root);
    }

    /// Flips a bit of every artifact read; every other operation runs.
    struct FlipEveryRead;

    impl IoFaults for FlipEveryRead {
        fn inject(&self, op: IoOp, _artifact: &str, _attempt: u32) -> Option<IoFault> {
            (op == IoOp::ReadArtifact).then_some(IoFault::BitFlip)
        }
    }

    #[test]
    fn injected_read_flip_never_deletes_a_good_artifact() {
        let root = scratch("flip-read");
        let store = ArtifactStore::at(&root, 1).with_faults(Arc::new(FlipEveryRead));
        let key = Fingerprint(5);
        store.save("normalize", key, b"a good artifact");
        let path = root.join("normalize").join(format!("{}.art", key.to_hex()));
        let on_disk = fs::read(&path).unwrap();
        assert_eq!(store.load("normalize", key), Lookup::Corrupt);
        assert_eq!(
            fs::read(&path).unwrap(),
            on_disk,
            "the good file was touched"
        );
        let counters: BTreeMap<_, _> = store.take_counters().into_iter().collect();
        assert_eq!(
            counters.get("cache.torn.reclaimed").copied().unwrap_or(0),
            0
        );
        assert!(store.take_events().is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    /// Records every consultation and never faults.
    #[derive(Default)]
    struct RecordOps(Mutex<Vec<(IoOp, String, u32)>>);

    impl IoFaults for RecordOps {
        fn inject(&self, op: IoOp, artifact: &str, attempt: u32) -> Option<IoFault> {
            let mut seen = self.0.lock().unwrap();
            seen.push((op, artifact.to_owned(), attempt));
            None
        }
    }

    #[test]
    fn faults_are_keyed_by_artifact_name_not_tmp_path() {
        let root = scratch("fault-names");
        let record = Arc::new(RecordOps::default());
        let store = ArtifactStore::at(&root, 1).with_faults(record.clone());
        let key = Fingerprint(9);
        store.save("tag", key, b"x");
        assert!(matches!(store.load("tag", key), Lookup::Hit(_)));
        let name = format!("tag/{}", key.to_hex());
        assert_eq!(
            *record.0.lock().unwrap(),
            vec![
                (IoOp::WriteTmp, name.clone(), 0),
                (IoOp::RenameCommit, name.clone(), 0),
                (IoOp::ReadArtifact, name, 0),
            ]
        );
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
