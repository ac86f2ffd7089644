//! Advisory per-fingerprint lock files with lease timestamps.
//!
//! A lock is a sibling file `<fingerprint>.lock` created with
//! `O_CREAT|O_EXCL` (atomic on every filesystem std targets), holding
//! the owner's pid and a lease timestamp. Locks are *advisory* and
//! exist purely to deduplicate work: correctness never depends on
//! them, because artifact commits are atomic renames of checksummed
//! frames and every computation is deterministic — two sessions that
//! both compute a key write identical bytes. What the lock buys is
//! single-flight: under contention one session computes and the rest
//! wait (bounded), then read the committed artifact.
//!
//! Crashed owners must not wedge the cache, so a lock is reclaimable
//! ("stale") when its owner process is provably gone (`/proc/<pid>`
//! on Linux) or its lease has outlived the TTL. A lease that expires
//! under a still-running owner merely lets a second session duplicate
//! the computation — wasted work, never wrong bytes.

use std::fs::{self, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Lease TTL: generous enough for any stage computation at full scale,
/// small enough that a crashed peer's lock clears within one
/// coffee-less minute.
pub const LOCK_TTL: Duration = Duration::from_secs(60);

/// Milliseconds since the Unix epoch (the lease clock).
pub fn now_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The lock-file body: owner pid and lease timestamp, both needed by
/// strangers deciding staleness. Exposed so fault-injection campaigns
/// can fabricate crashed-peer litter.
pub fn compose(pid: u32, lease_millis: u64) -> String {
    format!("pid {pid} lease {lease_millis}\n")
}

/// Parses a lock-file body written by [`compose`].
pub fn parse(body: &str) -> Option<(u32, u64)> {
    let mut words = body.split_whitespace();
    if words.next()? != "pid" {
        return None;
    }
    let pid = words.next()?.parse().ok()?;
    if words.next()? != "lease" {
        return None;
    }
    let lease = words.next()?.parse().ok()?;
    Some((pid, lease))
}

/// Whether `pid` is a running process — `Some(false)` only when the
/// platform can prove the owner is gone (`/proc` exists but the entry
/// does not), `None` when it cannot tell.
fn pid_alive(pid: u32) -> Option<bool> {
    if !Path::new("/proc").is_dir() {
        return None;
    }
    Some(Path::new(&format!("/proc/{pid}")).exists())
}

/// Whether the lock at `path` may be broken: its owner is provably
/// dead, its lease has outlived `ttl`, or its body is unreadable *and*
/// older than `ttl` (a freshly created lock can be observed mid-write,
/// so unparseable-but-young is given the benefit of the doubt).
pub fn is_stale(path: &Path, ttl: Duration) -> bool {
    let age_exceeded = || {
        fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|m| SystemTime::now().duration_since(m).ok())
            .is_some_and(|age| age > ttl)
    };
    match fs::read_to_string(path).ok().as_deref().and_then(parse) {
        Some((pid, lease)) => {
            if pid_alive(pid) == Some(false) {
                return true;
            }
            now_millis().saturating_sub(lease) > ttl.as_millis() as u64
        }
        None => age_exceeded(),
    }
}

/// A held advisory lock; dropping it releases (removes) the file.
#[derive(Debug)]
pub struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        // NotFound is fine — a peer may have reclaimed an expired
        // lease out from under us; the commit was atomic either way.
        let _ = fs::remove_file(&self.path);
    }
}

/// The result of one acquisition attempt.
#[derive(Debug)]
pub struct Acquire {
    /// The guard, when the lock was taken.
    pub guard: Option<LockGuard>,
    /// How many stale lock files were broken along the way.
    pub reclaimed: u64,
}

/// Tries to take the lock at `path` without waiting. A stale holder
/// (dead pid or expired lease, per [`is_stale`]) is broken and the
/// acquisition retried once. Unwritable directories degrade to "not
/// acquired" — the caller computes without the lock.
pub fn try_acquire(path: &Path, ttl: Duration) -> Acquire {
    let mut reclaimed = 0;
    // Two rounds: the first may break a stale lock, the second takes it.
    for _ in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut file) => {
                // Best-effort body: an empty lock is still a lock (it
                // ages out via mtime if we crash mid-write).
                let _ = file.write_all(compose(std::process::id(), now_millis()).as_bytes());
                return Acquire {
                    guard: Some(LockGuard {
                        path: path.to_path_buf(),
                    }),
                    reclaimed,
                };
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                if !is_stale(path, ttl) {
                    return Acquire {
                        guard: None,
                        reclaimed,
                    };
                }
                // Break the stale lock; racing breakers are fine
                // (NotFound just means someone else got there first).
                if fs::remove_file(path).is_ok() {
                    reclaimed += 1;
                }
            }
            Err(_) => {
                return Acquire {
                    guard: None,
                    reclaimed,
                };
            }
        }
    }
    Acquire {
        guard: None,
        reclaimed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("disengage-cache-lock-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn body_round_trips() {
        assert_eq!(parse(&compose(42, 1234)), Some((42, 1234)));
        assert_eq!(parse("garbage"), None);
        assert_eq!(parse("pid x lease 3"), None);
    }

    #[test]
    fn acquire_release_reacquire() {
        let dir = scratch("basic");
        let path = dir.join("k.lock");
        let a = try_acquire(&path, LOCK_TTL);
        assert!(a.guard.is_some());
        // Held: a second attempt must fail without breaking anything.
        let b = try_acquire(&path, LOCK_TTL);
        assert!(b.guard.is_none());
        assert_eq!(b.reclaimed, 0);
        drop(a);
        assert!(!path.exists(), "drop must release the lock file");
        assert!(try_acquire(&path, LOCK_TTL).guard.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_owner_is_reclaimed() {
        if !Path::new("/proc").is_dir() {
            return; // liveness is unknowable here; covered by the TTL test
        }
        let dir = scratch("dead");
        let path = dir.join("k.lock");
        // A pid far above any real pid_max, with a fresh lease: only
        // the liveness check can (and must) break this.
        fs::write(&path, compose(3_999_999_999, now_millis())).unwrap();
        let a = try_acquire(&path, LOCK_TTL);
        assert!(a.guard.is_some(), "dead-owner lock must be reclaimed");
        assert_eq!(a.reclaimed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_lease_is_reclaimed_live_lease_is_not() {
        let dir = scratch("lease");
        let path = dir.join("k.lock");
        // Our own (live) pid, but a lease from the distant past.
        fs::write(&path, compose(std::process::id(), 1)).unwrap();
        assert!(is_stale(&path, Duration::from_millis(10)));
        let a = try_acquire(&path, Duration::from_millis(10));
        assert!(a.guard.is_some());
        assert_eq!(a.reclaimed, 1);
        drop(a);
        // A fresh lease under a live pid holds.
        fs::write(&path, compose(std::process::id(), now_millis())).unwrap();
        assert!(!is_stale(&path, LOCK_TTL));
        assert!(try_acquire(&path, LOCK_TTL).guard.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_young_lock_holds_old_one_breaks() {
        let dir = scratch("garbage");
        let path = dir.join("k.lock");
        fs::write(&path, "???").unwrap();
        // Young garbage: might be a peer mid-write — hold off.
        assert!(!is_stale(&path, Duration::from_secs(60)));
        // Old garbage (mtime-aged out under a zero TTL): break it.
        std::thread::sleep(Duration::from_millis(15));
        assert!(is_stale(&path, Duration::from_millis(1)));
        let _ = fs::remove_dir_all(&dir);
    }
}
