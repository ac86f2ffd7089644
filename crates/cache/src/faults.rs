//! The store's I/O fault surface.
//!
//! Crash-safety claims are only as good as the faults they have been
//! tested against, so every filesystem operation the store performs
//! first consults an optional [`IoFaults`] injector. The injector
//! decides — deterministically, from its own seed — whether the
//! operation fails (an `EIO`/`ENOSPC` analogue), persists only a
//! prefix of its bytes, or returns bit-flipped data. The store's job
//! is to absorb every one of those outcomes: transient faults with
//! bounded retry/backoff, persistent ones by degrading to
//! "recompute", never by panicking or serving wrong bytes.
//!
//! The crate defines only the *surface*; the seeded implementation
//! lives in `disengage-chaos::io` so the cache stays dependency-free.

/// A store filesystem operation about to run, as seen by an injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Reading an artifact frame from disk.
    ReadArtifact,
    /// Writing the temporary sibling of an artifact (pre-commit).
    WriteTmp,
    /// Renaming the temporary file into place (the commit point).
    RenameCommit,
    /// Removing an entry during LRU eviction.
    RemoveEvict,
}

/// The fault an injector asks the store to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The operation fails outright (`EIO`, `ENOSPC`, permission …).
    Error,
    /// A write persists only a prefix of its bytes before failing —
    /// the classic torn write of a crash or a full disk.
    ShortWrite,
    /// A read returns the frame with one bit flipped (silent media
    /// corruption; the frame checksum must catch it).
    BitFlip,
}

/// A deterministic source of injected I/O faults. Implementations must
/// be `Send + Sync`: one injector is shared across every clone of the
/// store, including clones running on worker threads.
pub trait IoFaults: Send + Sync {
    /// Consulted immediately before the store performs `op` on the
    /// entry `artifact` (its `<stage>/<fingerprint>` name, never the
    /// tmp path, which carries a pid and a sequence number) for the
    /// `attempt`-th time (0-based; the store retries a failed read,
    /// write or rename). `Some` makes the store simulate that fault for
    /// this one invocation. A run reads, writes and renames each
    /// artifact at most once per attempt, so an injector that draws
    /// from these arguments alone gives those operations a schedule that
    /// depends only on the run's work, never on thread interleaving.
    /// (Which entries a save finds past the cap can still depend on the
    /// order in which concurrent saves land.)
    fn inject(&self, op: IoOp, artifact: &str, attempt: u32) -> Option<IoFault>;
}
