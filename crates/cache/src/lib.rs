//! Content-addressed artifact store for incremental pipeline re-runs.
//!
//! Four pieces, all dependency-free:
//!
//! * [`fp`] — a streaming FNV-1a 64-bit hasher with a stable,
//!   documented output. Stage fingerprints must survive process
//!   restarts and toolchain upgrades, which rules out
//!   `std::collections::hash_map::DefaultHasher` (its algorithm is
//!   explicitly unspecified and randomly keyed).
//! * [`codec`] — a fixed-layout little-endian byte codec
//!   ([`codec::Enc`]/[`codec::Dec`]) plus checksummed artifact framing.
//!   Decoding is total: truncated or bit-flipped input yields `None`,
//!   never a panic.
//! * [`store`] — [`store::ArtifactStore`], the on-disk layout
//!   `<root>/<stage>/<fingerprint>.art` with crash-safe atomic commits
//!   (unique tmp + fsync + rename), corruption detection, stale-litter
//!   reclamation, and per-stage eviction of the oldest entries. A store
//!   lists a stage directory once, at its first save there, and then
//!   evicts from that list, so a save makes only its own file's
//!   syscalls and its victims' unlinks. Sessions sharing one
//!   directory need no coordination: two that compute one key commit
//!   identical frames, and the later rename wins.
//! * [`faults`] — the [`faults::IoFaults`] injection surface every
//!   store filesystem operation consults; the seeded implementation
//!   lives in `disengage-chaos::io` so this crate stays dependency-free.
//!
//! The crate knows nothing about the pipeline's domain types; callers
//! (see `disengage-core`'s `artifact` module) provide the payload
//! encoding on top of [`codec`].

pub mod codec;
pub mod faults;
pub mod fp;
pub mod store;

pub use codec::{Dec, Enc};
pub use faults::{IoFault, IoFaults, IoOp};
pub use fp::{Fingerprint, Fp};
pub use store::{ArtifactStore, Lookup, StoreAudit, DEFAULT_PER_STAGE_CAP};
