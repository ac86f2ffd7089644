//! Seeded I/O fault injection for the artifact store.
//!
//! The cache crate defines the fault *surface*
//! ([`disengage_cache::IoFaults`]): every filesystem operation the
//! store performs first asks an injector whether to simulate a
//! failure. This module provides the seeded implementation, driven by
//! the same SplitMix64 derivation ([`rand::derive_seed`]) as every
//! other chaos injector, so a campaign's fault schedule is a pure
//! function of `(seed, consultation index)` and reproducible across
//! runs and machines.
//!
//! Beyond live faults, crashed peers leave *litter*: torn `*.tmp`
//! write intermediates, orphaned `*.lock` files, truncated `.art`
//! frames. [`plant_litter`] fabricates exactly that debris (owned by a
//! provably dead pid) so recovery paths — reclamation sweeps, frame
//! checksums, stale-lock breaking — are exercised without an actual
//! crash.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use disengage_cache::lock;
use disengage_cache::{IoFault, IoFaults, IoOp};

/// A pid far above Linux's `pid_max` (2^22): never a live process, so
/// litter attributed to it is provably stale on any /proc platform.
const DEAD_PID: u32 = 3_999_999_999;

/// A seeded, `Copy` description of how hard to shake the store's I/O.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultPlan {
    /// Seed for the fault schedule (independent of corpus/OCR/chaos
    /// document seeds).
    pub seed: u64,
    /// Per-operation fault probability in `[0, 1]`. Rate `0` injects
    /// nothing — the store behaves exactly as without an injector.
    pub rate: f64,
}

impl IoFaultPlan {
    /// A plan at `rate` (clamped to `[0, 1]`) with `seed`.
    pub fn new(rate: f64, seed: u64) -> IoFaultPlan {
        IoFaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// Whether this plan injects anything at all.
    pub fn active(&self) -> bool {
        self.rate > 0.0
    }
}

/// The seeded [`IoFaults`] implementation: consultation `n` draws
/// `derive_seed(plan.seed, n)` and faults when the derived uniform
/// fraction falls under the plan rate. The consultation counter is a
/// process-global atomic shared by every store clone, so the schedule
/// is deterministic for a fixed sequence of store operations (which
/// the single-threaded campaign runner guarantees); under free-running
/// threads it stays seeded-pseudorandom, which is all a stress test
/// needs.
#[derive(Debug)]
pub struct SeededIoFaults {
    plan: IoFaultPlan,
    consultations: AtomicU64,
}

impl SeededIoFaults {
    /// An injector drawing its schedule from `plan`.
    pub fn new(plan: IoFaultPlan) -> SeededIoFaults {
        SeededIoFaults {
            plan,
            consultations: AtomicU64::new(0),
        }
    }
}

impl IoFaults for SeededIoFaults {
    fn inject(&self, op: IoOp) -> Option<IoFault> {
        let n = self.consultations.fetch_add(1, Ordering::Relaxed);
        let r = rand::derive_seed(self.plan.seed, n);
        // Top 53 bits → uniform in [0, 1), the workspace convention.
        let fraction = (r >> 11) as f64 / (1u64 << 53) as f64;
        if fraction >= self.plan.rate {
            return None;
        }
        // The low bit (independent of the fraction bits) picks the
        // flavor among the faults meaningful for this operation.
        let flip = r & 1 == 1;
        Some(match op {
            IoOp::ReadArtifact if flip => IoFault::BitFlip,
            IoOp::WriteTmp if flip => IoFault::ShortWrite,
            _ => IoFault::Error,
        })
    }
}

/// Fabricates crashed-peer litter inside an artifact-store root:
/// per existing stage directory, one torn `*.tmp` intermediate and one
/// orphaned `*.lock` (both owned by a dead pid with an expired lease)
/// plus one truncated `.art` frame. Returns how many files were
/// planted. The store must absorb all of it — reclaiming the tmp and
/// lock, flagging the torn frame as `Corrupt` and recomputing.
pub fn plant_litter(root: &Path, seed: u64) -> usize {
    let Ok(stages) = fs::read_dir(root) else {
        return 0;
    };
    let mut planted = 0;
    for (i, stage) in stages.flatten().enumerate() {
        let dir = stage.path();
        if !dir.is_dir() {
            continue;
        }
        let tag = rand::derive_seed(seed, i as u64);
        let tmp = dir.join(format!(".{tag:016x}.{DEAD_PID}.0.tmp"));
        if fs::write(&tmp, b"torn mid-write").is_ok() {
            planted += 1;
        }
        let lock_file = dir.join(format!("{tag:016x}.lock"));
        // Lease timestamp 1: expired since the epoch, dead owner —
        // stale by either test.
        if fs::write(&lock_file, lock::compose(DEAD_PID, 1)).is_ok() {
            planted += 1;
        }
        let torn = dir.join(format!("{tag:016x}.art"));
        if fs::write(&torn, b"DART").is_ok() {
            planted += 1;
        }
    }
    planted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_zero_injects_nothing() {
        let armed = SeededIoFaults::new(IoFaultPlan::new(0.0, 7));
        for _ in 0..100 {
            assert_eq!(armed.inject(IoOp::WriteTmp), None);
        }
    }

    #[test]
    fn rate_one_always_faults_with_op_appropriate_kinds() {
        let faults = SeededIoFaults::new(IoFaultPlan::new(1.0, 7));
        for _ in 0..50 {
            match faults.inject(IoOp::WriteTmp).expect("rate 1 must fault") {
                IoFault::Error | IoFault::ShortWrite => {}
                IoFault::BitFlip => panic!("bit-flip is a read fault"),
            }
            match faults.inject(IoOp::ReadArtifact).expect("rate 1") {
                IoFault::Error | IoFault::BitFlip => {}
                IoFault::ShortWrite => panic!("short write is a write fault"),
            }
            assert_eq!(
                faults.inject(IoOp::RenameCommit),
                Some(IoFault::Error),
                "rename can only fail outright"
            );
        }
    }

    #[test]
    fn schedule_is_seed_deterministic() {
        let ops = [
            IoOp::WriteTmp,
            IoOp::ReadArtifact,
            IoOp::RenameCommit,
            IoOp::RemoveEvict,
        ];
        let a = SeededIoFaults::new(IoFaultPlan::new(0.3, 99));
        let b = SeededIoFaults::new(IoFaultPlan::new(0.3, 99));
        let c = SeededIoFaults::new(IoFaultPlan::new(0.3, 100));
        let run = |inj: &SeededIoFaults| -> Vec<Option<IoFault>> {
            (0..200).map(|i| inj.inject(ops[i % ops.len()])).collect()
        };
        let (sa, sb, sc) = (run(&a), run(&b), run(&c));
        assert_eq!(sa, sb, "same seed, same schedule");
        assert_ne!(sa, sc, "different seed, different schedule");
        let fired = sa.iter().flatten().count();
        assert!(
            (20..=100).contains(&fired),
            "rate 0.3 → ~60/200, got {fired}"
        );
    }

    #[test]
    fn litter_lands_in_every_stage_dir() {
        let root =
            std::env::temp_dir().join(format!("disengage-chaos-litter-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("corpus")).unwrap();
        fs::create_dir_all(root.join("digitize")).unwrap();
        assert_eq!(plant_litter(&root, 5), 6);
        let names: Vec<String> = fs::read_dir(root.join("corpus"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
        assert!(names.iter().any(|n| n.ends_with(".lock")), "{names:?}");
        assert!(names.iter().any(|n| n.ends_with(".art")), "{names:?}");
        let _ = fs::remove_dir_all(&root);
    }
}
