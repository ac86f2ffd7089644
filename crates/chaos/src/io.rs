//! Seeded I/O fault injection for the artifact store.
//!
//! The cache crate defines the fault *surface*
//! ([`disengage_cache::IoFaults`]): every filesystem operation the
//! store performs first asks an injector whether to simulate a
//! failure. This module provides the seeded implementation, driven by
//! the same SplitMix64 derivation ([`rand::derive_seed`]) as every
//! other chaos injector, so a campaign's fault schedule is a pure
//! function of `(seed, operation, artifact, attempt)` and reproducible
//! across runs, machines and worker counts.
//!
//! Beyond live faults, crashed peers leave *litter*: torn `*.tmp`
//! write intermediates and truncated `.art` frames. [`plant_litter`]
//! fabricates exactly that debris (owned by a provably dead pid) so
//! recovery paths — litter reclamation and frame checks — are
//! exercised without an actual crash.

use std::fs;
use std::path::Path;

use disengage_cache::{Fp, IoFault, IoFaults, IoOp};

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

/// The seeded [`IoFaults`] implementation: the `attempt`-th `op` on
/// `artifact` draws `derive_seed(plan.seed, fp(op, artifact, attempt))`
/// and faults when the derived uniform fraction falls under the plan
/// rate. The draw holds no state, and a run reads, writes and renames
/// each artifact at most once per attempt, so those faults are a pure
/// function of the run's work: the same at `--jobs=1` and on any number
/// of free-running worker threads. Only evictions can differ, since
/// which entries a save finds past the cap depends on the order in
/// which concurrent saves land; a run that evicts nothing (the crash
/// campaign's fresh trial directories) has no such faults.
#[derive(Debug)]
pub struct SeededIoFaults {
    plan: IoFaultPlan,
}

impl SeededIoFaults {
    /// An injector drawing its schedule from `plan`.
    pub fn new(plan: IoFaultPlan) -> SeededIoFaults {
        SeededIoFaults { plan }
    }
}

impl IoFaults for SeededIoFaults {
    fn inject(&self, op: IoOp, artifact: &str, attempt: u32) -> Option<IoFault> {
        let mut site = Fp::new();
        site.write_u8(op as u8)
            .write_str(artifact)
            .write_u32(attempt);
        let r = rand::derive_seed(self.plan.seed, site.finish().0);
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
/// per existing stage directory, one torn `*.tmp` intermediate owned
/// by a dead pid plus one truncated `.art` frame. Returns how many
/// files were planted. The store must absorb all of it — startup
/// recovery reclaims the tmp and removes the frame by its torn header.
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

    const OPS: [IoOp; 4] = [
        IoOp::WriteTmp,
        IoOp::ReadArtifact,
        IoOp::RenameCommit,
        IoOp::RemoveEvict,
    ];

    /// 200 distinct `(op, artifact, attempt)` sites.
    fn sites() -> Vec<(IoOp, String, u32)> {
        (0..200)
            .map(|i| {
                (
                    OPS[i % OPS.len()],
                    format!("tag/{:016x}", i / 12),
                    (i % 3) as u32,
                )
            })
            .collect()
    }

    #[test]
    fn rate_zero_injects_nothing() {
        let armed = SeededIoFaults::new(IoFaultPlan::new(0.0, 7));
        for (op, artifact, attempt) in sites() {
            assert_eq!(armed.inject(op, &artifact, attempt), None);
        }
    }

    #[test]
    fn rate_one_always_faults_with_op_appropriate_kinds() {
        let faults = SeededIoFaults::new(IoFaultPlan::new(1.0, 7));
        for i in 0..50 {
            let artifact = format!("corpus/{i:016x}");
            match faults
                .inject(IoOp::WriteTmp, &artifact, 0)
                .expect("rate 1 must fault")
            {
                IoFault::Error | IoFault::ShortWrite => {}
                IoFault::BitFlip => panic!("bit-flip is a read fault"),
            }
            match faults
                .inject(IoOp::ReadArtifact, &artifact, 1)
                .expect("rate 1")
            {
                IoFault::Error | IoFault::BitFlip => {}
                IoFault::ShortWrite => panic!("short write is a write fault"),
            }
            assert_eq!(
                faults.inject(IoOp::RenameCommit, &artifact, 2),
                Some(IoFault::Error),
                "rename can only fail outright"
            );
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_site() {
        let a = SeededIoFaults::new(IoFaultPlan::new(0.3, 99));
        let b = SeededIoFaults::new(IoFaultPlan::new(0.3, 99));
        let c = SeededIoFaults::new(IoFaultPlan::new(0.3, 100));
        let run = |inj: &SeededIoFaults, sites: &[(IoOp, String, u32)]| -> Vec<Option<IoFault>> {
            sites
                .iter()
                .map(|(op, name, n)| inj.inject(*op, name, *n))
                .collect()
        };
        let sites = sites();
        let (sa, sc) = (run(&a, &sites), run(&c, &sites));
        assert_ne!(sa, sc, "different seed, different schedule");
        // Consulted in the opposite order (another interleaving), the
        // same seed gives every site the same fate.
        let reversed: Vec<_> = sites.iter().rev().cloned().collect();
        let mut sb = run(&b, &reversed);
        sb.reverse();
        assert_eq!(sa, sb, "same seed, same schedule in any order");
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
        assert_eq!(plant_litter(&root, 5), 4);
        let names: Vec<String> = fs::read_dir(root.join("corpus"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
        assert!(names.iter().any(|n| n.ends_with(".art")), "{names:?}");
        let _ = fs::remove_dir_all(&root);
    }
}
