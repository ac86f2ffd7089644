//! The crash-recovery campaign behind `repro --crash-campaign=N[,SEED]`.
//!
//! Each trial simulates the full kill-and-restart cycle the artifact
//! store must survive:
//!
//! 1. a fresh per-trial cache directory is (optionally) strewn with
//!    crashed-peer litter — dead-pid `*.tmp` debris and a torn header
//!    in every stage directory, plus, on fault-free trials, a frame
//!    whose payload fails its checksum *at the key the run will probe*
//!    for its first shard, for every stage the run caches;
//! 2. an **interrupted run** executes with a seeded abort point after
//!    one stage's commit ([`disengage_core::RunConfig::with_abort_after`])
//!    and, on most trials, a seeded I/O fault plan shaking every store
//!    operation — the run dies with [`CoreError::Interrupted`], exactly
//!    as a `kill -9` between stages would;
//! 3. a **resumed run** restarts against the same directory (faults
//!    still armed, fresh schedule) and must converge: database, tags,
//!    parse failures, and canonical telemetry all byte-identical to a
//!    cold run that never crashed, the telemetry fault-accounting
//!    identity must reconcile, and the cache directory must audit
//!    clean (zero torn/tmp files). A fault-free littered trial must
//!    also have caught every planted frame at its probe.
//!
//! Everything derives from the campaign seed via the workspace
//! SplitMix64 scheme, and each I/O fault from its artifact and
//! attempt, so a failing trial replays exactly at any `--jobs`. The
//! outcome ledger ([`CrashReport`]) is what `repro` writes to
//! `crash_report.json`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use disengage_cache::ArtifactStore;
use disengage_chaos::IoFaultPlan;
use disengage_core::artifact::FORMAT_VERSION;
use disengage_core::pipeline::OcrMode;
use disengage_core::telemetry::reconcile;
use disengage_core::{CoreError, PipelineOutcome, RunConfig, RunSession, Stage};
use disengage_obs::Collector;

/// The I/O fault rates a trial can draw. Zero keeps pure crash/resume
/// trials in the mix; the others shake every store operation hard
/// enough that retry, degrade, and recompute paths all fire across a
/// campaign.
const FAULT_RATES: [f64; 3] = [0.0, 0.15, 0.3];

/// One trial's outcome row in the campaign ledger.
#[derive(Debug, Clone)]
pub struct CrashTrial {
    /// Trial index (the seed-derivation index).
    pub index: usize,
    /// The stage whose commit the simulated crash followed.
    pub abort_after: &'static str,
    /// The I/O fault rate armed for both halves of the trial.
    pub fault_rate: f64,
    /// Whether crashed-peer litter was planted before the first half.
    pub littered: bool,
    /// Whether the resumed run matched the cold reference byte for
    /// byte (output, tags, failures, canonical telemetry).
    pub converged: bool,
    /// Stage artifacts the resume replayed from the interrupted run's
    /// commits (`cache.hit`).
    pub replayed: u64,
    /// Stage artifacts the resume recomputed (`cache.miss`).
    pub recomputed: u64,
    /// Injected I/O faults absorbed by a retry (`cache.io.retried`).
    pub retried: u64,
    /// Injected I/O faults absorbed by a degraded path
    /// (`cache.io.absorbed`).
    pub absorbed: u64,
    /// Frames a load found damaged (`cache.corrupt`) across both
    /// halves; a fault-free littered trial counts each planted frame
    /// here exactly once.
    pub corrupt: u64,
    /// Stale tmp and torn files reclaimed across both halves.
    pub reclaimed: u64,
    /// Violations: reconciliation failures, unclean audits, divergent
    /// output. Empty on a passing trial.
    pub violations: Vec<String>,
}

impl CrashTrial {
    /// Whether the trial passed outright.
    pub fn passed(&self) -> bool {
        self.converged && self.violations.is_empty()
    }
}

/// The campaign ledger `repro` serializes to `crash_report.json`.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// The campaign seed (for replaying a failure).
    pub seed: u64,
    /// Every trial, in execution order.
    pub trials: Vec<CrashTrial>,
}

impl CrashReport {
    /// Trials that recovered byte-identically with no violations.
    pub fn passed(&self) -> usize {
        self.trials.iter().filter(|t| t.passed()).count()
    }

    /// Whether every trial passed.
    pub fn all_passed(&self) -> bool {
        self.passed() == self.trials.len()
    }

    /// Ledger totals: `(replayed, recomputed, retried, absorbed,
    /// reclaimed)` summed over the campaign.
    pub fn totals(&self) -> (u64, u64, u64, u64, u64) {
        self.trials.iter().fold((0, 0, 0, 0, 0), |acc, t| {
            (
                acc.0 + t.replayed,
                acc.1 + t.recomputed,
                acc.2 + t.retried,
                acc.3 + t.absorbed,
                acc.4 + t.reclaimed,
            )
        })
    }

    /// Renders the ledger as JSON (the `crash_report.json` body).
    pub fn to_json(&self) -> String {
        let (replayed, recomputed, retried, absorbed, reclaimed) = self.totals();
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"seed\":{},\"trials\":{},\"passed\":{},\"totals\":{{\
             \"replayed\":{replayed},\"recomputed\":{recomputed},\
             \"retried\":{retried},\"absorbed\":{absorbed},\
             \"reclaimed\":{reclaimed}}},\"runs\":[",
            self.seed,
            self.trials.len(),
            self.passed(),
        );
        for (i, t) in self.trials.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let violations: Vec<String> = t
                .violations
                .iter()
                .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
                .collect();
            let _ = write!(
                out,
                "{{\"index\":{},\"abort_after\":\"{}\",\"fault_rate\":{},\
                 \"littered\":{},\"converged\":{},\"replayed\":{},\
                 \"recomputed\":{},\"retried\":{},\"absorbed\":{},\
                 \"corrupt\":{},\"reclaimed\":{},\"violations\":[{}]}}",
                t.index,
                t.abort_after,
                t.fault_rate,
                t.littered,
                t.converged,
                t.replayed,
                t.recomputed,
                t.retried,
                t.absorbed,
                t.corrupt,
                t.reclaimed,
                violations.join(",")
            );
        }
        out.push_str("]}");
        out
    }
}

/// The byte-comparable digest of one run's outcome: everything the
/// convergence contract covers. Telemetry is canonicalized (wall clock
/// zeroed, `cache.*`/`profile.*` dropped), so crash/fault
/// traffic is invisible and any *workload* divergence is not.
fn digest(outcome: PipelineOutcome) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{}",
        outcome.database,
        outcome.tagged,
        outcome.parse_failures,
        outcome.telemetry.canonical().to_json()
    )
}

/// Runs the campaign: `trials` interrupted-then-resumed sessions under
/// `base` (jobs/scale/seed already applied; cache settings are
/// overridden per trial), all derived from `seed`. Trial caches live
/// under `cache_root/trial<i>` and are removed after a passing trial;
/// a failing trial's directory is left behind for inspection.
///
/// # Errors
///
/// An error string if the cold reference run itself fails — without a
/// trustworthy reference the campaign proves nothing.
pub fn run_crash_campaign(
    base: &RunConfig,
    trials: usize,
    seed: u64,
    cache_root: &PathBuf,
    log: impl Fn(&str),
) -> Result<CrashReport, String> {
    // The cold reference: no cache, no faults, no crash. Computed once.
    let mut cold = base.clone().without_cache();
    cold.io_faults = None;
    cold.abort_after = None;
    let reference = RunSession::new(cold)
        .run_with(&Collector::new())
        .map(digest)
        .map_err(|e| format!("cold reference run failed: {e}"))?;

    let mut report = CrashReport {
        seed,
        trials: Vec::with_capacity(trials),
    };
    for i in 0..trials {
        let t = rand::derive_seed(seed, i as u64);
        // Every stage commits an artifact the resumed run recovers from.
        let abort_after = Stage::ALL[(t % Stage::ALL.len() as u64) as usize];
        let fault_rate = FAULT_RATES[((t >> 8) % FAULT_RATES.len() as u64) as usize];
        let littered = (t >> 16) & 1 == 1;
        let trial_dir = cache_root.join(format!("trial{i}"));
        let _ = std::fs::remove_dir_all(&trial_dir);

        let mut violations = Vec::new();
        let mut config = base
            .clone()
            .with_cache_dir(&trial_dir)
            .with_abort_after(abort_after);
        if fault_rate > 0.0 {
            config = config.with_io_faults(IoFaultPlan::new(fault_rate, rand::derive_seed(t, 1)));
        }

        let mut planted = 0;
        if littered {
            // Crashed-peer debris the first half must recover through:
            // dead-pid tmp litter and torn headers in every stage dir,
            // which startup recovery removes outside the fault surface,
            // and damaged frames at the exact keys the run will probe,
            // which only a load can catch. Those go only where no fault
            // is armed: a damaged frame whose every read and every
            // rewrite faults outlives the run, as it should, and the
            // audit below would rightly find it.
            for stage in Stage::ALL {
                let _ = std::fs::create_dir_all(trial_dir.join(stage.name()));
            }
            if fault_rate == 0.0 {
                planted = plant_damaged_frames(&config, &trial_dir);
            }
            disengage_chaos::plant_litter(&trial_dir, rand::derive_seed(t, 2));
        }

        // First half: run until the seeded abort point kills it.
        let interrupted_obs = Collector::new();
        match RunSession::new(config.clone()).run_with(&interrupted_obs) {
            Err(CoreError::Interrupted { after }) => {
                if after != abort_after.name() {
                    violations.push(format!(
                        "interrupted after `{after}`, expected `{}`",
                        abort_after.name()
                    ));
                }
            }
            Err(e) => violations.push(format!("interrupted run failed abnormally: {e}")),
            Ok(_) => violations.push("abort point never fired".to_owned()),
        }
        let interrupted = interrupted_obs.report();

        // Second half: restart against the same directory and converge.
        let mut resume = config.clone();
        resume.abort_after = None;
        if fault_rate > 0.0 {
            // A fresh fault schedule — the resume must absorb faults of
            // its own, not replay the first half's.
            resume.io_faults = Some(IoFaultPlan::new(fault_rate, rand::derive_seed(t, 3)));
        }
        let resumed_obs = Collector::new();
        let converged = match RunSession::new(resume).run_with(&resumed_obs) {
            Ok(outcome) => {
                let got = digest(outcome);
                if got != reference {
                    violations.push("resumed output diverged from the cold run".to_owned());
                }
                got == reference
            }
            Err(e) => {
                violations.push(format!("resumed run failed: {e}"));
                false
            }
        };
        let resumed = resumed_obs.report();

        // The resumed run completed, so every cross-stage identity
        // must hold. The interrupted half died mid-pipeline — its
        // stage counters are legitimately lopsided — but the I/O
        // fault accounting identity binds any run, finished or not:
        // every fired fault was retried or absorbed, never lost.
        for v in reconcile(&resumed) {
            violations.push(format!("resumed telemetry: {v}"));
        }
        let fired = interrupted.counter("cache.io.fault.total");
        let resolved =
            interrupted.counter("cache.io.retried") + interrupted.counter("cache.io.absorbed");
        if fired != resolved {
            violations.push(format!(
                "interrupted telemetry: cache.io.fault.total = {fired} but \
                 retried + absorbed = {resolved}"
            ));
        }

        // The directory must end the trial clean: no torn frames, no
        // tmp litter — whatever the crash, faults, and planted debris
        // did.
        let audit = ArtifactStore::at(&trial_dir, FORMAT_VERSION).audit_files();
        if !audit.is_clean() {
            violations.push(format!(
                "cache dir not clean after recovery: {} torn, {} tmp",
                audit.torn.len(),
                audit.tmp.len()
            ));
        }

        let sum = |name: &str| interrupted.counter(name) + resumed.counter(name);
        // Without faults every planted frame reaches exactly one probe,
        // whose checksum catches it and removes the file.
        let (corrupt, torn) = (sum("cache.corrupt"), sum("cache.torn.reclaimed"));
        if fault_rate == 0.0 && (corrupt != planted || torn < planted) {
            violations.push(format!(
                "{planted} planted frame(s), but {corrupt} counted corrupt \
                 and {torn} reclaimed torn"
            ));
        }
        let trial = CrashTrial {
            index: i,
            abort_after: abort_after.name(),
            fault_rate,
            littered,
            converged,
            replayed: resumed.counter("cache.hit"),
            recomputed: resumed.counter("cache.miss"),
            retried: sum("cache.io.retried"),
            absorbed: sum("cache.io.absorbed"),
            corrupt,
            reclaimed: sum("cache.tmp.reclaimed") + torn,
            violations,
        };
        log(&format!(
            "trial {i:>3}: abort after {:<9} faults {:.2} littered {:<5} -> {}",
            trial.abort_after,
            trial.fault_rate,
            trial.littered,
            if trial.passed() {
                "recovered"
            } else {
                "FAILED"
            }
        ));
        if !trial.passed() {
            for v in &trial.violations {
                log(&format!("          {v}"));
            }
        } else {
            let _ = std::fs::remove_dir_all(&trial_dir);
        }
        report.trials.push(trial);
    }
    Ok(report)
}

/// Plants, for every stage the run caches, a frame at the key the run
/// probes for its first planned shard: a valid header over a payload
/// that fails its checksum, so startup recovery keeps it and only the
/// load-time check can catch it. (A passthrough run never caches
/// `digitize`, so a frame there would never be probed.) Returns how
/// many frames were planted.
fn plant_damaged_frames(config: &RunConfig, dir: &Path) -> u64 {
    let session = RunSession::new(config.clone());
    let Some(spec) = session
        .planned_shards()
        .ok()
        .and_then(|s| s.into_iter().next())
    else {
        return 0;
    };
    let keys = session.stage_keys(false).for_shard(&spec);
    let store = ArtifactStore::at(dir, FORMAT_VERSION);
    let mut planted = 0;
    for stage in Stage::ALL {
        if stage == Stage::Digitize && config.ocr == OcrMode::Passthrough {
            continue;
        }
        let key = keys.for_stage(stage);
        store.save(stage.name(), key, b"planted");
        let path = dir.join(stage.name()).join(format!("{}.art", key.to_hex()));
        if let Ok(mut frame) = std::fs::read(&path) {
            // The last byte is the payload's, past the 24-byte header.
            let last = frame.len() - 1;
            frame[last] ^= 0x01;
            planted += u64::from(std::fs::write(&path, frame).is_ok());
        }
    }
    planted
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_corpus::CorpusConfig;

    /// Runs the four-trial campaign of seed `0xC4A54` on a 0.05-scale
    /// corpus at `jobs` workers.
    fn tiny_campaign(jobs: usize) -> CrashReport {
        let base = RunConfig::new()
            .with_corpus(CorpusConfig {
                seed: 0x5EED,
                scale: 0.05,
            })
            .with_jobs(jobs)
            .without_flight_dump();
        let root = std::env::temp_dir().join(format!(
            "disengage-crash-campaign-{}-jobs{jobs}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let report = run_crash_campaign(&base, 4, 0xC4A54, &root, |_| {}).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        report
    }

    #[test]
    fn tiny_campaign_recovers() {
        let report = tiny_campaign(0);
        assert_eq!(report.trials.len(), 4);
        assert!(
            report.all_passed(),
            "{:?}",
            report
                .trials
                .iter()
                .filter(|t| !t.passed())
                .collect::<Vec<_>>()
        );
        // A fault-free trial always replays the stages committed
        // before the crash; a faulted one may exhaust its read
        // retries and legitimately recompute everything.
        assert!(report
            .trials
            .iter()
            .filter(|t| t.fault_rate == 0.0)
            .all(|t| t.replayed > 0));
        assert!(report.trials.iter().any(|t| t.replayed > 0));
        // Every fault-free littered trial caught each planted frame
        // (corpus, normalize, tag) at its probe: counted corrupt here,
        // and reclaimed torn, or the trial would carry a violation.
        let caught: Vec<_> = report
            .trials
            .iter()
            .filter(|t| t.fault_rate == 0.0 && t.littered)
            .collect();
        assert!(!caught.is_empty(), "no fault-free littered trial");
        assert!(caught.iter().all(|t| t.corrupt == 3), "{caught:?}");
        let json = report.to_json();
        assert!(json.contains("\"passed\":4"), "{json}");
    }

    #[test]
    fn campaign_report_is_identical_at_any_worker_count() {
        let serial = tiny_campaign(1);
        assert!(
            serial.trials.iter().any(|t| t.retried + t.absorbed > 0),
            "no trial fired an I/O fault"
        );
        assert_eq!(serial.to_json(), tiny_campaign(2).to_json());
    }
}
