use std::error::Error;
use std::fmt;

/// One record routed to the manual-review queue instead of the database.
///
/// The paper's pipeline never discards a row silently: anything a stage
/// cannot process lands here, tagged with where and why, so an operator
/// can replay the queue after the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// The pipeline stage that rejected the record (span name, e.g.
    /// `stage_ii_parse`).
    pub stage: &'static str,
    /// Best-effort identity of the rejected record (manufacturer +
    /// line, document index, …).
    pub record_id: String,
    /// Why the stage refused it.
    pub reason: String,
}

impl fmt::Display for Quarantined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.stage, self.record_id, self.reason)
    }
}

/// Error type for pipeline and analysis operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A statistics computation failed.
    Stats(disengage_stats::StatsError),
    /// A dataframe operation failed.
    Frame(disengage_dataframe::FrameError),
    /// A report-layer operation failed.
    Report(disengage_reports::ReportError),
    /// An analysis had no data to work with.
    NoData(&'static str),
    /// A record was rejected into the manual-review queue.
    Quarantine(Quarantined),
    /// An artifact could not be produced at full fidelity; the run
    /// continues with this artifact marked degraded instead of failing.
    Degraded {
        /// The artifact that degraded (table, figure, question).
        artifact: &'static str,
        /// Why full fidelity was impossible.
        reason: String,
    },
    /// The run was deliberately killed right after a stage's artifact
    /// committed — the crash campaign's simulated crash point. A
    /// resumed run with the same configuration recovers the committed
    /// stages from the cache and completes byte-identically.
    Interrupted {
        /// The stage whose commit the simulated crash followed.
        after: &'static str,
    },
    /// A `--shards` filter named a shard the corpus enumeration does
    /// not contain. Raised eagerly, before any stage runs, so a typo
    /// can never silently produce a smaller corpus.
    UnknownShard {
        /// The label that matched no enumerated shard.
        label: String,
    },
}

impl CoreError {
    /// Builds a [`CoreError::Degraded`] for `artifact`.
    pub fn degraded(artifact: &'static str, reason: impl Into<String>) -> CoreError {
        CoreError::Degraded {
            artifact,
            reason: reason.into(),
        }
    }
}

/// Downgrades any error on `result` into [`CoreError::Degraded`] for
/// `artifact` — the Stage IV contract under chaos: one broken table must
/// not take the run down, it reports itself degraded and the remaining
/// artifacts still render.
pub fn degrade<T>(artifact: &'static str, result: crate::Result<T>) -> crate::Result<T> {
    result.map_err(|e| match e {
        already @ CoreError::Degraded { .. } => already,
        other => CoreError::degraded(artifact, other.to_string()),
    })
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::Frame(e) => write!(f, "dataframe error: {e}"),
            CoreError::Report(e) => write!(f, "report error: {e}"),
            CoreError::NoData(what) => write!(f, "no data for {what}"),
            CoreError::Quarantine(q) => write!(f, "quarantined: {q}"),
            CoreError::Degraded { artifact, reason } => {
                write!(f, "degraded {artifact}: {reason}")
            }
            CoreError::Interrupted { after } => {
                write!(f, "run interrupted after stage {after}")
            }
            CoreError::UnknownShard { label } => {
                write!(f, "unknown shard `{label}` (labels look like `waymo_2016`)")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Stats(e) => Some(e),
            CoreError::Frame(e) => Some(e),
            CoreError::Report(e) => Some(e),
            CoreError::NoData(_)
            | CoreError::Quarantine(_)
            | CoreError::Degraded { .. }
            | CoreError::Interrupted { .. }
            | CoreError::UnknownShard { .. } => None,
        }
    }
}

impl From<disengage_stats::StatsError> for CoreError {
    fn from(e: disengage_stats::StatsError) -> CoreError {
        CoreError::Stats(e)
    }
}

impl From<disengage_dataframe::FrameError> for CoreError {
    fn from(e: disengage_dataframe::FrameError) -> CoreError {
        CoreError::Frame(e)
    }
}

impl From<disengage_reports::ReportError> for CoreError {
    fn from(e: disengage_reports::ReportError) -> CoreError {
        CoreError::Report(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = disengage_stats::StatsError::EmptyInput.into();
        assert!(e.to_string().contains("statistics"));
        assert!(e.source().is_some());
        let e: CoreError = disengage_dataframe::FrameError::DuplicateColumn("x".into()).into();
        assert!(e.to_string().contains("dataframe"));
        let e = CoreError::NoData("fig 4");
        assert!(e.source().is_none());
    }

    #[test]
    fn quarantine_and_degraded_render() {
        let q = CoreError::Quarantine(Quarantined {
            stage: "stage_ii_parse",
            record_id: "nissan:17".to_owned(),
            reason: "malformed line".to_owned(),
        });
        assert!(q.to_string().contains("stage_ii_parse"));
        assert!(q.source().is_none());
        let d = CoreError::degraded("table VII", "weibull fit refused constant sample");
        assert!(d.to_string().contains("degraded table VII"));
        let i = CoreError::Interrupted { after: "corpus" };
        assert!(i.to_string().contains("interrupted after stage corpus"));
        assert!(i.source().is_none());
        let s = CoreError::UnknownShard {
            label: "waymo_2031".to_owned(),
        };
        assert!(s.to_string().contains("unknown shard `waymo_2031`"));
        assert!(s.source().is_none());
    }

    #[test]
    fn degrade_wraps_and_preserves() {
        let r: crate::Result<()> = Err(disengage_stats::StatsError::EmptyInput.into());
        match degrade("fig 9", r) {
            Err(CoreError::Degraded { artifact, reason }) => {
                assert_eq!(artifact, "fig 9");
                assert!(reason.contains("statistics"));
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // Already-degraded errors pass through untouched.
        let r: crate::Result<()> = Err(CoreError::degraded("fig 4", "n = 0"));
        match degrade("fig 9", r) {
            Err(CoreError::Degraded { artifact, .. }) => assert_eq!(artifact, "fig 4"),
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(degrade("fig 9", Ok(7)).unwrap(), 7);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
