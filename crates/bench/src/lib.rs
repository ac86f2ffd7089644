//! Shared fixtures for the benchmark harness.
//!
//! Every table/figure bench needs a pipeline outcome to regenerate its
//! artifact from; building one per iteration would swamp the measurement,
//! so the fixtures here build it once. Everything runs through the
//! shared session driver ([`disengage_core::RunSession`]), the same
//! code path as the `repro` and `disengage` binaries.

use disengage_core::pipeline::PipelineOutcome;
use disengage_core::{RunConfig, RunSession};
use disengage_corpus::CorpusConfig;

pub mod crash;
pub mod gate;
pub mod timing;

/// The run configuration at the paper's full scale (5,328
/// disengagements), digitized losslessly. The `repro` harness layers
/// its jobs/chaos/cache flags on top of this.
pub fn full_scale_config() -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale: 1.0,
    })
}

/// A smaller outcome (~10% scale) for benches where per-iteration work
/// matters more than corpus size.
pub fn bench_outcome() -> PipelineOutcome {
    RunSession::new(RunConfig::new().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale: 0.1,
    }))
    .run()
    .expect("bench pipeline runs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let o = bench_outcome();
        assert!(o.database.disengagements().len() > 400);
    }
}
