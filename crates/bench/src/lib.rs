//! Shared pieces of the `repro` and `parbench` harnesses: the
//! full-scale run configuration and the crash-recovery campaign.
//! Everything runs through the shared session driver
//! ([`disengage_core::RunSession`]), the same code path as the
//! `disengage` binary. Performance is measured by the standalone
//! `benchmark/` package, not here.

use disengage_core::RunConfig;
use disengage_corpus::CorpusConfig;

pub mod crash;

/// The run configuration at the paper's full scale (5,328
/// disengagements), digitized losslessly. The `repro` harness layers
/// its jobs/chaos/cache flags on top of this.
pub fn full_scale_config() -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale: 1.0,
    })
}
