//! The crash-recovery campaign behind `repro --crash-campaign`. It
//! runs through the shared session driver
//! ([`disengage_core::RunSession`]), the same code path as the
//! `disengage` binary. Performance is measured by the standalone
//! `benchmark/` package, not here.

pub mod crash;
