//! `disengage-par` — the toolkit's parallel-execution substrate.
//!
//! The paper's pipeline is embarrassingly parallel per document:
//! digitization, parsing, and tagging never look at a neighbouring
//! record. This crate supplies the executor that exploits that — a
//! zero-dependency (std only, keeping the build hermetic) chunked
//! work-stealing thread pool behind one primitive,
//! [`par_map_indexed`], which maps `f(index, &item)` over a slice and
//! returns the results **in input order** regardless of which worker
//! ran what, when.
//!
//! # Determinism contract
//!
//! For a pure `f`, `par_map_indexed(jobs, items, f, ..)` returns the same
//! `Vec` for every `jobs` value — 1, 2, 8, or the machine's core
//! count. Nothing about the result depends on the schedule: each item
//! is evaluated exactly once from its own index, results land in
//! per-chunk slots keyed by position, and the chunk partition is a
//! pure function of `items.len()` (never of `jobs`). The pipeline
//! leans on this to guarantee byte-identical output at any thread
//! count; pair it with `disengage_prng::derive_seed` when `f` needs
//! seeded noise (per-index seeds, never a shared stream).
//!
//! # Panic containment
//!
//! [`par_map_catch`] is the quarantine form: a panic in `f` for one
//! item is caught, reported as [`TaskPanic`] in that item's slot, and
//! every other item still completes — the pool never hangs and never
//! poisons sibling work. [`par_map_indexed`] is the strict form,
//! re-raising the first (lowest-index) panic after the pool drains.
//!
//! # Task timeline
//!
//! Every map records its chunks on a [`TaskTimeline`] under a label:
//! an enabled timeline times every task for the Chrome-trace export
//! and the self-profiler; a [disabled](TaskTimeline::disabled) one
//! keeps only the untimed stamps of the last [`TASK_TAIL`] tasks, the
//! tail a crash dump names.
//!
//! # Examples
//!
//! ```
//! use disengage_par::{par_map_indexed, TaskTimeline};
//!
//! let timeline = TaskTimeline::disabled();
//! let squares = par_map_indexed(4, &[1u64, 2, 3, 4], |_, &x| x * x, &timeline, "square");
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

mod pool;
mod timeline;

pub use pool::{
    available_jobs, par_map_catch, par_map_coarse_catch, par_map_indexed, resolve_jobs, TaskPanic,
};
pub use timeline::{PoolCall, TaskSpan, TaskTimeline, WorkerStats, TASK_TAIL};
