//! The chunked work-stealing pool behind [`par_map_indexed`].
//!
//! Shape: the input is split into fixed chunks (a pure function of its
//! length, so the partition is identical at every worker count), the
//! chunks are dealt round-robin into per-worker deques, and each
//! worker drains its own deque front-to-back, stealing from the back
//! of a sibling's deque when its own runs dry. Results are written
//! into per-chunk slots and stitched back together in chunk order, so
//! the output is in input order no matter which worker ran what.
//!
//! Workers are scoped threads ([`std::thread::scope`]): the pool
//! borrows the input slice and the closure directly, spawns for one
//! call, and joins before returning — no global state, no channels, no
//! task leak. Chunks are never subdivided and no task spawns new work,
//! so the steal loop terminates as soon as every deque is empty.

use crate::timeline::TaskTimeline;
use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A captured panic from one parallel task: which item raised it and
/// the stringified payload. The pool quarantines the panic to the
/// item's own result slot; sibling items are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the item whose task panicked.
    pub index: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads
    /// verbatim, anything else a placeholder).
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// The machine's available parallelism (1 when it cannot be queried).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a `--jobs` request: `0` means "use every available core",
/// anything else is taken literally.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        available_jobs()
    } else {
        requested
    }
}

/// The chunk length for an input of `n` items — a pure function of `n`
/// alone. Worker count must never influence the partition: per-chunk
/// state (collector shards, float accumulation order) merges in chunk
/// order, so a jobs-dependent partition would leak the thread count
/// into the output. ~256 chunks bounds per-chunk imbalance while
/// keeping scheduling overhead amortized over many items.
///
/// The floor of 2 (for `n >= 2`) exists because profiling Stage I at
/// bench scale showed the old 1-item chunks spending a measurable
/// share of wall time on deque locking and timeline stamping — each
/// chunk costs one queue claim plus one span record regardless of
/// size, so pairing items halves that fixed overhead. The floor stays
/// low because documents vary ~50× in weight; bigger chunks would
/// re-introduce the tail-straggler imbalance the 256-way split exists
/// to avoid.
fn chunk_len(n: usize) -> usize {
    n.div_ceil(256).max(2).min(n.max(1))
}

/// Runs one item under [`catch_unwind`], quarantining a panic into the
/// item's own result.
fn run_one<T, R>(
    index: usize,
    item: &T,
    f: &(impl Fn(usize, &T) -> R + Sync),
) -> Result<R, TaskPanic> {
    catch_unwind(AssertUnwindSafe(|| f(index, item))).map_err(|payload| TaskPanic {
        index,
        message: panic_text(payload.as_ref()),
    })
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Claims the next chunk for worker `w`: front of its own deque first,
/// then the back of the fullest sibling deque (the steal). `None` when
/// every deque is empty — terminal, since chunks never respawn.
fn next_chunk(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(c) = queues[w].lock().ok()?.pop_front() {
        return Some(c);
    }
    // Steal: scan siblings for the deepest queue, take from its back
    // (the cold end — the owner works the front).
    let victim = (0..queues.len())
        .filter(|&v| v != w)
        .max_by_key(|&v| queues[v].lock().map(|q| q.len()).unwrap_or(0))?;
    queues[victim].lock().ok()?.pop_back()
}

/// Maps `f(index, &item)` over `items` on a pool of `jobs` workers
/// (0 = all available cores), quarantining per-item panics: the output
/// slot for a panicking item carries its [`TaskPanic`] and every other
/// item still completes. Output order is input order.
///
/// Every executed chunk lands on `timeline` as one [`crate::TaskSpan`]
/// labeled `label` — the execution timeline behind the Chrome-trace
/// export and the flight recorder's task tail. The sequential (`jobs
/// <= 1`) path records the same chunk structure on worker 0, so the
/// set of tasks is identical at every worker count; only their timings
/// and worker assignments differ.
pub fn par_map_catch<T, R, F>(
    jobs: usize,
    items: &[T],
    f: F,
    timeline: &TaskTimeline,
    label: &str,
) -> Vec<Result<R, TaskPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_chunked(jobs, items, chunk_len(items.len()), f, timeline, label)
}

/// The coarse scheduling form: every item is its own chunk, so at most
/// `jobs` items are ever in flight at once. This is the shard-level
/// scheduler — each item is a whole pipeline shard whose working set is
/// the thing being memory-bounded, so pairing items (the fine-grained
/// two-item chunk floor) would double peak RSS for no scheduling win at
/// shard counts of a few dozen. Determinism is unchanged: the partition
/// is still a pure function of `items.len()`, results land in
/// per-item slots, and output order is input order.
pub fn par_map_coarse_catch<T, R, F>(
    jobs: usize,
    items: &[T],
    f: F,
    timeline: &TaskTimeline,
    label: &str,
) -> Vec<Result<R, TaskPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_chunked(jobs, items, 1, f, timeline, label)
}

/// Shared body of the fine- and coarse-grained maps: the chunk length
/// is a caller-supplied pure function of the input (never of `jobs`).
fn par_map_chunked<T, R, F>(
    jobs: usize,
    items: &[T],
    chunk: usize,
    f: F,
    timeline: &TaskTimeline,
    label: &str,
) -> Vec<Result<R, TaskPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let jobs = resolve_jobs(jobs).min(n.max(1));
    let chunk = chunk.clamp(1, n.max(1));
    let n_chunks = n.div_ceil(chunk);
    let call = timeline.begin_call(label, jobs.max(1), chunk, n_chunks, n);
    if jobs <= 1 {
        let mut out = Vec::with_capacity(n);
        for c in 0..n_chunks {
            let stamp = timeline.stamp();
            let start = c * chunk;
            let end = (start + chunk).min(n);
            out.extend((start..end).map(|i| run_one(i, &items[i], &f)));
            timeline.record(label, 0, c, start, end - start, stamp, call);
        }
        timeline.end_call(call);
        return out;
    }

    // Deal chunks round-robin so every worker starts loaded; slots are
    // per chunk, filled by whichever worker claims the chunk.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| Mutex::new((0..n_chunks).filter(|c| c % jobs == w).collect()))
        .collect();
    let slots: Vec<Mutex<Option<Vec<Result<R, TaskPanic>>>>> =
        (0..n_chunks).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let (queues, slots, f) = (&queues, &slots, &f);
            scope.spawn(move || {
                while let Some(c) = next_chunk(queues, w) {
                    let stamp = timeline.stamp();
                    let start = c * chunk;
                    let end = (start + chunk).min(n);
                    let out: Vec<Result<R, TaskPanic>> =
                        (start..end).map(|i| run_one(i, &items[i], f)).collect();
                    timeline.record(label, w, c, start, end - start, stamp, call);
                    if let Ok(mut slot) = slots[c].lock() {
                        *slot = Some(out);
                    }
                }
            });
        }
    });
    timeline.end_call(call);

    slots
        .into_iter()
        .flat_map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("scope joined every worker, so every chunk has a result")
        })
        .collect()
}

/// Maps `f(index, &item)` over `items` on a pool of `jobs` workers
/// (0 = all available cores), preserving input order in the output,
/// and records its chunks on `timeline` like [`par_map_catch`].
///
/// This is the strict form: the whole batch runs to completion (the
/// pool never hangs), then the first panic by input index — if any —
/// is re-raised on the caller's thread with the task index attached.
/// Use [`par_map_catch`] to quarantine per-item panics instead.
///
/// # Panics
///
/// Re-raises the lowest-index task panic, if any task panicked.
pub fn par_map_indexed<T, R, F>(
    jobs: usize,
    items: &[T],
    f: F,
    timeline: &TaskTimeline,
    label: &str,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_catch(jobs, items, f, timeline, label)
        .into_iter()
        .map(|r| match r {
            Ok(value) => value,
            Err(p) => panic!("{p}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The strict map without a timeline to inspect.
    fn map<T: Sync, R: Send>(
        jobs: usize,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        par_map_indexed(jobs, items, f, &TaskTimeline::disabled(), "test")
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = map(8, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn identical_at_every_worker_count() {
        let items: Vec<u64> = (0..777).collect();
        let reference = map(1, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
        for jobs in [2, 3, 8, 0] {
            let out = map(jobs, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
            assert_eq!(out, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn unbalanced_work_still_ordered() {
        // Early items are much heavier: stealing has to kick in for
        // the run to finish promptly, and order must survive it.
        let items: Vec<usize> = (0..64).collect();
        let out = map(4, &items, |_, &x| {
            let mut acc = 0u64;
            let spins = if x < 4 { 200_000 } else { 200 };
            for k in 0..spins {
                acc = acc.wrapping_add(k).rotate_left(7);
            }
            (x, acc != 1)
        });
        let indices: Vec<usize> = out.iter().map(|&(x, _)| x).collect();
        assert_eq!(indices, items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(map(8, &[5u32], |i, &x| x + i as u32), vec![5]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..513).collect();
        map(6, &items, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn panic_quarantined_to_its_item() {
        let items: Vec<u32> = (0..40).collect();
        let out = par_map_catch(
            4,
            &items,
            |_, &x| {
                assert!(x != 17, "poisoned item");
                x + 1
            },
            &TaskTimeline::disabled(),
            "test",
        );
        for (i, r) in out.iter().enumerate() {
            if i == 17 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.index, 17);
                assert!(p.message.contains("poisoned item"), "{}", p.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), items[i] + 1);
            }
        }
    }

    #[test]
    fn many_panics_do_not_hang_the_pool() {
        let items: Vec<u32> = (0..200).collect();
        let out = par_map_catch(
            8,
            &items,
            |_, &x| {
                assert!(x % 2 == 0, "odd item {x}");
                x
            },
            &TaskTimeline::disabled(),
            "test",
        );
        let (ok, err): (Vec<_>, Vec<_>) = out.iter().partition(|r| r.is_ok());
        assert_eq!(ok.len(), 100);
        assert_eq!(err.len(), 100);
    }

    #[test]
    fn strict_form_reraises_lowest_index_panic() {
        let items: Vec<u32> = (0..50).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map(4, &items, |_, &x| {
                assert!(x != 9 && x != 33, "bad item {x}");
                x
            })
        }))
        .unwrap_err();
        let text = panic_text(caught.as_ref());
        assert!(text.contains("task 9"), "{text}");
    }

    #[test]
    fn timeline_covers_every_item_at_any_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        for jobs in [1usize, 4] {
            let timeline = TaskTimeline::new();
            let out = par_map_indexed(jobs, &items, |_, &x| x + 1, &timeline, "stage_test");
            assert_eq!(out.len(), items.len());
            let mut tasks = timeline.tasks();
            tasks.sort_by_key(|t| t.chunk);
            // Same chunk structure at every worker count: chunks 0..n
            // covering the input exactly, each labeled with the stage.
            let covered: usize = tasks.iter().map(|t| t.len).sum();
            assert_eq!(covered, items.len(), "jobs = {jobs}");
            let mut next = 0;
            for (c, t) in tasks.iter().enumerate() {
                assert_eq!(t.chunk, c);
                assert_eq!(t.first_index, next);
                assert_eq!(t.label, "stage_test");
                assert!(t.end_s >= t.start_s);
                assert!(t.worker < jobs.max(1));
                next += t.len;
            }
        }
    }

    #[test]
    fn busy_plus_idle_accounts_for_pool_wall_time() {
        // The idle-time guard: for every worker a call spawned,
        // busy + idle must reconcile with the call's wall window at
        // any worker count. Double-counting steal time (busy on both
        // thief and owner) or subtracting it twice from idle would
        // break the identity.
        let items: Vec<usize> = (0..512).collect();
        for jobs in [1usize, 4] {
            let timeline = TaskTimeline::new();
            par_map_indexed(
                jobs,
                &items,
                |_, &x| {
                    // Uneven spin so stealing actually happens at 4.
                    let spins = if x % 7 == 0 { 20_000 } else { 200 };
                    let mut acc = 0u64;
                    for k in 0..spins {
                        acc = acc.wrapping_add(k).rotate_left(5);
                    }
                    acc
                },
                &timeline,
                "stage_test",
            );
            let calls = timeline.calls();
            assert_eq!(calls.len(), 1, "jobs = {jobs}");
            assert_eq!(calls[0].jobs, jobs);
            let wall = calls[0].end_s - calls[0].start_s;
            assert!(wall > 0.0);
            let stats = timeline.worker_stats();
            assert_eq!(stats.len(), jobs, "jobs = {jobs}");
            for w in &stats {
                let accounted = w.busy_s + w.idle_s;
                let gap = (accounted - wall).abs();
                // Busy is measured inside the call window, so the
                // identity holds up to clock-read jitter: 5% of the
                // wall or 2ms, whichever is larger.
                assert!(
                    gap <= (wall * 0.05).max(0.002),
                    "jobs = {jobs}, worker {}: busy {} + idle {} vs wall {}",
                    w.worker,
                    w.busy_s,
                    w.idle_s,
                    wall
                );
                assert!(w.busy_s <= wall + 1e-6);
            }
            // Every chunk ran exactly once across workers, stolen or
            // not — steal accounting must not duplicate chunks.
            let chunks: u64 = stats.iter().map(|w| w.chunks).sum();
            assert_eq!(chunks as usize, calls[0].chunks);
            let stolen: u64 = stats.iter().map(|w| w.steals).sum();
            assert!(stolen <= chunks);
            if jobs == 1 {
                assert_eq!(stolen, 0, "sequential path cannot steal");
            }
        }
    }

    /// Uneven busy work: every seventh item spins 100x longer.
    fn spin(x: usize) -> u64 {
        let spins = if x.is_multiple_of(7) { 20_000 } else { 200 };
        (0..spins).fold(0u64, |acc, k| acc.wrapping_add(k).rotate_left(5))
    }

    /// The nested-call guard: with maps running inside another map's
    /// tasks, every worker's busy time stays within the outermost
    /// call's wall, and busy + idle reconciles with it.
    fn assert_nested_accounting(timeline: &TaskTimeline, workers: usize) {
        let calls = timeline.calls();
        let outer = &calls[0];
        assert_eq!(outer.label, "outer");
        assert!(calls.len() > 1, "the inner maps recorded their calls");
        let wall = outer.end_s - outer.start_s;
        assert!(wall > 0.0);
        let stats = timeline.worker_stats();
        assert_eq!(stats.len(), workers);
        for w in &stats {
            assert!(
                w.busy_s <= wall + 1e-6,
                "worker {}: busy {} > wall {wall}",
                w.worker,
                w.busy_s
            );
            let gap = (w.busy_s + w.idle_s - wall).abs();
            assert!(
                gap <= (wall * 0.05).max(0.002),
                "worker {}: busy {} + idle {} vs wall {wall}",
                w.worker,
                w.busy_s,
                w.idle_s
            );
        }
    }

    #[test]
    fn nested_inline_maps_count_each_instant_once() {
        // The sharded shape at one job: an outer coarse map whose tasks
        // run their inner maps inline, all on worker 0.
        let timeline = TaskTimeline::new();
        let shards: Vec<usize> = (0..6).collect();
        let items: Vec<usize> = (0..64).collect();
        par_map_coarse_catch(
            1,
            &shards,
            |_, _| par_map_indexed(1, &items, |_, &x| spin(x), &timeline, "inner"),
            &timeline,
            "outer",
        );
        assert_nested_accounting(&timeline, 1);
    }

    #[test]
    fn one_outer_task_with_a_parallel_inner_map_counts_each_instant_once() {
        // The single-shard shape: the outer map runs one task, which
        // hands both jobs to its inner map.
        let timeline = TaskTimeline::new();
        let items: Vec<usize> = (0..512).collect();
        par_map_coarse_catch(
            2,
            &[0usize],
            |_, _| par_map_indexed(2, &items, |_, &x| spin(x), &timeline, "inner"),
            &timeline,
            "outer",
        );
        assert_nested_accounting(&timeline, 2);
    }

    #[test]
    fn coarse_map_runs_one_item_per_chunk() {
        let items: Vec<u64> = (0..23).collect();
        for jobs in [1usize, 4] {
            let timeline = TaskTimeline::new();
            let out = par_map_coarse_catch(
                jobs,
                &items,
                |i, &x| {
                    assert_eq!(i as u64, x);
                    x * 2
                },
                &timeline,
                "shard_test",
            );
            let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            let tasks = timeline.tasks();
            assert_eq!(tasks.len(), items.len(), "jobs = {jobs}");
            assert!(tasks.iter().all(|t| t.len == 1), "jobs = {jobs}");
        }
    }

    #[test]
    fn coarse_map_bounds_concurrent_items() {
        // With `jobs` workers and one item per chunk, no more than
        // `jobs` items may ever be in flight simultaneously — this is
        // the peak-memory bound sharded execution relies on.
        let jobs = 3usize;
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<u32> = (0..48).collect();
        par_map_coarse_catch(
            jobs,
            &items,
            |_, _| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                in_flight.fetch_sub(1, Ordering::SeqCst);
            },
            &TaskTimeline::disabled(),
            "shard_test",
        );
        assert!(peak.load(Ordering::SeqCst) <= jobs);
    }

    #[test]
    fn jobs_resolution() {
        assert!(available_jobs() >= 1);
        assert_eq!(resolve_jobs(0), available_jobs());
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn chunk_partition_is_a_function_of_len_only() {
        assert_eq!(chunk_len(0), 1);
        assert_eq!(chunk_len(1), 1);
        // Floor of 2: tiny inputs still pair items to halve per-chunk
        // scheduling overhead...
        assert_eq!(chunk_len(2), 2);
        assert_eq!(chunk_len(256), 2);
        assert_eq!(chunk_len(512), 2);
        // ...and past 512 items the 256-way split takes over.
        assert_eq!(chunk_len(513), 3);
        assert_eq!(chunk_len(5328), 21);
        // The partition covers the input exactly.
        for n in [1usize, 2, 255, 256, 257, 1000, 5328] {
            let c = chunk_len(n);
            assert!(n.div_ceil(c) * c >= n);
            assert!((n.div_ceil(c) - 1) * c < n);
        }
    }
}
