//! Task begin/end capture for the pool: which worker ran which chunk,
//! when — plus per-call accounting (busy/idle/steal time per worker,
//! chunk-size distribution) for the self-profiler.
//!
//! A [`TaskTimeline`] is passed to every map call; each claimed chunk
//! records one [`TaskSpan`] carrying the worker index, chunk number,
//! covered item range, and start/end seconds relative to the
//! timeline's epoch. Each pool invocation additionally records one
//! [`PoolCall`] envelope (label, effective worker count, partition
//! shape, wall window); [`TaskTimeline::worker_stats`] folds the two
//! into per-worker busy/idle/steal accounting. The Chrome-trace
//! exporter turns the task spans into per-worker timeline rows.
//! Timestamps are wall-clock by nature, so the timeline is diagnostics
//! only — it is *not* part of the pipeline's byte-identity determinism
//! contract (chunk structure is: the partition is a pure function of
//! the input length, so the set of recorded tasks is the same at every
//! worker count; only their timings and worker assignments vary).
//!
//! A [disabled](TaskTimeline::disabled) timeline reads no clock and
//! opens no call envelopes, but still keeps the last [`TASK_TAIL`]
//! task stamps (untimed) and counts the older ones it drops, so a
//! crash dump can name the last pool tasks of any run.
//! [`TaskTimeline::task_tail`] reads that tail from either kind.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Task stamps a disabled timeline keeps, and the length of
/// [`TaskTimeline::task_tail`]: the most recent tasks, older ones
/// dropped oldest-first and counted.
pub const TASK_TAIL: usize = 256;

/// One executed pool task (a chunk of contiguous items).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpan {
    /// Stage label passed to the map call.
    pub label: String,
    /// Worker that ran the chunk (0-based; 0 on the sequential path).
    pub worker: usize,
    /// Chunk index within the call's partition.
    pub chunk: usize,
    /// First item index the chunk covers.
    pub first_index: usize,
    /// Number of items in the chunk.
    pub len: usize,
    /// Start, seconds since the timeline epoch (0 when disabled).
    pub start_s: f64,
    /// End, seconds since the timeline epoch (0 when disabled).
    pub end_s: f64,
    /// Index of the [`PoolCall`] this task ran under (0 when
    /// disabled, which records no calls).
    pub call: usize,
}

/// One pool invocation's envelope: what was mapped, over how many
/// workers, and the call's wall-clock window.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolCall {
    /// Stage label passed to the map call.
    pub label: String,
    /// Effective worker count (after `resolve_jobs` and the
    /// input-length clamp; 1 on the sequential path).
    pub jobs: usize,
    /// Items per chunk (the partition's pure function of input length).
    pub chunk_len: usize,
    /// Number of chunks dealt.
    pub chunks: usize,
    /// Items mapped.
    pub items: usize,
    /// Call start, seconds since the timeline epoch.
    pub start_s: f64,
    /// Call end, seconds since the timeline epoch.
    pub end_s: f64,
}

/// Per-worker accounting across every recorded pool call, from
/// [`TaskTimeline::worker_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Seconds spent running chunks.
    pub busy_s: f64,
    /// Seconds inside pool calls (where the worker existed) not spent
    /// running chunks: wait on the queues plus steal-scan overhead.
    pub idle_s: f64,
    /// Chunks this worker ran that were dealt to a different worker's
    /// deque (round-robin owner `chunk % jobs`).
    pub steals: u64,
    /// Chunks executed.
    pub chunks: u64,
    /// Items executed.
    pub items: u64,
}

/// The recorded tasks: every task when enabled, the last
/// [`TASK_TAIL`] when disabled, plus the count of tasks dropped to
/// keep that bound.
#[derive(Debug, Default)]
struct Tasks {
    spans: VecDeque<TaskSpan>,
    dropped: u64,
}

/// Thread-safe accumulator of [`TaskSpan`]s across pool calls.
#[derive(Debug)]
pub struct TaskTimeline {
    enabled: bool,
    epoch: Instant,
    tasks: Mutex<Tasks>,
    calls: Mutex<Vec<PoolCall>>,
}

impl Default for TaskTimeline {
    fn default() -> Self {
        TaskTimeline::new()
    }
}

impl TaskTimeline {
    /// An enabled timeline whose clock starts now.
    pub fn new() -> TaskTimeline {
        TaskTimeline::with_epoch(Instant::now())
    }

    /// An enabled timeline on a caller-supplied epoch — pass the
    /// telemetry collector's epoch so task timestamps and span
    /// timestamps share one clock.
    pub fn with_epoch(epoch: Instant) -> TaskTimeline {
        TaskTimeline {
            enabled: true,
            epoch,
            tasks: Mutex::new(Tasks::default()),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// A timeline for runs that did not ask for an execution trace: no
    /// clock reads and no call envelopes, only the untimed stamps of
    /// the last [`TASK_TAIL`] tasks.
    pub fn disabled() -> TaskTimeline {
        TaskTimeline {
            enabled: false,
            ..TaskTimeline::new()
        }
    }

    /// Seconds-since-epoch stamp for a task about to start
    /// ([`Duration::ZERO`] when disabled, skipping the clock read).
    pub(crate) fn stamp(&self) -> Duration {
        if self.enabled {
            self.epoch.elapsed()
        } else {
            Duration::ZERO
        }
    }

    /// Opens a [`PoolCall`] envelope and returns its index (0 when
    /// disabled; every recording method no-ops to match).
    pub(crate) fn begin_call(
        &self,
        label: &str,
        jobs: usize,
        chunk_len: usize,
        chunks: usize,
        items: usize,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_s = self.epoch.elapsed().as_secs_f64();
        let mut calls = self.calls.lock().unwrap_or_else(|e| e.into_inner());
        calls.push(PoolCall {
            label: label.to_owned(),
            jobs,
            chunk_len,
            chunks,
            items,
            start_s,
            end_s: start_s,
        });
        calls.len() - 1
    }

    /// Closes the [`PoolCall`] opened by [`TaskTimeline::begin_call`].
    pub(crate) fn end_call(&self, call: usize) {
        if !self.enabled {
            return;
        }
        let end_s = self.epoch.elapsed().as_secs_f64();
        let mut calls = self.calls.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = calls.get_mut(call) {
            c.end_s = end_s;
        }
    }

    /// Records one completed task. A disabled timeline keeps only the
    /// last [`TASK_TAIL`], dropping the oldest.
    pub(crate) fn record(
        &self,
        label: &str,
        worker: usize,
        chunk: usize,
        first_index: usize,
        len: usize,
        start: Duration,
        call: usize,
    ) {
        let end = self.stamp();
        let mut tasks = self.tasks.lock().unwrap_or_else(|e| e.into_inner());
        if !self.enabled && tasks.spans.len() == TASK_TAIL {
            tasks.spans.pop_front();
            tasks.dropped += 1;
        }
        tasks.spans.push_back(TaskSpan {
            label: label.to_owned(),
            worker,
            chunk,
            first_index,
            len,
            start_s: start.as_secs_f64(),
            end_s: end.as_secs_f64(),
            call,
        });
    }

    /// Snapshot of every task held, in completion order.
    pub fn tasks(&self) -> Vec<TaskSpan> {
        let tasks = self.tasks.lock().unwrap_or_else(|e| e.into_inner());
        tasks.spans.iter().cloned().collect()
    }

    /// The last [`TASK_TAIL`] tasks in completion order, and how many
    /// earlier tasks that leaves out — the flight recorder's
    /// postmortem view, the same for an enabled or a disabled
    /// timeline.
    pub fn task_tail(&self) -> (Vec<TaskSpan>, u64) {
        let tasks = self.tasks.lock().unwrap_or_else(|e| e.into_inner());
        let skip = tasks.spans.len().saturating_sub(TASK_TAIL);
        let tail = tasks.spans.iter().skip(skip).cloned().collect();
        (tail, tasks.dropped + skip as u64)
    }

    /// Snapshot of every pool-call envelope, in call order.
    pub fn calls(&self) -> Vec<PoolCall> {
        self.calls.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of tasks held.
    pub fn len(&self) -> usize {
        self.tasks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spans
            .len()
    }

    /// Whether no task is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-worker accounting folded over every recorded call, counting
    /// each instant once per worker. Calls nest: a shard task runs the
    /// per-document and per-record maps inside it, and their tasks
    /// cover the same instants as the shard's. So busy is the length of
    /// the union of a worker's task intervals, and idle is taken within
    /// the outermost call windows (the union of every call's window):
    /// per window, the window's wall minus the worker's busy time in
    /// it, clamped at zero, for each worker some call in the window
    /// spawned. For every worker `busy + idle == Σ window walls` it
    /// participated in — the invariant the idle-time guard tests pin —
    /// and busy never exceeds that wall. An inner map run inline at one
    /// job records on worker 0 whichever thread runs it; the union
    /// still counts each of worker 0's instants once. A steal is a
    /// chunk run by a worker other than its round-robin owner
    /// (`chunk % jobs`); each stolen chunk is counted once, on the
    /// thief, so steal time is a subset of busy time, never an
    /// addition to it.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        let calls = self.calls();
        let tasks = self.tasks();
        let workers = calls.iter().map(|c| c.jobs).max().unwrap_or(0);
        let mut stats: Vec<WorkerStats> = (0..workers)
            .map(|worker| WorkerStats {
                worker,
                busy_s: 0.0,
                idle_s: 0.0,
                steals: 0,
                chunks: 0,
                items: 0,
            })
            .collect();
        let mut intervals = vec![Vec::new(); workers];
        for t in &tasks {
            let Some(call) = calls.get(t.call) else {
                continue;
            };
            let Some(w) = stats.get_mut(t.worker) else {
                continue;
            };
            w.chunks += 1;
            w.items += t.len as u64;
            if call.jobs > 0 && t.chunk % call.jobs != t.worker {
                w.steals += 1;
            }
            intervals[t.worker].push((t.start_s, t.end_s, 0));
        }
        // The outermost windows, each with the widest worker count of
        // the calls it merges.
        let windows = union(calls.iter().map(|c| (c.start_s, c.end_s, c.jobs)).collect());
        for (w, spans) in stats.iter_mut().zip(intervals) {
            let busy = union(spans);
            for &(start, end, jobs) in &windows {
                let busy_in: f64 = busy
                    .iter()
                    .map(|&(s, e, _)| (e.min(end) - s.max(start)).max(0.0))
                    .sum();
                w.busy_s += busy_in;
                if w.worker < jobs {
                    w.idle_s += (end - start - busy_in).max(0.0);
                }
            }
        }
        stats
    }

    /// Distribution of executed chunk sizes as `(items, chunks)`,
    /// ascending by size.
    pub fn chunk_size_counts(&self) -> Vec<(usize, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for t in self.tasks() {
            *map.entry(t.len).or_insert(0u64) += 1;
        }
        map.into_iter().collect()
    }
}

/// The union of `(start, end, tag)` spans as disjoint intervals,
/// ascending, each carrying the largest tag of the spans it merges.
fn union(mut spans: Vec<(f64, f64, usize)>) -> Vec<(f64, f64, usize)> {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64, usize)> = Vec::with_capacity(spans.len());
    for (start, end, tag) in spans {
        match out.last_mut() {
            Some(last) if start <= last.1 => {
                last.1 = last.1.max(end);
                last.2 = last.2.max(tag);
            }
            _ => out.push((start, end.max(start), tag)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timeline_keeps_an_untimed_bounded_tail() {
        let t = TaskTimeline::disabled();
        let call = t.begin_call("stage", 1, 1, 300, 300);
        for chunk in 0..300 {
            let s = t.stamp();
            t.record("stage", 0, chunk, chunk, 1, s, call);
        }
        t.end_call(call);
        assert!(t.calls().is_empty(), "no call envelopes when disabled");
        assert!(t.worker_stats().is_empty());
        assert_eq!(t.len(), TASK_TAIL);
        let (tail, dropped) = t.task_tail();
        assert_eq!(dropped, (300 - TASK_TAIL) as u64);
        assert_eq!(tail.first().map(|t| t.chunk), Some(300 - TASK_TAIL));
        assert_eq!(tail.last().map(|t| t.chunk), Some(299));
        assert!(tail.iter().all(|t| t.start_s == 0.0 && t.end_s == 0.0));
    }

    #[test]
    fn enabled_tail_is_the_last_tasks_of_the_full_record() {
        let t = TaskTimeline::new();
        let call = t.begin_call("stage", 1, 1, 300, 300);
        for chunk in 0..300 {
            let s = t.stamp();
            t.record("stage", 0, chunk, chunk, 1, s, call);
        }
        t.end_call(call);
        assert_eq!(t.len(), 300, "an enabled timeline keeps every task");
        let (tail, dropped) = t.task_tail();
        assert_eq!(tail.len(), TASK_TAIL);
        assert_eq!(dropped, (300 - TASK_TAIL) as u64);
        assert_eq!(tail[..], t.tasks()[300 - TASK_TAIL..]);
    }

    #[test]
    fn records_carry_range_and_ordered_times() {
        let t = TaskTimeline::new();
        let call = t.begin_call("stage_iii_tag", 4, 256, 6, 1536);
        let s = t.stamp();
        t.record("stage_iii_tag", 2, 5, 1280, 256, s, call);
        t.end_call(call);
        let tasks = t.tasks();
        assert_eq!(tasks.len(), 1);
        let task = &tasks[0];
        assert_eq!(
            (
                task.worker,
                task.chunk,
                task.first_index,
                task.len,
                task.call
            ),
            (2, 5, 1280, 256, 0)
        );
        assert!(task.start_s >= 0.0 && task.end_s >= task.start_s);
        let calls = t.calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(
            (calls[0].jobs, calls[0].chunks, calls[0].items),
            (4, 6, 1536)
        );
        assert!(calls[0].end_s >= calls[0].start_s);
    }

    #[test]
    fn worker_stats_attribute_steals_to_the_thief_once() {
        let t = TaskTimeline::new();
        let call = t.begin_call("s", 2, 1, 4, 4);
        // Chunks 0,2 belong to worker 0; 1,3 to worker 1. Worker 0
        // runs chunk 1 — one steal, counted once, on worker 0.
        for (worker, chunk) in [(0usize, 0usize), (0, 1), (0, 2), (1, 3)] {
            let s = t.stamp();
            t.record("s", worker, chunk, chunk, 1, s, call);
        }
        t.end_call(call);
        let stats = t.worker_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].steals, 1);
        assert_eq!(stats[1].steals, 0);
        assert_eq!(stats[0].chunks, 3);
        assert_eq!(stats[0].items, 3);
        assert_eq!(
            stats.iter().map(|w| w.steals).sum::<u64>(),
            1,
            "a stolen chunk is never double-counted"
        );
    }

    #[test]
    fn chunk_size_distribution_counts_tasks() {
        let t = TaskTimeline::new();
        let call = t.begin_call("s", 1, 4, 3, 10);
        for (chunk, len) in [(0usize, 4usize), (1, 4), (2, 2)] {
            let s = t.stamp();
            t.record("s", 0, chunk, chunk * 4, len, s, call);
        }
        t.end_call(call);
        assert_eq!(t.chunk_size_counts(), vec![(2, 1), (4, 2)]);
    }
}
