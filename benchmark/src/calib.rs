//! Host-speed calibration for the end-to-end times.
//!
//! The machines this benchmark runs on are shared: on a 2-vCPU VM the
//! same iteration ran 15–40% slower for minutes at a time while
//! neighbours were busy, which no run length this benchmark can afford
//! averages away. So before every iteration the benchmark runs
//! [`kernel`] — a fixed piece of work of its own (string building,
//! ordered-map inserts, a sort, an edit-distance DP and a float loop,
//! the operation mix of the pipeline's hot layers) that no change to
//! the program can touch — on every worker thread at once, as the
//! iteration will use them. Each round's times are then scaled by
//! [`REFERENCE_S`] ÷ the round's median per-thread kernel time:
//! seconds at the reference speed. Across interleaved 20-second runs
//! this cut the run-to-run spread of every end-to-end time by half or
//! more (README.md); the unscaled values stay in each run's report.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median per-thread time on the reference machine (a
/// quiet 2-vCPU Intel Xeon VM, two threads).
pub const REFERENCE_S: f64 = 0.0017;

/// Runs the calibration kernel once; returns its wall time in seconds.
fn kernel() -> f64 {
    let start = Instant::now();
    let mut counts: BTreeMap<String, u32> = BTreeMap::new();
    let mut words = Vec::with_capacity(4000);
    let mut x = 0x9E37_u64;
    for _ in 0..4000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let word = format!("tok{}", (x >> 33) % 1500);
        *counts.entry(word.clone()).or_insert(0) += 1;
        words.push(word);
    }
    words.sort_unstable();
    let mut row: Vec<usize> = Vec::new();
    let mut distance = 0usize;
    for pair in words.windows(2) {
        let (a, b) = (pair[0].as_bytes(), pair[1].as_bytes());
        row.clear();
        row.extend(0..=b.len());
        for (i, &ca) in a.iter().enumerate() {
            let mut diagonal = row[0];
            row[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                let above = row[j + 1];
                row[j + 1] = (diagonal + usize::from(ca != cb))
                    .min(row[j] + 1)
                    .min(above + 1);
                diagonal = above;
            }
        }
        distance += row[b.len()];
    }
    let mut likelihood = 0.0f64;
    for i in 1..20_000 {
        let v = f64::from(i) * 1e-3;
        likelihood += v.ln() - v.sqrt() * 0.5;
    }
    black_box((&counts, distance, likelihood));
    start.elapsed().as_secs_f64()
}

/// Runs [`kernel`] on `threads` threads at once; returns the mean of
/// their times (so `threads` × the result is the CPU time it took).
pub fn sample(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the calibration kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The factor that scales times taken alongside `samples` (from
/// [`sample`]) to the reference speed; 1 when there are no samples.
pub fn factor(samples: &[f64]) -> f64 {
    let mid = crate::stats::median(samples);
    if mid > 0.0 {
        REFERENCE_S / mid
    } else {
        1.0
    }
}
