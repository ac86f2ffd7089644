//! Log-bucketed histograms.
//!
//! The bucketing mirrors the 1–2–5-per-decade scheme measurement tools
//! conventionally use (and `disengage-stats` uses for its plot
//! histograms): upper bounds 1·10ᵏ, 2·10ᵏ, 5·10ᵏ for k in −9..=9, with
//! an overflow bucket above. That covers nanosecond-scale durations
//! through ~10⁹-scale mile counts in 58 fixed buckets, so recording is
//! allocation-free after construction.

use std::sync::OnceLock;

/// Smallest decade exponent covered by the fixed buckets.
const MIN_EXP: i32 = -9;
/// Largest decade exponent covered by the fixed buckets.
const MAX_EXP: i32 = 9;
/// Mantissa steps per decade.
const STEPS: [f64; 3] = [1.0, 2.0, 5.0];
/// Total bucket count: 3 per decade plus the overflow bucket.
const N_BUCKETS: usize = ((MAX_EXP - MIN_EXP + 1) as usize) * STEPS.len() + 1;

/// The upper bound of bucket `i` (`f64::INFINITY` for the overflow
/// bucket).
fn bucket_bound(i: usize) -> f64 {
    if i + 1 >= N_BUCKETS {
        return f64::INFINITY;
    }
    let exp = MIN_EXP + (i / STEPS.len()) as i32;
    STEPS[i % STEPS.len()] * 10f64.powi(exp)
}

/// The finite bucket bounds, ascending: filled once from
/// [`bucket_bound`], so the bounds a sample is sorted by are the very
/// values every histogram summary prints.
fn bounds() -> &'static [f64; N_BUCKETS - 1] {
    static BOUNDS: OnceLock<[f64; N_BUCKETS - 1]> = OnceLock::new();
    BOUNDS.get_or_init(|| std::array::from_fn(bucket_bound))
}

/// Index of the first bucket whose upper bound is ≥ `x`: a binary
/// search of the bound table (the overflow bucket for `x` above every
/// finite bound, for `±∞` and for NaN).
fn bucket_index(x: f64) -> usize {
    if !x.is_finite() {
        return N_BUCKETS - 1;
    }
    bounds().partition_point(|&bound| bound < x)
}

/// An accumulating log-bucketed histogram over non-negative-ish `f64`
/// samples (negative samples land in the smallest bucket; the pipeline
/// records durations, rates, and scores, all non-negative).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.counts[bucket_index(x)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another histogram into this one, as if `other`'s samples
    /// had been recorded here after this histogram's own.
    ///
    /// Bucket counts and totals add; extremes take the elementwise
    /// min/max. The `sum` accumulates left-to-right (`self.sum +
    /// other.sum`), so merging per-item shards in item order reproduces
    /// the sequential accumulation bit for bit — the property the
    /// parallel pipeline's deterministic shard merge relies on.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate: the upper bound of the
    /// bucket containing the q-th sample (`None` when empty). Exact to
    /// within one 1–2–5 step, which is all a perf snapshot needs.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i + 1 >= N_BUCKETS {
                    self.max
                } else {
                    bucket_bound(i).min(self.max)
                });
            }
        }
        Some(self.max)
    }

    /// Snapshots the raw internal state (for lossless serialization by
    /// the artifact cache; the exportable form is [`Histogram::summary`]).
    pub fn state(&self) -> HistogramState {
        HistogramState {
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }

    /// Rebuilds a histogram from [`Histogram::state`]. A snapshot with
    /// the wrong bucket count (e.g. decoded from an artifact written
    /// by a different bucketing scheme) is rejected by padding or
    /// truncating into the overflow bucket-free prefix — callers that
    /// need strict validation should compare `counts.len()` against
    /// [`HistogramState::expected_buckets`] first.
    pub fn from_state(state: &HistogramState) -> Histogram {
        let mut counts = state.counts.clone();
        counts.resize(N_BUCKETS, 0);
        Histogram {
            counts,
            count: state.count,
            sum: state.sum,
            min: state.min,
            max: state.max,
        }
    }

    /// Condenses into the exportable summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.5).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (bucket_bound(i), c))
                .collect(),
        }
    }
}

/// The raw, lossless state of a [`Histogram`]: per-bucket counts and
/// exact float accumulators. Serializing this and rebuilding with
/// [`Histogram::from_state`] reproduces the histogram bit for bit,
/// which the warm-vs-cold byte-identity contract depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramState {
    /// Per-bucket sample counts, in bucket order.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Exact left-to-right sum of samples.
    pub sum: f64,
    /// Smallest sample (`+∞` when empty).
    pub min: f64,
    /// Largest sample (`−∞` when empty).
    pub max: f64,
}

impl HistogramState {
    /// The bucket count this build of the bucketing scheme produces.
    pub fn expected_buckets() -> usize {
        N_BUCKETS
    }
}

/// The exportable condensation of a [`Histogram`]: moments, extremes,
/// bucket-resolution quantiles, and the non-empty `(upper bound, count)`
/// buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Mean sample.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median estimate (bucket upper bound).
    pub p50: f64,
    /// 95th-percentile estimate (bucket upper bound).
    pub p95: f64,
    /// 99th-percentile estimate (bucket upper bound).
    pub p99: f64,
    /// Non-empty buckets as `(upper bound, count)`.
    pub buckets: Vec<(f64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.summary().buckets.is_empty());
    }

    #[test]
    fn accumulates_count_sum_extremes() {
        let mut h = Histogram::new();
        for x in [0.5, 1.5, 2.5, 100.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 104.5).abs() < 1e-12);
        let s = h.summary();
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 26.125).abs() < 1e-12);
    }

    #[test]
    fn buckets_use_one_two_five_bounds() {
        let mut h = Histogram::new();
        h.record(0.3); // → bound 0.5
        h.record(3.0); // → bound 5.0
        let s = h.summary();
        assert_eq!(s.buckets, vec![(0.5, 1), (5.0, 1)]);
    }

    #[test]
    fn quantiles_monotone_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 100.0); // 0.01 ..= 10.0
        }
        let mut prev = 0.0;
        for q in [0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "q={q}: {v} < {prev}");
            assert!(v <= h.summary().max);
            prev = v;
        }
        // The median of 0.01..10 is ~5; bucket resolution gives 5.0.
        assert_eq!(h.quantile(0.5), Some(5.0));
        // The summary surfaces an ordered p50 ≤ p95 ≤ p99 triple.
        let s = h.summary();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert_eq!(s.p95, h.quantile(0.95).unwrap());
    }

    #[test]
    fn merge_equals_sequential_recording() {
        // Record 0..n sequentially; record the same samples into
        // per-item shards and merge in item order. Every field —
        // including the order-sensitive f64 sum — must match exactly.
        let samples: Vec<f64> = (0..100).map(|i| 0.013 * i as f64 + 1e-4).collect();
        let mut sequential = Histogram::new();
        for &s in &samples {
            sequential.record(s);
        }
        let mut merged = Histogram::new();
        for &s in &samples {
            let mut shard = Histogram::new();
            shard.record(s);
            merged.merge(&shard);
        }
        assert_eq!(merged, sequential);
        assert_eq!(merged.sum().to_bits(), sequential.sum().to_bits());
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(2.0);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn quantile_edge_cases_pinned() {
        // Empty: no quantile at any q, and the summary reads zeros.
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), None);
        }
        let s = empty.summary();
        assert_eq!((s.p50, s.p95, s.p99), (0.0, 0.0, 0.0));

        // Single sample: every quantile is that sample exactly (the
        // bucket bound is clamped to the recorded max).
        let mut one = Histogram::new();
        one.record(0.037);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(one.quantile(q), Some(0.037), "q={q}");
        }

        // Heavily skewed: 999 samples in one low bucket, one huge
        // outlier. p50 and p99 stay in the low bucket (999/1000 ≥
        // rank 990); only p99.95+ reaches the outlier.
        let mut skew = Histogram::new();
        for _ in 0..999 {
            skew.record(0.001);
        }
        skew.record(1000.0);
        assert_eq!(skew.quantile(0.5), Some(0.001));
        assert_eq!(skew.quantile(0.99), Some(0.001));
        assert_eq!(skew.quantile(0.9995), Some(1000.0));
        assert_eq!(skew.quantile(1.0), Some(1000.0));
        // The profiler's p50/p95/p99 triple must not let the outlier
        // leak into the median.
        let s = skew.summary();
        assert_eq!(s.p50, 0.001);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn merge_is_shard_order_independent() {
        // Three shards with disjoint ranges, merged in every
        // permutation: bucket counts, count, min, and max are exactly
        // associative; the f64 sum may differ across orders only by
        // rounding (and the profiler compares sums, not bits, across
        // orders). The in-order left fold stays the bit-exact contract
        // pinned by `merge_equals_sequential_recording`.
        let mut shards = Vec::new();
        for (lo, n) in [(0.001, 40), (0.7, 17), (120.0, 9)] {
            let mut h = Histogram::new();
            for i in 0..n {
                h.record(lo * (1.0 + i as f64));
            }
            shards.push(h);
        }
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let reference = {
            let mut m = Histogram::new();
            for s in &shards {
                m.merge(s);
            }
            m
        };
        for order in orders {
            let mut m = Histogram::new();
            for &i in &order {
                m.merge(&shards[i]);
            }
            assert_eq!(m.count(), reference.count(), "{order:?}");
            assert_eq!(m.state().counts, reference.state().counts, "{order:?}");
            assert_eq!(m.summary().min, reference.summary().min, "{order:?}");
            assert_eq!(m.summary().max, reference.summary().max, "{order:?}");
            assert!(
                (m.sum() - reference.sum()).abs() <= 1e-9 * reference.sum().abs(),
                "{order:?}: {} vs {}",
                m.sum(),
                reference.sum()
            );
            // Quantiles depend only on bucket counts, so they are
            // exactly order-independent.
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(m.quantile(q), reference.quantile(q), "{order:?} q={q}");
            }
        }
        // Associativity in the grouping sense: (a⊕b)⊕c == a⊕(b⊕c)
        // on the exact fields.
        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        left.merge(&shards[2]);
        let mut right_tail = shards[1].clone();
        right_tail.merge(&shards[2]);
        let mut right = shards[0].clone();
        right.merge(&right_tail);
        assert_eq!(left.state().counts, right.state().counts);
        assert_eq!(left.count(), right.count());
    }

    /// The reference lookup: a linear scan for the first bound ≥ `x`,
    /// recomputing each bound.
    fn reference_index(x: f64) -> usize {
        if !x.is_finite() {
            return N_BUCKETS - 1;
        }
        (0..N_BUCKETS - 1)
            .find(|&i| x <= bucket_bound(i))
            .unwrap_or(N_BUCKETS - 1)
    }

    #[test]
    fn table_lookup_matches_the_reference_scan() {
        let mut grid = vec![
            0.0,
            -0.0,
            -1.0,
            -1e-300,
            -f64::MAX,
            f64::from_bits(1), // the smallest subnormal
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for i in 0..N_BUCKETS - 1 {
            let bound = bucket_bound(i);
            assert_eq!(bounds()[i].to_bits(), bound.to_bits());
            // The bound and the next f64 below and above it (every
            // bound is positive, so its bits step in value order).
            let bits = bound.to_bits();
            grid.extend([f64::from_bits(bits - 1), bound, f64::from_bits(bits + 1)]);
        }
        // 10,000 log-spaced values over 1e-12..1e12.
        grid.extend((0..10_000).map(|i| 10f64.powf(-12.0 + 24.0 * i as f64 / 9_999.0)));
        for x in grid {
            assert_eq!(bucket_index(x), reference_index(x), "x = {x:e}");
        }
    }

    #[test]
    fn overflow_and_tiny_samples_land_somewhere() {
        let mut h = Histogram::new();
        h.record(1e300);
        h.record(1e-300);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        let total: u64 = h.summary().buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3);
    }
}
