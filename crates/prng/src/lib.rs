//! In-tree pseudo-random number generation.
//!
//! The workspace builds with zero external dependencies, so this crate
//! supplies the subset of the `rand` 0.8 API the toolkit uses — the
//! [`Rng`] and [`SeedableRng`] traits, [`rngs::StdRng`] — backed by
//! xoshiro256++ seeded through SplitMix64. Dependents alias it as
//! `rand` (`rand = { package = "disengage-prng", ... }`), so call sites
//! read exactly like the original API:
//!
//! ```
//! use disengage_prng::rngs::StdRng;
//! use disengage_prng::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let u: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&u));
//! let day = rng.gen_range(1..=28u8);
//! assert!((1..=28).contains(&day));
//! ```
//!
//! The streams differ from the real `rand::rngs::StdRng` (ChaCha12);
//! everything downstream treats the generator as an arbitrary seeded
//! source, so only determinism-per-seed matters, not the exact stream.
//!
//! # Bernoulli bit planes, four lanes at a time
//!
//! [`rngs::StdRng::bernoulli_planes`] makes `n` draws and keeps, per draw, one
//! bit per threshold: what `n` calls to [`Rng::gen_bool`] would return,
//! packed 64 to a word. On a CPU with AVX2 it runs four copies of the
//! generator in one register, copy `j` starting [`LANE_DRAWS`]`·j` draws
//! ahead, so each round of [`ROUND_DRAWS`] draws costs a quarter of the
//! serial steps. The copies come from jumps: xoshiro256++'s state update
//! is linear over GF(2), a 256 × 256 bit matrix `M` with characteristic
//! polynomial `P`, and `P(M) = 0` (Cayley–Hamilton), so for `c = x^B mod
//! P` the state `B` draws ahead is `M^B·s = c(M)·s = Σ cᵢ·Mⁱ·s`, the XOR
//! of the states `i` steps ahead for each set coefficient `cᵢ`
//! (Blackman & Vigna, "Scrambled linear pseudorandom number generators",
//! 2021). The output scrambler reads one state, so a copy started from
//! `M^B·s` draws exactly the stream from draw `B` on. The unit tests
//! derive `c` from the generator itself and pin the constant to it.

use std::ops::{Range, RangeInclusive};

/// Draws per lane in a round of [`rngs::StdRng::bernoulli_planes`]: the
/// distance, in draws, between the starts of two neighbouring lanes.
/// A multiple of 64, so each lane fills whole plane words.
pub const LANE_DRAWS: usize = 4096;

/// Draws in one round of [`rngs::StdRng::bernoulli_planes`]: four lanes of
/// [`LANE_DRAWS`].
pub const ROUND_DRAWS: usize = 4 * LANE_DRAWS;

/// One SplitMix64 step: advances `state` by the golden-ratio increment
/// and returns a well-mixed 64-bit output. Shared by
/// [`rngs::StdRng::seed_from_u64`] (state expansion) and
/// [`derive_seed`] (per-index seed derivation).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed for item `index` of a batch rooted at
/// `root` — the workspace's order-decoupling primitive.
///
/// A pipeline stage that draws noise for N documents must NOT thread
/// one RNG stream across them: document k's bytes would then depend on
/// how many values documents 0..k-1 consumed, so no parallel schedule
/// (and no corpus edit) could reproduce the stream. Seeding each
/// document with `derive_seed(root, k)` makes every per-item stream a
/// pure function of `(root, k)`: items can be processed in any order,
/// on any number of workers, or in isolation, and always see identical
/// noise.
///
/// The derivation runs SplitMix64 twice over a state combining `root`
/// and `index`, so consecutive indices (and nearby roots) yield
/// decorrelated, well-mixed seeds.
///
/// # Examples
///
/// ```
/// use disengage_prng::derive_seed;
///
/// // Pure function of (root, index)...
/// assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
/// // ...and distinct across both arguments.
/// assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
/// assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
/// ```
pub fn derive_seed(root: u64, index: u64) -> u64 {
    let mut state = root ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
    let a = splitmix64(&mut state);
    a ^ splitmix64(&mut state)
}

/// Types constructible from a seed. Only the `u64` entry point of the
/// original trait is used in this workspace.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A source of randomness. `next_u64` is the only required method; the
/// typed helpers mirror `rand::Rng`.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed value of `T` (see [`FromRng`]).
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniform draw from `range` (half-open or inclusive integer and
    /// float ranges).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`: one draw, `true` exactly when
    /// `gen::<f64>() < p` would be (see [`bernoulli_threshold`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        let threshold = bernoulli_threshold(p);
        (self.next_u64() >> 11) < threshold
    }
}

/// The integer form of a Bernoulli(`p`) draw: for every `u`,
/// `(u >> 11) < bernoulli_threshold(p)` holds exactly when the `f64`
/// draw `(u >> 11) · 2⁻⁵³` is below `p`.
///
/// That `f64` is exact, so it is below `p` exactly when the integer
/// `u >> 11` is below the real `p · 2⁵³` (itself an exact `f64`, a
/// power-of-two scaling), and an integer is below a real exactly when
/// it is below the real's ceiling. [`Rng::gen_bool`] draws through it,
/// and a hot loop that makes many draws at one `p` computes it once.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn bernoulli_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Conversion from raw generator output to a uniformly distributed value.
pub trait FromRng {
    /// Draws one value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for u64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges [`Rng::gen_range`] can sample from, parameterized by the
/// output type so integer-literal ranges unify with the call site's
/// expected type (as `rand`'s signature does).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased-enough integer draw in `[0, span)` via 128-bit widening
/// multiply (Lemire's method without the rejection step; the bias is
/// below 2⁻⁶⁴ · span, immaterial for simulation workloads).
fn below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u: f64 = rng.gen();
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range");
        let u: f64 = rng.gen();
        start + u * (end - start)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman &
    /// Vigna), 256-bit state, seeded through SplitMix64 so that every
    /// `u64` seed yields a well-mixed starting state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    use super::splitmix64;

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// `x^LANE_DRAWS mod P`, `P` the generator's characteristic
    /// polynomial: bit `i` of word `i / 64`, at `i % 64`, is the
    /// coefficient of `xⁱ`. Derived and pinned by the unit tests.
    #[cfg(any(target_arch = "x86_64", test))]
    const LANE_JUMP: [u64; 4] = [
        0xd7f4_e8da_7e22_8b85,
        0xd638_d47e_c5bc_f595,
        0xaa6e_b691_cbf9_ce10,
        0x0f41_cce3_698f_ad39,
    ];

    impl StdRng {
        /// Makes exactly `n` draws. For draw `k` it sets bit `k % 64` of
        /// word `k / 64` of `planes[i]` when `next_u64() >> 11` is below
        /// `thresholds[i]`, as `gen_bool` compares against
        /// [`bernoulli_threshold`](super::bernoulli_threshold), and
        /// clears it otherwise. It writes the first `n.div_ceil(64)`
        /// words of each plane, the bits past `n` clear, and leaves the
        /// generator where `n` calls to `next_u64` leave it.
        ///
        /// Each whole round of [`ROUND_DRAWS`](super::ROUND_DRAWS)
        /// draws runs on four lanes where the CPU has AVX2; the rest,
        /// and every draw on other CPUs, runs one draw at a time. Both
        /// paths give the same bits.
        ///
        /// # Panics
        ///
        /// Panics if a plane is shorter than `n.div_ceil(64)` words.
        pub fn bernoulli_planes(
            &mut self,
            n: usize,
            thresholds: [u64; 2],
            planes: [&mut [u64]; 2],
        ) {
            let words = n.div_ceil(64);
            let [a, b] = planes;
            let (a, b) = (&mut a[..words], &mut b[..words]);
            // Words the lanes fill: every whole round's.
            let laned = if lanes_available() {
                n / super::ROUND_DRAWS * super::ROUND_DRAWS / 64
            } else {
                0
            };
            #[cfg(target_arch = "x86_64")]
            if laned > 0 {
                // SAFETY: `laned > 0` only where `lanes_available` has
                // just seen AVX2 on this CPU (`is_x86_feature_detected!`).
                unsafe { lanes::rounds(&mut self.s, thresholds, &mut a[..laned], &mut b[..laned]) };
            }
            self.scalar_planes(n - 64 * laned, thresholds, &mut a[laned..], &mut b[laned..]);
        }

        /// [`StdRng::bernoulli_planes`] one draw at a time: the path
        /// on a CPU without AVX2, every round's tail, and the reference
        /// the lane path is tested against.
        fn scalar_planes(&mut self, n: usize, [ta, tb]: [u64; 2], a: &mut [u64], b: &mut [u64]) {
            for (w, (wa, wb)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                let (mut fa, mut fb) = (0, 0);
                for i in 0..(n - 64 * w).min(64) {
                    let u = self.next_u64() >> 11;
                    fa |= u64::from(u < ta) << i;
                    fb |= u64::from(u < tb) << i;
                }
                *wa = fa;
                *wb = fb;
            }
        }

        /// This generator moved `LANE_DRAWS` draws ahead with one jump:
        /// the XOR of the states `i` steps on from here, for every set
        /// coefficient `i` of [`LANE_JUMP`].
        #[cfg(any(target_arch = "x86_64", test))]
        fn lane_jump(&self) -> StdRng {
            let mut step = self.clone();
            let mut s = [0; 4];
            for word in LANE_JUMP {
                for bit in 0..64 {
                    let take = 0u64.wrapping_sub(word >> bit & 1);
                    for (t, x) in s.iter_mut().zip(step.s) {
                        *t ^= x & take;
                    }
                    step.next_u64();
                }
            }
            StdRng { s }
        }
    }

    /// Whether this CPU runs the four-lane path: an x86-64 CPU with AVX2.
    fn lanes_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// The four-lane path of [`StdRng::bernoulli_planes`].
    #[cfg(target_arch = "x86_64")]
    mod lanes {
        use super::StdRng;
        use crate::{LANE_DRAWS, ROUND_DRAWS};
        use std::arch::x86_64::*;

        /// `x` rotated left by `K` bits in each lane (`L` = 64 − `K`).
        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl<const K: i32, const L: i32>(x: __m256i) -> __m256i {
            _mm256_or_si256(_mm256_slli_epi64::<K>(x), _mm256_srli_epi64::<L>(x))
        }

        /// State word `k` of each of four lanes, lane 0 lowest.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn gather(lanes: [&[u64; 4]; 4], k: usize) -> __m256i {
            let [l0, l1, l2, l3] = lanes;
            _mm256_set_epi64x(l3[k] as i64, l2[k] as i64, l1[k] as i64, l0[k] as i64)
        }

        /// Fills `a` and `b`, whole rounds of `ROUND_DRAWS / 64` words,
        /// from the state `s`, and leaves `s` after the last draw. In a
        /// round, lane `j` starts `j` lane jumps after the round's start
        /// and fills words `j·LANE_DRAWS/64 ..` of the round; the next
        /// round starts where lane 3 ends, `ROUND_DRAWS` draws on.
        ///
        /// Both sides of each threshold comparison are below 2⁶³ (a
        /// draw's top 53 bits, a threshold of at most 2⁵³), so the
        /// signed 64-bit compare orders them as unsigned.
        #[target_feature(enable = "avx2")]
        pub(super) fn rounds(s: &mut [u64; 4], [ta, tb]: [u64; 2], a: &mut [u64], b: &mut [u64]) {
            const WORDS: usize = LANE_DRAWS / 64;
            let (ta, tb) = (_mm256_set1_epi64x(ta as i64), _mm256_set1_epi64x(tb as i64));
            let rounds = a
                .chunks_exact_mut(ROUND_DRAWS / 64)
                .zip(b.chunks_exact_mut(ROUND_DRAWS / 64));
            for (ra, rb) in rounds {
                let l0 = StdRng { s: *s };
                let l1 = l0.lane_jump();
                let l2 = l1.lane_jump();
                let l3 = l2.lane_jump();
                let lanes = [&l0.s, &l1.s, &l2.s, &l3.s];
                let (mut s0, mut s1, mut s2, mut s3) = (
                    gather(lanes, 0),
                    gather(lanes, 1),
                    gather(lanes, 2),
                    gather(lanes, 3),
                );
                for w in 0..WORDS {
                    let (mut fa, mut fb) = (_mm256_setzero_si256(), _mm256_setzero_si256());
                    let mut bit = _mm256_set1_epi64x(1);
                    for _ in 0..64 {
                        // `next_u64`, four lanes at once.
                        let out = _mm256_add_epi64(rotl::<23, 41>(_mm256_add_epi64(s0, s3)), s0);
                        let u = _mm256_srli_epi64::<11>(out);
                        let t = _mm256_slli_epi64::<17>(s1);
                        s2 = _mm256_xor_si256(s2, s0);
                        s3 = _mm256_xor_si256(s3, s1);
                        s1 = _mm256_xor_si256(s1, s2);
                        s0 = _mm256_xor_si256(s0, s3);
                        s2 = _mm256_xor_si256(s2, t);
                        s3 = rotl::<45, 19>(s3);
                        fa = _mm256_or_si256(fa, _mm256_and_si256(_mm256_cmpgt_epi64(ta, u), bit));
                        fb = _mm256_or_si256(fb, _mm256_and_si256(_mm256_cmpgt_epi64(tb, u), bit));
                        bit = _mm256_add_epi64(bit, bit);
                    }
                    for (plane, f) in [(&mut *ra, fa), (&mut *rb, fb)] {
                        plane[w] = _mm256_extract_epi64::<0>(f) as u64;
                        plane[WORDS + w] = _mm256_extract_epi64::<1>(f) as u64;
                        plane[2 * WORDS + w] = _mm256_extract_epi64::<2>(f) as u64;
                        plane[3 * WORDS + w] = _mm256_extract_epi64::<3>(f) as u64;
                    }
                }
                *s = [
                    _mm256_extract_epi64::<3>(s0) as u64,
                    _mm256_extract_epi64::<3>(s1) as u64,
                    _mm256_extract_epi64::<3>(s2) as u64,
                    _mm256_extract_epi64::<3>(s3) as u64,
                ];
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::{lanes_available, StdRng, LANE_JUMP};
        use crate::{bernoulli_threshold, derive_seed, Rng, SeedableRng, LANE_DRAWS, ROUND_DRAWS};

        /// The planes of `n` plain `next_u64` comparisons, and the
        /// generator after them.
        fn plain(rng: &StdRng, n: usize, [ta, tb]: [u64; 2]) -> ([Vec<u64>; 2], StdRng) {
            let mut rng = rng.clone();
            let mut planes = [vec![0; n.div_ceil(64)], vec![0; n.div_ceil(64)]];
            for k in 0..n {
                let u = rng.next_u64() >> 11;
                planes[0][k / 64] |= u64::from(u < ta) << (k % 64);
                planes[1][k / 64] |= u64::from(u < tb) << (k % 64);
            }
            (planes, rng)
        }

        /// A path that fills planes: `(rng, n, thresholds, planes)`.
        type Planes = fn(&mut StdRng, usize, [u64; 2], [&mut [u64]; 2]);

        /// Checks the scalar path, the lane path (where the CPU has
        /// AVX2) and `bernoulli_planes` against `n` plain comparisons:
        /// both planes, stale words overwritten, and the final state.
        fn check(seed: u64, n: usize, thresholds: [u64; 2]) {
            let start = StdRng::seed_from_u64(seed);
            let (want, want_rng) = plain(&start, n, thresholds);
            let what = format!("seed {seed:#x}, n {n}, thresholds {thresholds:?}");
            let mut paths: Vec<(&str, Planes)> = vec![
                ("scalar", |r, n, t, [a, b]| r.scalar_planes(n, t, a, b)),
                ("bernoulli_planes", |r, n, t, p| r.bernoulli_planes(n, t, p)),
            ];
            // The lane path itself, whatever `bernoulli_planes` picks:
            // every whole round on the lanes, the tail one at a time.
            #[cfg(target_arch = "x86_64")]
            if lanes_available() {
                paths.push(("lanes", |r, n, t, [a, b]| {
                    let laned = n / ROUND_DRAWS * ROUND_DRAWS / 64;
                    // SAFETY: pushed only where `lanes_available` saw
                    // AVX2 on this CPU.
                    unsafe { super::lanes::rounds(&mut r.s, t, &mut a[..laned], &mut b[..laned]) };
                    r.scalar_planes(n - 64 * laned, t, &mut a[laned..], &mut b[laned..]);
                }));
            }
            for (name, path) in paths {
                let mut rng = start.clone();
                // One spare word, and every word stale, to catch a
                // write past the planes or a bit left unwritten.
                let words = n.div_ceil(64);
                let mut planes = [vec![!0; words + 1], vec![!0; words + 1]];
                let [a, b] = &mut planes;
                path(&mut rng, n, thresholds, [&mut a[..words], &mut b[..words]]);
                for (k, (got, want)) in planes.iter().zip(&want).enumerate() {
                    assert_eq!(&got[..words], &want[..], "{name}: plane {k}, {what}");
                    assert_eq!(got[words], !0, "{name}: plane {k} written past, {what}");
                }
                assert_eq!(rng, want_rng, "{name}: final state, {what}");
            }
        }

        #[test]
        fn bernoulli_planes_equal_plain_draws_at_every_lane_seam() {
            let r = ROUND_DRAWS;
            let thresholds = [
                [bernoulli_threshold(0.01), bernoulli_threshold(0.002)],
                [0, bernoulli_threshold(1.0)],
                [bernoulli_threshold(0.5), 0],
            ];
            for n in [0, 1, 63, 64, 65, r - 1, r, r + 1, 3 * r + 17] {
                for seed in [1, 0x5EED, derive_seed(7, 3)] {
                    for t in thresholds {
                        check(seed, n, t);
                    }
                }
            }
        }

        /// The wide grid: lengths at and around every round edge up to
        /// five rounds and inside lanes, more seeds and thresholds. Run
        /// in release with `--ignored --nocapture`; it prints which
        /// paths it checked.
        #[test]
        #[ignore]
        fn bernoulli_planes_equal_plain_draws_on_the_wide_grid() {
            let (r, l) = (ROUND_DRAWS, LANE_DRAWS);
            let mut lengths: Vec<usize> = (0..130).collect();
            for k in 1..=5 {
                for d in [0, 1, 2, 63, 64, 65, 127, 128, 129] {
                    lengths.extend([k * r - d, k * r + d]);
                }
                for j in 1..4 {
                    lengths.extend([(k - 1) * r + j * l - 1, (k - 1) * r + j * l + 1]);
                }
            }
            let ps = [0.0, 1e-9, 0.002, 0.01, 0.06, 0.25, 0.5, 0.999, 1.0];
            for (i, n) in lengths.into_iter().enumerate() {
                for (j, &pa) in ps.iter().enumerate() {
                    let pb = ps[(i + j) % ps.len()];
                    let t = [bernoulli_threshold(pa), bernoulli_threshold(pb)];
                    check(derive_seed(i as u64, j as u64), n, t);
                }
            }
            if lanes_available() {
                println!("bernoulli_planes: lane path checked (avx2)");
            } else {
                println!("bernoulli_planes: scalar path only (this CPU lacks avx2)");
            }
        }

        /// A polynomial over GF(2): entry `i` is the coefficient of `xⁱ`.
        type Poly = Vec<bool>;

        /// The connection polynomial of the shortest linear recurrence
        /// that generates `bits` (Berlekamp–Massey over GF(2)):
        /// `C(x) = 1 + c₁x + … + c_L·x^L` with `bits[n] = Σ cᵢ·bits[n−i]`.
        fn berlekamp_massey(bits: &[bool]) -> Poly {
            let (mut c, mut b): (Poly, Poly) = (vec![true], vec![true]);
            let (mut len, mut m) = (0, 1);
            for n in 0..bits.len() {
                let d = (1..=len).fold(bits[n], |d, i| d ^ (c[i] & bits[n - i]));
                if !d {
                    m += 1;
                    continue;
                }
                let prev = c.clone();
                c.resize(c.len().max(b.len() + m), false);
                for (i, &bi) in b.iter().enumerate() {
                    c[i + m] ^= bi;
                }
                if 2 * len <= n {
                    len = n + 1 - len;
                    b = prev;
                    m = 1;
                } else {
                    m += 1;
                }
            }
            c.resize(len + 1, false);
            c
        }

        /// The characteristic polynomial of xoshiro256's state update,
        /// from the sequence of one state bit (bit 0 of word 0): its
        /// minimal polynomial, reversed. The polynomial is primitive, so
        /// any nonzero state's bit sequence has all 256 degrees.
        fn characteristic() -> Poly {
            let mut rng = StdRng::seed_from_u64(0x5EED);
            let bits: Vec<bool> = (0..1024)
                .map(|_| {
                    let bit = rng.s[0] & 1 == 1;
                    rng.next_u64();
                    bit
                })
                .collect();
            let mut p = berlekamp_massey(&bits);
            assert_eq!(p.len(), 257, "the state bit's recurrence has degree 256");
            p.reverse();
            p
        }

        /// `a · b mod p`, `p` monic.
        fn mul_mod(a: &[bool], b: &[bool], p: &[bool]) -> Poly {
            let mut r = vec![false; a.len() + b.len()];
            for (i, _) in a.iter().enumerate().filter(|(_, &x)| x) {
                for (j, _) in b.iter().enumerate().filter(|(_, &y)| y) {
                    r[i + j] ^= true;
                }
            }
            let deg = p.len() - 1;
            for top in (deg..r.len()).rev() {
                if r[top] {
                    for (i, &pi) in p.iter().enumerate() {
                        r[top - deg + i] ^= pi;
                    }
                }
            }
            r.truncate(deg);
            r
        }

        /// `x^e mod p`, the exponent's bits given most significant first.
        fn x_pow_mod(e: impl IntoIterator<Item = bool>, p: &[bool]) -> Poly {
            let x = [false, true];
            let mut r = vec![true];
            for bit in e {
                r = mul_mod(&r, &r, p);
                if bit {
                    r = mul_mod(&r, &x, p);
                }
            }
            r
        }

        /// A jump polynomial in the published layout: the coefficient
        /// of `xⁱ` is bit `i % 64` of word `i / 64`.
        fn packed(c: &[bool]) -> [u64; 4] {
            let mut words = [0; 4];
            for (i, _) in c.iter().enumerate().filter(|(_, &ci)| ci) {
                words[i / 64] |= 1 << (i % 64);
            }
            words
        }

        #[test]
        fn the_lane_jump_is_derived_from_the_generator() {
            let p = characteristic();
            // The derivation reproduces xoshiro256's published `JUMP`,
            // 2¹²⁸ draws ahead...
            let two_to_128 = std::iter::once(true).chain([false; 128]);
            assert_eq!(
                packed(&x_pow_mod(two_to_128, &p)),
                [
                    0x180e_c6d3_3cfd_0aba,
                    0xd5a6_1266_f0c9_392c,
                    0xa958_2618_e03f_c9aa,
                    0x39ab_dc45_29b1_661c,
                ]
            );
            // ...and gives the lane jump's constant, LANE_DRAWS ahead.
            let b = LANE_DRAWS as u64;
            let bits = (0..=b.ilog2()).rev().map(|i| b >> i & 1 == 1);
            assert_eq!(packed(&x_pow_mod(bits, &p)), LANE_JUMP);
        }

        #[test]
        fn a_lane_jump_equals_lane_draws_plain_steps() {
            for seed in [0, 1, 0x5EED, derive_seed(9, 2)] {
                let mut stepped = StdRng::seed_from_u64(seed);
                let jumped = stepped.lane_jump();
                for _ in 0..LANE_DRAWS {
                    stepped.next_u64();
                }
                assert_eq!(jumped, stepped, "seed {seed:#x}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_produce_distinct_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_uniform_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let x = rng.gen_range(0..10usize);
            assert!(x < 10);
            let y = rng.gen_range(1..=28u8);
            assert!((1..=28).contains(&y));
            seen_lo |= y == 1;
            seen_hi |= y == 28;
            let f = rng.gen_range(f64::EPSILON..1.0);
            assert!(f >= f64::EPSILON && f < 1.0);
        }
        assert!(seen_lo && seen_hi, "inclusive endpoints never drawn");
    }

    #[test]
    fn negative_int_ranges() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let x = rng.gen_range(-5..5i32);
            assert!((-5..5).contains(&x));
            let y = rng.gen_range(-3..=-1i64);
            assert!((-3..=-1).contains(&y));
        }
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
    }

    /// A generator that returns one fixed word.
    struct Fixed(u64);

    impl Rng for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn gen_bool_integer_form_equals_the_float_form() {
        use super::bernoulli_threshold;
        const TOP: u64 = 1 << 53;
        let ps = [
            0.0,
            f64::from_bits(1), // 2^-1074, the least positive f64
            1.0 / TOP as f64,  // 2^-53, one draw step
            0.002,
            0.01,
            0.06,
            0.5,
            1.0 - 1.0 / TOP as f64,
            1.0,
        ];
        for p in ps {
            let t = bernoulli_threshold(p);
            assert!(t <= TOP, "p = {p}: threshold {t}");
            // Draws whose top 53 bits sit just below, at and just above
            // the threshold, with the 11 discarded low bits clear and set.
            for m in [t.wrapping_sub(1), t, t + 1] {
                if m >= TOP {
                    continue;
                }
                for low in [0, 0x7FF] {
                    let u = m << 11 | low;
                    let float: f64 = Fixed(u).gen();
                    assert_eq!(
                        Fixed(u).gen_bool(p),
                        float < p,
                        "p = {p:e}, top bits {m}, low bits {low:#x}"
                    );
                }
            }
        }
        // The edges: p = 0 never fires, p = 1 always does.
        assert_eq!(bernoulli_threshold(0.0), 0);
        assert_eq!(bernoulli_threshold(1.0), TOP);
        assert_eq!(bernoulli_threshold(f64::from_bits(1)), 1);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn gen_bool_rejects_out_of_range_p() {
        Fixed(0).gen_bool(1.5);
    }

    #[test]
    fn works_through_mut_reference() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0..100u64)
        }
        let mut rng = StdRng::seed_from_u64(7);
        let x = draw(&mut rng);
        assert!(x < 100);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = rng.gen_range(5..5usize);
    }

    #[test]
    fn derive_seed_pure_and_distinct() {
        use super::derive_seed;
        // Pure: same inputs, same seed.
        assert_eq!(derive_seed(0xD0C5, 0), derive_seed(0xD0C5, 0));
        // Distinct across a batch: no two of the first 10k indices
        // collide, and index is not merely XORed into the root.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_seed(0xD0C5, i)), "collision at {i}");
        }
    }

    #[test]
    fn derive_seed_streams_are_independent() {
        use super::derive_seed;
        // The streams seeded by consecutive indices should not overlap
        // even in their first draws (a weak independence smoke check).
        let mut a = StdRng::seed_from_u64(derive_seed(9, 0));
        let mut b = StdRng::seed_from_u64(derive_seed(9, 1));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
