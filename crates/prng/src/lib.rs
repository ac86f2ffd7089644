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

use std::ops::{Range, RangeInclusive};

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
