//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment for this workspace has no network access, so this
//! crate re-implements exactly the subset of the `rand` 0.8 API the
//! workspace uses: the [`Rng`] extension trait (`gen`, `gen_range`,
//! `gen_bool`), [`SeedableRng`] with `seed_from_u64`, [`rngs::StdRng`], and
//! [`seq::SliceRandom`] (`shuffle`/`choose`).
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64 — statistically strong enough for every simulation and
//! goodness-of-fit test in the workspace, and fully deterministic for a
//! given seed. It is **not** the same stream as upstream `rand`'s ChaCha12
//! `StdRng`, which only matters if you compare seeded outputs across
//! implementations.

#![deny(missing_docs)]

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be sampled uniformly from a generator (the subset of
/// upstream's `Standard` distribution the workspace needs).
pub trait SampleStandard {
    /// Draw one uniform value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl SampleStandard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform draw in `0..span` (`span == 0` means the full 2^64 domain),
/// via multiply-shift bounded sampling.
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        rng.next_u64()
    } else {
        ((rng.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// Uniform draw of an offset in `0..span` where `span` is a width computed
/// in `u128` (so `span == 2^64` is representable; larger spans fall back to
/// a 128-bit modulo draw).
fn bounded_offset<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    if span <= u64::MAX as u128 {
        bounded_u64(rng, span as u64) as u128
    } else if span == u64::MAX as u128 + 1 {
        rng.next_u64() as u128
    } else {
        let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        wide % span
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                let off = bounded_offset(rng, span);
                self.start.wrapping_add(off as $t)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty inclusive range");
                let span = ((hi as i128).wrapping_sub(lo as i128) as u128).wrapping_add(1);
                if span == 0 {
                    // Full u128-width domain is not needed by any caller;
                    // treat the (unreachable for <=64-bit types) wrap case
                    // as a full 64-bit draw.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                let off = bounded_offset(rng, span);
                lo.wrapping_add(off as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for core::ops::Range<u128> {
    type Output = u128;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u128 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + bounded_offset(rng, self.end - self.start)
    }
}

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = f64::sample_standard(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange for core::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty inclusive range");
        let u = f64::sample_standard(rng);
        lo + u * (hi - lo)
    }
}

/// The user-facing generator interface, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draw a uniform value of type `T`.
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draw uniformly from a range (half-open or inclusive).
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from seed material, mirroring
/// `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Construct from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` via SplitMix64 expansion (the upstream
    /// convention for reproducible simulations).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = sm.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                *word = u64::from_le_bytes(b);
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0u64; 4] {
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0x6A09_E667_F3BC_C909,
                    0xBB67_AE85_84CA_A73B,
                    0x3C6E_F372_FE94_F82B,
                ];
            }
            Self { s }
        }
    }
}

/// Sequence-related helpers, mirroring `rand::seq`.
pub mod seq {
    use super::Rng;

    /// Slice shuffling and random element selection.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_interval_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(5usize..=9);
            assert!((5..=9).contains(&w));
            let x = rng.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&x));
            let y = rng.gen_range(0u128..1_000_000_000_000_000_000_000u128);
            assert!(y < 1_000_000_000_000_000_000_000u128);
            let z = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&z));
        }
    }

    #[test]
    fn range_mean_is_plausible() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0u64..100) as f64).sum::<f64>() / n as f64;
        assert!((mean - 49.5).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut xs: Vec<usize> = (0..50).collect();
        xs.shuffle(&mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(xs.choose(&mut rng).is_some());
    }
}
