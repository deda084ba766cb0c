//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! Implements the subset the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * range strategies (`0usize..10`, `-1.0..1.0f64`, …), tuple strategies,
//!   [`prop::collection::vec`], [`strategy::Just`], and the
//!   `prop_map`/`prop_flat_map` combinators,
//! * [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assert_ne!`].
//!
//! Differences from the real crate: cases are drawn from a deterministic
//! RNG seeded from the test's name (fully reproducible, no persistence
//! files), and there is **no shrinking** — a failing case panics with the
//! sampled values still bound, so the assertion message must carry the
//! context (the workspace's tests already format their inputs into the
//! assertion messages).

#![deny(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-test configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    /// 256 cases, like upstream.
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Deterministic RNG for one property, seeded from the test name.
#[doc(hidden)]
pub fn __new_test_rng(test_name: &str) -> StdRng {
    // FNV-1a over the name: stable across runs and platforms.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Strategy trait and combinators.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A generator of random values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Generate a value, then generate from a strategy built from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Keep only values satisfying `pred` (rejection sampling with a
        /// bounded retry budget).
        fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                pred,
            }
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;

        fn sample(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Output of [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;

        fn sample(&self, rng: &mut StdRng) -> T::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Output of [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;

        fn sample(&self, rng: &mut StdRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.sample(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter retry budget exhausted: {}", self.whence);
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, G)
    }
}

/// Collection strategies, reachable as `prop::collection`.
pub mod prop {
    /// Strategies over collections.
    pub mod collection {
        use super::super::strategy::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// A length specification: a fixed size or a half-open range.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self { lo: n, hi: n + 1 }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty vec size range");
                Self {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<core::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: core::ops::RangeInclusive<usize>) -> Self {
                Self {
                    lo: *r.start(),
                    hi: *r.end() + 1,
                }
            }
        }

        /// Strategy producing `Vec`s of `element` with a length drawn from
        /// `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// Output of [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.lo..self.size.hi);
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// The common imports property tests expect.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Define property tests.
///
/// Each `fn name(pat in strategy, ...) { body }` becomes a `#[test]` that
/// runs `body` against `config.cases` deterministic random samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::__new_test_rng(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// Assert inside a property; panics (no shrinking) with the location and
/// optional formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*);
    };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in -1.0..1.0f64) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y), "y out of range: {y}");
        }

        #[test]
        fn tuples_and_flat_map(
            (rows, cols) in (1usize..5, 1usize..5).prop_flat_map(|(r, c)| (Just(r), Just(c))),
        ) {
            prop_assert!(rows >= 1 && cols >= 1);
        }

        #[test]
        fn vec_lengths(xs in prop::collection::vec(0u64..100, 2..8)) {
            prop_assert!((2..8).contains(&xs.len()));
            prop_assert!(xs.iter().all(|&v| v < 100));
        }

        #[test]
        fn map_applies(n in (0usize..5).prop_map(|n| n * 2)) {
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n, 11);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::__new_test_rng("some::test");
        let mut b = crate::__new_test_rng("some::test");
        use rand::Rng;
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
