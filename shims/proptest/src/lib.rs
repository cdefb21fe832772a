//! Offline drop-in subset of `proptest`: randomized property testing with
//! the strategy combinators this workspace uses. Cases are generated from
//! a deterministic per-test seed, so failures reproduce across runs.
//!
//! Deliberate simplifications vs upstream:
//! * **No shrinking** — a failing case panics with the generated inputs
//!   left to the assertion message.
//! * `prop_assert!`/`prop_assert_eq!` panic directly instead of returning
//!   a `TestCaseResult`.
//! * Strategies are sampled eagerly; there is no lazy value tree.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use rand::rngs::SmallRng;
use rand::{Rng, SampleUniform, SeedableRng};

/// The RNG threaded through strategy generation.
pub type TestRng = SmallRng;

/// Per-`proptest!` block configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy: Sized {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F> {
        FlatMap { inner: self, f }
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

impl<T: SampleUniform> Strategy for std::ops::Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

macro_rules! impl_inclusive_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = *self.start();
                let hi = *self.end();
                if hi < <$t>::MAX {
                    rng.gen_range(lo..hi + 1)
                } else if lo > <$t>::MIN {
                    // Avoid overflow: sample [lo-1, hi) then shift.
                    rng.gen_range(lo - 1..hi) + 1
                } else {
                    // Full domain.
                    rng.gen::<u64>() as $t
                }
            }
        }
    )*};
}
impl_inclusive_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($s:ident/$v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A / a);
impl_tuple_strategy!(A / a, B / b);
impl_tuple_strategy!(A / a, B / b, C / c);
impl_tuple_strategy!(A / a, B / b, C / c, D / d);
impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);

/// Types with a canonical whole-domain strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen::<bool>()
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::*;

    /// Accepted size specifications: exact, `a..b`, `a..=b`.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..self.hi)
        }
    }

    /// Strategy for `Vec<S::Value>` with a random length.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K, V>` with a random entry count.
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    /// Generates ordered maps; key collisions may produce fewer entries
    /// than sampled, matching upstream behavior loosely.
    pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let n = self.size.sample(rng);
            let mut m = BTreeMap::new();
            for _ in 0..n {
                m.insert(self.key.generate(rng), self.value.generate(rng));
            }
            m
        }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::*;

    /// Strategy yielding `None` or `Some` of the inner strategy.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` with probability ~3/4, like upstream's default.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_range(0u32..4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Sampling helpers (`prop::sample`).
pub mod sample {
    use super::*;

    /// An arbitrary index, projected onto a concrete collection length.
    #[derive(Clone, Copy, Debug)]
    pub struct Index {
        raw: usize,
    }

    impl Index {
        /// Projects onto `[0, len)`.
        ///
        /// # Panics
        ///
        /// Panics if `len == 0`, like upstream.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            self.raw % len
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index {
                raw: rng.gen::<u64>() as usize,
            }
        }
    }
}

#[doc(hidden)]
pub fn test_seed(name: &str) -> u64 {
    // FNV-1a over the test name: deterministic per test, stable across runs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[doc(hidden)]
pub fn make_rng(seed: u64, case: u32) -> TestRng {
    TestRng::seed_from_u64(seed ^ ((case as u64) << 32 | case as u64))
}

/// Asserts a property-test condition (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` becomes a
/// `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __seed = $crate::test_seed(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let mut __rng = $crate::make_rng(__seed, __case);
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, Just, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0u64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn combinators_compose(
            v in prop::collection::vec((0u32..10).prop_map(|n| n * 2), 1..8),
            m in prop::collection::btree_map(0u32..100, 0u64..9, 0..5),
            o in prop::option::of(0u32..3),
            idx in any::<prop::sample::Index>(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|n| n % 2 == 0));
            prop_assert!(m.len() < 5);
            if let Some(x) = o { prop_assert!(x < 3); }
            prop_assert!(idx.index(v.len()) < v.len());
        }

        #[test]
        fn flat_map_dependent_sizes((len, v) in (1usize..6).prop_flat_map(|n| (Just(n), prop::collection::vec(0u8..=255, n)))) {
            prop_assert_eq!(v.len(), len);
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        let a = crate::test_seed("x::y");
        let b = crate::test_seed("x::y");
        assert_eq!(a, b);
        assert_ne!(a, crate::test_seed("x::z"));
    }
}
