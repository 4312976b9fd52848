//! Offline drop-in subset of the `proptest` crate API used by this
//! workspace.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of proptest it uses: the
//! [`Strategy`](strategy::Strategy) trait over primitive ranges / tuples / collections, `any::<T>()`,
//! `prop_map`, `prop_oneof!`, and the `proptest!` test macro with
//! `ProptestConfig::with_cases`.
//!
//! Differences from real proptest, by design:
//!
//! * Inputs are drawn from a fixed seeded generator, so every run tests
//!   the same deterministic case set (no `PROPTEST_CASES` env, no
//!   persistence files — `*.proptest-regressions` files are ignored).
//! * There is no shrinking: a failing case reports the assertion as-is.
//! * `prop_assert!`/`prop_assert_eq!` expand to plain `assert!`s.

#![warn(missing_docs)]

/// Test-runner plumbing: the deterministic per-case RNG.
pub mod test_runner {
    /// Failure type for fallible property helpers
    /// (`Result<(), TestCaseError>` + `?` inside `proptest!` bodies).
    ///
    /// In this shim `prop_assert!` panics instead of returning `Err`, so
    /// the type mostly exists so helper signatures compile unchanged.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// A failed test case with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic RNG handed to strategies for one generated case.
    ///
    /// xoshiro256++ seeded per `(test, case)` via SplitMix64.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// RNG for case number `case` of the test named `name`.
        pub fn for_case(name: &str, case: u64) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
            }
            let mut x = h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// Next 64 random bits (xoshiro256++).
        pub fn next_u64(&mut self) -> u64 {
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

        /// Uniform draw from `[0, n)`. `n = 0` is a caller bug
        /// (debug-asserted); release builds return 0 rather than panic.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            if n == 0 {
                return 0;
            }
            self.next_u64() % n
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Strategies: value generators for property tests.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of test-case values (subset of `proptest::Strategy`).
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Generates one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            (**self).new_value(rng)
        }
    }

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            (**self).new_value(rng)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    // An empty range is a caller bug (debug-asserted);
                    // release builds degrade to `start` rather than panic.
                    debug_assert!(self.start < self.end, "empty strategy range");
                    if self.start >= self.end {
                        return self.start;
                    }
                    // The i128 widening is exact for every instantiated
                    // type (all ≤ 64 bits; `i128::from` does not exist
                    // for usize/isize) and the final narrowing is
                    // in-range by construction.
                    // fastg-lint: allow(no-lossy-cast)
                    let span = (self.end as i128 - self.start as i128) as u64;
                    // fastg-lint: allow(no-lossy-cast)
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    debug_assert!(lo <= hi, "empty strategy range");
                    if lo >= hi {
                        return lo;
                    }
                    // Same exact-widening argument as in `Range` above.
                    // fastg-lint: allow(no-lossy-cast)
                    let span = (hi as i128 - lo as i128) as u64 + 1;
                    // fastg-lint: allow(no-lossy-cast)
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            // An empty (or NaN-bounded) range is a caller bug
            // (debug-asserted); release builds degrade to `start`.
            debug_assert!(self.start < self.end, "empty strategy range");
            if self.start < self.end {
                let v = self.start + rng.unit_f64() * (self.end - self.start);
                if v >= self.end { self.start } else { v }
            } else {
                self.start
            }
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
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
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.new_value(rng))
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.new_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
    }

    /// Uniform choice between boxed alternative strategies
    /// (what `prop_oneof!` builds).
    pub struct OneOf<V> {
        arms: Vec<Box<dyn Strategy<Value = V>>>,
    }

    /// Builds a [`OneOf`] from boxed arms; used by `prop_oneof!`.
    ///
    /// A zero-arm `OneOf` can never produce a value, so construction
    /// panics with a clear message — that failure mode *is* the API, as
    /// in the real crate.
    pub fn one_of<V>(arms: Vec<Box<dyn Strategy<Value = V>>>) -> OneOf<V> {
        // fastg-lint: allow(no-panic-in-lib)
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            // `below(len)` is `< len`, so the round trip through u64 is
            // exact for any real arm count.
            // fastg-lint: allow(no-lossy-cast)
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].new_value(rng)
        }
    }

    /// Types with a canonical "arbitrary" strategy (`any::<T>()`).
    pub trait ArbitraryValue: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl ArbitraryValue for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbitraryValue for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl ArbitraryValue for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit_f64()
        }
    }

    /// Strategy returned by [`crate::any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T: ArbitraryValue> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub(crate) fn any_strategy<T: ArbitraryValue>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `S` and a length range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates `Vec<S::Value>` with a length drawn from `len`. An empty
    /// length range is a caller bug (debug-asserted); release builds
    /// degrade to always generating `len.start` elements.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        debug_assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            // `below(span)` is `< span ≤ len.end`, so the round trip
            // through u64 is exact for any real collection length.
            // fastg-lint: allow(no-lossy-cast)
            let span = self.len.end.saturating_sub(self.len.start) as u64;
            // fastg-lint: allow(no-lossy-cast)
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Canonical strategy for an arbitrary `T` (subset: primitives only).
pub fn any<T: strategy::ArbitraryValue>() -> strategy::Any<T> {
    strategy::any_strategy::<T>()
}

/// Per-test configuration (subset: only `cases`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 48 }
    }
}

impl ProptestConfig {
    /// Config running `cases` generated cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of the real crate's `prop` path alias (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the real macro's common form, with an optional
/// `#![proptest_config(...)]` header:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     fn my_property(x in 0u64..100, (a, b) in (0u8..4, 0u8..4)) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..u64::from(__cfg.cases) {
                    let mut __rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), __case);
                    $(let $pat = $crate::strategy::Strategy::new_value(&($strat), &mut __rng);)*
                    // Run the body in a fallible closure so `?` on
                    // `Result<_, TestCaseError>` helpers compiles, as in
                    // real proptest.
                    #[allow(clippy::redundant_closure_call)]
                    let __result: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = __result {
                        // Panicking is how a property test reports failure
                        // to the test harness — this is the macro's API.
                        // fastg-lint: allow(no-panic-in-lib)
                        panic!("property failed: {e}");
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test (no shrinking: plain panic).
/// Panicking on failure is the macro's API — it expands into test code.
#[macro_export]
macro_rules! prop_assert {
    // fastg-lint: allow(no-panic-in-lib)
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property test (no shrinking: plain panic).
/// Panicking on failure is the macro's API — it expands into test code.
#[macro_export]
macro_rules! prop_assert_eq {
    // fastg-lint: allow(no-panic-in-lib)
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property test (no shrinking: plain panic).
/// Panicking on failure is the macro's API — it expands into test code.
#[macro_export]
macro_rules! prop_assert_ne {
    // fastg-lint: allow(no-panic-in-lib)
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::one_of(vec![$(::std::boxed::Box::new($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        Add(u8),
        Del(u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![any::<u8>().prop_map(Op::Add), (0u8..8).prop_map(Op::Del)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in 1u32..=4, f in 0.5f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=4).contains(&y));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn vec_lengths_in_bounds(v in prop::collection::vec((0u8..2, 1u64..512), 1..120)) {
            prop_assert!(!v.is_empty() && v.len() < 120);
            for (a, b) in &v {
                prop_assert!(*a < 2);
                prop_assert!((1..512).contains(b));
            }
        }

        #[test]
        fn oneof_hits_all_arms(ops in prop::collection::vec(arb_op(), 40..41)) {
            prop_assert_eq!(ops.len(), 40);
        }

        #[test]
        fn tuple_destructuring((a, b) in (0u8..4, 10i32..20)) {
            prop_assert!(a < 4);
            prop_assert!((10..20).contains(&b));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let s = prop::collection::vec(0u64..1_000, 1..50);
        let mut a = crate::test_runner::TestRng::for_case("t", 3);
        let mut b = crate::test_runner::TestRng::for_case("t", 3);
        assert_eq!(s.new_value(&mut a), s.new_value(&mut b));
    }
}
