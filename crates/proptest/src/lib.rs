//! Workspace-vendored shim for the subset of the `proptest` 1.x API used
//! by this repository's property and model-based tests.
//!
//! The build environment has no registry access, so the real `proptest`
//! cannot be fetched. This shim keeps the same surface — `proptest!`,
//! `prop_oneof!`, `prop_assert!`/`prop_assert_eq!`, `Strategy`,
//! `prop_map`, `Just`, `any::<bool>()`, `prop::collection::vec`,
//! `ProptestConfig::with_cases` — over a deterministic per-case RNG.
//! What it deliberately drops is *shrinking*: a failing case reports its
//! generated inputs (via `Debug`) and its case number instead of a
//! minimized counterexample. Case streams are fixed per case index, so
//! failures reproduce exactly across runs.

#![warn(rust_2018_idioms)]

/// Test-runner types: configuration, errors, and the case RNG.
pub mod test_runner {
    /// Runner configuration. Only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single case failed (no shrinking, so only the reason).
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        reason: String,
    }

    impl TestCaseError {
        /// A failure carrying `reason`.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError {
                reason: reason.into(),
            }
        }

        /// Alias kept for API parity with real proptest.
        pub fn reject(reason: impl Into<String>) -> Self {
            Self::fail(reason)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.reason)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Deterministic SplitMix64 stream, one per case index.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The fixed stream for case `case` (stable across runs).
        pub fn for_case(case: u32) -> Self {
            TestRng {
                state: (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5851_F42D_4C95_7F2D,
            }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value *tree* (no shrinking): a
    /// strategy draws a finished value directly from the case RNG.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (needed by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: std::rc::Rc::new(move |rng: &mut TestRng| self.new_value(rng)),
            }
        }
    }

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<T> {
        #[allow(clippy::type_complexity)]
        inner: std::rc::Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.inner)(rng)
        }
    }

    /// `prop_map` adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options`; must be nonempty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].new_value(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u128).wrapping_sub(start as u128) as u128 + 1;
                    if span > u64::MAX as u128 {
                        return start.wrapping_add(rng.next_u64() as $t);
                    }
                    start.wrapping_add(rng.below(span as u64) as $t)
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.new_value(rng),)+)
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
        (A, B, C, D, E, F)
        (A, B, C, D, E, F, G)
        (A, B, C, D, E, F, G, H)
        (A, B, C, D, E, F, G, H, I)
        (A, B, C, D, E, F, G, H, I, J)
    }

    /// Types with a canonical strategy, reachable via [`any`].
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The canonical strategy for an [`Arbitrary`] type.
    #[derive(Debug, Clone, Default)]
    pub struct AnyStrategy<T> {
        _marker: PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T` (`any::<bool>()`, …).
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy {
            _marker: PhantomData,
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Generates `Vec`s whose length is drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.start < self.size.end, "empty size range");
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Everything the tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Fails the current case with a formatted reason unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                    left, right
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)+),
                    left,
                    right
                ),
            ));
        }
    }};
}

/// Fails the current case unless the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: {:?}",
                left
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
///
/// A failing case panics with the case number, the failure reason, and
/// the `Debug` rendering of every generated input (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]; do not use directly.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::for_case(case);
                $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                let inputs = {
                    let mut s = ::std::string::String::new();
                    $(
                        s.push_str(concat!(stringify!($arg), " = "));
                        s.push_str(&format!("{:?}; ", &$arg));
                    )+
                    s
                };
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {} failed: {}\n  inputs: {}",
                        case, e, inputs
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Add(u64),
        Clear,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![(1u64..10).prop_map(Op::Add), Just(Op::Clear)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 5u64..50, y in 0.0..1.0f64, b in any::<bool>()) {
            prop_assert!((5..50).contains(&x));
            prop_assert!((0.0..1.0).contains(&y), "y={y} out of range");
            prop_assert_eq!(b == b, true);
        }

        #[test]
        fn vec_and_oneof_compose(ops in prop::collection::vec(arb_op(), 1..20)) {
            prop_assert!(!ops.is_empty());
            let mut acc = 0u64;
            for op in ops {
                match op {
                    Op::Add(n) => {
                        prop_assert!((1..10).contains(&n));
                        acc += n;
                    }
                    Op::Clear => acc = 0,
                }
            }
            prop_assert!(acc < 200);
        }

        #[test]
        fn tuples_map_through(pair in (0u8..3, 10u64..20).prop_map(|(a, b)| (a as u64) + b) ) {
            prop_assert!((10..23).contains(&pair));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = TestRng::for_case(3);
        let mut b = TestRng::for_case(3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
