//! Offline shim for `proptest`: random-input property testing with the
//! strategy combinators this workspace uses.
//!
//! Differences from real proptest, by design:
//!
//! * no shrinking — a failing case reports its case number and message only;
//! * generation is a plain deterministic RNG seeded from the test's full
//!   path, so every run explores the same inputs (failures are reproducible
//!   without a persistence file).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// A `prop_assert*` failed; the property is false.
    Fail(String),
    /// A `prop_assume!` filtered the input; the case does not count.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// An input rejection with the given message.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Deterministic case generator, seeded from the test path.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds from `name` (FNV-1a over the bytes), so each test gets its own
    /// reproducible stream.
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(StdRng::seed_from_u64(hash))
    }
}

impl RngCore for TestRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn pick(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn pick(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.pick(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn pick(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// Full-domain strategy for `T` (`any::<T>()`).
pub fn any<T: ArbitraryShim>() -> Any<T> {
    Any(PhantomData)
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Types with a full-domain distribution for [`any`].
pub trait ArbitraryShim {
    /// Draws one value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_via_gen {
    ($($t:ty),* $(,)?) => {$(
        impl ArbitraryShim for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen()
            }
        }
    )*};
}

arbitrary_via_gen!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64, f32);

impl<T: ArbitraryShim> Strategy for Any<T> {
    type Value = T;

    fn pick(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+),)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn pick(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.pick(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A/0, B/1),
    (A/0, B/1, C/2),
    (A/0, B/1, C/2, D/3),
}

/// Collection strategies (`prop::collection::*`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::Range;

    /// `Vec` of `element` values with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.is_empty() {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..len).map(|_| self.element.pick(rng)).collect()
        }
    }

    /// `HashSet` of `element` values; draws up to the sampled length
    /// (duplicates collapse, as with real proptest before retries).
    pub fn hash_set<S>(element: S, size: Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy { element, size }
    }

    /// The strategy returned by [`hash_set`].
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;

        fn pick(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let want = if self.size.is_empty() {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            let mut set = HashSet::with_capacity(want);
            // Bounded attempts: small element domains may not hold `want`
            // distinct values.
            for _ in 0..want.saturating_mul(4) {
                if set.len() >= want {
                    break;
                }
                set.insert(self.element.pick(rng));
            }
            set
        }
    }
}

/// Sampling strategies (`prop::sample::*`).
pub mod sample {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Uniformly selects one of `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "prop::sample::select: empty options");
        Select(options)
    }

    /// The strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn pick(&self, rng: &mut TestRng) -> T {
            self.0[rng.gen_range(0..self.0.len())].clone()
        }
    }
}

/// Re-exports matching `use proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Runs one property to completion; used by the generated test fns.
///
/// `run_case` returns `Ok` on pass, `Reject` to discard, `Fail` to fail the
/// property. Panics (reporting the case number) on failure or on an
/// excessive rejection rate.
pub fn run_property<F>(name: &str, config: &ProptestConfig, mut run_case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::from_name(name);
    let mut passed: u32 = 0;
    let mut rejected: u64 = 0;
    let max_rejects = (config.cases as u64) * 64 + 1024;
    while passed < config.cases {
        match run_case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!(
                        "proptest {name}: too many rejected inputs \
                         ({rejected} rejects for {passed} passes)"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest {name}: case {} failed: {msg}", passed + 1);
            }
        }
    }
}

/// Declares property tests. Mirrors proptest's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn holds(x in 0u32..10, mut v in prop::collection::vec(any::<i32>(), 0..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @config($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @config($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@config($config:expr)) => {};
    (@config($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($args:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::run_property(
                concat!(module_path!(), "::", stringify!($name)),
                &__config,
                |__rng| {
                    $crate::__proptest_bind!(__rng; $($args)*,);
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_impl! { @config($config) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; ,) => {};
    ($rng:ident; mut $name:ident in $strat:expr, $($rest:tt)*) => {
        #[allow(unused_mut)]
        let mut $name = $crate::Strategy::pick(&($strat), $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::pick(&($strat), $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                concat!("assertion failed: ", stringify!($cond), ": {}"),
                format!($($fmt)+),
            )));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                __l, __r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`: {}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), __l, __r,
            )));
        }
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: {:?}",
                __l,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left != right`: {}\n  both: {:?}",
                format!($($fmt)+), __l,
            )));
        }
    }};
}

/// Discards the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ranges stay within bounds and tuples compose.
        #[test]
        fn ranges_and_tuples(pair in (0u8..4, 0u32..96), x in 1u32..10) {
            prop_assert!(pair.0 < 4);
            prop_assert!(pair.1 < 96);
            prop_assert!((1..10).contains(&x));
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(-50i32..50, 0..20),
            s in prop::collection::hash_set(0u32..128, 0..40),
            choice in prop::sample::select(vec![1usize, 2, 5]),
        ) {
            prop_assert!(v.len() < 20);
            prop_assert!(v.iter().all(|x| (-50..50).contains(x)));
            prop_assert!(s.len() < 40);
            prop_assert!([1usize, 2, 5].contains(&choice));
        }

        #[test]
        fn map_and_mut_bindings(
            mut v in prop::collection::vec(any::<i32>(), 0..7)
                .prop_map(|mut v| { v.resize(v.len().next_power_of_two().max(1), 0); v }),
        ) {
            prop_assert!(v.len().is_power_of_two());
            v.sort();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        fn assume_discards(x in any::<u32>()) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
            prop_assert_ne!(x % 2, 1);
        }
    }

    #[test]
    fn deterministic_per_name() {
        use crate::{Strategy, TestRng};
        let mut a = TestRng::from_name("x::y");
        let mut b = TestRng::from_name("x::y");
        let strat = 0u64..1_000_000;
        for _ in 0..32 {
            assert_eq!(strat.pick(&mut a), strat.pick(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "case 1 failed")]
    fn failing_property_panics() {
        crate::run_property("fails", &crate::ProptestConfig::with_cases(4), |_rng| {
            Err(crate::TestCaseError::fail("nope"))
        });
    }
}
