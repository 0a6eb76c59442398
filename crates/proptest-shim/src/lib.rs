//! # proptest (shim) — offline property-testing
//!
//! The container this workspace builds in has no access to crates.io, so the
//! real `proptest` crate cannot be used. This shim implements the subset of
//! its API that the workspace's property tests rely on — deterministic
//! seeded generation, `proptest!`/`prop_assert*!`/`prop_oneof!`, integer and
//! range strategies, `collection::vec`, `sample::select`, simple
//! `[a-z]{m,n}`-style string patterns, `Just`, and `prop_map` — with plain
//! panics instead of shrinking.
//!
//! Generation is fully deterministic: every test function derives its RNG
//! seed from its own name, so failures reproduce exactly. Set
//! `PROPTEST_CASES` to change the per-test case count (default 96).

pub mod test_runner {
    /// Deterministic xorshift* RNG used for all generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds deterministically from a test name.
        pub fn from_name(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng {
                state: h | 1, // never zero
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform value in `[lo, hi)` (empty ranges return `lo`).
        pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
            if hi <= lo {
                return lo;
            }
            lo + self.next_u64() % (hi - lo)
        }
    }

    /// Number of cases per property (the `PROPTEST_CASES` env var, or 96).
    pub fn case_count() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|v| *v > 0)
            .unwrap_or(96)
    }

    /// Per-block configuration, the `proptest_config` subset. A block
    /// opening with `#![proptest_config(ProptestConfig::with_cases(n))]`
    /// runs exactly `n` cases — an explicit count wins over the
    /// `PROPTEST_CASES` env var, so expensive properties (whole-kernel
    /// boots per case) stay cheap even when CI cranks the global knob.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Cases to run per property in the block.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running exactly `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A value generator. The shimmed equivalent of `proptest::Strategy`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 != 0
        }
    }

    /// Strategy for any value of `T` (see [`crate::prelude::any`]).
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.below(self.start as u64, self.end as u64) as $t
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! srange_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                    (self.start as i64).wrapping_add(rng.below(0, span) as i64) as $t
                }
            }
        )*};
    }
    srange_strategy!(i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);

    /// String pattern strategy: supports `[c1-c2c3...]{m,n}` char-class
    /// patterns (e.g. `"[a-z]{1,6}"`); any other string is taken literally.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            sample_pattern(self, rng)
        }
    }

    fn sample_pattern(pat: &str, rng: &mut TestRng) -> String {
        let bytes = pat.as_bytes();
        if bytes.first() != Some(&b'[') {
            return pat.to_string();
        }
        let Some(close) = pat.find(']') else {
            return pat.to_string();
        };
        // Expand the class into candidate chars.
        let class: Vec<char> = {
            let inner: Vec<char> = pat[1..close].chars().collect();
            let mut out = Vec::new();
            let mut i = 0;
            while i < inner.len() {
                if i + 2 < inner.len() && inner[i + 1] == '-' {
                    let (lo, hi) = (inner[i] as u32, inner[i + 2] as u32);
                    for c in lo..=hi {
                        if let Some(c) = char::from_u32(c) {
                            out.push(c);
                        }
                    }
                    i += 3;
                } else {
                    out.push(inner[i]);
                    i += 1;
                }
            }
            out
        };
        if class.is_empty() {
            return String::new();
        }
        // Parse the {m,n} / {m} repetition (default exactly one).
        let rest = &pat[close + 1..];
        let (lo, hi) = if rest.starts_with('{') && rest.ends_with('}') {
            let body = &rest[1..rest.len() - 1];
            match body.split_once(',') {
                Some((a, b)) => (
                    a.trim().parse().unwrap_or(1),
                    b.trim().parse().unwrap_or(1),
                ),
                None => {
                    let n = body.trim().parse().unwrap_or(1);
                    (n, n)
                }
            }
        } else {
            (1usize, 1usize)
        };
        let n = rng.below(lo as u64, hi as u64 + 1) as usize;
        (0..n)
            .map(|_| class[rng.below(0, class.len() as u64) as usize])
            .collect()
    }

    /// A boxed sampler closure, as produced by [`boxed_sampler`].
    pub type Sampler<V> = Box<dyn Fn(&mut TestRng) -> V>;

    /// Weighted-equal choice between boxed strategies (`prop_oneof!`).
    pub struct OneOf<V> {
        arms: Vec<Sampler<V>>,
    }

    impl<V> OneOf<V> {
        /// Builds from sampler closures (used by the `prop_oneof!` macro).
        pub fn new(arms: Vec<Sampler<V>>) -> OneOf<V> {
            OneOf { arms }
        }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let i = rng.below(0, self.arms.len() as u64) as usize;
            (self.arms[i])(rng)
        }
    }

    /// Boxes a strategy into a sampler closure (used by `prop_oneof!`; a
    /// plain generic fn so the arm type is inferred without casts).
    pub fn boxed_sampler<S>(s: S) -> Sampler<S::Value>
    where
        S: Strategy + 'static,
    {
        Box::new(move |rng| s.sample(rng))
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Element-count range for [`vec`](fn@vec).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start + 1),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
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

    /// Output of [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.below(self.size.lo as u64, self.size.hi as u64) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniformly selects one of the given values.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        Select { options }
    }

    /// Output of [`select`].
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(0, self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{Arbitrary, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    use std::marker::PhantomData;

    /// The canonical strategy for any `T`.
    pub fn any<T: Arbitrary>() -> crate::strategy::Any<T> {
        crate::strategy::Any(PhantomData)
    }
}

/// Defines deterministic property tests:
///
/// ```ignore
/// proptest! {
///     #[test]
///     fn holds(x in 0u64..10, ys in proptest::collection::vec(any::<u8>(), 0..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = u64::from(($cfg).cases);
                let mut rng = $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
    ($( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::test_runner::case_count();
                let mut rng = $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::boxed_sampler($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism() {
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::from_name("bounds");
        for _ in 0..1000 {
            let v = Strategy::sample(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let s = Strategy::sample(&(-5i32..5), &mut rng);
            assert!((-5..5).contains(&s));
        }
    }

    #[test]
    fn pattern_strings() {
        let mut rng = crate::test_runner::TestRng::from_name("pat");
        for _ in 0..200 {
            let s = Strategy::sample(&"[a-z]{1,6}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 6);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    proptest! {
        /// The macro itself compiles and runs.
        #[test]
        fn macro_smoke(x in 0u64..100, v in crate::collection::vec(any::<u8>(), 0..8)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 8);
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![Just(1u64), Just(2u64), (10u64..20).prop_map(|x| x * 2)]) {
            prop_assert!(v == 1 || v == 2 || (20..40).contains(&v));
        }
    }
}
