//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! Same surface, simpler machinery: strategies generate values from a
//! seeded PRNG and failing cases report the case number and seed, but there
//! is no shrinking. Supported: range and tuple strategies, `any::<T>()`,
//! `Just`, regex-literal string strategies over `[class]{m,n}` atoms,
//! `prop_map` / `prop_flat_map` / `prop_filter` / `prop_filter_map`,
//! `proptest::collection::vec`, the `proptest!` macro with
//! `#![proptest_config(...)]`, and `prop_assert*!` / `prop_assume!`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Failure channel of a test case body.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the message explains it.
    Fail(String),
    /// `prop_assume!` rejected the generated input; try another.
    Reject,
}

impl From<String> for TestCaseError {
    fn from(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// Runner configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of values of type `Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut StdRng) -> Option<Self::Value>;

    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            whence,
            f,
        }
    }

    fn prop_filter_map<U, F: Fn(Self::Value) -> Option<U>>(
        self,
        whence: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            inner: self,
            whence,
            f,
        }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// Boxed, clonable strategy (stand-in for `proptest::strategy::BoxedStrategy`).
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> Option<T> {
        self.0.generate(rng)
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> Option<U> {
        self.inner.generate(rng).map(&self.f)
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> Option<S2::Value> {
        (self.f)(self.inner.generate(rng)?).generate(rng)
    }
}

pub struct Filter<S, F> {
    inner: S,
    #[allow(dead_code)]
    whence: &'static str,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
        self.inner.generate(rng).filter(|v| (self.f)(v))
    }
}

pub struct FilterMap<S, F> {
    inner: S,
    #[allow(dead_code)]
    whence: &'static str,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> Option<U> {
        self.inner.generate(rng).and_then(&self.f)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> Option<T> {
        Some(self.0.clone())
    }
}

// --- primitive strategies ---------------------------------------------------

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> Option<$t> {
                Some(rng.gen_range(self.clone()))
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> Option<$t> {
                Some(rng.gen_range(self.clone()))
            }
        }
    )*};
}

range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategies {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Option<Self::Value> {
                let ($($name,)+) = self;
                Some(($($name.generate(rng)?,)+))
            }
        }
    )*};
}

tuple_strategies! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Types with a canonical "anything" strategy (subset of
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arb_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}

arb_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        rng.gen()
    }
}

pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> Option<T> {
        Some(T::arbitrary(rng))
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// --- regex-literal string strategies ----------------------------------------

/// `&str` literals act as regex-shaped string strategies. The shim supports
/// concatenations of atoms, where an atom is a literal character or a
/// `[...]` character class (ranges and escapes), optionally repeated with
/// `{m,n}`, `{m}`, `*`, `+`, or `?`.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> Option<String> {
        Some(gen_from_pattern(self, rng))
    }
}

fn gen_from_pattern(pattern: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // one atom: a char class or a (possibly escaped) literal
        let atom: Vec<char> = if chars[i] == '[' {
            let mut cls = Vec::new();
            i += 1;
            while i < chars.len() && chars[i] != ']' {
                let c = unescape(&chars, &mut i);
                if i < chars.len() && chars[i] == '-' && i + 1 < chars.len() && chars[i + 1] != ']'
                {
                    i += 1; // consume '-'
                    let hi = unescape(&chars, &mut i);
                    for v in c as u32..=hi as u32 {
                        if let Some(ch) = char::from_u32(v) {
                            cls.push(ch);
                        }
                    }
                } else {
                    cls.push(c);
                }
            }
            i += 1; // consume ']'
            cls
        } else {
            vec![unescape(&chars, &mut i)]
        };
        // optional repetition suffix
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..].iter().position(|&c| c == '}').map(|p| i + p);
            let close = close.expect("unclosed {} in pattern");
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((a, b)) => (
                    a.trim().parse::<usize>().expect("bad repeat lower bound"),
                    b.trim().parse::<usize>().expect("bad repeat upper bound"),
                ),
                None => {
                    let k = body.trim().parse::<usize>().expect("bad repeat count");
                    (k, k)
                }
            }
        } else if i < chars.len() && (chars[i] == '*' || chars[i] == '+' || chars[i] == '?') {
            let suffix = chars[i];
            i += 1;
            match suffix {
                '*' => (0, 8),
                '+' => (1, 8),
                _ => (0, 1),
            }
        } else {
            (1, 1)
        };
        let count = rng.gen_range(lo..=hi);
        for _ in 0..count {
            out.push(atom[rng.gen_range(0..atom.len())]);
        }
    }
    out
}

fn unescape(chars: &[char], i: &mut usize) -> char {
    let c = chars[*i];
    *i += 1;
    if c != '\\' {
        return c;
    }
    let e = chars[*i];
    *i += 1;
    match e {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        other => other,
    }
}

// --- collections ------------------------------------------------------------

pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Sizes accepted by [`vec()`]: a fixed length or a half-open range.
    pub trait SizeRange {
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: Box<dyn SizeRange>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Option<Vec<S::Value>> {
            let n = self.size.pick(rng);
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(self.element.generate(rng)?);
            }
            Some(out)
        }
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange + 'static) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: Box::new(size),
        }
    }
}

// --- runner -----------------------------------------------------------------

/// How many times a strategy is re-sampled when filters reject, before the
/// case (not the test) is abandoned; and how many rejected cases in a row
/// fail the test outright.
const MAX_REJECTS: u32 = 4096;

/// Drive `body` over `config.cases` generated cases. Each case gets a
/// deterministic seed, so failures are reproducible and reported.
pub fn run_cases<F>(config: &ProptestConfig, test_name: &str, body: F)
where
    F: Fn(&mut StdRng) -> Result<(), TestCaseError>,
{
    let mut rejects: u32 = 0;
    let mut case: u64 = 0;
    let mut executed: u32 = 0;
    while executed < config.cases {
        // Stable per-test seeding: same order every run.
        let seed = splitmix(hash_name(test_name) ^ case);
        let mut rng = StdRng::seed_from_u64(seed);
        case += 1;
        match body(&mut rng) {
            Ok(()) => {
                executed += 1;
                rejects = 0;
            }
            Err(TestCaseError::Reject) => {
                rejects += 1;
                if rejects > MAX_REJECTS {
                    panic!(
                        "proptest shim: `{test_name}` rejected {MAX_REJECTS} \
                         inputs in a row (over-constrained prop_assume/filter)"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "proptest shim: `{test_name}` failed at case {case} (seed {seed:#x}):\n{msg}"
                );
            }
        }
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Generate from `strategy`, retrying through filter rejections.
pub fn sample<S: Strategy>(strategy: &S, rng: &mut StdRng) -> Result<S::Value, TestCaseError> {
    for _ in 0..MAX_REJECTS {
        if let Some(v) = strategy.generate(rng) {
            return Ok(v);
        }
    }
    Err(TestCaseError::Reject)
}

// --- macros -----------------------------------------------------------------

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident (
        $( $arg:pat in $strat:expr ),+ $(,)?
    ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(&config, stringify!($name), |__rng| {
                    $( let $arg = $crate::sample(&($strat), __rng)?; )+
                    let __result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    __result
                });
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)*)),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), format!($($fmt)*), a, b
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                a
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(x in 1usize..10, (a, b) in (0.0f64..1.0, 5u64..9)) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&a));
            prop_assert!((5..9).contains(&b));
        }

        #[test]
        fn combinators_compose(v in collection::vec(0i32..100, 1..6)) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|&x| (0..100).contains(&x)));
        }

        #[test]
        fn string_patterns(s in "[a-c]{2,4}", t in "x[0-9]{1}") {
            prop_assert!((2..=4).contains(&s.len()), "len {}", s.len());
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            prop_assert_eq!(t.len(), 2);
            prop_assert!(t.starts_with('x'));
        }

        #[test]
        fn assume_rejects_cleanly(x in 0usize..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn map_filter_flat_map() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = (1usize..5)
            .prop_flat_map(|n| collection::vec(0.0f64..1.0, n))
            .prop_map(|v| v.len())
            .prop_filter("nonempty", |&n| n > 0);
        for _ in 0..100 {
            let n = crate::sample(&s, &mut rng).unwrap();
            assert!((1..5).contains(&n));
        }
    }
}
