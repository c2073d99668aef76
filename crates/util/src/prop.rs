//! In-repo property-based testing: strategies, a deterministic runner
//! and greedy input shrinking.
//!
//! A drop-in stand-in for the subset of `proptest` the workspace used:
//! random inputs are drawn from composable [`Strategy`] values, each
//! property runs for a configurable number of cases, and a falsified
//! case is shrunk to a (locally) minimal counterexample before the test
//! panics with the case seed needed to replay it.
//!
//! Determinism: the base seed defaults to a fixed constant so CI runs
//! are reproducible; override with `SCUE_PROP_SEED` to explore, or
//! `SCUE_PROP_CASES` to change the case count globally. A reported
//! failing case can be replayed alone via `SCUE_PROP_CASE_SEED`.
//!
//! ```
//! use scue_util::prop::{self, prelude::*};
//!
//! let config = prop::ProptestConfig::with_cases(64);
//! prop::run(&config, "addition_commutes", &(0u64..1000, 0u64..1000), |(a, b)| {
//!     prop_assert_eq!(a + b, b + a);
//!     Ok(())
//! });
//! ```
//!
//! Test files use the [`proptest!`](crate::proptest) macro, which keeps
//! the familiar `fn name(x in strategy, ...)` surface. Never-panic
//! properties over decoders damage a valid encoding with
//! [`mutate_bytes`].

use crate::rng::{Rng, SplitMix64};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ----------------------------------------------------------------------
// Strategy
// ----------------------------------------------------------------------

/// A generator of random test inputs plus a shrinker for failing ones.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value: Clone + Debug;

    /// Draws one random value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Proposes strictly "smaller" candidates for a failing `value`,
    /// most aggressive first. An empty vec means fully shrunk.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

/// Integer shrink candidates: jump to the minimum, then bisect toward
/// it, then step down by one. Greedy re-application converges on the
/// smallest failing value.
macro_rules! int_shrink {
    ($lo:expr, $v:expr, $t:ty) => {{
        let lo: $t = $lo;
        let v: $t = $v;
        let mut out: Vec<$t> = Vec::new();
        if v > lo {
            out.push(lo);
            let mid = lo + (v - lo) / 2;
            if mid != lo && mid != v {
                out.push(mid);
            }
            if v - 1 != lo && (v - 1) != mid {
                out.push(v - 1);
            }
        }
        out
    }};
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                int_shrink!(self.start, *value, $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                int_shrink!(*self.start(), *value, $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

// ----------------------------------------------------------------------
// any
// ----------------------------------------------------------------------

/// Strategy over the full domain of `T`; see [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(PhantomData<T>);

/// The full-domain strategy for primitive `T` (`any::<u8>()`, ...).
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(PhantomData)
}

macro_rules! impl_any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                int_shrink!(0, *value, $t)
            }
        }
    )*};
}

impl_any_uint!(u8, u16, u32, u64, usize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.gen_bool(0.5)
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

// ----------------------------------------------------------------------
// Tuples
// ----------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = candidate;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

// ----------------------------------------------------------------------
// Collections
// ----------------------------------------------------------------------

/// Vec strategies (`collection::vec`).
pub mod collection {
    use super::*;

    /// Element-count bounds for [`vec`]: an exact `usize` or a
    /// half-open/inclusive `usize` range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            Self {
                min: exact,
                max_inclusive: exact,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of another strategy's values.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut Rng) -> Self::Value {
            let len = rng.gen_range(self.size.min..=self.size.max_inclusive);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }

        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            let mut out = Vec::new();
            // Structural shrinks first: halves, then single removals.
            if value.len() > self.size.min {
                let half = value.len() / 2;
                if half >= self.size.min && half < value.len() {
                    out.push(value[..half].to_vec());
                    out.push(value[value.len() - half..].to_vec());
                }
                if value.len() - 1 >= self.size.min {
                    for i in 0..value.len() {
                        let mut shorter = value.clone();
                        shorter.remove(i);
                        out.push(shorter);
                    }
                }
            }
            // Then element-wise shrinks at constant length.
            for i in 0..value.len() {
                for candidate in self.elem.shrink(&value[i]) {
                    let mut next = value.clone();
                    next[i] = candidate;
                    out.push(next);
                }
            }
            out
        }
    }
}

/// Option strategies (`option::of`).
pub mod option {
    use super::*;

    /// Strategy producing `Option<S::Value>`, `None` half the time.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// `Option<S::Value>` — `None` with probability 1/2.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut Rng) -> Self::Value {
            if rng.gen_bool(0.5) {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }

        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            match value {
                None => Vec::new(),
                Some(inner) => std::iter::once(None)
                    .chain(self.0.shrink(inner).into_iter().map(Some))
                    .collect(),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Byte mutations
// ----------------------------------------------------------------------

/// Applies one seeded byte mutation `(kind, a, b)` to an encoding:
///
/// * `0` flips bit `b % 8` of byte `a`;
/// * `1` truncates at `a`;
/// * `2` zeroes `b` bytes from `a`;
/// * `3` duplicates `b` bytes from `a` in place, shifting every later
///   byte.
///
/// `a` is reduced to a position the current length allows and a range
/// stops at the end, so every input is valid; any other kind is a no-op,
/// which leaves higher kinds free for a caller's own format-level
/// mutations. Draw `a` and `b` from ranges bounded by the input size:
/// the integer shrinker converges on small offsets, not on residues.
pub fn mutate_bytes(bytes: &mut Vec<u8>, (kind, a, b): (u8, u64, u64)) {
    let len = bytes.len() as u64;
    let start = (a % (len + 1)) as usize;
    let end = start.saturating_add(b as usize).min(bytes.len());
    match kind {
        0 if len > 0 => bytes[(a % len) as usize] ^= 1 << (b % 8),
        1 => bytes.truncate(start),
        2 => bytes[start..end].fill(0),
        3 => {
            let copy = bytes[start..end].to_vec();
            bytes.splice(start..start, copy);
        }
        _ => {}
    }
}

// ----------------------------------------------------------------------
// Runner
// ----------------------------------------------------------------------

/// Per-property configuration; `ProptestConfig::with_cases(n)` mirrors
/// the proptest spelling the test suites already used.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed; each case derives its own seed from this.
    pub seed: u64,
    /// Cap on property evaluations spent shrinking one failure.
    pub max_shrink_evals: u32,
}

/// Fixed default base seed: hermetic builds must not read the clock.
pub const DEFAULT_SEED: u64 = 0x5C5E_5EED_2023_0001;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()
        } else {
            s.parse().ok()
        }
    })
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: env_u64("SCUE_PROP_CASES").map(|v| v as u32).unwrap_or(128),
            seed: env_u64("SCUE_PROP_SEED").unwrap_or(DEFAULT_SEED),
            max_shrink_evals: 4096,
        }
    }
}

impl ProptestConfig {
    /// Default config with the case count overridden.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases: env_u64("SCUE_PROP_CASES")
                .map(|v| v as u32)
                .unwrap_or(cases),
            ..Self::default()
        }
    }
}

/// A falsified property: the original counterexample, its shrunk form,
/// and the seed that replays it.
#[derive(Debug, Clone)]
pub struct PropFailure<V> {
    /// Seed that regenerates the failing case (`SCUE_PROP_CASE_SEED`).
    pub case_seed: u64,
    /// Index of the failing case within the run.
    pub case_index: u32,
    /// The input as originally generated.
    pub original: V,
    /// The locally minimal failing input after shrinking.
    pub minimal: V,
    /// Number of successful shrink steps applied.
    pub shrink_steps: u32,
    /// The assertion message from the minimal input.
    pub message: String,
}

/// Derives the per-case seed from the base seed and case index.
pub fn case_seed(base: u64, index: u32) -> u64 {
    let mut sm = SplitMix64::new(base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64()
}

/// Result of one greedy shrink run (see [`shrink_failure`]).
#[derive(Debug, Clone)]
pub struct Shrunk<V> {
    /// The locally minimal failing value.
    pub minimal: V,
    /// The failure message produced by the minimal value.
    pub message: String,
    /// Number of successful shrink steps applied.
    pub shrink_steps: u32,
    /// Total property evaluations spent shrinking.
    pub evals: u32,
}

/// Greedily shrinks a known-failing `value`: repeatedly moves to the
/// first shrink candidate that still fails, until no candidate fails or
/// `max_evals` evaluations are spent. This is the engine behind
/// [`run_property`]'s minimisation, exposed so other harnesses (the
/// crash-torture campaign) can minimise their own counterexamples.
pub fn shrink_failure<S, F>(
    strategy: &S,
    value: S::Value,
    first_message: String,
    max_evals: u32,
    test: F,
) -> Shrunk<S::Value>
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    let mut minimal = value;
    let mut message = first_message;
    let mut evals = 0u32;
    let mut shrink_steps = 0u32;
    'shrinking: loop {
        for candidate in strategy.shrink(&minimal) {
            if evals >= max_evals {
                break 'shrinking;
            }
            evals += 1;
            if let Err(m) = test(candidate.clone()) {
                minimal = candidate;
                message = m;
                shrink_steps += 1;
                continue 'shrinking;
            }
        }
        break;
    }
    Shrunk {
        minimal,
        message,
        shrink_steps,
        evals,
    }
}

/// Runs `test` over `config.cases` random inputs; on failure, shrinks
/// greedily and returns the [`PropFailure`] instead of panicking (the
/// panicking wrapper the macro uses is [`run`]).
pub fn run_property<S, F>(
    config: &ProptestConfig,
    strategy: &S,
    test: F,
) -> Result<(), Box<PropFailure<S::Value>>>
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    let replay = env_u64("SCUE_PROP_CASE_SEED");
    let cases = if replay.is_some() { 1 } else { config.cases };
    for index in 0..cases {
        let seed = replay.unwrap_or_else(|| case_seed(config.seed, index));
        let mut rng = Rng::from_seed(seed);
        let input = strategy.generate(&mut rng);
        let Err(first_message) = test(input.clone()) else {
            continue;
        };
        let shrunk = shrink_failure(
            strategy,
            input.clone(),
            first_message,
            config.max_shrink_evals,
            &test,
        );
        return Err(Box::new(PropFailure {
            case_seed: seed,
            case_index: index,
            original: input,
            minimal: shrunk.minimal,
            shrink_steps: shrunk.shrink_steps,
            message: shrunk.message,
        }));
    }
    Ok(())
}

/// Macro entry point: [`run_property`] that panics with a replayable
/// report on falsification.
pub fn run<S, F>(config: &ProptestConfig, name: &str, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    if let Err(failure) = run_property(config, strategy, test) {
        panic!(
            "property `{name}` falsified at case {}/{}\n\
             \x20 failure: {}\n\
             \x20 minimal input (after {} shrink steps): {:?}\n\
             \x20 original input: {:?}\n\
             \x20 replay with: SCUE_PROP_CASE_SEED={:#x} cargo test {name}",
            failure.case_index + 1,
            config.cases,
            failure.message,
            failure.shrink_steps,
            failure.minimal,
            failure.original,
            failure.case_seed,
        );
    }
}

/// Everything a property-test file needs: the config type, `any`, the
/// strategy trait and the assertion/definition macros.
pub mod prelude {
    pub use super::{any, Any, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

// ----------------------------------------------------------------------
// Macros
// ----------------------------------------------------------------------

/// Defines `#[test]` functions over random inputs, proptest-style:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     /// Doc comments are kept.
///     #[test]
///     fn my_property(x in 0u64..100, v in prop::collection::vec(any::<u8>(), 0..20)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        // Internal: `#[test]` is matched as one of the metas and
        // re-emitted with them (a literal `#[test]` after a meta
        // repetition would be ambiguous to the macro engine).
        @config ($config:expr)
        $(
            $(#[$meta:meta])+
            fn $name:ident( $($arg:pat in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config = $config;
                let strategy = ( $($strategy,)+ );
                $crate::prop::run(&config, stringify!($name), &strategy, |($($arg,)+)| {
                    $body
                    Ok(())
                });
            }
        )*
    };
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@config ($config) $($rest)*);
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@config ($crate::prop::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` that fails the current property case instead of panicking,
/// so the harness can shrink the input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` for property bodies; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!(
                "assertion failed: `{:?}` == `{:?}`",
                left, right
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!(
                "assertion failed: `{:?}` == `{:?}`: {}",
                left, right, format!($($fmt)+)
            ));
        }
    }};
}

/// `assert_ne!` for property bodies; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return Err(format!(
                "assertion failed: `{:?}` != `{:?}`",
                left, right
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return Err(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left, right, format!($($fmt)+)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_shrink_reaches_minimum() {
        // Property "v < 37" fails for v >= 37; the minimal failing value
        // in 0..1000 is exactly 37, and greedy bisection must find it.
        let config = ProptestConfig {
            cases: 200,
            seed: 1,
            max_shrink_evals: 4096,
        };
        let failure = run_property(&config, &(0u64..1000,), |(v,)| {
            if v < 37 {
                Ok(())
            } else {
                Err(format!("{v} too big"))
            }
        })
        .expect_err("property must be falsified");
        assert_eq!(failure.minimal, (37,));
        assert!(failure.shrink_steps > 0 || failure.original == (37,));
    }

    #[test]
    fn vec_shrink_reaches_minimal_witness() {
        // Failing iff the vec contains an element >= 10: minimal
        // counterexample is the single-element vec [10].
        let config = ProptestConfig {
            cases: 200,
            seed: 2,
            max_shrink_evals: 8192,
        };
        let strategy = (collection::vec(0u64..1000, 0..30),);
        let failure = run_property(&config, &strategy, |(v,)| {
            if v.iter().any(|&x| x >= 10) {
                Err("contains big element".into())
            } else {
                Ok(())
            }
        })
        .expect_err("property must be falsified");
        assert_eq!(failure.minimal, (vec![10],));
    }

    #[test]
    fn tuple_shrink_minimises_both_components() {
        let config = ProptestConfig {
            cases: 300,
            seed: 3,
            max_shrink_evals: 4096,
        };
        let failure = run_property(&config, &(0u64..100, 0u64..100), |(a, b)| {
            if a >= 5 && b >= 7 {
                Err("both above threshold".into())
            } else {
                Ok(())
            }
        })
        .expect_err("property must be falsified");
        assert_eq!(failure.minimal, (5, 7));
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let config = ProptestConfig {
            cases: 50,
            seed: 4,
            max_shrink_evals: 16,
        };
        let runs = std::cell::RefCell::new(0u32);
        run_property(&config, &(any::<u64>(),), |_| {
            *runs.borrow_mut() += 1;
            Ok(())
        })
        .expect("property holds");
        assert_eq!(*runs.borrow(), 50);
    }

    #[test]
    fn case_seeds_are_distinct_and_deterministic() {
        let a: Vec<u64> = (0..16).map(|i| case_seed(9, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| case_seed(9, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "case seeds collided");
    }

    #[test]
    fn shrink_failure_minimises_standalone_counterexamples() {
        // Same "v < 37" property, but starting from a known-failing
        // value instead of a generated one.
        let shrunk = shrink_failure(&(0u64..1000), 912, "912 too big".into(), 4096, |v| {
            if v < 37 {
                Ok(())
            } else {
                Err(format!("{v} too big"))
            }
        });
        assert_eq!(shrunk.minimal, 37);
        assert!(shrunk.shrink_steps > 0);
        assert!(shrunk.evals >= shrunk.shrink_steps);
        assert_eq!(shrunk.message, "37 too big");
    }

    #[test]
    fn mutate_bytes_applies_each_kind_and_tolerates_any_input() {
        let base: Vec<u8> = (1..=8).collect();
        let apply = |m| {
            let mut bytes = base.clone();
            mutate_bytes(&mut bytes, m);
            bytes
        };
        assert_eq!(
            apply((0, 10, 9)),
            [1, 2, 1, 4, 5, 6, 7, 8],
            "bit 1 of byte 2"
        );
        assert_eq!(apply((1, 3, 0)), [1, 2, 3]);
        assert_eq!(apply((2, 6, 5)), [1, 2, 3, 4, 5, 6, 0, 0]);
        assert_eq!(apply((3, 1, 2)), [1, 2, 3, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(apply((4, 1, 2)), base, "higher kinds are the caller's");
        for kind in 0..4 {
            let mut empty = Vec::new();
            mutate_bytes(&mut empty, (kind, u64::MAX, u64::MAX));
            assert!(empty.is_empty());
            mutate_bytes(&mut apply((kind, 0, 0)), (kind, u64::MAX, u64::MAX));
        }
    }

    #[test]
    fn option_strategy_generates_both_arms() {
        let s = option::of(0u64..10);
        let mut rng = Rng::from_seed(1);
        let vals: Vec<_> = (0..100).map(|_| s.generate(&mut rng)).collect();
        assert!(vals.iter().any(|v| v.is_some()));
        assert!(vals.iter().any(|v| v.is_none()));
        assert!(s.shrink(&Some(5)).contains(&None));
    }
}
