//! Minimal in-repo property-testing engine, API-compatible with the subset
//! of `proptest` v1 this workspace uses.
//!
//! The CI environment resolves dependencies with no network and no
//! registry cache, so the real `proptest` cannot even be *resolved*, let
//! alone downloaded — any crates-io entry (optional or not) fails the
//! build. This crate is a path dependency that implements the pieces our
//! `tests/props.rs` suites actually call:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! * [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assert_ne!`]/
//!   [`prop_assume!`]/[`prop_oneof!`],
//! * [`Strategy`] with `prop_map`/`prop_recursive`/`boxed`,
//! * [`any`] for primitives and byte arrays, integer/float ranges,
//! * [`collection::vec`], tuples up to arity 5, [`Just`],
//! * string strategies from a character-class regex subset
//!   (`"[a-z0-9._-]{1,12}"`, groups with repetition, `\PC`).
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its seed and the generated
//!   inputs; re-run with `PROPTEST_SEED=<seed>` to reproduce exactly: that
//!   seed is the run's base, so it runs as case 0, and the property's other
//!   cases follow from it.
//! * **Deterministic by default.** Case seeds derive from the test name,
//!   so CI runs are reproducible without a seed file. The committed
//!   `.proptest-regressions` files are kept for the day the real engine is
//!   swapped back in (the API surface is unchanged), but are not read.
//! * Generation is size-uniform rather than size-ramped.

mod regex;
mod rng;
mod strategy;

pub use rng::TestRng;
pub use strategy::{
    any, collection, BoxedStrategy, Just, Strategy, StringStrategy, Union,
};

/// Items `use proptest::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig, TestCaseError,
    };
}

/// Per-suite configuration (`#![proptest_config(..)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of passing cases required per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The case's inputs were rejected (`prop_assume!` failed); it does not
    /// count toward the case budget.
    Reject(String),
    /// The property itself failed.
    Fail(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

/// FxHash-style string mixer for deriving per-test base seeds.
fn mix_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs the case loop for one property. Not part of the public proptest
/// API; invoked by the [`proptest!`] expansion.
#[doc(hidden)]
pub fn run_cases<F>(config: &ProptestConfig, test_name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    // An explicit seed is the run's base: attempt 0 is that seed.
    let base = match std::env::var("PROPTEST_SEED") {
        Ok(s) => parse_seed(&s),
        Err(_) => mix_str(test_name),
    };

    let mut passed = 0u32;
    let mut attempt = 0u64;
    let mut rejects = 0u32;
    while passed < config.cases {
        let seed = base ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        attempt += 1;
        let mut rng = TestRng::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        match outcome {
            Ok(Ok(())) => passed += 1,
            Ok(Err(TestCaseError::Reject(_))) => {
                rejects += 1;
                if rejects > config.cases.saturating_mul(20).max(1000) {
                    panic!(
                        "[{test_name}] too many rejected inputs ({rejects}); \
                         loosen the prop_assume! or the strategies"
                    );
                }
            }
            Ok(Err(TestCaseError::Fail(msg))) => {
                panic!(
                    "[{test_name}] case {passed} failed (reproduce with \
                     PROPTEST_SEED={seed:#018x}): {msg}"
                );
            }
            Err(payload) => {
                eprintln!(
                    "[{test_name}] case {passed} panicked; reproduce with \
                     PROPTEST_SEED={seed:#018x}"
                );
                std::panic::resume_unwind(payload);
            }
        }
    }
}

fn parse_seed(s: &str) -> u64 {
    let t = s.trim();
    let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("PROPTEST_SEED must be a u64 (got {s:?})"))
}

/// Defines property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn roundtrip(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
///         prop_assert_eq!(decode(&encode(&data)).unwrap(), data);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($params:tt)* ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(&__config, concat!(module_path!(), "::", stringify!($name)),
                |__rng: &mut $crate::TestRng| {
                    $crate::__bind_params!(__rng, $($params)*);
                    $body
                    Ok(())
                });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __bind_params {
    ($rng:ident $(,)?) => {};
    ($rng:ident, mut $name:ident in $strat:expr $(, $($rest:tt)*)?) => {
        let mut $name = $crate::Strategy::generate(&$strat, $rng);
        $crate::__bind_params!($rng $(, $($rest)*)?);
    };
    ($rng:ident, $name:ident in $strat:expr $(, $($rest:tt)*)?) => {
        let $name = $crate::Strategy::generate(&$strat, $rng);
        $crate::__bind_params!($rng $(, $($rest)*)?);
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond))));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r)));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r)));
        }
    }};
}

/// Fails the current case if both sides are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left), stringify!($right), l)));
        }
    }};
}

/// Rejects the current case (without failing) unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Picks among strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}
