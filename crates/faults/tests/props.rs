//! Property tests for the fault plan and retry policy.
//!
//! `dhub-faults` carries the in-repo proptest engine as a regular
//! dependency (the fault stream *is* a seeded RNG), so these properties run
//! unconditionally. Failures print a `PROPTEST_SEED` that replays the exact
//! counter-example.

use dhub_faults::{
    FaultConfig, FaultKind, FaultOp, FaultPlan, RetryClass, RetryEvent, RetryPolicy,
    ALL_FAULT_KINDS, ALL_FAULT_OPS,
};
use dhub_sync::DelayBackoff;
use proptest::prelude::*;
use std::time::Duration;

fn policy(seed: u64, retries: u32, jitter: f64) -> RetryPolicy {
    RetryPolicy::new(retries).with_seed(seed).with_jitter(jitter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The realized schedule is monotone non-decreasing and never exceeds
    /// the cap, whatever the seed, key, jitter, or length.
    #[test]
    fn schedule_monotone_and_capped(seed in 0u64..u64::MAX, key in 0u64..u64::MAX,
                                    retries in 0u32..24, jitter in 0.0f64..0.5) {
        let p = policy(seed, retries, jitter);
        let s = p.schedule(key);
        prop_assert_eq!(s.len(), retries as usize);
        for w in s.windows(2) {
            prop_assert!(w[0] <= w[1], "schedule not monotone: {:?}", s);
        }
        for d in &s {
            prop_assert!(*d <= p.cap, "delay {:?} above cap {:?}", d, p.cap);
        }
    }

    /// Every raw (unclamped) delay lies inside its jitter band:
    /// `[raw * (1 - jitter), raw]`.
    #[test]
    fn jitter_stays_in_bounds(seed in 0u64..u64::MAX, key in 0u64..u64::MAX,
                              attempt in 0u32..16, jitter in 0.0f64..0.5) {
        let p = policy(seed, 16, jitter);
        let raw = DelayBackoff::new(p.base, p.cap).delay(attempt);
        let d = p.delay(key, attempt);
        prop_assert!(d <= raw, "jitter must only shrink: {:?} > {:?}", d, raw);
        // One nanosecond of slack for the f64 round-trip.
        let floor = Duration::from_nanos(
            (raw.as_nanos() as f64 * (1.0 - jitter)) as u64).saturating_sub(Duration::from_nanos(1));
        prop_assert!(d >= floor, "delay {:?} below jitter floor {:?}", d, floor);
    }

    /// Same (seed, key) → byte-identical schedule; a different seed is
    /// allowed to differ (and with jitter on, usually does).
    #[test]
    fn schedule_is_a_pure_function_of_seed_and_key(seed in 0u64..u64::MAX,
                                                   key in 0u64..u64::MAX,
                                                   jitter in 0.0f64..0.5) {
        let a = policy(seed, 12, jitter).schedule(key);
        let b = policy(seed, 12, jitter).schedule(key);
        prop_assert_eq!(a, b, "replay with the same seed diverged");
    }

    /// The retry loop: an op whose first `n` attempts fail retryably and
    /// whose next one succeeds — or fails terminally — runs
    /// `min(n, max_retries) + 1` times, sleeps exactly that prefix of
    /// `schedule(key)`, and reports one give-up iff the budget ran out; a
    /// terminal error costs no sleep and no give-up, whatever budget is left.
    #[test]
    fn run_follows_the_schedule(seed in 0u64..u64::MAX, key in 0u64..u64::MAX,
                                retries in 0u32..6, n in 0u32..10, terminal in any::<bool>()) {
        const TERMINAL: u32 = u32::MAX;
        let p = RetryPolicy::fast(retries).with_seed(seed);
        let (mut calls, mut slept, mut gave_up) = (0u32, Vec::new(), 0u32);
        let out = p.run(
            key,
            || {
                calls += 1;
                if calls <= n { Err(calls) } else if terminal { Err(TERMINAL) } else { Ok(()) }
            },
            |&e| if e == TERMINAL { RetryClass::Terminal } else { RetryClass::Retryable },
            |_, event| match event {
                RetryEvent::Retry(d) => slept.push(d),
                RetryEvent::GaveUp => gave_up += 1,
            },
        );
        let retried = n.min(retries);
        prop_assert_eq!(calls, retried + 1);
        prop_assert_eq!(&slept[..], &p.schedule(key)[..retried as usize]);
        prop_assert_eq!(gave_up, u32::from(n > retries));
        let want = if n > retries { Err(retries + 1) } else if terminal { Err(TERMINAL) } else { Ok(()) };
        prop_assert_eq!(out, want);
    }

    /// The fault decision is pure: identical (seed, op, key, attempt)
    /// inputs answer identically, call after call, plan after plan.
    #[test]
    fn fault_decision_is_pure(seed in 0u64..u64::MAX, key in 0u64..u64::MAX,
                              attempt in 0u32..8, rate in 0.0f64..1.0) {
        let a = FaultPlan::new(FaultConfig::uniform(seed, rate));
        let b = FaultPlan::new(FaultConfig::uniform(seed, rate));
        for &op in &ALL_FAULT_OPS {
            prop_assert_eq!(
                a.decide(op, key, attempt, &ALL_FAULT_KINDS),
                b.decide(op, key, attempt, &ALL_FAULT_KINDS)
            );
        }
    }

    /// Over many independent keys the injected fraction converges to the
    /// configured rate (law of large numbers; 4-sigma tolerance so a pinned
    /// seed never flakes).
    #[test]
    fn fault_counts_converge_to_rate(seed in 0u64..u64::MAX, rate in 0.05f64..0.95) {
        let plan = FaultPlan::new(FaultConfig::uniform(seed, rate));
        let trials = 2000u64;
        let fired = (0..trials)
            .filter(|k| plan.decide(FaultOp::Blob, *k, 0, &ALL_FAULT_KINDS).is_some())
            .count() as f64;
        let expect = rate * trials as f64;
        let sigma = (trials as f64 * rate * (1.0 - rate)).sqrt();
        prop_assert!(
            (fired - expect).abs() <= 4.0 * sigma + 1.0,
            "fired {} of {}, expected {:.0} ± {:.0}", fired, trials, expect, 4.0 * sigma
        );
    }

    /// A zero rate never faults; a rate of one always faults (when any
    /// kind is allowed).
    #[test]
    fn rate_endpoints_are_exact(seed in 0u64..u64::MAX, key in 0u64..u64::MAX) {
        let never = FaultPlan::new(FaultConfig::uniform(seed, 0.0));
        let always = FaultPlan::new(FaultConfig::uniform(seed, 1.0));
        for &op in &ALL_FAULT_OPS {
            prop_assert!(never.decide(op, key, 0, &ALL_FAULT_KINDS).is_none());
            prop_assert!(always.decide(op, key, 0, &ALL_FAULT_KINDS).is_some());
        }
    }

    /// The weighted pick honors the `allowed` set: a kind the injection
    /// site cannot express is never chosen, and zero-weight kinds never
    /// fire even when allowed.
    #[test]
    fn picks_respect_allowed_and_weights(seed in 0u64..u64::MAX, key in 0u64..500) {
        let plan = FaultPlan::new(FaultConfig::uniform(seed, 1.0));
        let allowed = [FaultKind::Drop, FaultKind::RateLimit];
        let got = plan.decide(FaultOp::Manifest, key, 0, &allowed).unwrap();
        prop_assert!(allowed.contains(&got), "picked disallowed kind {:?}", got);

        let drop_only = FaultPlan::new(
            FaultConfig::uniform(seed, 1.0).with_weight(FaultKind::RateLimit, 0));
        let got = drop_only.decide(FaultOp::Manifest, key, 0, &allowed).unwrap();
        prop_assert_eq!(got, FaultKind::Drop, "zero-weight kind fired");
    }
}
