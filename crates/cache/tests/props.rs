//! Property tests for cache policies.

use dhub_cache::{CachePolicy, Fifo, GreedyDualSizeFrequency, Lfu, Lru};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..50, 1u64..300), 0..400)
}

fn check(mut c: impl CachePolicy, trace: &[(u64, u64)]) -> Result<(), TestCaseError> {
    for &(k, s) in trace {
        let _ = c.request(k, s);
        prop_assert!(c.used_bytes() <= c.capacity(), "over budget");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No policy ever exceeds its byte budget, whatever the trace.
    #[test]
    fn budgets_hold(trace in arb_trace(), cap in 1u64..2000) {
        check(Lru::new(cap), &trace)?;
        check(Lfu::new(cap), &trace)?;
        check(Fifo::new(cap), &trace)?;
        check(GreedyDualSizeFrequency::new(cap), &trace)?;
    }

    /// Re-requesting a just-admitted object (that fits) is always a hit.
    #[test]
    fn immediate_rerequest_hits(key in 0u64..100, size in 1u64..100) {
        let mut c = Lru::new(1000);
        prop_assert!(!c.request(key, size));
        prop_assert!(c.request(key, size));
    }

    /// LRU inclusion (stack property): with *uniform* object sizes a larger
    /// LRU cache never yields fewer hits. (With variable sizes the property
    /// genuinely does not hold for byte-budgeted caches — admission of a
    /// large object in the big cache can evict several small hot ones.)
    #[test]
    fn lru_monotone_in_capacity(keys in proptest::collection::vec(0u64..50, 0..400),
                                size in 1u64..50, slots in 2u64..20) {
        let mut small = Lru::new(size * slots);
        let mut big = Lru::new(size * slots * 2);
        let mut hs = 0u32;
        let mut hb = 0u32;
        for &k in &keys {
            if small.request(k, size) { hs += 1; }
            if big.request(k, size) { hb += 1; }
        }
        prop_assert!(hb >= hs, "big {hb} < small {hs}");
    }
}

/// Replays `trace` through `request_evict` against a shadow resident-set
/// model. These are the *same policy objects* `dhub-mirror`'s `LiveCache`
/// wraps for concurrent serving, so every property here is a property of
/// the live mirror cache too: the byte budget holds after every step, an
/// eviction pass never names the key being admitted, every victim was
/// resident, and the policy's bookkeeping (len / used_bytes) matches the
/// model exactly.
fn check_evict_model(mut c: impl CachePolicy, trace: &[(u64, u64)]) -> Result<(), TestCaseError> {
    use std::collections::BTreeMap;
    // key → size at admission (hits never resize; see policy.rs).
    let mut resident: BTreeMap<u64, u64> = BTreeMap::new();
    for &(k, s) in trace {
        let mut evicted = Vec::new();
        let hit = c.request_evict(k, s, &mut evicted);
        prop_assert_eq!(hit, resident.contains_key(&k), "hit/miss disagrees with model");
        prop_assert!(!evicted.contains(&k), "policy evicted the key it just admitted");
        if hit {
            prop_assert!(evicted.is_empty(), "a hit must not evict");
        }
        for v in &evicted {
            prop_assert!(resident.remove(v).is_some(), "victim {} was not resident", v);
        }
        if !hit && s <= c.capacity() {
            resident.insert(k, s);
        }
        prop_assert_eq!(c.len(), resident.len());
        prop_assert_eq!(c.used_bytes(), resident.values().sum::<u64>());
        prop_assert!(c.used_bytes() <= c.capacity(), "over budget");
    }
    Ok(())
}

/// Every request is exactly one hit or one miss: `CacheStats` partitions
/// the trace, so hits plus (requests − hits) misses equals its length.
fn check_stats(mut p: impl CachePolicy, trace: &dhub_cache::PullTrace) -> Result<(), TestCaseError> {
    let stats = dhub_cache::simulate(&mut p, trace);
    prop_assert_eq!(stats.requests, trace.requests.len() as u64);
    prop_assert!(stats.hits <= stats.requests);
    let misses = stats.requests - stats.hits;
    prop_assert_eq!(stats.hits + misses, trace.requests.len() as u64);
    prop_assert_eq!(stats.byte_total, trace.total_bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `request_evict` victim reporting is model-consistent for all four
    /// policies (the live mirror cache relies on this to keep its byte
    /// store in lockstep with the policy).
    #[test]
    fn evict_reporting_matches_model(trace in arb_trace(), cap in 1u64..2000) {
        check_evict_model(Lru::new(cap), &trace)?;
        check_evict_model(Lfu::new(cap), &trace)?;
        check_evict_model(Fifo::new(cap), &trace)?;
        check_evict_model(GreedyDualSizeFrequency::new(cap), &trace)?;
    }

    /// Simulation accounting: every request is exactly one hit or one
    /// miss — `CacheStats` hits plus misses equals the trace length, for
    /// every policy and any trace.
    #[test]
    fn stats_partition_the_trace(requests in arb_trace(), cap in 1u64..2000) {
        use dhub_cache::PullTrace;
        let total_bytes = requests.iter().map(|&(_, s)| s).sum();
        let trace = PullTrace { requests, total_bytes };
        check_stats(Lru::new(cap), &trace)?;
        check_stats(Lfu::new(cap), &trace)?;
        check_stats(Fifo::new(cap), &trace)?;
        check_stats(GreedyDualSizeFrequency::new(cap), &trace)?;
    }
}
