//! Cross-primitive tests for the concurrency substrate: the
//! panic-propagation and striping semantics the parallel helpers depend on.

use dhub_sync::{work_crew, Striped};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A panicking crew worker propagates to the caller, after all healthy
/// workers joined.
#[test]
fn work_crew_panic_propagation() {
    let healthy = AtomicUsize::new(0);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        work_crew(6, |i| {
            if i == 3 {
                panic!("crew worker failure");
            }
            healthy.fetch_add(1, Ordering::SeqCst);
        });
    }))
    .unwrap_err();
    assert_eq!(*err.downcast::<&str>().unwrap(), "crew worker failure");
    assert_eq!(healthy.load(Ordering::SeqCst), 5);
}

/// A striped map built on `Striped` agrees with a sequential `HashMap`
/// under concurrent updates — mirroring `dhub-par`'s sharded-map
/// equivalence test one layer down the stack.
#[test]
fn striped_map_matches_hashmap() {
    fn hash(k: u64) -> u64 {
        // Same mixing idea as the sharded map: multiply-shift into high bits.
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
    let keys: Vec<u64> = (0..100_000).map(|i| i % 777).collect();

    let striped: Striped<HashMap<u64, u64>> = Striped::new(16, HashMap::new);
    work_crew(8, |w| {
        for k in keys.iter().skip(w).step_by(8) {
            *striped.stripe(hash(*k)).lock().entry(*k).or_default() += 1;
        }
    });

    let mut reference: HashMap<u64, u64> = HashMap::new();
    for &k in &keys {
        *reference.entry(k).or_default() += 1;
    }

    let mut merged: HashMap<u64, u64> = HashMap::new();
    for shard in striped.iter() {
        for (k, v) in shard.lock().iter() {
            *merged.entry(*k).or_default() += v;
        }
    }
    assert_eq!(merged, reference);
}
