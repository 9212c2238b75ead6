//! Property tests for the lease state machine (DESIGN.md §6h): no job is
//! double-granted while its lease is live, every expiry requeues the job
//! exactly once until quarantine, quarantine fires after exactly
//! `max_expiries` burned leases, and the whole schedule is replayable —
//! lease durations from `(seed, job-id)` alone, event streams from the
//! config plus the operation sequence.

use dhub_queue::{LeaseConfig, LeaseEvent, LeaseManager, LeaseState};
use proptest::prelude::*;
use std::collections::HashMap;

/// One scripted operation against a [`LeaseManager`]. Job ids come from a
/// small pool so sequences collide on purpose.
#[derive(Clone, Debug)]
enum Op {
    Insert(u8),
    Claim(u64),
    Tick,
    Renew(u8, u64),
    Complete(u8),
}

fn job(i: u8) -> String {
    format!("job-{}", i % 8)
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u8..8).prop_map(Op::Insert),
        (0u64..4).prop_map(Op::Claim),
        Just(Op::Tick),
        ((0u8..8), (0u64..4)).prop_map(|(j, h)| Op::Renew(j, h)),
        (0u8..8).prop_map(Op::Complete),
    ];
    proptest::collection::vec(op, 1..200)
}

fn arb_config() -> impl Strategy<Value = LeaseConfig> {
    ((0u64..1000), (1u64..8), (1u64..8), (1u32..5)).prop_map(
        |(seed, base_ticks, spread_ticks, max_expiries)| LeaseConfig {
            seed,
            base_ticks,
            spread_ticks,
            max_expiries,
        },
    )
}

/// Applies the script and returns every event in order.
fn run(config: LeaseConfig, ops: &[Op]) -> Vec<LeaseEvent> {
    let mut m = LeaseManager::new(config);
    let mut events = Vec::new();
    for op in ops {
        match op {
            Op::Insert(j) => m.insert(&job(*j)),
            Op::Claim(h) => {
                if let Some((_, ev)) = m.claim(*h) {
                    events.push(ev);
                }
            }
            Op::Tick => events.extend(m.tick()),
            Op::Renew(j, h) => m.renew(&job(*j), *h),
            Op::Complete(j) => events.extend(m.complete(&job(*j))),
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// While a lease is live, the job is never granted to anyone else:
    /// a `Granted` for a job may only follow its previous grant after an
    /// `Expired` or `Completed` released it.
    #[test]
    fn no_double_grant_while_lease_live(config in arb_config(), ops in arb_ops()) {
        let mut live: HashMap<String, u64> = HashMap::new();
        for ev in run(config, &ops) {
            match ev {
                LeaseEvent::Granted { job, holder, .. } => {
                    prop_assert!(
                        !live.contains_key(&job),
                        "{job} granted to {holder} while still leased to {}", live[&job]
                    );
                    live.insert(job, holder);
                }
                LeaseEvent::Expired { job, .. } => { live.remove(&job); }
                LeaseEvent::Completed { job } => { live.remove(&job); }
                LeaseEvent::Quarantined { .. } => {}
            }
        }
    }

    /// Every expiry requeues the job exactly once (it is Pending right
    /// after, claimable again), and per-job expiry counts rise by exactly
    /// one per burned lease — never skipping, never repeating.
    #[test]
    fn expiry_requeues_exactly_once(config in arb_config(), ops in arb_ops()) {
        let mut m = LeaseManager::new(config);
        let mut expiries_seen: HashMap<String, u32> = HashMap::new();
        for op in &ops {
            let events = match op {
                Op::Insert(j) => { m.insert(&job(*j)); continue }
                Op::Claim(h) => { m.claim(*h); continue }
                Op::Renew(j, h) => { m.renew(&job(*j), *h); continue }
                Op::Complete(j) => { m.complete(&job(*j)); continue }
                Op::Tick => m.tick(),
            };
            for ev in events {
                match ev {
                    LeaseEvent::Expired { job, expiries } => {
                        let prev = expiries_seen.insert(job.clone(), expiries).unwrap_or(0);
                        prop_assert_eq!(expiries, prev + 1, "expiry count skipped for {}", &job);
                        if expiries < config.max_expiries {
                            prop_assert_eq!(
                                m.state(&job), Some(LeaseState::Pending),
                                "expired job {} not requeued", &job
                            );
                        }
                    }
                    LeaseEvent::Quarantined { job } => {
                        prop_assert_eq!(m.state(&job), Some(LeaseState::Quarantined));
                    }
                    _ => {}
                }
            }
        }
    }

    /// A job that keeps getting claimed and abandoned quarantines after
    /// exactly `max_expiries` expiries, and is never claimable again.
    #[test]
    fn quarantine_after_exactly_max_expiries(config in arb_config()) {
        let mut m = LeaseManager::new(config);
        m.insert("poison");
        let mut expired = 0u32;
        let mut quarantined_at = None;
        // Claim, then let the lease lapse; repeat until quarantine.
        for _ in 0..config.max_expiries + 2 {
            if m.claim(0).is_none() {
                break;
            }
            // Longest possible lease is base + spread ticks.
            for _ in 0..config.base_ticks + config.spread_ticks {
                for ev in m.tick() {
                    match ev {
                        LeaseEvent::Expired { .. } => expired += 1,
                        LeaseEvent::Quarantined { .. } => quarantined_at = Some(expired),
                        _ => {}
                    }
                }
            }
        }
        prop_assert_eq!(quarantined_at, Some(config.max_expiries));
        prop_assert_eq!(expired, config.max_expiries, "expiries continued past quarantine");
        prop_assert!(m.claim(1).is_none(), "quarantined job was granted");
        prop_assert_eq!(m.quarantined(), vec!["poison".to_string()]);
        prop_assert!(m.is_drained());
    }

    /// Lease durations are a pure function of `(seed, job-id)`: equal
    /// configs agree on every id, and every duration lands in
    /// `[base, base + spread)`.
    #[test]
    fn lease_ticks_replayable_from_seed_and_id(
        config in arb_config(),
        ids in proptest::collection::vec("[a-z:/0-9]{1,24}", 1..16),
    ) {
        let twin = config;
        for id in &ids {
            prop_assert_eq!(config.lease_ticks(id), twin.lease_ticks(id));
            let t = config.lease_ticks(id);
            prop_assert!(t >= config.base_ticks);
            prop_assert!(t < config.base_ticks + config.spread_ticks.max(1));
        }
    }

    /// The machine is deterministic: the same config and operation
    /// sequence replays to the identical event stream.
    #[test]
    fn identical_op_sequences_replay_identical_events(
        config in arb_config(),
        ops in arb_ops(),
    ) {
        prop_assert_eq!(run(config, &ops), run(config, &ops));
    }
}
