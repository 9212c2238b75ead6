//! Deterministic fault injection and retry policy (`dhub-faults`).
//!
//! The paper's 30-day crawl of Docker Hub survived a flaky public
//! registry: 111,384 download failures had to be *classified* (13 % auth,
//! 87 % no `latest`) rather than crash the run, and every transient error
//! in between was retried away. This crate makes that failure surface a
//! first-class, seeded, replayable input to the reproduction:
//!
//! * [`FaultPlan`] decides, as a pure function of `(seed, op, key,
//!   attempt)`, whether a given operation attempt faults and how —
//!   connection drops, HTTP 429/5xx, token-auth flaps, slow links,
//!   truncated bodies, bit-flipped blob contents. Because the decision
//!   depends only on those four values, a pinned seed reproduces the exact
//!   same fault sequence regardless of thread count or interleaving.
//! * [`FaultInjector`] wraps a plan with per-`(op, key)` attempt counters
//!   and fired-fault statistics, and is what the registry server, the
//!   in-process [`Registry`] API, and the crawler consult at each
//!   injection point.
//! * [`RetryPolicy`] is the consuming side: capped exponential backoff
//!   (built on [`dhub_sync::DelayBackoff`]) with *deterministic* jitter
//!   derived from the policy seed, so a retry schedule is replayable too,
//!   and [`RetryPolicy::run`], the one retry loop every consumer's
//!   fetches and durable writes go through.
//!
//! [`Registry`]: ../dhub_registry/struct.Registry.html

mod plan;
mod retry;

pub use plan::{
    fault_key, FaultConfig, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultStats,
    ALL_FAULT_KINDS, ALL_FAULT_OPS,
};
pub use retry::{RetryClass, RetryEvent, RetryPolicy};
