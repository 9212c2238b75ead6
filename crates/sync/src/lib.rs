//! From-scratch concurrency substrate for the workspace.
//!
//! The paper's pipeline is concurrency-shaped end to end: a 30-day parallel
//! crawl/download and sharded counting over 5.3 B file records. Every other
//! crate rents its locks and worker crews from here rather than from
//! external crates, which keeps the workspace dependency-free
//! (offline-buildable with an empty registry cache) and makes the hot paths
//! ours to tune.
//!
//! Primitives:
//!
//! * [`crew`] — a scoped work-crew on `std::thread::scope`: spawn N
//!   workers, join them all, propagate the first panic. Every parallel
//!   stage (`dhub-par`'s `par_map` family, the queue's worker fleet) is a
//!   crew pulling indices or jobs from shared state; there is no channel
//!   or long-lived pool.
//! * [`Striped`] — cache-padded lock striping, the substrate under
//!   `dhub-par`'s `ShardedMap` (the dedup counting index).
//! * [`Mutex`]/[`RwLock`]/[`Condvar`] — thin poison-ignoring wrappers over
//!   the std locks with guard-returning `lock()`/`read()`/`write()` (the
//!   calling convention the rest of the workspace already used with its
//!   previous external lock crate).
//! * [`Semaphore`] — counting semaphore with RAII permits, the admission
//!   control under the registry HTTP accept loop.
//! * [`DelayBackoff`] — capped exponential delay schedule, the base of
//!   `dhub-faults::RetryPolicy`.

pub mod backoff;
pub mod crew;
pub mod lock;
pub mod semaphore;
pub mod striped;

pub use backoff::DelayBackoff;
pub use crew::work_crew;
pub use lock::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use semaphore::{Semaphore, SemaphorePermit};
pub use striped::{CachePadded, Striped};
