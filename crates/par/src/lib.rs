//! Parallel execution substrate.
//!
//! The paper's pipeline is embarrassingly parallel at the image and layer
//! grain: images are downloaded and layers analyzed independently. This
//! crate provides exactly the three primitives that workload needs, built
//! on the in-repo `dhub-sync` substrate (scoped work crews, striped locks)
//! so the default workspace build has zero external dependencies:
//!
//! * [`par_map`]/[`par_map_range`]/[`par_map_each`] — data-parallel
//!   iteration over slices and index ranges with dynamic chunk
//!   self-scheduling (scoped threads, no `'static` bounds),
//! * [`sharded::ShardedMap`] — a lock-striped hash map for concurrent
//!   first-claim checks (the downloader's claimed layers),
//! * [`scratch::Scratch`] — the thread-local per-worker buffer arena the
//!   fused layer-analysis path reuses across layers.

pub mod scratch;
pub mod sharded;

pub use scratch::{with_scratch, Scratch, ScratchStats};
pub use sharded::ShardedMap;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default parallelism: the number of available cores, asked once per
/// process (`available_parallelism` reads cgroup files on every call).
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

/// Applies `f` to every element of `items` in parallel, preserving order of
/// results ([`par_map_range`] over the slice's indices).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_range(threads, 0..items.len(), |i| f(&items[i]))
}

/// Raw pointer wrapper so the scoped threads can share the output buffer.
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Parallel map over an index range, preserving order of results. Work is
/// self-scheduled in chunks: each worker atomically claims the next chunk,
/// so skewed per-item costs (huge layers next to empty ones) still balance.
/// Chunks the range directly — no materialized index vector.
pub fn par_map_range<R, F>(threads: usize, range: std::ops::Range<usize>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // Chunk size balances scheduling overhead against skew; aim for ~8
    // chunks per worker.
    let n = range.end.saturating_sub(range.start);
    let chunk = (n / (threads.clamp(1, n.max(1)) * 8)).max(1);
    par_map_chunked(threads, range, chunk, f)
}

/// [`par_map`] claiming one item at a time: for items few and costly
/// enough that a chunk of them would unbalance the workers, such as a list
/// sorted largest first, whose head a chunk would hand to one worker whole.
pub fn par_map_each<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_chunked(threads, 0..items.len(), 1, |i| f(&items[i]))
}

fn par_map_chunked<R, F>(threads: usize, range: std::ops::Range<usize>, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let base = range.start;
    let n = range.end.saturating_sub(range.start);
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return range.map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let out_ptr = SendPtr(out.as_mut_ptr());

    dhub_sync::work_crew(threads, |_| {
        // Rebind to capture the whole wrapper (not the raw-pointer field,
        // which edition-2021 disjoint capture would otherwise grab).
        let out_ptr = out_ptr;
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            for i in start..end {
                let r = f(base + i);
                // Safe: each index is written by exactly one worker
                // (disjoint chunks), and the Vec outlives the crew's scope.
                unsafe { *out_ptr.0.add(i) = Some(r) };
            }
        }
    });
    out.into_iter().map(|r| r.expect("all indices written")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 16] {
            assert_eq!(par_map(threads, &items, |&x| x * x), seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[42], |&x| x + 1), vec![43]);
    }

    #[test]
    fn par_map_preserves_order_under_skew() {
        // Make early items slow so late items finish first.
        let items: Vec<u64> = (0..200).collect();
        let out = par_map(8, &items, |&x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn par_map_each_balances_a_sorted_head() {
        // Item 0 waits for item 1 to start: claimed one at a time, item 1
        // goes to the other worker and starts at once; in one chunk with
        // item 0 it would wait out the whole timeout.
        use std::sync::atomic::AtomicBool;
        let started = AtomicBool::new(false);
        let items: Vec<u64> = (0..64).collect();
        let overlapped = par_map_each(2, &items, |&x| match x {
            0 => {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while !started.load(Ordering::Acquire) && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                started.load(Ordering::Acquire)
            }
            1 => {
                started.store(true, Ordering::Release);
                true
            }
            _ => true,
        });
        assert!(overlapped[0], "items 0 and 1 ran on one worker");
        assert_eq!(par_map_each(8, &items, |&x| x * 3), items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert!(par_map_each(2, &[] as &[u64], |&x| x).is_empty());
    }

    #[test]
    fn par_map_range_works() {
        assert_eq!(par_map_range(4, 0..5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn par_map_range_matches_par_map() {
        let f = |i: usize| (i as u64).wrapping_mul(2654435761) >> 7;
        for (start, end) in [(0usize, 0usize), (0, 1), (0, 1000), (37, 41), (100, 3571)] {
            let indices: Vec<usize> = (start..end).collect();
            for threads in [1, 2, 4, 16] {
                assert_eq!(
                    par_map_range(threads, start..end, f),
                    par_map(threads, &indices, |&i| f(i)),
                    "range {start}..{end} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_map_range_nonzero_base_preserves_order() {
        let out = par_map_range(8, 500..700, |i| {
            if i < 508 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (500..700).collect::<Vec<_>>());
    }
}
