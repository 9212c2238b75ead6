//! Bounded multi-stage pipelines.
//!
//! The study pipeline is crawl → download → extract → analyze. Each stage
//! has its own worker count (network-bound stages want more concurrency
//! than CPU-bound ones) and stages are connected by *bounded* channels so a
//! fast producer cannot buffer an unbounded amount of layer data in memory
//! — at paper scale that would be tens of terabytes.

use dhub_sync::{bounded, Receiver, Sender};
use std::thread::Scope;

/// Spawns a pipeline stage on `scope`: `workers` threads each pull items
/// from `input`, apply `f`, and push results downstream. Returns the
/// output receiver. Scoped threads let `f` borrow the caller's state
/// (registry, counters, metrics) instead of cloning it behind `Arc`s.
///
/// The stage ends (and its output channel closes) when the input channel is
/// closed and drained. Items whose `f` returns `None` are dropped — stages
/// can filter (e.g. failed downloads).
pub fn stage<'scope, I, O, F>(
    scope: &'scope Scope<'scope, '_>,
    input: Receiver<I>,
    workers: usize,
    capacity: usize,
    f: F,
) -> Receiver<O>
where
    I: Send + 'scope,
    O: Send + 'scope,
    F: Fn(I) -> Option<O> + Send + Sync + 'scope,
{
    let workers = workers.max(1);
    let (tx, rx) = bounded::<O>(capacity.max(1));
    let f = std::sync::Arc::new(f);
    for i in 0..workers {
        let input = input.clone();
        let tx = tx.clone();
        let f = f.clone();
        std::thread::Builder::new()
            .name(format!("dhub-stage-{i}"))
            .spawn_scoped(scope, move || {
                while let Ok(item) = input.recv() {
                    if let Some(out) = f(item) {
                        if tx.send(out).is_err() {
                            break; // downstream hung up
                        }
                    }
                }
            })
            .expect("spawn stage worker");
    }
    rx
}

/// Feeds an iterator into a new bounded channel from a producer thread on
/// `scope`.
pub fn source<'scope, I>(
    scope: &'scope Scope<'scope, '_>,
    items: impl IntoIterator<Item = I> + Send + 'scope,
    capacity: usize,
) -> Receiver<I>
where
    I: Send + 'scope,
{
    let (tx, rx) = bounded::<I>(capacity.max(1));
    std::thread::Builder::new()
        .name("dhub-source".to_string())
        .spawn_scoped(scope, move || {
            for item in items {
                if tx.send(item).is_err() {
                    break;
                }
            }
        })
        .expect("spawn source");
    rx
}

/// Collects a receiver to a Vec (drains until the channel closes).
pub fn sink<T>(rx: Receiver<T>) -> Vec<T> {
    rx.iter().collect()
}

/// Convenience: a sender/receiver pair with the given capacity, for callers
/// that feed a pipeline by hand.
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    bounded(capacity.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::scope;

    #[test]
    fn two_stage_pipeline() {
        let out = scope(|s| {
            let src = source(s, 0..1000u64, 64);
            let doubled = stage(s, src, 4, 64, |x| Some(x * 2));
            let strings = stage(s, doubled, 2, 64, |x| Some(format!("v{x}")));
            sink(strings)
        });
        assert_eq!(out.len(), 1000);
        let set: HashSet<String> = out.into_iter().collect();
        assert!(set.contains("v0") && set.contains("v1998"));
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn filtering_stage_drops_items() {
        let out = scope(|s| {
            let src = source(s, 0..100u32, 16);
            sink(stage(s, src, 3, 16, |x| if x % 2 == 0 { Some(x) } else { None }))
        });
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|x| x % 2 == 0));
    }

    #[test]
    fn empty_source_terminates() {
        scope(|s| {
            let src = source(s, std::iter::empty::<u8>(), 4);
            assert!(sink(stage(s, src, 2, 4, Some)).is_empty());
        });
    }

    #[test]
    fn stage_borrows_caller_state() {
        // The point of scoping: a stage closure reads a local by reference.
        let offset = 7u64;
        let out = scope(|s| sink(stage(s, source(s, 0..10u64, 4), 2, 4, |x| Some(x + offset))));
        assert_eq!(out.iter().sum::<u64>(), 45 + 10 * offset);
    }

    #[test]
    fn backpressure_bounded_memory() {
        // A slow consumer must throttle the producer: with capacity 4 the
        // producer cannot run ahead more than the channel depth.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let produced = AtomicUsize::new(0);
        scope(|s| {
            let counted = (0..1000usize).inspect(|_| {
                produced.fetch_add(1, Ordering::SeqCst);
            });
            let src = source(s, counted, 4);
            // Pull two items, then check the producer has not raced far ahead.
            let first = src.recv().unwrap();
            let _ = src.recv().unwrap();
            assert_eq!(first, 0);
            std::thread::sleep(std::time::Duration::from_millis(30));
            let ahead = produced.load(Ordering::SeqCst);
            assert!(ahead <= 8, "producer ran ahead: {ahead}");
            drop(src); // hang up; producer thread exits
        });
    }

    #[test]
    fn downstream_hangup_stops_workers() {
        scope(|s| {
            let src = source(s, 0..100_000u64, 8);
            let st = stage(s, src, 2, 8, Some);
            let first = st.recv().unwrap();
            assert!(first < 100_000);
            drop(st);
            // The scope joins the workers: returning at all proves a hangup
            // stops them rather than deadlocking.
        });
    }
}
