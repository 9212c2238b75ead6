//! Benchmarks for the `dhub-sync` concurrency substrate (BENCH_sync.json):
//! bounded-channel send/recv under SPSC and MPMC load, striped-map update
//! contention vs a single mutex, and end-to-end pipeline throughput.

use dhub_bench::{criterion_group, criterion_main, Criterion, Throughput};
use dhub_par::sharded::CoarseMap;
use dhub_par::ShardedMap;
use dhub_sync::{bounded, work_crew};

/// Single producer, single consumer through a bounded channel.
fn bench_channel_spsc(c: &mut Criterion) {
    const N: u64 = 100_000;
    let mut g = c.benchmark_group("channel");
    g.throughput(Throughput::Elements(N));
    for cap in [16usize, 1024] {
        g.bench_function(format!("bench_channel_spsc_cap{cap}"), |b| {
            b.iter(|| {
                let (tx, rx) = bounded::<u64>(cap);
                let consumer = std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum = sum.wrapping_add(v);
                    }
                    sum
                });
                for i in 0..N {
                    tx.send(i).unwrap();
                }
                drop(tx);
                std::hint::black_box(consumer.join().unwrap())
            })
        });
    }
    g.finish();
}

/// Four producers, four consumers hammering one bounded channel.
fn bench_channel_mpmc(c: &mut Criterion) {
    const N: u64 = 25_000; // per producer
    let mut g = c.benchmark_group("channel");
    g.throughput(Throughput::Elements(4 * N));
    g.bench_function("bench_channel_mpmc_4p4c_cap64", |b| {
        b.iter(|| {
            let (tx, rx) = bounded::<u64>(64);
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut sum = 0u64;
                        while let Ok(v) = rx.recv() {
                            sum = sum.wrapping_add(v);
                        }
                        sum
                    })
                })
                .collect();
            drop(rx);
            work_crew(4, |_| {
                for i in 0..N {
                    tx.clone().send(i).unwrap();
                }
            });
            drop(tx);
            let total: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
            std::hint::black_box(total)
        })
    });
    g.finish();
}

/// Striped-map vs coarse single-mutex update contention (the dedup-counter
/// workload `dhub-par::ShardedMap` exists for).
fn bench_striped_contention(c: &mut Criterion) {
    let keys: Vec<u64> =
        (0..200_000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) % 50_000).collect();
    let threads = dhub_par::default_threads();
    let mut g = c.benchmark_group("striped");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("bench_sync_striped_map_update", |b| {
        b.iter(|| {
            let m: ShardedMap<u64, u64> = ShardedMap::new(64);
            dhub_par::par_for_each(threads, &keys, |&k| m.update(k, |v| *v += 1));
            std::hint::black_box(m.len())
        })
    });
    g.bench_function("bench_sync_coarse_map_update", |b| {
        b.iter(|| {
            let m: CoarseMap<u64, u64> = CoarseMap::new();
            dhub_par::par_for_each(threads, &keys, |&k| m.update(k, |v| *v += 1));
            std::hint::black_box(m.len())
        })
    });
    g.finish();
}

/// Multi-stage pipeline throughput on the migrated channel substrate.
fn bench_pipeline_throughput(c: &mut Criterion) {
    use dhub_par::pipeline::{sink, source, stage};
    const N: u64 = 50_000;
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(N));
    g.bench_function("bench_sync_pipeline_2stage", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                let src = source(s, 0..N, 256);
                let hashed = stage(s, src, 4, 256, |x: u64| {
                    let mut acc = x;
                    for _ in 0..32 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    Some(acc)
                });
                let kept = stage(s, hashed, 2, 256, |x: u64| (x & 1 == 0).then_some(x));
                std::hint::black_box(sink(kept).len())
            })
        })
    });
    g.finish();
}

criterion_group! {
    name = sync;
    config = Criterion::default().sample_size(10);
    targets = bench_channel_spsc, bench_channel_mpmc, bench_striped_contention, bench_pipeline_throughput
}
criterion_main!(sync);
