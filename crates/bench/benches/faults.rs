//! Benchmarks for fault injection and retry overhead (BENCH_faults.json):
//! end-to-end download throughput with faults off vs a 5 % uniform fault
//! rate (microsecond-scale retry delays), plus the cost of the pure fault
//! decision and of computing a full jittered retry schedule.

use dhub_bench::{criterion_group, criterion_main, Criterion, Throughput};
use dhub_downloader::download_all_obs;
use dhub_faults::{
    FaultConfig, FaultInjector, FaultOp, FaultPlan, RetryPolicy, ALL_FAULT_KINDS,
};
use dhub_obs::MetricsRegistry;
use dhub_registry::NetworkModel;
use dhub_synth::{generate_hub, SynthConfig, SyntheticHub};
use std::sync::Arc;
use std::time::Duration;

const THREADS: usize = 4;

fn hub() -> SyntheticHub {
    generate_hub(&SynthConfig::tiny(42).with_repos(40))
}

/// The downloader's end-to-end throughput, faults off vs 5 % injected.
/// Retry sleeps use the microsecond-scale test schedule so the bench
/// measures pipeline overhead, not configured wall-clock waits.
fn bench_download_fault_rates(c: &mut Criterion) {
    let hub = hub();
    let repos = hub.registry.repo_names();
    let clean = download_all_obs(
        &hub.registry,
        &repos,
        THREADS,
        &NetworkModel::datacenter(),
        &RetryPolicy::none(),
        &MetricsRegistry::new(),
    );
    let mut g = c.benchmark_group("faults");
    g.throughput(Throughput::Bytes(clean.report.bytes_fetched));
    g.sample_size(10);

    for (id, rate) in [("bench_download_fault_rate_0", 0.0), ("bench_download_fault_rate_5pct", 0.05)] {
        let hub = self::hub();
        let repos = hub.registry.repo_names();
        if rate > 0.0 {
            let cfg = FaultConfig::uniform(7, rate).with_slow_link(Duration::from_micros(50));
            hub.registry.set_fault_injector(Some(Arc::new(FaultInjector::new(cfg))));
        }
        let policy = RetryPolicy::fast(16).with_seed(7);
        g.bench_function(id, |b| {
            b.iter(|| {
                let res = download_all_obs(
                    &hub.registry,
                    &repos,
                    THREADS,
                    &NetworkModel::datacenter(),
                    &policy,
                    &MetricsRegistry::new(),
                );
                assert_eq!(res.report.gave_up, 0, "bench policy must never give up");
                std::hint::black_box(res.report.bytes_fetched)
            })
        });
    }
    g.finish();
}

/// The pure fault decision: one seeded draw per (op, key, attempt).
fn bench_fault_decision(c: &mut Criterion) {
    const N: u64 = 10_000;
    let plan = FaultPlan::new(FaultConfig::uniform(7, 0.05));
    let mut g = c.benchmark_group("faults");
    g.throughput(Throughput::Elements(N));
    g.bench_function("bench_fault_decide_10k", |b| {
        b.iter(|| {
            let mut fired = 0u64;
            for key in 0..N {
                if plan.decide(FaultOp::Blob, key, 0, &ALL_FAULT_KINDS).is_some() {
                    fired += 1;
                }
            }
            std::hint::black_box(fired)
        })
    });
    g.finish();
}

/// Computing a full 8-step jittered, monotone-clamped retry schedule.
fn bench_retry_schedule(c: &mut Criterion) {
    const N: u64 = 1_000;
    let policy = RetryPolicy::new(8).with_seed(7);
    let mut g = c.benchmark_group("faults");
    g.throughput(Throughput::Elements(N));
    g.bench_function("bench_retry_schedule_8step_1k", |b| {
        b.iter(|| {
            let mut total = Duration::ZERO;
            for key in 0..N {
                total += policy.schedule(key).iter().sum::<Duration>();
            }
            std::hint::black_box(total)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_download_fault_rates, bench_fault_decision, bench_retry_schedule);
criterion_main!(benches);
