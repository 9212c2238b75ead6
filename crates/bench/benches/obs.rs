//! Benchmarks for the observability layer (BENCH_obs.json): the
//! instrumented end-to-end download pipeline (same setup as
//! `bench_download_fault_rate_0` in benches/faults.rs, so the two files'
//! figures are directly comparable — the obs acceptance bar is ≤1 %
//! overhead), plus microbenches for the primitives themselves: contended
//! counter increments, span enter/exit, snapshotting, and rendering.

use dhub_bench::{criterion_group, criterion_main, Criterion, Throughput};
use dhub_downloader::download_all_obs;
use dhub_faults::RetryPolicy;
use dhub_obs::{span, MetricsRegistry};
use dhub_registry::NetworkModel;
use dhub_synth::{generate_hub, SynthConfig, SyntheticHub};

const THREADS: usize = 4;

fn hub() -> SyntheticHub {
    generate_hub(&SynthConfig::tiny(42).with_repos(40))
}

/// The instrumented downloader, fresh registry per run (what a study
/// without `--metrics` does) and a single long-lived shared registry (what
/// a real study with `--metrics` does). Setup mirrors
/// `bench_download_fault_rate_0` so BENCH_faults.json's figure is the
/// uninstrumented reference.
fn bench_download_instrumented(c: &mut Criterion) {
    let hub = hub();
    let repos = hub.registry.repo_names();
    let policy = RetryPolicy::fast(16).with_seed(7);
    let net = NetworkModel::datacenter();
    let fresh = || {
        download_all_obs(&hub.registry, &repos, THREADS, &net, &policy, &MetricsRegistry::new())
    };
    let clean = fresh();
    let mut g = c.benchmark_group("obs");
    g.throughput(Throughput::Bytes(clean.report.bytes_fetched));
    g.sample_size(10);

    g.bench_function("bench_download_obs_fresh_registry", |b| {
        b.iter(|| {
            let res = fresh();
            std::hint::black_box(res.report.bytes_fetched)
        })
    });

    let shared = MetricsRegistry::new();
    g.bench_function("bench_download_obs_shared_registry", |b| {
        b.iter(|| {
            let res = download_all_obs(&hub.registry, &repos, THREADS, &net, &policy, &shared);
            std::hint::black_box(res.report.bytes_fetched)
        })
    });
    g.finish();
}

/// Contended counter increments: 4 workers hammering one counter. The
/// sharded cache-padded design should keep this near the uncontended cost.
fn bench_counter_contended(c: &mut Criterion) {
    const PER_WORKER: u64 = 100_000;
    let reg = MetricsRegistry::new();
    let counter = reg.counter("bench_contended_total");
    let mut g = c.benchmark_group("obs");
    g.throughput(Throughput::Elements(PER_WORKER * THREADS as u64));
    g.bench_function("bench_counter_inc_contended_4x100k", |b| {
        b.iter(|| {
            dhub_sync::work_crew(THREADS, |_| {
                for _ in 0..PER_WORKER {
                    counter.inc();
                }
            });
            std::hint::black_box(counter.get())
        })
    });
    g.finish();
}

/// Span enter/exit: id derivation, stack push/pop, aggregate update.
fn bench_span_enter_exit(c: &mut Criterion) {
    const N: u64 = 10_000;
    let reg = MetricsRegistry::new();
    let mut g = c.benchmark_group("obs");
    g.throughput(Throughput::Elements(N));
    g.bench_function("bench_span_enter_exit_10k", |b| {
        b.iter(|| {
            for key in 0..N {
                let s = span!(reg, "bench_span", key);
                std::hint::black_box(s.id());
            }
            std::hint::black_box(reg.span_digest())
        })
    });
    g.finish();
}

/// Snapshot + Prometheus render over a realistically populated registry.
fn bench_exporters(c: &mut Criterion) {
    let reg = MetricsRegistry::new();
    for i in 0..64 {
        reg.counter(&format!("dhub_bench_counter_{i}_total")).add(i * 1000);
        reg.gauge(&format!("dhub_bench_gauge_{i}")).set(i as f64 * 0.5);
    }
    let h = reg.histogram("dhub_bench_latency_ns");
    for i in 0..4096u64 {
        h.observe(i * i);
    }
    for i in 0..16u64 {
        let _s = span!(reg, "bench_stage", i);
    }
    let mut g = c.benchmark_group("obs");
    g.bench_function("bench_snapshot", |b| {
        b.iter(|| std::hint::black_box(reg.snapshot().counters.len()))
    });
    g.bench_function("bench_render_prometheus", |b| {
        b.iter(|| std::hint::black_box(dhub_obs::render_prometheus(&reg).len()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_download_instrumented,
    bench_counter_contended,
    bench_span_enter_exit,
    bench_exporters,
);
criterion_main!(benches);
