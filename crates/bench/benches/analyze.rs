//! Benchmarks for the fused single-pass analysis engine
//! (BENCH_analyze.json): the end-to-end fused inflate→tar→hash→ingest path
//! against the frozen pre-fusion reference (separate decompression per
//! consumer, owned tar entries, fresh buffers per layer), plus microbenches
//! for the rebuilt primitives: the fast gzip decoder, SHA-256, and the
//! slice-by-8 CRC-32 kernel.
//!
//! The acceptance bar is fused ≥ 2× the reference in MiB/s of compressed
//! input. Both paths are asserted byte-identical in-bench before timing, so
//! a speedup can never come from computing something different.

use dhub_analyzer::{analyze_layer, analyze_layer_reference};
use dhub_bench::{criterion_group, criterion_main, Criterion, Throughput};
use dhub_compress::{gzip_decompress_into, gzip_decompress_reference};
use dhub_dedupstore::{analyze_and_ingest, DedupStore};
use dhub_digest::{crc32, crc32_scalar, sha256, sha256_scalar};
use dhub_model::Digest;
use dhub_par::Scratch;
use dhub_synth::layergen::{build_app_layer, BuiltLayer};
use dhub_synth::pool::FilePool;
use dhub_synth::SynthConfig;

/// Shared corpus: app layers drawn from one prototype pool, so cross-layer
/// file duplication exercises the dedup store like a real study does.
fn corpus() -> Vec<BuiltLayer> {
    let pool = FilePool::build(&SynthConfig::tiny(3), 20_000);
    (0..32u64).map(|s| build_app_layer(&pool, 0xF00D + s)).collect()
}

fn compressed_bytes(layers: &[BuiltLayer]) -> u64 {
    layers.iter().map(|l| l.blob.len() as u64).sum()
}

/// End-to-end layer analysis + store ingestion: the fused single-pass
/// engine vs the frozen reference (analyze, then ingest, each with its own
/// decompression and its own content hashing). Fresh store per iteration so
/// every layer is a first-sight ingest; the scratch arena is reused across
/// iterations, matching steady-state pipeline behavior.
fn bench_analyze_pipeline(c: &mut Criterion) {
    let layers = corpus();
    let bytes = compressed_bytes(&layers);

    // Equivalence gate: the timed paths must produce identical results.
    {
        let mut scratch = Scratch::new();
        let fused_store = DedupStore::new();
        let ref_store = DedupStore::new();
        for l in &layers {
            let (p, ingest) =
                analyze_and_ingest(&fused_store, l.digest, &l.blob, &mut scratch).unwrap();
            let p_ref = analyze_layer_reference(l.digest, &l.blob).unwrap();
            assert_eq!(p, p_ref, "fused profile diverged from reference");
            let _ = ingest;
            let _ = ref_store.ingest_layer_reference(l.digest, &l.blob);
        }
        let (a, b) = (fused_store.stats(), ref_store.stats());
        assert_eq!(a, b, "fused store stats diverged from reference");
        assert_eq!(a.dedup_factor().to_bits(), b.dedup_factor().to_bits());
    }

    let mut g = c.benchmark_group("analyze");
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(10);
    g.threads(1);

    let mut scratch = Scratch::new();
    g.bench_function("bench_analyze_fused", |b| {
        b.iter(|| {
            let store = DedupStore::new();
            let mut files = 0u64;
            for l in &layers {
                let (p, _) =
                    analyze_and_ingest(&store, l.digest, &l.blob, &mut scratch).unwrap();
                files += p.file_count;
            }
            std::hint::black_box((files, store.stats().unique_objects))
        })
    });

    g.bench_function("bench_analyze_reference", |b| {
        b.iter(|| {
            let store = DedupStore::new();
            let mut files = 0u64;
            for l in &layers {
                let p = analyze_layer_reference(l.digest, &l.blob).unwrap();
                store.ingest_layer_reference(l.digest, &l.blob).unwrap();
                files += p.file_count;
            }
            std::hint::black_box((files, store.stats().unique_objects))
        })
    });

    // Analysis alone (no store), fast path with scratch-free public entry
    // point — what `summary` runs per layer.
    g.bench_function("bench_analyze_only_fast", |b| {
        b.iter(|| {
            let mut files = 0u64;
            for l in &layers {
                files += analyze_layer(l.digest, &l.blob).unwrap().file_count;
            }
            std::hint::black_box(files)
        })
    });
    g.finish();
}

/// Gzip decode alone over the corpus: the new fast inflate (u64 bit
/// buffer, two-level tables, chunked copies, pre-sized output) vs the
/// frozen bit-at-a-time reference decoder.
fn bench_gunzip(c: &mut Criterion) {
    let layers = corpus();
    let bytes = compressed_bytes(&layers);
    for l in &layers {
        let mut out = Vec::new();
        gzip_decompress_into(&l.blob, &mut out).unwrap();
        assert_eq!(out, gzip_decompress_reference(&l.blob).unwrap());
    }

    let mut g = c.benchmark_group("analyze");
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(10);

    let mut buf = Vec::new();
    g.bench_function("bench_gunzip_fast", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for l in &layers {
                gzip_decompress_into(&l.blob, &mut buf).unwrap();
                total += buf.len();
            }
            std::hint::black_box(total)
        })
    });

    g.bench_function("bench_gunzip_reference", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for l in &layers {
                total += gzip_decompress_reference(&l.blob).unwrap().len();
            }
            std::hint::black_box(total)
        })
    });
    g.finish();
}

/// Hash kernels over 1 MiB of synthetic bytes: the runtime-dispatched
/// SIMD kernels against their frozen scalar references. The scalar pair
/// quantifies exactly what the dispatch buys on this host.
fn bench_hash_kernels(c: &mut Criterion) {
    const N: usize = 1 << 20;
    let data: Vec<u8> = (0..N).map(|i| (i as u32).wrapping_mul(0x9E37_79B9) as u8).collect();
    assert_eq!(sha256(&data), sha256_scalar(&data));
    assert_eq!(crc32(&data), crc32_scalar(&data));

    let mut g = c.benchmark_group("analyze");
    g.throughput(Throughput::Bytes(N as u64));
    g.threads(1);
    g.bench_function("bench_sha256_1mib", |b| {
        b.iter(|| std::hint::black_box(sha256(&data)))
    });
    g.bench_function("bench_sha256_scalar_1mib", |b| {
        b.iter(|| std::hint::black_box(sha256_scalar(&data)))
    });
    g.bench_function("bench_crc32_1mib", |b| {
        b.iter(|| std::hint::black_box(crc32(&data)))
    });
    g.bench_function("bench_crc32_scalar_1mib", |b| {
        b.iter(|| std::hint::black_box(crc32_scalar(&data)))
    });
    g.bench_function("bench_digest_of_1mib", |b| {
        b.iter(|| std::hint::black_box(Digest::of(&data)))
    });
    g.finish();
}

criterion_group!(benches, bench_analyze_pipeline, bench_gunzip, bench_hash_kernels);
criterion_main!(benches);
