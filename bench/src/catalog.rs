//! The metric catalogue: every name the driver prints, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! must list exactly these; a unit test compares the two.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

pub const WORKLOADS: [&str; 4] = [
    "study_mem_bytes",
    "study_durable_files",
    "study_queued_files",
    "serve_zipf_files",
];

/// What a user of the system sees. The harness has every workload report
/// every one of these, so the three timed operations carry generic names
/// and the workload decides what they are:
///
/// | workload              | `op_ms`, `op_hi_ms`       | `op_b_ms`                       | `op_c_ms`               |
/// |-----------------------|---------------------------|---------------------------------|-------------------------|
/// | `study_mem_bytes`     | `dhub store` (in memory)  | every layer tar rebuilt from it | `dhub report` (figures) |
/// | `study_durable_files` | `dhub store --store-dir`  | cold reopen of the store dir    | `dhub query` × 4        |
/// | `study_queued_files`  | `dhub work`               | cold reopen of the store dir    | `dhub query` × 4        |
/// | `serve_zipf_files`    | blob GET through a mirror | manifest GET through it         | `GET /v2/` ping         |
///
/// Each part is timed and bounded on its own, never summed. A bound is
/// per metric, not per workload, so it follows the noisiest workload: it
/// is three times the widest ten-run spread measured on any workload,
/// rounded up to a twentieth and capped at the 0.25 the harness allows
/// (the README's *Noise* section has the measured spreads).
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms", "ms", Better::Lower, 0.25),
    e2e("op_hi_ms", "ms", Better::Lower, 0.25),
    e2e("op_b_ms", "ms", Better::Lower, 0.25),
    e2e("op_c_ms", "ms", Better::Lower, 0.25),
    e2e("mib_per_s", "MiB/s", Better::Higher, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("physical_per_logical", "ratio", Better::Lower, 0.10),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20),
];

/// Single-layer metrics from the traced pass. A layer the workload does
/// not exercise reports 0.
pub const PER_LAYER: [MetricDef; 92] = [
    lo("synth.generate_s", "s"),
    lo("crawler.crawl_ms", "ms"),
    lo("crawler.page_parse_us", "us"),
    lo("crawler.pages", "count"),
    hi("crawler.repos", "count"),
    lo("downloader.download_ms", "ms"),
    lo("downloader.manifests", "count"),
    lo("downloader.blobs", "count"),
    lo("downloader.bytes", "bytes"),
    hi("downloader.layer_fetches_skipped", "count"),
    lo("downloader.retries", "count"),
    lo("compress.gunzip_ms", "ms"),
    hi("compress.gunzip_mib_per_s", "MiB/s"),
    lo("compress.inflated_bytes", "bytes"),
    lo("digest.sha256_ms", "ms"),
    hi("digest.sha256_mib_per_s", "MiB/s"),
    lo("digest.bytes_hashed", "bytes"),
    lo("tar.walk_ms", "ms"),
    lo("tar.entries", "count"),
    lo("magic.classify_ms", "ms"),
    lo("magic.files", "count"),
    lo("analyzer.analyze_ms", "ms"),
    lo("analyzer.self_ms", "ms"),
    lo("analyzer.layers", "count"),
    lo("analyzer.files", "count"),
    lo("analyzer.errors", "count"),
    lo("dedupstore.fused_ms", "ms"),
    lo("dedupstore.ingest_self_ms", "ms"),
    lo("dedupstore.unique_objects", "count"),
    lo("dedupstore.logical_bytes", "bytes"),
    lo("dedupstore.physical_bytes", "bytes"),
    hi("dedupstore.dedup_factor", "ratio"),
    lo("dedupstore.durable_fused_ms", "ms"),
    lo("dedupstore.durable_self_ms", "ms"),
    lo("dedupstore.recipe_json_ms", "ms"),
    lo("dedupstore.checkpoint_ms", "ms"),
    lo("dedupstore.gc_ms", "ms"),
    lo("dedupstore.reopen_ms", "ms"),
    lo("persist.publishes", "count"),
    lo("persist.objects_written", "count"),
    lo("persist.object_bytes", "bytes"),
    lo("persist.files_on_disk", "count"),
    lo("persist.disk_bytes", "bytes"),
    lo("persist.disk_bytes_per_logical_byte", "ratio"),
    lo("persist.put_batch_us_per_object", "us"),
    lo("persist.publish_us", "us"),
    lo("persist.get_verified_us_per_object", "us"),
    lo("persist.table_save_ms", "ms"),
    lo("persist.table_load_ms", "ms"),
    lo("persist.scan_us", "us"),
    lo("json.recipe_parse_ms", "ms"),
    hi("json.parse_mib_per_s", "MiB/s"),
    lo("queue.jobs", "count"),
    lo("queue.seed_us_per_job", "us"),
    lo("queue.claim_us_per_job", "us"),
    lo("queue.commit_us_per_job", "us"),
    lo("queue.lease_cycle_ns", "ns"),
    lo("queue.leases_granted", "count"),
    lo("queue.lease_expiries", "count"),
    lo("queue.double_commits", "count"),
    lo("queue.result_json_ms", "ms"),
    lo("queue.overhead_ms", "ms"),
    lo("study.total_1t_ms", "ms"),
    lo("study.assemble_residual_ms", "ms"),
    lo("study.residual_ratio", "ratio"),
    lo("study.figures_ms", "ms"),
    lo("study.db_build_ms", "ms"),
    lo("study.db_save_ms", "ms"),
    lo("study.db_load_ms", "ms"),
    lo("study.query_summary_us", "us"),
    lo("study.query_dedup_us", "us"),
    lo("study.query_top_types_us", "us"),
    lo("study.query_percentiles_us", "us"),
    lo("study.query_ms", "ms"),
    hi("study.scaling_T", "ratio"),
    lo("registry.get_blob_inproc_us", "us"),
    lo("registry.http_ping_ms", "ms"),
    lo("registry.http_manifest_ms", "ms"),
    lo("registry.http_get_blob_ms", "ms"),
    hi("mirror.hit_ratio", "ratio"),
    hi("mirror.hits", "count"),
    lo("mirror.misses", "count"),
    lo("mirror.origin_fetches", "count"),
    hi("mirror.coalesced", "count"),
    lo("mirror.evictions", "count"),
    lo("mirror.cache_lookup_ns", "ns"),
    lo("mirror.ring_route_ns", "ns"),
    lo("mirror.pull_p50_ms", "ms"),
    lo("host.calib_ratio", "ratio"),
    lo("trace.overhead_ratio", "ratio"),
    lo("ops_failed_ratio", "ratio"),
    hi("trace.rounds", "count"),
];
