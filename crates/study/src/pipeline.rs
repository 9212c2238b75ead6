//! The crawl → download → analyze pipeline (§III).

use dhub_analyzer::{analyze_all_obs, image_profiles, AnalysisResult, ImageInput};
use dhub_crawler::{crawl_obs, CrawlReport, CrawlResult};
use dhub_dedup::ImageLayers;
use dhub_dedupstore::{analyze_and_ingest_all, DedupStore, PersistentDedupStore};
use dhub_digest::FxHashMap;
use dhub_downloader::{
    download_all_http_obs, download_all_obs, DownloadReport, DownloadResult, DownloadedImage,
};
use dhub_faults::RetryPolicy;
use dhub_model::{Digest, ImageProfile, LayerProfile, RepoName};
use dhub_obs::{span, MetricsRegistry};
use dhub_registry::NetworkModel;
use dhub_synth::SyntheticHub;
use std::sync::Arc;

/// Everything the figures need, produced by one pipeline run.
pub struct StudyData {
    /// Crawl statistics (raw hits, distinct repos).
    pub crawl: CrawlReport,
    /// Download statistics (successes, failure taxonomy, unique layers).
    pub download: DownloadReport,
    /// Unique-layer profiles keyed by digest.
    pub layers: FxHashMap<Digest, LayerProfile>,
    /// Image profiles for every downloaded image.
    pub images: Vec<ImageProfile>,
    /// Image → layer digests view for dedup analyses.
    pub image_layers: Vec<ImageLayers>,
    /// Pull counts of every crawled repository (popularity analysis covers
    /// all repos, not only downloadable ones).
    pub pulls: Vec<(RepoName, u64)>,
    /// Layers that failed decode (should be zero against the synthetic hub).
    pub analyze_errors: usize,
    /// The generator's size divisor, used to rescale size anchors back to
    /// paper-scale bytes.
    pub size_scale: u64,
    /// Seed that produced the hub (for deterministic sub-sampling).
    pub seed: u64,
}

impl StudyData {
    /// Layer profiles as a deterministic slice of references.
    pub fn layer_slice(&self) -> Vec<&LayerProfile> {
        dhub_dedup::profile_slice(&self.layers)
    }

    /// Compressed layer sizes keyed by digest.
    pub fn layer_sizes(&self) -> FxHashMap<Digest, u64> {
        self.layers.iter().map(|(d, p)| (*d, p.cls)).collect()
    }
}

/// Sets the `dhub_layer_dedup_ratio` gauge: the fraction of manifest layer
/// references that deduplicated onto an already-fetched layer.
pub(crate) fn set_dedup_ratio(obs: &MetricsRegistry, download: &DownloadReport) {
    let refs = download.unique_layers as u64 + download.layer_fetches_skipped;
    if refs > 0 {
        obs.gauge("dhub_layer_dedup_ratio")
            .set(download.layer_fetches_skipped as f64 / refs as f64);
    }
}

/// §III-A: crawl. The official list is public knowledge (the paper
/// hardcodes the <200 official repositories). Faults come from the
/// injector attached to `hub.registry` (if any) — the crawl consults the
/// same injector for its search pages as the download does for its pulls.
fn crawl_hub(hub: &SyntheticHub, policy: &RetryPolicy, obs: &MetricsRegistry) -> CrawlResult {
    let injector = hub.registry.fault_injector();
    let _stage = span!(obs, "crawl");
    crawl_obs(&hub.search, &known_officials(hub), injector.as_deref(), policy, obs)
}

/// The official repositories, which the crawl's slash search cannot find.
pub(crate) fn known_officials(hub: &SyntheticHub) -> Vec<RepoName> {
    hub.registry.repo_names().into_iter().filter(|r| r.is_official()).collect()
}

/// Shared tail of both schedulers — batch and queued:
/// aggregate image profiles over the analyzed `layers`, build the dedup
/// view, collect pull counts, and assemble [`StudyData`].
pub(crate) fn assemble_study(
    hub: &SyntheticHub,
    crawl_result: CrawlResult,
    images_dl: Vec<DownloadedImage>,
    download: DownloadReport,
    layers: FxHashMap<Digest, LayerProfile>,
    analyze_errors: usize,
) -> StudyData {
    let inputs: Vec<ImageInput> = images_dl
        .iter()
        .map(|img| ImageInput {
            repo: img.repo.clone(),
            manifest_digest: img.manifest_digest,
            layers: img.manifest.layers.iter().map(|l| (l.digest, l.size)).collect(),
        })
        .collect();
    let images = image_profiles(&inputs, &layers);
    let image_layers: Vec<ImageLayers> = images_dl
        .iter()
        .map(|img| ImageLayers { layers: img.manifest.layers.iter().map(|l| l.digest).collect() })
        .collect();

    // Popularity: pull counts of every crawled repository.
    let pulls: Vec<(RepoName, u64)> = crawl_result
        .repos
        .iter()
        .filter_map(|r| hub.registry.pull_count(r).map(|c| (r.clone(), c)))
        .collect();

    StudyData {
        crawl: crawl_result.report,
        download,
        layers,
        images,
        image_layers,
        pulls,
        analyze_errors,
        size_scale: hub.config.size_scale,
        seed: hub.config.seed,
    }
}

/// The one batch study: §III-A crawl, §III-B `download` the latest images
/// (unique layers only), §III-C `analyze` the layers, then aggregate image
/// profiles. The public entry points differ only in the two steps they
/// pass: which transport downloads, and what the per-layer pass feeds.
/// The per-stage reports inside [`StudyData`] are derived from the
/// `dhub_*` counters in `obs`, so a `/metrics` scrape and the end-of-run
/// table reconcile exactly.
fn batch_study(
    hub: &SyntheticHub,
    policy: &RetryPolicy,
    obs: &MetricsRegistry,
    download: impl FnOnce(&[RepoName]) -> DownloadResult,
    analyze: impl FnOnce(&[(Digest, Arc<Vec<u8>>)]) -> AnalysisResult,
) -> StudyData {
    let crawl_result = crawl_hub(hub, policy, obs);
    let dl = {
        let _stage = span!(obs, "download");
        download(&crawl_result.repos)
    };
    set_dedup_ratio(obs, &dl.report);
    let analysis = {
        let _stage = span!(obs, "analyze");
        analyze(&dl.layers)
    };
    assemble_study(hub, crawl_result, dl.images, dl.report, analysis.layers, analysis.errors.len())
}

/// The in-process download step over a simulated WAN.
fn wan_download<'a>(
    hub: &'a SyntheticHub,
    threads: usize,
    policy: &'a RetryPolicy,
    obs: &'a MetricsRegistry,
) -> impl FnOnce(&[RepoName]) -> DownloadResult + 'a {
    move |repos| download_all_obs(&hub.registry, repos, threads, &NetworkModel::wan(), policy, obs)
}

/// Runs the full measurement pipeline against a synthetic hub with the
/// default retry policy and a throwaway metrics registry.
pub fn run_study(hub: &SyntheticHub, threads: usize) -> StudyData {
    run_study_obs(hub, threads, &RetryPolicy::default(), &MetricsRegistry::new())
}

/// The plain study: in-process download, analysis only. Records live
/// metrics and per-stage spans into `obs`.
pub fn run_study_obs(
    hub: &SyntheticHub,
    threads: usize,
    policy: &RetryPolicy,
    obs: &MetricsRegistry,
) -> StudyData {
    let analyze = |layers: &[_]| analyze_all_obs(layers, threads, obs);
    batch_study(hub, policy, obs, wan_download(hub, threads, policy, obs), analyze)
}

/// [`run_study_obs`] with the analysis stage replaced by the fused
/// analyze + ingest pass: every successfully downloaded layer is profiled
/// *and* ingested into `store` in one decompression/hash sweep
/// ([`dhub_dedupstore::analyze_and_ingest_all`]). The returned
/// [`StudyData`] is identical to the plain pipeline's; the store fills as
/// a side effect, with its `dhub_store_*` metrics on whatever registry it
/// was bound to.
pub fn run_study_store_obs(
    hub: &SyntheticHub,
    threads: usize,
    policy: &RetryPolicy,
    store: &DedupStore,
    obs: &MetricsRegistry,
) -> StudyData {
    let ingest = |layers: &[_]| analyze_and_ingest_all(layers, threads, store, obs).analysis;
    batch_study(hub, policy, obs, wan_download(hub, threads, policy, obs), ingest)
}

/// [`run_study_store_obs`] against the **durable** store: the fused pass
/// writes every object and recipe through `dhub-persist`'s crash-safe
/// publish path, so the filled store survives the process and can be
/// reopened. `StudyData` is identical to the in-memory pipeline's;
/// durability is purely a side effect, with `dhub_persist_*` counters on
/// the publisher's registry binding.
pub fn run_study_persist_obs(
    hub: &SyntheticHub,
    threads: usize,
    policy: &RetryPolicy,
    store: &PersistentDedupStore,
    obs: &MetricsRegistry,
) -> StudyData {
    let ingest = |layers: &[_]| analyze_and_ingest_all(layers, threads, store, obs).analysis;
    batch_study(hub, policy, obs, wan_download(hub, threads, policy, obs), ingest)
}

/// [`run_study_obs`] with the download stage over the Registry V2 **HTTP**
/// transport against `addr` instead of in-process calls (the policy is
/// installed on every per-repo HTTP client; the server applies its own
/// wire faults). `addr` may be a direct origin (`RegistryServer::start`)
/// or a pull-through mirror (`RegistryServer::start_mirror` fronting
/// `dhub-mirror`): both speak the same wire protocol, so the study is
/// topology-agnostic and its results must be byte-identical either way
/// (the mirror chaos suite gates on exactly that).
///
/// The crawl stays in-process against `hub.search` — the paper crawled
/// `hub.docker.com` (the search API) and downloaded from
/// `registry-1.docker.io`, two different services; the mirror tier only
/// fronts the latter.
pub fn run_study_http_obs(
    hub: &SyntheticHub,
    addr: std::net::SocketAddr,
    threads: usize,
    policy: &RetryPolicy,
    obs: &MetricsRegistry,
) -> StudyData {
    let download = |repos: &[_]| download_all_http_obs(addr, repos, threads, policy, obs);
    batch_study(hub, policy, obs, download, |layers| analyze_all_obs(layers, threads, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_synth::{generate_hub, SynthConfig};

    fn study() -> StudyData {
        let hub = generate_hub(&SynthConfig::tiny(11).with_repos(40));
        run_study(&hub, 4)
    }

    #[test]
    fn pipeline_end_to_end() {
        let s = study();
        assert_eq!(s.crawl.distinct_repos, 40);
        assert!(s.download.images_downloaded > 20);
        assert!(s.download.failures() > 0);
        assert_eq!(s.analyze_errors, 0, "synthetic layers must all decode");
        assert_eq!(s.images.len(), s.download.images_downloaded);
        assert_eq!(s.layers.len(), s.download.unique_layers);
        assert_eq!(s.pulls.len(), 40);
    }

    #[test]
    fn image_profiles_reference_analyzed_layers() {
        let s = study();
        for img in &s.images {
            for d in &img.layers {
                assert!(s.layers.contains_key(d), "image references unanalyzed layer");
            }
        }
    }

    #[test]
    fn store_study_matches_plain_study() {
        let hub = generate_hub(&SynthConfig::tiny(23).with_repos(40));
        let plain = run_study(&hub, 4);
        let store = DedupStore::new();
        let fused =
            run_study_store_obs(&hub, 4, &RetryPolicy::default(), &store, &MetricsRegistry::new());
        assert_eq!(fused.crawl, plain.crawl);
        assert_eq!(fused.layers.len(), plain.layers.len());
        for (d, p) in &plain.layers {
            assert_eq!(fused.layers.get(d), Some(p), "fused profile diverged");
        }
        assert_eq!(fused.images, plain.images);
        assert_eq!(fused.analyze_errors, plain.analyze_errors);
        // The store holds exactly the analyzed unique layers.
        assert_eq!(store.stats().layers, fused.layers.len());
        assert!(store.stats().dedup_factor() >= 1.0);
        // Every stored layer reconstructs.
        for d in fused.layers.keys() {
            assert!(store.reconstruct_tar(d).is_ok());
        }
    }

    #[test]
    fn undecodable_layer_is_an_analysis_error_on_every_path() {
        use dhub_model::{LayerRef, Manifest};
        // One official image (so the crawl finds it) whose only layer is
        // not gzip: it downloads fine and must then surface as exactly one
        // analysis error — in the data and in the counter — whichever
        // scheduler or sink ran.
        let poisoned_hub = || {
            let hub = generate_hub(&SynthConfig::tiny(29).with_repos(20));
            let repo = RepoName::official("notgzip");
            let blob = b"this layer blob is not a gzip member".to_vec();
            let layer = LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 };
            hub.registry.create_repo(repo.clone(), false);
            hub.registry.push_image(&repo, "latest", &Manifest::new(vec![layer]), vec![blob]).unwrap();
            hub
        };
        let policy = RetryPolicy::default();
        type Run<'a> = &'a dyn Fn(&SyntheticHub, &MetricsRegistry) -> StudyData;
        let runs: [(&str, Run); 2] = [
            ("batch", &|hub, obs| run_study_obs(hub, 2, &policy, obs)),
            ("store", &|hub, obs| run_study_store_obs(hub, 2, &policy, &DedupStore::new(), obs)),
        ];
        let mut layer_counts = Vec::new();
        for (name, run) in runs {
            let obs = MetricsRegistry::new();
            let s = run(&poisoned_hub(), &obs);
            assert_eq!(s.analyze_errors, 1, "{name}");
            assert_eq!(obs.counter_value("dhub_analyze_errors_total"), 1, "{name}");
            // The blob was fetched, so it still counts as a unique layer.
            assert_eq!(s.download.unique_layers, s.layers.len() + 1, "{name}");
            layer_counts.push(s.layers.len());
        }
        assert!(layer_counts.iter().all(|&n| n == layer_counts[0]), "{layer_counts:?}");
    }

    #[test]
    fn deterministic_pipeline() {
        let hub = generate_hub(&SynthConfig::tiny(13).with_repos(30));
        let a = run_study(&hub, 2);
        let b = run_study(&hub, 8);
        assert_eq!(a.layers.len(), b.layers.len());
        assert_eq!(a.images.len(), b.images.len());
        let fa: u64 = a.layer_slice().iter().map(|l| l.file_count).sum();
        let fb: u64 = b.layer_slice().iter().map(|l| l.file_count).sum();
        assert_eq!(fa, fb);
    }
}
