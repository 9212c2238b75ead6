//! End-to-end over the wire: the same study, but with every manifest and
//! layer fetched through the Registry V2 HTTP server on localhost —
//! verifying the whole measurement stack against the paper's actual
//! transport protocol.

use dhub_downloader::{download_all_http_obs, download_all_obs};
use dhub_faults::RetryPolicy;
use dhub_obs::MetricsRegistry;
use dhub_registry::{NetworkModel, RegistryServer};
use dhub_synth::{generate_hub, SynthConfig};

#[test]
fn http_transport_study_matches_in_process() {
    let hub = generate_hub(&SynthConfig::tiny(61).with_repos(50));
    let server = RegistryServer::start(hub.registry.clone()).unwrap();

    // Crawl via the search front-end, as always.
    let officials: Vec<_> =
        hub.registry.repo_names().into_iter().filter(|r| r.is_official()).collect();
    let crawl = dhub_crawler::crawl(&hub.search, &officials);

    // Download both ways.
    let (policy, obs) = (RetryPolicy::default(), MetricsRegistry::new());
    let via_http = download_all_http_obs(server.addr(), &crawl.repos, 4, &policy, &obs);
    let net = NetworkModel::datacenter();
    let in_proc = download_all_obs(&hub.registry, &crawl.repos, 4, &net, &policy, &obs);

    assert_eq!(via_http.report.images_downloaded, in_proc.report.images_downloaded);
    assert_eq!(via_http.report.failed_auth, in_proc.report.failed_auth);
    assert_eq!(via_http.report.failed_no_latest, in_proc.report.failed_no_latest);
    assert_eq!(via_http.report.unique_layers, in_proc.report.unique_layers);
    assert_eq!(via_http.report.bytes_fetched, in_proc.report.bytes_fetched);

    // Analyze the HTTP-fetched layers; dedup headline must be identical.
    let a_http = dhub_analyzer::analyze_all_obs(&via_http.layers, 4, &obs);
    let a_proc = dhub_analyzer::analyze_all_obs(&in_proc.layers, 4, &obs);
    assert_eq!(a_http.errors.len(), 0);
    assert_eq!(a_http.layers.len(), a_proc.layers.len());

    let sh: Vec<_> = dhub_dedup::profile_slice(&a_http.layers);
    let sp: Vec<_> = dhub_dedup::profile_slice(&a_proc.layers);
    let dh = dhub_dedup::FileIndex::build(&sh).stats();
    let dp = dhub_dedup::FileIndex::build(&sp).stats();
    assert_eq!(dh.total_instances, dp.total_instances);
    assert_eq!(dh.unique_files, dp.unique_files);
    assert_eq!(dh.total_bytes, dp.total_bytes);

    server.shutdown();
}

#[test]
fn http_study_counts_pulls() {
    let hub = generate_hub(&SynthConfig::tiny(62).with_repos(30));
    let server = RegistryServer::start(hub.registry.clone()).unwrap();
    let repo = hub.truth.ok_repos[0].clone();
    let before = hub.registry.pull_count(&repo).unwrap();
    let _ = download_all_http_obs(
        server.addr(),
        std::slice::from_ref(&repo),
        1,
        &RetryPolicy::default(),
        &MetricsRegistry::new(),
    );
    let after = hub.registry.pull_count(&repo).unwrap();
    assert_eq!(after, before + 1, "HTTP pulls must hit the same counters");
    server.shutdown();
}

/// Parses a Prometheus text exposition into `metric line → value`,
/// asserting every non-comment line is `name[{labels}] value`.
fn parse_exposition(text: &str) -> std::collections::BTreeMap<String, f64> {
    let mut out = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        let value: f64 =
            value.parse().unwrap_or_else(|_| panic!("non-numeric value in {line:?}"));
        out.insert(name.to_string(), value);
    }
    out
}

#[test]
fn metrics_endpoint_serves_live_counters_during_study() {
    use dhub_registry::RemoteRegistry;
    use dhub_study::pipeline::run_study_obs;
    use std::sync::Arc;

    let hub = generate_hub(&SynthConfig::tiny(63).with_repos(50));
    let obs = Arc::new(MetricsRegistry::new());
    // The server scrapes the same registry the (in-process) study records
    // into — exactly the `--metrics` CLI topology.
    let server = RegistryServer::start_full(hub.registry.clone(), None, obs.clone(), dhub_registry::DEFAULT_MAX_CONNS).unwrap();
    let addr = server.addr();

    // Two concurrent scrapers poll /metrics while the study runs; each
    // asserts every `_total` series it sees is monotone non-decreasing.
    let study = {
        let obs = obs.clone();
        std::thread::spawn(move || {
            run_study_obs(&hub, 4, &RetryPolicy::default(), &obs)
        })
    };
    let scrapers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let client = RemoteRegistry::connect(addr);
                let mut last: std::collections::BTreeMap<String, f64> = Default::default();
                let mut scrapes = 0usize;
                for _ in 0..20 {
                    let text = client.metrics_text().expect("scrape failed");
                    let now = parse_exposition(&text);
                    for (k, v) in &now {
                        if k.ends_with("_total") {
                            if let Some(prev) = last.get(k) {
                                assert!(v >= prev, "{k} went backwards: {prev} -> {v}");
                            }
                        }
                    }
                    last = now;
                    scrapes += 1;
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                scrapes
            })
        })
        .collect();
    let data = study.join().unwrap();
    for s in scrapers {
        assert_eq!(s.join().unwrap(), 20);
    }

    // The final scrape agrees with the returned report, field for field.
    let client = RemoteRegistry::connect(addr);
    let fin = parse_exposition(&client.metrics_text().unwrap());
    assert_eq!(
        fin["dhub_download_images_ok_total"] as u64,
        data.download.images_downloaded as u64
    );
    assert_eq!(fin["dhub_download_bytes_total"] as u64, data.download.bytes_fetched);
    assert_eq!(fin["dhub_crawl_raw_results_total"] as u64, data.crawl.raw_results as u64);
    assert_eq!(fin["dhub_analyze_layers_total"] as u64, data.layers.len() as u64);
    // The server counted the scrapes themselves too.
    assert!(fin["dhub_http_requests_total"] >= 41.0, "2x20 scrapes + final");
    server.shutdown();
}

#[test]
fn metrics_scrape_rides_out_wire_faults() {
    use dhub_faults::{FaultConfig, FaultInjector};
    use dhub_registry::RemoteRegistry;
    use std::sync::Arc;

    let hub = generate_hub(&SynthConfig::tiny(64).with_repos(10));
    let obs = Arc::new(MetricsRegistry::new());
    obs.counter("dhub_probe_total").add(7);
    let inj = Arc::new(FaultInjector::new(FaultConfig::uniform(9, 0.3)));
    let server =
        RegistryServer::start_full(hub.registry.clone(), Some(inj.clone()), obs.clone(), dhub_registry::DEFAULT_MAX_CONNS).unwrap();
    let client = RemoteRegistry::connect(server.addr())
        .with_retry_policy(RetryPolicy::fast(20).with_seed(9));
    for _ in 0..10 {
        let text = client.metrics_text().expect("retrying scrape must succeed");
        let parsed = parse_exposition(&text);
        assert_eq!(parsed["dhub_probe_total"], 7.0);
    }
    assert!(inj.stats().total() > 0, "injector must have hit the scrape path");
    server.shutdown();
}
