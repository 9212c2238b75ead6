//! Cross-crate integration tests: the full crawl → download → analyze →
//! dedup pipeline against a generated hub, checked against the generator's
//! ground truth.

use dhub_study::figures::{self, StudyView};
use dhub_study::pipeline::{run_study, StudyData};
use dhub_synth::{generate_hub, GroundTruth, SynthConfig, SyntheticHub};
use std::sync::OnceLock;

fn hub() -> &'static SyntheticHub {
    static HUB: OnceLock<SyntheticHub> = OnceLock::new();
    HUB.get_or_init(|| generate_hub(&SynthConfig::tiny(20170530).with_repos(120)))
}

fn data() -> &'static StudyData {
    static DATA: OnceLock<StudyData> = OnceLock::new();
    DATA.get_or_init(|| run_study(hub(), dhub_par::default_threads()))
}

fn view() -> &'static StudyView<'static> {
    static VIEW: OnceLock<StudyView<'static>> = OnceLock::new();
    VIEW.get_or_init(|| StudyView::new(data()))
}

fn truth() -> &'static GroundTruth {
    &hub().truth
}

#[test]
fn crawler_finds_every_repository() {
    let d = data();
    assert_eq!(d.crawl.distinct_repos, truth().total_repos());
    // The index injects duplicates, so raw hits exceed distinct repos.
    assert!(d.crawl.raw_results > d.crawl.distinct_repos);
}

#[test]
fn download_report_matches_ground_truth() {
    let d = data();
    let t = truth();
    assert_eq!(d.download.images_downloaded, t.ok_repos.len());
    assert_eq!(d.download.failed_auth, t.auth_repos.len());
    assert_eq!(d.download.failed_no_latest, t.no_latest_repos.len());
    assert_eq!(d.download.failed_other, 0);
}

#[test]
fn every_layer_decodes() {
    assert_eq!(data().analyze_errors, 0);
}

#[test]
fn unique_layers_never_fetched_twice() {
    let d = data();
    let total_refs: usize = d.image_layers.iter().map(|i| i.layers.len()).sum();
    assert_eq!(
        d.download.layer_fetches_skipped as usize + d.download.unique_layers,
        total_refs,
        "every manifest layer reference is either a fetch or a skip"
    );
}

#[test]
fn empty_layer_is_most_referenced() {
    let d = data();
    let sizes = d.layer_sizes();
    let sharing = dhub_dedup::layer_sharing(&d.image_layers, &sizes);
    let (top_digest, top_refs) = sharing.top(1)[0];
    assert_eq!(Some(top_digest), truth().empty_layer_digest);
    // Roughly half of all images include it (EMPTY_LAYER_IMAGE_FRACTION).
    let share = top_refs as f64 / d.images.len() as f64;
    assert!((0.3..0.75).contains(&share), "empty-layer share {share}");
}

#[test]
fn dedup_invariants() {
    let v = view();
    let stats = v.files.stats();
    assert!(stats.unique_files <= stats.total_instances);
    assert!(stats.unique_bytes <= stats.total_bytes);
    assert!(stats.count_ratio() >= 1.0);
    assert!(stats.capacity_ratio() >= 1.0);
    let sum_of_repeats: u64 = stats.repeat_counts.iter().sum();
    assert_eq!(sum_of_repeats, stats.total_instances);
    // The analyzer's own totals agree with the dedup index.
    let files: u64 = v.layers.iter().map(|l| l.file_count).sum();
    assert_eq!(files, stats.total_instances);
}

#[test]
fn image_profiles_are_consistent_sums() {
    let d = data();
    for img in d.images.iter().take(50) {
        let mut fis = 0;
        let mut files = 0;
        for l in &img.layers {
            let lp = &d.layers[l];
            fis += lp.fls;
            files += lp.file_count;
        }
        assert_eq!(img.fis, fis);
        assert_eq!(img.file_count, files);
        assert!(img.cis > 0);
    }
}

#[test]
fn all_figures_produce_reports() {
    let reports = figures::all_figures(data());
    assert_eq!(reports.len(), 29, "Table 1 + Figs. 3..=29 + Table 2");
    for r in &reports {
        assert!(!r.rows.is_empty(), "{} has no rows", r.id);
        let text = r.render();
        assert!(text.contains(r.id));
        for a in &r.anchors {
            assert!(a.measured.is_finite(), "{}: anchor {} not finite", r.id, a.name);
            assert!(a.measured >= 0.0, "{}: anchor {} negative", r.id, a.name);
        }
    }
}

#[test]
fn famous_repositories_reproduced() {
    let d = data();
    let nginx = d.pulls.iter().find(|(r, _)| r.full() == "nginx").expect("nginx crawled");
    assert!(nginx.1 >= 650_000_000);
    let max = d.pulls.iter().map(|(_, c)| *c).max().unwrap();
    assert_eq!(max, nginx.1, "nginx is the most-pulled repository");
}

#[test]
fn pipeline_is_deterministic_across_thread_counts() {
    let hub2 = generate_hub(&SynthConfig::tiny(20170530).with_repos(120));
    let d2 = run_study(&hub2, 2);
    let d = data();
    assert_eq!(d.layers.len(), d2.layers.len());
    assert_eq!(d.images.len(), d2.images.len());
    let f1: u64 = d.layer_slice().iter().map(|l| l.file_count).sum();
    let f2: u64 = d2.layer_slice().iter().map(|l| l.file_count).sum();
    assert_eq!(f1, f2);
    // Same layer digests exactly.
    let mut k1: Vec<_> = d.layers.keys().collect();
    let mut k2: Vec<_> = d2.layers.keys().collect();
    k1.sort();
    k2.sort();
    assert_eq!(k1, k2);
}

#[test]
fn registry_bytes_match_downloaded_bytes() {
    let d = data();
    let stored: u64 = d.layer_slice().iter().map(|l| l.cls).sum();
    assert_eq!(d.download.bytes_fetched, stored);
}

#[test]
fn classifier_sees_no_unclassifiable_flood() {
    // The generator forges valid signatures; OtherBinary should stay a
    // modest minority (it is 8.8 % of the mix), not a catch-all flood.
    let census = view().files.census();
    let other = census.count(dhub_model::FileKind::OtherBinary) as f64;
    let total = census.total_count() as f64;
    assert!(other / total < 0.2, "OtherBinary share {}", other / total);
}
