//! Multi-version analysis — the paper's first §VI future-work item:
//! "extend our analysis to multiple versions of Docker images and study
//! the dependencies among them".
//!
//! For every repository carrying more than one tag, versions are ordered
//! (`v1 < v2 < … < latest`) and adjacent pairs are compared: how many
//! layers the newer version reuses from the older (the incremental-build
//! dependency), and how many new compressed bytes each release adds.

use crate::report::{Anchor, FigureReport};
use dhub_model::RepoName;
use dhub_registry::Registry;
use dhub_stats::Ecdf;
use std::collections::HashSet;

/// Results of the cross-version study.
#[derive(Clone, Debug, Default)]
pub struct VersionStudy {
    /// Tags per repository (all repos, including single-tag ones).
    pub tags_per_repo: Vec<usize>,
    /// For each adjacent version pair: fraction of the newer version's
    /// layers reused from the older version.
    pub consecutive_reuse: Vec<f64>,
    /// New compressed bytes introduced by each release (delta CIS).
    pub delta_bytes: Vec<u64>,
}

impl VersionStudy {
    /// Repositories with more than one version.
    fn repos_with_history(&self) -> usize {
        self.tags_per_repo.iter().filter(|&&t| t > 1).count()
    }
}

/// Orders tags oldest-first: `v<k>` ascending by k, then `latest`,
/// then anything else lexicographically in between.
fn tag_order_key(tag: &str) -> (u8, u64, String) {
    if tag == "latest" {
        return (2, 0, String::new());
    }
    if let Some(num) = tag.strip_prefix('v').and_then(|n| n.parse::<u64>().ok()) {
        return (0, num, String::new());
    }
    (1, 0, tag.to_string())
}

/// Runs the cross-version analysis over `repos` (anonymous pulls; repos
/// rejecting them are skipped, as in the main study).
pub fn analyze_versions(registry: &Registry, repos: &[RepoName]) -> VersionStudy {
    let mut study = VersionStudy::default();
    for repo in repos {
        let Some(mut tags) = registry.tags(repo) else { continue };
        tags.sort_by_key(|t| tag_order_key(t));
        study.tags_per_repo.push(tags.len());
        if tags.len() < 2 {
            continue;
        }
        let manifests: Vec<_> = tags
            .iter()
            .filter_map(|t| registry.get_manifest(repo, t, false).ok().map(|s| s.manifest))
            .collect();
        for pair in manifests.windows(2) {
            let (older, newer) = (&pair[0], &pair[1]);
            let old_set: HashSet<_> = older.layers.iter().map(|l| l.digest).collect();
            let reused = newer.layers.iter().filter(|l| old_set.contains(&l.digest)).count();
            if !newer.layers.is_empty() {
                study.consecutive_reuse.push(reused as f64 / newer.layers.len() as f64);
            }
            let delta: u64 = newer
                .layers
                .iter()
                .filter(|l| !old_set.contains(&l.digest))
                .map(|l| l.size)
                .sum();
            study.delta_bytes.push(delta);
        }
    }
    study
}

/// Extension figure V1 — version counts and cross-version layer reuse.
pub fn ext_v1(study: &VersionStudy, size_scale: u64) -> FigureReport {
    let tags = Ecdf::from_u64(study.tags_per_repo.iter().map(|&t| t as u64));
    let mut rows = crate::report::cdf_rows(&tags, "tags/repo");
    if !study.consecutive_reuse.is_empty() {
        let reuse = Ecdf::new(study.consecutive_reuse.clone());
        rows.extend(crate::report::cdf_rows(&reuse, "layer reuse"));
        let delta = Ecdf::new(
            study.delta_bytes.iter().map(|&b| b as f64 * size_scale as f64).collect(),
        );
        rows.extend(crate::report::cdf_rows(&delta, "release delta(B)"));
    }

    let median_reuse = if study.consecutive_reuse.is_empty() {
        0.0
    } else {
        Ecdf::new(study.consecutive_reuse.clone()).median()
    };
    let multi = study.repos_with_history() as f64 / study.tags_per_repo.len().max(1) as f64;

    FigureReport {
        id: "Ext. V1",
        title: "multi-version layer dependencies (§VI extension)".into(),
        rows,
        anchors: vec![
            // No paper values exist (this is their future work); the
            // anchors record the extension's own headline numbers against
            // the generator's design targets.
            Anchor::new("repos with version history", 0.45, multi),
            Anchor::new("median cross-version layer reuse", 0.85, median_reuse),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_synth::{generate_hub, SynthConfig};

    #[test]
    fn tag_ordering() {
        let mut tags = vec!["latest".to_string(), "v2".to_string(), "v1".to_string(), "v10".to_string()];
        tags.sort_by_key(|t| tag_order_key(t));
        assert_eq!(tags, vec!["v1", "v2", "v10", "latest"]);
    }

    #[test]
    fn version_analysis_on_synthetic_hub() {
        let hub = generate_hub(&SynthConfig::tiny(31).with_repos(60));
        let repos = hub.registry.repo_names();
        let study = analyze_versions(&hub.registry, &repos);
        assert_eq!(study.tags_per_repo.len(), repos.len());
        assert!(study.repos_with_history() > 0, "expect some version histories");
        assert_eq!(study.consecutive_reuse.len(), study.delta_bytes.len());
        // Incremental rebuilds: adjacent versions share most layers.
        let mean_reuse: f64 =
            study.consecutive_reuse.iter().sum::<f64>() / study.consecutive_reuse.len() as f64;
        assert!(mean_reuse > 0.6, "mean reuse {mean_reuse}");
        for &r in &study.consecutive_reuse {
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn ext_figure_renders() {
        let hub = generate_hub(&SynthConfig::tiny(32).with_repos(40));
        let repos = hub.registry.repo_names();
        let study = analyze_versions(&hub.registry, &repos);
        let fig = ext_v1(&study, hub.config.size_scale);
        assert!(fig.render().contains("Ext. V1"));
        assert!(!fig.rows.is_empty());
    }

    #[test]
    fn auth_repos_skipped() {
        let hub = generate_hub(&SynthConfig::tiny(33).with_repos(60));
        let study = analyze_versions(&hub.registry, &hub.truth.auth_repos);
        // Auth repos reject anonymous pulls: tags listed but no manifests,
        // so no reuse samples come out of them.
        assert!(study.consecutive_reuse.is_empty());
    }
}
