//! Top-level hub generation: registry + search index + ground truth.

use crate::calibration::*;
use crate::imagegen::{layer_count_dist, sample_fate, sample_layer_count, sample_pull_count, RepoFate};
use crate::layergen::{app_layer_files, build_app_layer, build_empty_layer, build_layer_with_files, BuiltLayer};
use crate::pool::FilePool;
use dhub_model::{Digest, LayerRef, Manifest, RepoName};
use dhub_registry::{Registry, SearchIndex};
use dhub_stats::{Rng, Zipf};
use std::sync::Arc;

/// The generator's own bookkeeping, used by tests and reports to verify
/// what the measurement pipeline recovers.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// Repositories with a pullable `latest`.
    pub ok_repos: Vec<RepoName>,
    /// Repositories rejecting anonymous pulls.
    pub auth_repos: Vec<RepoName>,
    /// Repositories without a `latest` tag.
    pub no_latest_repos: Vec<RepoName>,
    /// Digest of the shared empty layer.
    pub empty_layer_digest: Option<Digest>,
    /// Digests of all base-chain layers.
    pub base_layer_digests: Vec<Digest>,
    /// Number of images pushed (all fates, all tags).
    pub images_pushed: usize,
    /// Repositories carrying more than one version tag, with tag counts
    /// (the §VI multi-version extension).
    pub multi_tag_repos: Vec<(RepoName, usize)>,
}

impl GroundTruth {
    /// Total repositories.
    pub fn total_repos(&self) -> usize {
        self.ok_repos.len() + self.auth_repos.len() + self.no_latest_repos.len()
    }
}

/// A generated hub: the registry, its search front-end, and ground truth.
pub struct SyntheticHub {
    pub registry: Arc<Registry>,
    pub search: SearchIndex,
    pub truth: GroundTruth,
    pub config: SynthConfig,
}

/// Deterministic seed for app layer `j` of repo `i`.
fn app_seed(base: u64, repo: usize, j: usize) -> u64 {
    let mut x = base ^ (repo as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64) << 17;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

/// Well-known official repository names (first indices of the pool).
const OFFICIAL_NAMES: [&str; 20] = [
    "postgres", "mysql", "node", "golang", "python", "httpd", "mongo", "memcached", "alpine",
    "debian", "centos", "busybox", "java", "php", "rabbitmq", "haproxy", "tomcat", "wordpress",
    "elasticsearch", "jenkins",
];

/// One repository's draws, all made before any shared layer is built.
struct RepoPlan {
    name: RepoName,
    fate: RepoFate,
    pulls: u64,
    content: Content,
}

/// What a repository pushes.
enum Content {
    /// Every tagged version, oldest first; the paper's study pulls only
    /// `latest`, but the version history exists for the §VI extension
    /// analysis (multi-version layer reuse). Each version is the first
    /// `base.1` layers of base chain `base.0`, then its app layers by seed,
    /// then the empty layer when `use_empty` is set.
    Images { base: Option<(usize, usize)>, versions: Vec<Vec<u64>>, use_empty: bool },
    /// One small layer drawn from the repository's own RNG, so built while
    /// planning.
    Single(BuiltLayer),
}

/// A distinct layer build: a whole base chain (its RNG is sequential, so
/// one task), or the app layer of the `n`th distinct seed.
#[derive(Clone, Copy)]
enum Job {
    Base(usize),
    App(usize),
}

/// Generates the complete synthetic hub.
///
/// Three phases: plan every repository's draws; build each distinct layer
/// once (base chains and app layers by seed — half of all app-layer uses
/// repeat a seed, through old versions and donor repos) in one parallel
/// pass, largest first so no worker idles behind a big base chain; then
/// assemble the manifests. Every blob goes into the registry once.
pub fn generate_hub(cfg: &SynthConfig) -> SyntheticHub {
    let root = Rng::new(cfg.seed);
    let ok_fraction = 1.0 - cfg.auth_fraction - cfg.no_latest_fraction;
    let expected_files = ((cfg.repos as f64) * ok_fraction * 6.0 * 700.0) as u64 + 200_000;
    let pool = FilePool::build(cfg, expected_files);

    // --- Plan --------------------------------------------------------------
    let n_bases = base_pool_size(cfg.repos);
    let layer_dist = layer_count_dist();
    let base_zipf = Zipf::new(n_bases, BASE_ZIPF_EXPONENT);
    let official_count = official_repo_count(cfg.repos).min(cfg.repos);
    let plans: Vec<RepoPlan> = dhub_par::par_map_range(cfg.threads, 0..cfg.repos, |i| {
        plan_repo(cfg, i, official_count, &pool, &layer_dist, &base_zipf, &root)
    });

    // --- Build each distinct layer once, largest first -------------------
    let mut seeds: Vec<u64> = Vec::new();
    for plan in &plans {
        if let Content::Images { versions, .. } = &plan.content {
            seeds.extend(versions.iter().flatten());
        }
    }
    seeds.sort_unstable();
    seeds.dedup();
    let mut jobs: Vec<(u64, Job)> = (0..n_bases)
        .map(|b| (base_spec(b).files, Job::Base(b)))
        .chain(seeds.iter().enumerate().map(|(n, &seed)| (app_layer_files(seed), Job::App(n))))
        .collect();
    jobs.sort_by_key(|&(files, _)| std::cmp::Reverse(files));
    let built: Vec<Vec<BuiltLayer>> = dhub_par::par_map_each(cfg.threads, &jobs, |&(_, job)| match job {
        Job::Base(b) => build_base_chain(&pool, b, &root),
        Job::App(n) => vec![build_app_layer(&pool, seeds[n])],
    });

    // --- Assemble ----------------------------------------------------------
    let registry = Arc::new(Registry::new());
    let blobs = registry.blob_store();
    let mut put = |layer: BuiltLayer| {
        let size = layer.cls();
        LayerRef { digest: blobs.put(layer.blob), size }
    };
    let mut bases: Vec<Vec<LayerRef>> = vec![Vec::new(); n_bases];
    let mut apps: Vec<Option<LayerRef>> = vec![None; seeds.len()];
    for (&(_, job), layers) in jobs.iter().zip(built) {
        match job {
            Job::Base(b) => bases[b] = layers.into_iter().map(&mut put).collect(),
            Job::App(n) => apps[n] = layers.into_iter().next().map(&mut put),
        }
    }
    let app = |seed: u64| apps[seeds.binary_search(&seed).expect("planned seed")].expect("built");
    let empty = put(build_empty_layer());

    let mut truth = GroundTruth {
        empty_layer_digest: Some(empty.digest),
        base_layer_digests: bases.iter().flatten().map(|l| l.digest).collect(),
        ..GroundTruth::default()
    };
    for plan in plans {
        let authed = plan.fate == RepoFate::AuthRequired;
        registry.create_repo(plan.name.clone(), authed);
        let mut tags = 0;
        let mut push = |tag: &str, refs: Vec<LayerRef>| {
            registry
                .push_image(&plan.name, tag, &Manifest::new(refs), Vec::new())
                .expect("generator pushes are internally consistent");
            tags += 1;
        };
        match plan.content {
            Content::Images { base, versions, use_empty } => {
                let newest = versions.len() - 1;
                for (v, seeds) in versions.iter().enumerate() {
                    let mut refs: Vec<LayerRef> = match base {
                        Some((b, take)) => bases[b][..take].to_vec(),
                        None => Vec::new(),
                    };
                    refs.extend(seeds.iter().map(|&seed| app(seed)));
                    if use_empty {
                        refs.push(empty);
                    }
                    let tag = if v == newest { "latest".to_string() } else { format!("v{}", v + 1) };
                    push(&tag, refs);
                }
            }
            Content::Single(layer) => {
                let tag = if plan.fate == RepoFate::NoLatest { "v1" } else { "latest" };
                push(tag, vec![put(layer)]);
            }
        }
        truth.images_pushed += tags;
        registry.add_pulls(&plan.name, plan.pulls);
        if tags > 1 {
            truth.multi_tag_repos.push((plan.name.clone(), tags));
        }
        match plan.fate {
            RepoFate::Ok => truth.ok_repos.push(plan.name),
            RepoFate::AuthRequired => truth.auth_repos.push(plan.name),
            RepoFate::NoLatest => truth.no_latest_repos.push(plan.name),
        }
    }

    let all_names: Vec<RepoName> = registry.repo_names();
    let search = SearchIndex::build(all_names, cfg.search_duplication, cfg.search_page_size);

    SyntheticHub { registry, search, truth, config: cfg.clone() }
}

/// Base chain `b`'s archetype.
fn base_spec(b: usize) -> &'static BaseSpec {
    &BASE_ARCHETYPES[b % BASE_ARCHETYPES.len()]
}

/// Builds base chain `b` from its own RNG stream.
fn build_base_chain(pool: &FilePool, b: usize, root: &Rng) -> Vec<BuiltLayer> {
    let spec = base_spec(b);
    let mut rng = root.fork(0xBA5E_0000 + b as u64);
    // Front-load the chain: the first layer is the OS snapshot, later
    // layers are incremental additions.
    let mut remaining = spec.files;
    (0..spec.chain)
        .map(|pos| {
            let share = if pos == 0 { remaining * 6 / 10 } else { remaining / (spec.chain - pos) as u64 };
            let share = share.max(1).min(remaining.max(1));
            remaining = remaining.saturating_sub(share);
            build_layer_with_files(pool, share, &mut rng)
        })
        .collect()
}

fn plan_repo(
    cfg: &SynthConfig,
    i: usize,
    official_count: usize,
    pool: &FilePool,
    layer_dist: &dhub_stats::Categorical,
    base_zipf: &Zipf,
    root: &Rng,
) -> RepoPlan {
    let mut rng = root.fork(0x4E90_0000 + i as u64);

    // Naming: famous first, then official pool, then user repos.
    let name = if i < FAMOUS_REPOS.len().min(cfg.repos) {
        RepoName::parse(FAMOUS_REPOS[i].0).unwrap()
    } else if i < official_count {
        let base = OFFICIAL_NAMES[(i - FAMOUS_REPOS.len()) % OFFICIAL_NAMES.len()];
        if i - FAMOUS_REPOS.len() < OFFICIAL_NAMES.len() {
            RepoName::official(base)
        } else {
            RepoName::official(&format!("{base}{i}"))
        }
    } else {
        let ns = format!("user{}", rng.below((cfg.repos as u64 / 3).max(1)));
        RepoName::user(&ns, &format!("app-{i}"))
    };

    // Officials are maintained: always pullable. Others roll the dice.
    let fate = if i < official_count { RepoFate::Ok } else { sample_fate(cfg, &mut rng) };
    let pulls = if i < FAMOUS_REPOS.len() { FAMOUS_REPOS[i].1 } else { sample_pull_count(&mut rng) };

    let content = match fate {
        RepoFate::Ok => {
            let total_layers = sample_layer_count(layer_dist, &mut rng);
            let mut slots = total_layers;

            let use_empty = slots > 1 && rng.chance(EMPTY_LAYER_IMAGE_FRACTION);
            if use_empty {
                slots -= 1;
            }
            let mut base = None;
            if slots > 1 && rng.chance(BASE_CHAIN_IMAGE_FRACTION) {
                let b = base_zipf.sample(&mut rng) - 1;
                let take = base_spec(b).chain.min(slots - 1);
                base = Some((b, take));
                slots -= take;
            }
            let mut app_seeds: Vec<u64> = Vec::with_capacity(slots);
            for j in 0..slots {
                // Occasionally reuse a neighbour repo's app layer seed —
                // identical seed ⇒ identical blob ⇒ a shared (refcount 2+)
                // layer in the registry (Fig. 23's small sharing bucket).
                let seed = if i >= 16 && rng.chance(APP_LAYER_REUSE_PROB) {
                    let donor = i - 1 - rng.below(15) as usize;
                    app_seed(cfg.seed, donor, rng.below(2) as usize)
                } else {
                    app_seed(cfg.seed, i, j)
                };
                app_seeds.push(seed);
            }

            // Older tagged versions (§VI extension): each version differs
            // from its successor in the topmost app layer — the incremental
            // rebuild pattern real registries exhibit.
            let old_versions = if rng.chance(0.45) { 1 + rng.below(4) as usize } else { 0 };
            let versions = (0..=old_versions)
                .map(|v| {
                    // v == old_versions is the newest (latest); lower v
                    // replaces the last app layer with its era's build.
                    let mut seeds = app_seeds.clone();
                    if v < old_versions {
                        if let Some(last) = seeds.last_mut() {
                            *last = app_seed(cfg.seed, i, 0x900 + v);
                        }
                    }
                    seeds
                })
                .collect();
            Content::Images { base, versions, use_empty }
        }
        // Content exists but the study cannot (auth) or does not (no
        // latest) fetch it; keep it small.
        RepoFate::AuthRequired | RepoFate::NoLatest => {
            Content::Single(build_layer_with_files(pool, 3, &mut rng))
        }
    };
    RepoPlan { name, fate, pulls, content }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> &'static SyntheticHub {
        static HUB: std::sync::OnceLock<SyntheticHub> = std::sync::OnceLock::new();
        HUB.get_or_init(|| generate_hub(&SynthConfig::tiny(77)))
    }

    #[test]
    fn hub_has_expected_repo_population() {
        let h = hub();
        assert_eq!(h.truth.total_repos(), 90);
        assert_eq!(h.registry.stats().repositories, 90);
        // Every repo has ≥1 image; version histories push extra tags.
        assert!(h.truth.images_pushed >= 90, "{}", h.truth.images_pushed);
        // Fate split roughly matches configured fractions (tiny sample).
        assert!(h.truth.ok_repos.len() > 50, "ok repos {}", h.truth.ok_repos.len());
        assert!(!h.truth.no_latest_repos.is_empty());
    }

    #[test]
    fn famous_repos_exist_with_reported_pulls() {
        let h = hub();
        // The shared fixture's other tests may add a handful of test pulls
        // on top of the implanted counters.
        let nginx = RepoName::official("nginx");
        let n = h.registry.pull_count(&nginx).unwrap();
        assert!((650_000_000..650_001_000).contains(&n), "nginx pulls {n}");
        let cad = RepoName::user("google", "cadvisor");
        let c = h.registry.pull_count(&cad).unwrap();
        assert!((434_000_000..434_001_000).contains(&c), "cadvisor pulls {c}");
    }

    #[test]
    fn ok_repos_are_pullable_and_failures_fail_right() {
        let h = hub();
        for r in h.truth.ok_repos.iter().take(10) {
            let sess = h.registry.get_manifest(r, "latest", false).expect("latest pullable");
            assert!(!sess.manifest.layers.is_empty());
            for l in &sess.manifest.layers {
                assert!(h.registry.get_blob(&l.digest).is_ok(), "dangling layer");
            }
        }
        for r in h.truth.auth_repos.iter().take(5) {
            assert_eq!(
                h.registry.get_manifest(r, "latest", false).unwrap_err(),
                dhub_registry::ApiError::AuthRequired
            );
        }
        for r in h.truth.no_latest_repos.iter().take(5) {
            assert_eq!(
                h.registry.get_manifest(r, "latest", false).unwrap_err(),
                dhub_registry::ApiError::TagNotFound
            );
        }
    }

    #[test]
    fn empty_layer_widely_shared() {
        let h = hub();
        let empty = h.truth.empty_layer_digest.unwrap();
        let mut refs = 0;
        for r in &h.truth.ok_repos {
            let sess = h.registry.get_manifest(r, "latest", false).unwrap();
            if sess.manifest.layers.iter().any(|l| l.digest == empty) {
                refs += 1;
            }
        }
        let share = refs as f64 / h.truth.ok_repos.len() as f64;
        assert!((0.3..0.7).contains(&share), "empty-layer share {share}");
    }

    #[test]
    fn base_layers_shared_across_images() {
        let h = hub();
        let base_set: std::collections::HashSet<_> = h.truth.base_layer_digests.iter().collect();
        let mut base_refs = 0usize;
        for r in &h.truth.ok_repos {
            let sess = h.registry.get_manifest(r, "latest", false).unwrap();
            base_refs += sess.manifest.layers.iter().filter(|l| base_set.contains(&l.digest)).count();
        }
        // Many more references than unique base layers ⇒ real sharing.
        assert!(base_refs > base_set.len() * 2, "refs {base_refs} vs unique {}", base_set.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_hub(&SynthConfig::tiny(5).with_repos(20));
        let b = generate_hub(&SynthConfig::tiny(5).with_repos(20));
        assert_eq!(a.registry.stats(), b.registry.stats());
        let mut an = a.registry.repo_names();
        let mut bn = b.registry.repo_names();
        an.sort();
        bn.sort();
        assert_eq!(an, bn);
    }

    #[test]
    fn version_histories_share_layers() {
        let h = hub();
        assert!(!h.truth.multi_tag_repos.is_empty(), "some repos must carry version tags");
        let (repo, tags) = &h.truth.multi_tag_repos[0];
        assert!(*tags >= 2);
        let names = h.registry.tags(repo).unwrap();
        assert!(names.len() >= 2, "{names:?}");
        // Adjacent versions share all but ~one layer.
        let latest = h.registry.get_manifest(repo, "latest", true).unwrap().manifest;
        let v1 = h.registry.get_manifest(repo, "v1", true).unwrap().manifest;
        let set: std::collections::HashSet<_> = latest.layers.iter().map(|l| l.digest).collect();
        let shared = v1.layers.iter().filter(|l| set.contains(&l.digest)).count();
        assert!(shared + 1 >= v1.layers.len(), "versions must share most layers");
        assert!(shared >= 1);
    }

    #[test]
    fn search_index_covers_repos_with_duplication() {
        let h = hub();
        let pages = h.search.search("", 0).total_pages;
        let rows: usize =
            (0..pages).map(|p| h.search.search("", p).html.matches("repo-row").count()).sum();
        let ratio = rows as f64 / 90.0;
        assert!((1.25..1.55).contains(&ratio), "duplication {ratio}");
    }
}
