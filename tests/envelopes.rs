//! Golden bytes for the files the durable tiers write for themselves:
//! every layer file and study table of a fixed small durable study, and
//! every job and result envelope of the same study run through the queue. Each file's
//! SHA-256 is folded, in path order, into one digest per tree and pinned.
//! A store or queue dir written by an older build must reopen unchanged,
//! so these bytes may only move together with an on-disk format version.
//! Also here: the shape of a durable study's dir, file by file.

use dhub_dedupstore::{PersistentDedupStore, RowKind};
use dhub_faults::RetryPolicy;
use dhub_model::Digest;
use dhub_obs::MetricsRegistry;
use dhub_persist::Publisher;
use dhub_queue::DurableQueue;
use dhub_study::distributed::{run_study_queued_obs, QueuedStudyConfig};
use dhub_study::db::StudyDb;
use dhub_study::pipeline::run_study_persist_obs;
use dhub_synth::{generate_hub, SynthConfig, SyntheticHub};
use std::path::{Path, PathBuf};

fn hub() -> SyntheticHub {
    generate_hub(&SynthConfig::tiny(29).with_repos(16))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dhub-golden-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every file under `dir`, as (path relative to `dir`, bytes).
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                out.push((name, std::fs::read(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

/// The file count under `dir`, and one digest over each file's path and
/// SHA-256 in path order.
fn tree_digest(dir: &Path) -> (usize, String) {
    let files = files(dir);
    let listing: String = files
        .iter()
        .map(|(name, bytes)| format!("{name} {}\n", Digest::of(bytes).to_docker_string()))
        .collect();
    (files.len(), Digest::of(listing.as_bytes()).to_docker_string())
}

/// Pins the layer files (the recipe envelopes before them, under the
/// same name) and the five study tables under `db/`.
#[test]
fn recipe_envelopes_are_pinned() {
    let dir = tmp("persist");
    let publisher = Publisher::new();
    let store = PersistentDedupStore::open(&dir, publisher.clone()).unwrap();
    let data =
        run_study_persist_obs(&hub(), 2, &RetryPolicy::default(), &store, &MetricsRegistry::new());
    StudyDb::build(&data, &store.mem().stats()).save(&dir.join("db"), &publisher).unwrap();
    let got = tree_digest(&dir.join("layers"));
    let tables = tree_digest(&dir.join("db"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(got, (RECIPES, RECIPES_DIGEST.to_string()));
    assert_eq!(tables, (5, TABLES_DIGEST.to_string()), "study tables");
}

#[test]
fn queue_envelopes_are_pinned() {
    let dir = tmp("queued");
    let publisher = Publisher::new();
    let store = PersistentDedupStore::open(&dir, publisher.clone()).unwrap();
    let queue = DurableQueue::open(dir.join("queue"), publisher).unwrap();
    let cfg = QueuedStudyConfig { workers: 2, ..QueuedStudyConfig::default() };
    run_study_queued_obs(&hub(), &store, &queue, &cfg, &MetricsRegistry::new()).unwrap();
    let recipes = tree_digest(&dir.join("layers"));
    let jobs = tree_digest(&dir.join("queue").join("jobs"));
    let results = tree_digest(&dir.join("queue").join("results"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(recipes, (RECIPES, RECIPES_DIGEST.to_string()), "queued recipes");
    assert_eq!(jobs, (JOBS, JOBS_DIGEST.to_string()), "job envelopes");
    assert_eq!(results, (JOBS, RESULTS_DIGEST.to_string()), "result envelopes");
}

/// A durable study's dir holds one file per layer, one per object over
/// 4 KiB, and the study tables — no file per small object.
#[test]
fn a_durable_study_dir_holds_a_file_per_layer_and_per_large_object() {
    let dir = tmp("shape");
    let publisher = Publisher::new();
    let store = PersistentDedupStore::open(&dir, publisher.clone()).unwrap();
    let obs = MetricsRegistry::new();
    let data = run_study_persist_obs(&hub(), 2, &RetryPolicy::default(), &store, &obs);
    StudyDb::build(&data, &store.mem().stats()).save(&dir.join("db"), &publisher).unwrap();
    let mem = store.mem();
    let stats = mem.stats();
    let mut large: Vec<String> = Vec::new();
    for layer in mem.layer_digests() {
        for row in mem.recipe(&layer).unwrap().rows() {
            if let RowKind::File(d, _) = row.kind {
                if row.size > 4096 {
                    large.push(format!("objects/{}", dhub_persist::hex_of(&d)));
                }
            }
        }
    }
    large.sort();
    large.dedup();
    let listing: Vec<String> = files(&dir).into_iter().map(|(name, _)| name).collect();
    let (mut layers, mut objects, mut tables) = (0, Vec::new(), 0);
    for name in &listing {
        let (top, rest) = name.split_once('/').unwrap();
        match top {
            "layers" => layers += 1,
            "objects" => objects.push(format!("objects/{}", rest.split_once('/').unwrap().1)),
            "db" if rest.ends_with(".tbl") && !rest.contains('/') => tables += 1,
            _ => panic!("unexpected file {name}"),
        }
    }
    objects.sort();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(layers, stats.layers);
    assert_eq!(objects, large);
    assert!(!large.is_empty(), "the study has objects over 4 KiB");
    assert!(large.len() * 4 < stats.unique_objects, "{} of {}", large.len(), stats.unique_objects);
    assert_eq!(tables, 5);
}

// Recorded at layer file format 3 (the `class` column), on `DHTB`
// version 3 tables.
const RECIPES: usize = 91;
const RECIPES_DIGEST: &str =
    "sha256:1a1c3c1afb03cb89aaf31dcfe7c992b4ba88019245985e0b576ca91facf356e9";
// Recorded when the files table dropped its `path` column (`layer` and
// `kind` are indexes).
const TABLES_DIGEST: &str =
    "sha256:dc57ff36895c87c414c1f5ad5bcd7352dc0d509f91077e7c1cae78af87a65977";
const JOBS: usize = 108;
const JOBS_DIGEST: &str = "sha256:97bdf7441e9ff6c1e8a2fd7330f39bfa810bee5723e75292567af2252731b504";
// Recorded when a layer job's result dropped its profile JSON.
const RESULTS_DIGEST: &str =
    "sha256:8e33bfeb61339f235bfab8ac3a2a196a2584abc4b1ec4b877a147ec29dea3f53";
