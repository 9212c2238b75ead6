//! Golden bytes for the JSON the durable tiers write for themselves: every
//! recipe envelope of a fixed small durable study, and every job and
//! result envelope of the same study run through the queue. Each file's
//! SHA-256 is folded, in path order, into one digest per tree and pinned.
//! A store or queue dir written by an older build must reopen unchanged,
//! so these bytes may only move together with an on-disk format version.

use dhub_dedupstore::PersistentDedupStore;
use dhub_faults::RetryPolicy;
use dhub_model::Digest;
use dhub_obs::MetricsRegistry;
use dhub_persist::Publisher;
use dhub_queue::DurableQueue;
use dhub_study::distributed::{run_study_queued_obs, QueuedStudyConfig};
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

/// Every `*.json` under `dir`, as (path relative to `dir`, bytes).
fn json_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
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
    let files = json_files(dir);
    let listing: String = files
        .iter()
        .map(|(name, bytes)| format!("{name} {}\n", Digest::of(bytes).to_docker_string()))
        .collect();
    (files.len(), Digest::of(listing.as_bytes()).to_docker_string())
}

#[test]
fn recipe_envelopes_are_pinned() {
    let dir = tmp("persist");
    let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
    run_study_persist_obs(&hub(), 2, &RetryPolicy::default(), &store, &MetricsRegistry::new());
    let got = tree_digest(&dir.join("layers"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(got, (RECIPES, RECIPES_DIGEST.to_string()));
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

// Recorded from the build before the recipe codec stopped building a
// `Json` tree.
const RECIPES: usize = 91;
const RECIPES_DIGEST: &str =
    "sha256:652ca6fa4708aaa0315971894427de31895e4060513eecd5c94d5b04fb36c59c";
const JOBS: usize = 108;
const JOBS_DIGEST: &str = "sha256:97bdf7441e9ff6c1e8a2fd7330f39bfa810bee5723e75292567af2252731b504";
const RESULTS_DIGEST: &str =
    "sha256:a1f393102e9b183d840f31f3c1e454106364285b18d717e1f2b24f4e043d2285";
