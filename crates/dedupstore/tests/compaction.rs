//! Compaction: after `gc` a store dir holds each small object once. Every
//! layer file's `content` column is empty, the pack holds each live object
//! of at most 4 KiB exactly once in digest order, a reopen gives the
//! writer's stats bit for bit and rebuilds every tar, and the dir's bytes
//! do not depend on the ingest's thread count. A compaction cut at any of
//! its publishes reopens, and the next `gc` ends at the uninterrupted
//! run's bytes.

use dhub_compress::{gzip_compress, CompressOptions};
use dhub_dedupstore::{analyze_and_ingest_all, PersistentDedupStore, PersistentError};
use dhub_faults::{
    fault_key, FaultConfig, FaultInjector, FaultKind, FaultOp, FaultPlan, RetryPolicy,
};
use dhub_model::Digest;
use dhub_obs::MetricsRegistry;
use dhub_persist::{Column, PersistError, Publisher, Table, WriteFaults};
use dhub_tar::{write_archive, TarEntry};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The largest object a layer file carries inline and the pack holds.
const INLINE_MAX: usize = 4096;

fn tmp(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dhub-compaction-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `len` bytes of pool content `id`: the same id is the same bytes in any
/// layer, so layers share objects, small and large.
fn content(id: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(29) ^ id).collect()
}

/// A file of pool content: mostly small, sometimes empty, sometimes over
/// [`INLINE_MAX`], and at the edge.
fn arb_entry() -> impl Strategy<Value = TarEntry> {
    let len = prop_oneof![
        6 => 1usize..600,
        1 => Just(0usize),
        1 => Just(INLINE_MAX),
        1 => INLINE_MAX + 1..INLINE_MAX + 3000,
    ];
    ("[a-z]{1,6}(/[a-z0-9]{1,6}){0,2}", 0u8..12, len)
        .prop_map(|(path, id, len)| TarEntry::file(&path, content(id, len)))
}

fn arb_layers() -> impl Strategy<Value = Vec<Vec<TarEntry>>> {
    let layer = prop_oneof![
        8 => proptest::collection::vec(arb_entry(), 0..8),
        1 => Just(vec![TarEntry::dir("d/"), TarEntry::symlink("d/l", "x")]),
    ];
    proptest::collection::vec(layer, 1..7)
}

/// A layer's `(digest, blob)`, as ingest takes it, and its tar.
type Layer = ((Digest, Arc<Vec<u8>>), Vec<u8>);

/// Each distinct layer of `layers`.
fn blobs(layers: &[Vec<TarEntry>]) -> Vec<Layer> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for entries in layers {
        let tar = write_archive(entries);
        let blob = gzip_compress(&tar, &CompressOptions::fast());
        let digest = Digest::of(&blob);
        if seen.insert(digest) {
            out.push(((digest, Arc::new(blob)), tar));
        }
    }
    out
}

/// Ingests `layers` into a new store at `dir` on `threads` workers.
fn ingest(dir: &Path, layers: &[(Digest, Arc<Vec<u8>>)], threads: usize) -> PersistentDedupStore {
    let store = PersistentDedupStore::open(dir, Publisher::new()).unwrap();
    let res = analyze_and_ingest_all(layers, threads, &store, &MetricsRegistry::new());
    assert!(res.ingests.iter().all(|(_, r)| r.is_ok()), "every layer commits");
    store
}

/// Every file under `dir`, by path relative to it.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                out.insert(name, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// The `content` column's place in a layer file (the last of eleven).
const LAYER_CONTENT: usize = 10;

/// Column `i` of `table`, a bytes column, row by row.
fn bytes_column(table: &Table, i: usize) -> Vec<Vec<u8>> {
    match &table.clone().into_columns()[i] {
        Column::Bytes(col) => col.iter().map(<[u8]>::to_vec).collect(),
        other => panic!("column {i} is not a bytes column: {other:?}"),
    }
}

/// The layer files under `dir/layers`, by file name.
fn layer_files(dir: &Path) -> Vec<(String, Table)> {
    let mut out: Vec<(String, Table)> = dir_contents(&dir.join("layers"))
        .into_iter()
        .map(|(name, bytes)| {
            let file = name.rsplit('/').next().unwrap().to_string();
            (file, Table::from_bytes(bytes).expect("a layer file"))
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gc_stores_each_small_object_once(layers in arb_layers()) {
        let layers = blobs(&layers);
        let inputs: Vec<(Digest, Arc<Vec<u8>>)> = layers.iter().map(|(l, _)| l.clone()).collect();
        let (one, two) = (tmp("one"), tmp("two"));
        let store = ingest(&one, &inputs, 1);
        let stats = store.mem().stats();
        store.gc().unwrap();
        drop(store);
        ingest(&two, &inputs, 2).gc().unwrap();
        prop_assert!(dir_contents(&one) == dir_contents(&two), "dir bytes differ at 1 and 2 threads");

        // Every layer file's `content` column is empty.
        for (name, table) in layer_files(&one) {
            prop_assert!(bytes_column(&table, LAYER_CONTENT).iter().all(Vec::is_empty), "{} carries content", name);
        }
        // The pack: each live small object once, in digest order.
        let mut small: Vec<Vec<u8>> = layers
            .iter()
            .flat_map(|(_, tar)| dhub_tar::read_archive(tar).unwrap())
            .filter(|e| e.is_file() && e.data().len() <= INLINE_MAX)
            .map(|e| e.data().to_vec())
            .collect();
        small.sort_by_key(|data| Digest::of(data));
        small.dedup();
        let pack = Table::load(&one.join("packs").join("small")).unwrap();
        let (sha256, packed) = (bytes_column(&pack, 0), bytes_column(&pack, 1));
        let want: Vec<Vec<u8>> = small.iter().map(|data| Digest::of(data).0.to_vec()).collect();
        prop_assert_eq!(sha256, want);
        prop_assert_eq!(packed, small);

        // A reopen reads the writer's stats back bit for bit and rebuilds
        // every tar.
        let reopened = PersistentDedupStore::open(&one, Publisher::new()).unwrap();
        let got = reopened.mem().stats();
        prop_assert_eq!(got, stats);
        prop_assert_eq!(got.dedup_factor().to_bits(), stats.dedup_factor().to_bits());
        for ((digest, _), tar) in &layers {
            prop_assert_eq!(&reopened.mem().reconstruct_tar(digest).unwrap(), tar);
        }
        // And a second `gc` leaves the bytes as they were.
        let before = dir_contents(&one);
        reopened.gc().unwrap();
        prop_assert!(dir_contents(&one) == before, "a second gc moved bytes");
        for dir in [one, two] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Eight layers sharing small and large objects, two of them without any
/// small content.
fn fixture() -> Vec<Layer> {
    let layers: Vec<Vec<TarEntry>> = (0..8u8)
        .map(|i| match i {
            3 => vec![TarEntry::dir("only/"), TarEntry::symlink("only/l", "x")],
            5 => vec![TarEntry::file("big", content(200, 3 * INLINE_MAX))],
            _ => vec![
                TarEntry::file(&format!("own/{i}"), content(i, 100 + i as usize)),
                TarEntry::file("shared", content(100, 700)),
                TarEntry::file(&format!("pair/{}", i / 2), content(50 + i / 2, 1 + i as usize)),
                TarEntry::file("empty", Vec::new()),
                TarEntry::file("big", content(200, 3 * INLINE_MAX)),
            ],
        })
        .collect();
    blobs(&layers)
}

/// A publisher that crashes the first publish of `names[k]` and of no
/// other name in `names`, with no retry: the fault stream is keyed by file
/// name, so a seed and rate are searched for under which only that name's
/// first attempt faults.
fn crashing(names: &[String], k: usize) -> Publisher {
    let allowed = [FaultKind::Drop, FaultKind::Truncate, FaultKind::Corrupt];
    let rate = 1.0 / names.len() as f64;
    let config = (0..10_000u64)
        .map(|seed| FaultConfig::uniform(seed, rate))
        .find(|config| {
            let plan = FaultPlan::new(config.clone());
            let fires =
                |name: &String| plan.decide(FaultOp::Persist, fault_key(name.as_bytes()), 0, &allowed).is_some();
            names.iter().enumerate().all(|(i, name)| fires(name) == (i == k))
        })
        .expect("a seed that crashes exactly one name");
    Publisher::new().with_faults(Some(WriteFaults {
        injector: Arc::new(FaultInjector::new(config)),
        policy: RetryPolicy::none(),
    }))
}

#[test]
fn a_compaction_cut_at_any_publish_reopens_and_converges() {
    let layers = fixture();
    let inputs: Vec<(Digest, Arc<Vec<u8>>)> = layers.iter().map(|(l, _)| l.clone()).collect();
    let reference = tmp("reference");
    let store = ingest(&reference, &inputs, 2);
    let stats = store.mem().stats();
    // What the compaction publishes: the pack, then each layer file that
    // carries inline content.
    let mut names = vec!["small".to_string()];
    for (name, table) in layer_files(&reference) {
        if bytes_column(&table, LAYER_CONTENT).iter().any(|c| !c.is_empty()) {
            names.push(name);
        }
    }
    assert_eq!(names.len(), 1 + 6, "the pack and six layer files with small content");
    store.gc().unwrap();
    drop(store);
    let want = dir_contents(&reference);

    for k in 0..names.len() {
        let dir = tmp("cut");
        drop(ingest(&dir, &inputs, 2));
        let store = PersistentDedupStore::open(&dir, crashing(&names, k)).unwrap();
        match store.gc() {
            Err(PersistentError::Persist(PersistError::CrashedWrite(path))) => {
                assert_eq!(path.file_name().unwrap().to_str(), Some(names[k].as_str()), "k={k}")
            }
            other => panic!("k={k}: expected the crash of {}, got {other:?}", names[k]),
        }
        drop(store);
        let reopened = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
        let got = reopened.mem().stats();
        assert_eq!(got, stats, "k={k}");
        assert_eq!(got.dedup_factor().to_bits(), stats.dedup_factor().to_bits(), "k={k}");
        for ((digest, _), tar) in &layers {
            assert_eq!(&reopened.mem().reconstruct_tar(digest).unwrap(), tar, "k={k}");
        }
        reopened.gc().unwrap();
        assert!(dir_contents(&dir) == want, "k={k}: the dir differs from an uninterrupted run's");
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(reference);
}
