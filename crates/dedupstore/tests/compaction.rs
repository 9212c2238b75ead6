//! Segments and their merge: a commit writes its layer's small objects to
//! a segment, `packs/<layer hex>`, and `gc` merges every segment into one
//! pack, `packs/small`. A store dir's bytes do not depend on the ingest's
//! thread count, before `gc` (segments included) or after it. After `gc` no
//! segment remains, the pack holds each live object of at most 4 KiB
//! exactly once in digest order, a reopen gives the writer's stats bit for
//! bit and rebuilds every tar, and a second `gc` moves no byte. A run cut
//! at a commit (leaving an orphan segment), at the pack's publish, or
//! between the segments' unlinks reopens, and the next `gc` ends at the
//! uninterrupted run's bytes.

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

/// The largest object a segment and the pack hold.
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

/// Column `i` of `table`, a bytes column, row by row.
fn bytes_column(table: &Table, i: usize) -> Vec<Vec<u8>> {
    match &table.clone().into_columns()[i] {
        Column::Bytes(col) => col.iter().map(<[u8]>::to_vec).collect(),
        other => panic!("column {i} is not a bytes column: {other:?}"),
    }
}

/// The file names of the segments under `dir/packs`, sorted: each named
/// by a layer digest.
fn segments(dir: &Path) -> Vec<String> {
    let names = dir_contents(&dir.join("packs")).into_keys();
    names.filter(|name| dhub_persist::digest_from_hex(name).is_some()).collect()
}

/// Each object of at most [`INLINE_MAX`] bytes in `tars`, once, in digest
/// order.
fn small_objects<'a>(tars: impl IntoIterator<Item = &'a Vec<u8>>) -> Vec<Vec<u8>> {
    let mut small: Vec<Vec<u8>> = tars
        .into_iter()
        .flat_map(|tar| dhub_tar::read_archive(tar).unwrap())
        .filter(|e| e.is_file() && e.data().len() <= INLINE_MAX)
        .map(|e| e.data().to_vec())
        .collect();
    small.sort_by_key(|data| Digest::of(data));
    small.dedup();
    small
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gc_stores_each_small_object_once(layers in arb_layers()) {
        let layers = blobs(&layers);
        let inputs: Vec<(Digest, Arc<Vec<u8>>)> = layers.iter().map(|(l, _)| l.clone()).collect();
        let (one, two) = (tmp("one"), tmp("two"));
        let (store, other) = (ingest(&one, &inputs, 1), ingest(&two, &inputs, 2));
        let stats = store.mem().stats();
        prop_assert!(dir_contents(&one) == dir_contents(&two), "dir bytes differ at 1 and 2 threads before gc");
        // A segment per layer with a small file, and no pack yet.
        let mut want: Vec<String> = layers
            .iter()
            .filter(|(_, tar)| !small_objects([tar]).is_empty())
            .map(|((digest, _), _)| dhub_persist::hex_of(digest))
            .collect();
        want.sort();
        prop_assert_eq!(segments(&one), want);
        prop_assert!(!one.join("packs").join("small").exists());
        store.gc().unwrap();
        other.gc().unwrap();
        drop((store, other));
        prop_assert!(dir_contents(&one) == dir_contents(&two), "dir bytes differ at 1 and 2 threads after gc");

        // No segment remains, and the pack holds each live small object
        // once, in digest order.
        prop_assert!(segments(&one).is_empty());
        let small = small_objects(layers.iter().map(|(_, tar)| tar));
        if !small.is_empty() {
            let pack = Table::load(&one.join("packs").join("small")).unwrap();
            let (sha256, packed) = (bytes_column(&pack, 0), bytes_column(&pack, 1));
            let want: Vec<Vec<u8>> = small.iter().map(|data| Digest::of(data).0.to_vec()).collect();
            prop_assert_eq!(sha256, want);
            prop_assert_eq!(packed, small);
        }

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

/// A publisher under which, of the publish attempts a run makes when
/// nothing faults — `tries` of each file name in `names` — only the last
/// try of `names[k]` crashes, with no retry: the fault stream is keyed by
/// file name and attempt, so a seed is searched for under which only that
/// attempt faults.
fn crashing(names: &[(String, u32)], k: usize) -> Publisher {
    let allowed = [FaultKind::Drop, FaultKind::Truncate, FaultKind::Corrupt];
    let rate = 1.0 / names.iter().map(|(_, tries)| *tries as f64).sum::<f64>();
    let config = (0..10_000u64)
        .map(|seed| FaultConfig::uniform(seed, rate))
        .find(|config| {
            let plan = FaultPlan::new(config.clone());
            let fires = |name: &String, attempt| {
                plan.decide(FaultOp::Persist, fault_key(name.as_bytes()), attempt, &allowed).is_some()
            };
            names.iter().enumerate().all(|(i, (name, tries))| {
                (0..*tries).all(|attempt| fires(name, attempt) == (i == k && attempt == tries - 1))
            })
        })
        .expect("a seed that crashes exactly one attempt");
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
    let with_segment: Vec<String> = segments(&reference);
    assert_eq!(with_segment.len(), 6, "six layers with small content");
    store.gc().unwrap();
    drop(store);
    let want = dir_contents(&reference);
    // A cut dir reopens with the uninterrupted run's stats and tars, and
    // its next `gc` ends at the uninterrupted run's bytes.
    let converges = |dir: &Path, what: &str| {
        let reopened = PersistentDedupStore::open(dir, Publisher::new()).unwrap();
        let got = reopened.mem().stats();
        assert_eq!(got, stats, "{what}");
        assert_eq!(got.dedup_factor().to_bits(), stats.dedup_factor().to_bits(), "{what}");
        for ((digest, _), tar) in &layers {
            assert_eq!(&reopened.mem().reconstruct_tar(digest).unwrap(), tar, "{what}");
        }
        reopened.gc().unwrap();
        assert!(dir_contents(dir) == want, "{what}: the dir differs from an uninterrupted run's");
        let _ = std::fs::remove_dir_all(dir);
    };

    // A commit cut after its segment landed, before its layer file: a
    // segment and a layer file share a name, its attempts 0 and 1. Every
    // other publish of the ingest — each other layer's one or two, each
    // large object's one or, when two commits race for it, two — must not
    // fault.
    let mut names: Vec<(String, u32)> = inputs
        .iter()
        .map(|(digest, _)| {
            let hex = dhub_persist::hex_of(digest);
            let tries = if with_segment.contains(&hex) { 2 } else { 1 };
            (hex, tries)
        })
        .collect();
    names.push((dhub_persist::hex_of(&Digest::of(&content(200, 3 * INLINE_MAX))), 2));
    for (k, hex) in with_segment.iter().enumerate() {
        let what = format!("commit cut {k}");
        let dir = tmp("commit");
        let cut = names.iter().position(|(name, _)| name == hex).unwrap();
        let store = PersistentDedupStore::open(&dir, crashing(&names, cut)).unwrap();
        let res = analyze_and_ingest_all(&inputs, 2, &store, &MetricsRegistry::new());
        drop(store);
        for (digest, outcome) in &res.ingests {
            match outcome {
                Err(PersistentError::Persist(PersistError::CrashedWrite(path))) => {
                    assert_eq!(&dhub_persist::hex_of(digest), hex, "{what}");
                    assert!(path.starts_with(dir.join("layers")), "{what}: {}", path.display());
                }
                Ok(_) => assert_ne!(&dhub_persist::hex_of(digest), hex, "{what}"),
                Err(other) => panic!("{what}: {other:?}"),
            }
        }
        assert!(dir.join("packs").join(hex).exists(), "{what}: the orphan segment");
        // The orphan reopens as garbage, and a resumed run commits the
        // layer again.
        let resumed = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
        assert_eq!(resumed.mem().stats().layers, layers.len() - 1, "{what}");
        let res = analyze_and_ingest_all(&inputs, 2, &resumed, &MetricsRegistry::new());
        assert_eq!(res.ingests.iter().filter(|(_, r)| r.is_ok()).count(), 1, "{what}");
        drop(resumed);
        converges(&dir, &what);
    }

    // The pack's publish cut: every segment stays.
    let dir = tmp("pack");
    drop(ingest(&dir, &inputs, 2));
    let store = PersistentDedupStore::open(&dir, crashing(&[("small".to_string(), 1)], 0)).unwrap();
    match store.gc() {
        Err(PersistentError::Persist(PersistError::CrashedWrite(path))) => assert!(path.ends_with("packs/small")),
        other => panic!("expected the crash of the pack's publish, got {other:?}"),
    }
    drop(store);
    assert_eq!(segments(&dir), with_segment);
    converges(&dir, "pack cut");

    // A kill after `k` of the segments' unlinks: the pack is published and
    // the rest of the segments are still there.
    for k in 0..with_segment.len() {
        let dir = tmp("unlinks");
        let store = ingest(&dir, &inputs, 2);
        let kept: Vec<(PathBuf, Vec<u8>)> = with_segment[k..]
            .iter()
            .map(|name| dir.join("packs").join(name))
            .map(|path| (path.clone(), std::fs::read(&path).unwrap()))
            .collect();
        store.gc().unwrap();
        drop(store);
        for (path, bytes) in &kept {
            std::fs::write(path, bytes).unwrap();
        }
        converges(&dir, &format!("unlink cut {k}"));
    }
    let _ = std::fs::remove_dir_all(reference);
}
