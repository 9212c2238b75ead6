//! What a reopen allocates: a few blocks per layer file, however many rows
//! it holds. Reopening layers of 2,000 small-file rows allocates about as
//! many blocks as layers of 200 do; the difference is the growth of the
//! object slot map and list, not a block per row or per object.
//!
//! The count is process-wide (the reopen reads its layer files on every
//! core), so this file holds this one test.

use dhub_dedupstore::{ParsedLayer, PersistentDedupStore};
use dhub_model::{Digest, FileKind};
use dhub_oracle::alloc::{process_allocs_during, Allocs, CountingAlloc};
use dhub_persist::Publisher;
use dhub_tar::{EntryView, EntryViewKind};
use std::borrow::Cow;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const LAYERS: usize = 8;

/// A store of `LAYERS` layers of `rows` small files each; a quarter of each
/// layer's contents are shared by every layer.
fn populated(rows: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dhub-reopen-allocs-{}-{rows}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
    for layer in 0..LAYERS {
        let contents: Vec<Vec<u8>> = (0..rows)
            .map(|i| match i % 4 {
                0 => format!("shared content {i}").into_bytes(),
                _ => format!("content {i} of layer {layer}").into_bytes(),
            })
            .collect();
        let paths: Vec<String> = (0..rows).map(|i| format!("usr/share/doc/{layer}/file-{i}.txt")).collect();
        let mut parsed = ParsedLayer::new(Digest::of(format!("layer {layer}").as_bytes()), 1000);
        for (path, data) in paths.iter().zip(&contents) {
            let kind = EntryViewKind::File(data);
            let entry = EntryView { path: Cow::Borrowed(path), kind, mode: 0o644, uid: 0, gid: 0, mtime: 0 };
            parsed.push(&entry, Some((Digest::of(data), FileKind::AsciiText, data)));
        }
        store.commit_parsed(parsed).unwrap();
    }
    dir
}

/// What opening the store at `dir` allocates, the store's drop excluded.
fn reopen(dir: &PathBuf) -> Allocs {
    let (store, allocs) = process_allocs_during(|| PersistentDedupStore::open(dir, Publisher::new()).unwrap());
    assert_eq!(store.mem().stats().layers, LAYERS);
    drop(store);
    allocs
}

#[test]
fn a_reopen_allocates_per_layer_not_per_row() {
    let (small, large) = (populated(200), populated(2_000));
    // The first open in a process asks the OS for its core count once.
    reopen(&small);
    let (few, many) = (reopen(&small), reopen(&large));
    assert!(
        many.allocs <= few.allocs + 64,
        "{} blocks to reopen {LAYERS} × 2,000 rows, {} for {LAYERS} × 200",
        many.allocs,
        few.allocs
    );
    for dir in [small, large] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
