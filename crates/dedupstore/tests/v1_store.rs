//! Store dirs written by earlier formats are formats this build does not
//! read. Opening one must fail loudly and touch nothing: were its layers
//! skipped, the store would open empty and `gc` would delete every object
//! they reference.
//!
//! - `fixtures/v1-store`, written by the v1 writer: one JSON recipe
//!   envelope per layer under `layers/ab/<hex>.json` and every object,
//!   small ones included, under `objects/`.
//! - `fixtures/v2-store`, written by the v2 writer: one layer file per
//!   layer, a `DHTB` version 2 table of fixed 8-byte integers and `u32`
//!   length prefixes, and the one object over 4 KiB under `objects/`.
//! - `fixtures/format2-store`, written by the last writer before the
//!   `class` column: `DHTB` version 3 layer files of layer format 2, and
//!   the one object over 4 KiB under `objects/`.
//! - `fixtures/format3-store`, written by the last writer before segments:
//!   layer files of layer format 3, whose `content` column carried each
//!   small object until `gc` emptied it — one layer committed before a
//!   `gc`, one after — `packs/small`, and the one object over 4 KiB under
//!   `objects/`.

use dhub_dedupstore::{PersistentDedupStore, PersistentError};
use dhub_persist::{Column, PersistError, Publisher, Table};
use std::path::{Path, PathBuf};

/// Every file under `dir`, as (path relative to it, bytes), sorted.
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

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// A scratch copy of a fixture.
fn copy(name: &str) -> PathBuf {
    let fixture = fixture(name);
    let root = std::env::temp_dir().join(format!("dhub-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    for (rel, bytes) in files(&fixture) {
        let to = root.join(&rel);
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::write(to, bytes).unwrap();
    }
    root
}

#[test]
fn a_v1_store_fails_to_open_and_is_left_untouched() {
    let root = copy("v1-store");
    let before = files(&root);
    assert_eq!(before, files(&fixture("v1-store")));
    match PersistentDedupStore::open(&root, Publisher::new()) {
        Err(PersistentError::Persist(PersistError::Torn(path))) => {
            let first = before.iter().find(|(name, _)| name.ends_with(".json")).unwrap();
            assert_eq!(path, root.join(&first.0), "the first envelope in path order")
        }
        Err(other) => panic!("expected a torn layer file, got {other}"),
        Ok(_) => panic!("a v1 store opened"),
    }
    assert_eq!(files(&root), before, "the failed open changed the store dir");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_v2_store_fails_to_open_and_is_left_untouched() {
    let root = copy("v2-store");
    let before = files(&root);
    assert_eq!(before, files(&fixture("v2-store")));
    let layers: Vec<&(String, Vec<u8>)> =
        before.iter().filter(|(name, _)| name.starts_with("layers")).collect();
    assert_eq!(layers.len(), 2);
    assert!(layers.iter().all(|(_, bytes)| bytes[..8] == *b"DHTB\x02\x00\x00\x00"));
    match PersistentDedupStore::open(&root, Publisher::new()) {
        Err(PersistentError::Persist(PersistError::Torn(path))) => {
            assert_eq!(path, root.join(&layers[0].0), "the first layer file in path order")
        }
        Err(other) => panic!("expected a torn layer file, got {other}"),
        Ok(_) => panic!("a v2 store opened"),
    }
    assert_eq!(files(&root), before, "the failed open changed the store dir");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_format2_store_fails_to_open_and_is_left_untouched() {
    let root = copy("format2-store");
    let before = files(&root);
    assert_eq!(before, files(&fixture("format2-store")));
    let layers: Vec<&(String, Vec<u8>)> =
        before.iter().filter(|(name, _)| name.starts_with("layers")).collect();
    assert_eq!(layers.len(), 2);
    for (name, bytes) in &layers {
        let table = Table::from_bytes(bytes.clone()).unwrap_or_else(|| panic!("{name} is a table"));
        assert_eq!(table.meta()[0], ("format".to_string(), 2), "{name}");
        assert!(table.col_u64("class").is_none(), "{name}");
    }
    match PersistentDedupStore::open(&root, Publisher::new()) {
        Err(PersistentError::Persist(PersistError::Torn(path))) => {
            assert_eq!(path, root.join(&layers[0].0), "the first layer file in path order")
        }
        Err(other) => panic!("expected a torn layer file, got {other}"),
        Ok(_) => panic!("a format 2 store opened"),
    }
    assert_eq!(files(&root), before, "the failed open changed the store dir");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_format3_store_fails_to_open_and_is_left_untouched() {
    let root = copy("format3-store");
    let before = files(&root);
    assert_eq!(before, files(&fixture("format3-store")));
    assert!(before.iter().any(|(name, _)| name == "packs/small"));
    let layers: Vec<&(String, Vec<u8>)> =
        before.iter().filter(|(name, _)| name.starts_with("layers")).collect();
    assert_eq!(layers.len(), 2);
    let mut carrying = Vec::new();
    for (name, bytes) in &layers {
        let table = Table::from_bytes(bytes.clone()).unwrap_or_else(|| panic!("{name} is a table"));
        assert_eq!(table.meta()[0], ("format".to_string(), 3), "{name}");
        let Some(Column::Bytes(content)) = table.into_columns().pop() else {
            panic!("{name} ends in a bytes column")
        };
        carrying.push(content.iter().any(|c| !c.is_empty()));
    }
    assert_eq!(carrying.iter().filter(|&&c| c).count(), 1, "one layer file carries its small objects");
    match PersistentDedupStore::open(&root, Publisher::new()) {
        Err(PersistentError::Persist(PersistError::Torn(path))) => {
            assert_eq!(path, root.join(&layers[0].0), "the first layer file in path order")
        }
        Err(other) => panic!("expected a torn layer file, got {other}"),
        Ok(_) => panic!("a format 3 store opened"),
    }
    assert_eq!(files(&root), before, "the failed open changed the store dir");
    std::fs::remove_dir_all(&root).ok();
}
