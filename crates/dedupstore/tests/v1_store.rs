//! A store dir written before layer files existed — one JSON recipe
//! envelope per layer under `layers/ab/<hex>.json` and every object, small
//! ones included, under `objects/` — is a format this build does not read.
//! Opening one must fail loudly and touch nothing: were its envelopes
//! skipped, the store would open empty and `gc` would delete every object
//! they reference. The dir in `fixtures/v1-store` was written by the v1
//! writer.

use dhub_dedupstore::{PersistentDedupStore, PersistentError};
use dhub_persist::{PersistError, Publisher};
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

/// A scratch copy of the fixture.
fn v1_copy(tag: &str) -> PathBuf {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-store");
    let root = std::env::temp_dir().join(format!("dhub-v1-{tag}-{}", std::process::id()));
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
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-store");
    let root = v1_copy("open");
    let before = files(&root);
    assert_eq!(before, files(&fixture));
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
