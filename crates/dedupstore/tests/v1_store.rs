//! A store dir written before layer files existed — one JSON recipe
//! envelope per layer under `layers/ab/<hex>.json` and every object, small
//! ones included, under `objects/` — still reopens and resumes. The dir in
//! `fixtures/v1-store` was written by the v1 writer from [`v1_layers`].

use dhub_compress::{gzip_compress, CompressOptions};
use dhub_dedupstore::{analyze_and_ingest, DedupStore, PersistentDedupStore};
use dhub_model::Digest;
use dhub_persist::{hex_of, Publisher};
use dhub_tar::TarEntry;
use std::path::{Path, PathBuf};

fn layer(entries: &[TarEntry]) -> (Digest, Vec<u8>) {
    let blob = gzip_compress(&dhub_tar::write_archive(entries), &CompressOptions::fast());
    (Digest::of(&blob), blob)
}

fn file(path: &str, data: &[u8]) -> TarEntry {
    TarEntry::file(path, data.to_vec())
}

/// The layers the fixture holds: objects over and under 4 KiB, one of
/// exactly 4 KiB, shared and repeated contents, a directory and links.
fn v1_layers() -> Vec<(Digest, Vec<u8>)> {
    let big: Vec<u8> = (0..6000u32).map(|i| (i * 7 % 251) as u8).collect();
    let edge = vec![b'e'; 4096];
    let over = vec![b'o'; 4097];
    vec![
        layer(&[
            TarEntry::dir("usr/"),
            file("usr/lib/libx.so", &big),
            file("etc/one", b"one"),
            TarEntry::symlink("usr/l", "lib"),
            file("etc/edge", &edge),
        ]),
        layer(&[
            file("opt/lib/libx.so", &big),
            file("etc/two", b"two"),
            file("etc/one-again", b"one"),
            file("etc/over", &over),
        ]),
        layer(&[file("var/empty", b""), TarEntry::hardlink("var/h", "var/empty")]),
    ]
}

/// Layers a resumed run adds: new contents, and contents the v1 layers
/// already hold as object files.
fn new_layers() -> Vec<(Digest, Vec<u8>)> {
    let big: Vec<u8> = (0..6000u32).map(|i| (i * 7 % 251) as u8).collect();
    vec![
        layer(&[file("srv/one", b"one"), file("srv/libx.so", &big), file("srv/new", b"new in v2")]),
        layer(&[file("srv/large", &vec![b'n'; 9000]), TarEntry::symlink("srv/l", "large")]),
    ]
}

/// Every file under `dir`, as paths relative to it, sorted.
fn files(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(dir).unwrap().to_string_lossy().into_owned());
            }
        }
    }
    out.sort();
    out
}

/// `<dir>/ab/<hex>`, relative to the store root.
fn fanned(dir: &str, d: &Digest) -> String {
    let hex = hex_of(d);
    format!("{dir}/{}/{hex}", &hex[..2])
}

/// A scratch copy of the fixture.
fn v1_copy(tag: &str) -> PathBuf {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-store");
    let root = std::env::temp_dir().join(format!("dhub-v1-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    for rel in files(&fixture) {
        let to = root.join(&rel);
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::copy(fixture.join(&rel), to).unwrap();
    }
    root
}

fn assert_same(store: &DedupStore, reference: &DedupStore, layers: &[(Digest, Vec<u8>)]) {
    assert_eq!(store.stats(), reference.stats());
    assert_eq!(store.stats().dedup_factor().to_bits(), reference.stats().dedup_factor().to_bits());
    for (d, _) in layers {
        assert_eq!(store.reconstruct_tar(d).unwrap(), reference.reconstruct_tar(d).unwrap());
    }
}

#[test]
fn a_v1_store_reopens_identically_and_resumes_with_layer_files() {
    let root = v1_copy("resume");
    let old = v1_layers();
    let v1_files = files(&root);
    let envelopes: Vec<String> = old.iter().map(|(d, _)| fanned("layers", d) + ".json").collect();
    assert!(envelopes.iter().all(|e| v1_files.contains(e)), "the fixture holds these layers");

    let reference = DedupStore::new();
    for (d, b) in &old {
        reference.ingest_layer(*d, b).unwrap();
    }
    let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
    assert_same(store.mem(), &reference, &old);

    // Resume: the new layers land as layer files beside the envelopes;
    // nothing the v1 writer left is touched.
    let added = new_layers();
    for (d, b) in &added {
        dhub_par::with_scratch(|s| analyze_and_ingest(&store, *d, b, s).unwrap().1.unwrap());
        reference.ingest_layer(*d, b).unwrap();
    }
    assert_eq!(store.gc().unwrap(), Default::default(), "every v1 object stays live");
    drop(store);
    let now = files(&root);
    assert!(v1_files.iter().all(|f| now.contains(f)));
    for (d, _) in &added {
        assert!(now.contains(&fanned("layers", d)));
    }
    let large = fanned("objects", &Digest::of(&[b'n'; 9000]));
    let small = fanned("objects", &Digest::of(b"new in v2"));
    assert!(now.contains(&large) && !now.contains(&small), "only a new large object gets a file");
    assert_eq!(now.len(), v1_files.len() + added.len() + 1);

    let all: Vec<_> = old.iter().chain(&added).cloned().collect();
    let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
    assert_same(reopened.mem(), &reference, &all);
    std::fs::remove_dir_all(&root).ok();
}
