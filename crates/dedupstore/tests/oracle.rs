//! The zero-copy ingest and the fused analyze + ingest against the
//! analyze-then-ingest oracle: same per-layer stats, recipes (read through
//! row views, against the oracle's owned rows), store totals and
//! reconstructed tars.

use dhub_compress::{gzip_compress, CompressOptions};
use dhub_dedupstore::{analyze_and_ingest, DedupStore};
use dhub_model::Digest;
use dhub_oracle::{analyze_layer_reference, RefRow, ReferenceStore};
use dhub_par::Scratch;
use dhub_tar::{write_archive, TarEntry};

fn layer(entries: &[TarEntry]) -> (Digest, Vec<u8>) {
    let blob = gzip_compress(&write_archive(entries), &CompressOptions::fast());
    (Digest::of(&blob), blob)
}

fn file(path: &str, data: &[u8]) -> TarEntry {
    TarEntry::file(path, data.to_vec())
}

#[test]
fn zero_copy_ingest_matches_reference() {
    let long = format!("{}/file.bin", "deep/".repeat(60).trim_end_matches('/'));
    let shared = b"shared across layers".as_slice();
    let layers = vec![
        layer(&[
            TarEntry::dir("usr/"),
            file("usr/bin/tool", shared),
            file(&long, &[0xAB; 1234]),
            TarEntry::symlink("usr/bin/t", "tool"),
            TarEntry::hardlink("usr/bin/t2", "usr/bin/tool"),
            file("empty", b""),
        ]),
        layer(&[file("opt/tool", shared)]),
    ];
    let fast = DedupStore::new();
    let mut golden = ReferenceStore::new();
    for (d, b) in &layers {
        let sf = fast.ingest_layer(*d, b).unwrap();
        let sg = golden.ingest_layer_reference(*d, b).unwrap();
        assert_eq!(sf, sg);
        let rows: Vec<RefRow> = fast.recipe(d).unwrap().rows().map(RefRow::from).collect();
        assert_eq!(rows, golden.recipe(d).unwrap());
    }
    assert_eq!(fast.stats(), golden.stats());
    for (d, _) in &layers {
        assert_eq!(fast.reconstruct_tar(d).unwrap(), golden.reconstruct_tar(d).unwrap());
    }
}

#[test]
fn fused_matches_analyze_then_ingest() {
    let shared = b"the shared library bytes".as_slice();
    let layers = vec![
        layer(&[TarEntry::dir("usr/"), file("usr/lib/libx.so", shared), file("etc/one", b"one")]),
        layer(&[file("opt/lib/libx.so", shared), TarEntry::symlink("opt/l", "lib")]),
    ];

    let fused_store = DedupStore::new();
    let mut plain_store = ReferenceStore::new();
    let mut scratch = Scratch::new();
    for (d, b) in &layers {
        let (profile, ingest) = analyze_and_ingest(&fused_store, *d, b, &mut scratch).unwrap();
        let want_profile = analyze_layer_reference(*d, b).unwrap();
        let want_ingest = plain_store.ingest_layer_reference(*d, b).unwrap();
        assert_eq!(profile, want_profile);
        assert_eq!(ingest.unwrap(), want_ingest);
    }
    assert_eq!(fused_store.stats(), plain_store.stats());
    for (d, _) in &layers {
        assert_eq!(
            fused_store.reconstruct_tar(d).unwrap(),
            plain_store.reconstruct_tar(d).unwrap(),
            "recipes must reconstruct identically"
        );
    }
    let f = fused_store.stats().dedup_factor();
    let p = plain_store.stats().dedup_factor();
    assert_eq!(f.to_bits(), p.to_bits(), "dedup factor must be bit-identical");
}
