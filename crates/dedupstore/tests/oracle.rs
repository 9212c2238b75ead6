//! The zero-copy ingest and the fused analyze + ingest against the
//! analyze-then-ingest oracle: same per-layer stats, recipes (read through
//! row views, against the oracle's owned rows, classes included), store
//! totals and reconstructed tars; and every recipe, built or reopened,
//! folds back to its layer's profile, on synthetic layers and on paths a
//! clean walk never sees (`//`, a leading or trailing `/`, `.`).

use dhub_compress::{gzip_compress, CompressOptions};
use dhub_dedupstore::{analyze_and_ingest, DedupStore, PersistentDedupStore};
use dhub_model::Digest;
use dhub_oracle::{analyze_layer_reference, RefRow, ReferenceStore};
use dhub_par::Scratch;
use dhub_persist::Publisher;
use dhub_synth::{generate_hub, SynthConfig};
use dhub_tar::{write_archive, EntryKind, TarEntry};
use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

fn layer(entries: &[TarEntry]) -> (Digest, Vec<u8>) {
    let blob = gzip_compress(&write_archive(entries), &CompressOptions::fast());
    (Digest::of(&blob), blob)
}

fn file(path: &str, data: &[u8]) -> TarEntry {
    TarEntry::file(path, data.to_vec())
}

/// Layers with a directory entry, implied parents, a name past the ustar
/// field, links, an empty file and a file shared across layers.
fn oracle_layers() -> Vec<(Digest, Vec<u8>)> {
    let long = format!("{}/file.bin", "deep/".repeat(60).trim_end_matches('/'));
    let shared = b"shared across layers".as_slice();
    vec![
        layer(&[
            TarEntry::dir("usr/"),
            file("usr/bin/tool", shared),
            file(&long, &[0xAB; 1234]),
            TarEntry::symlink("usr/bin/t", "tool"),
            TarEntry::hardlink("usr/bin/t2", "usr/bin/tool"),
            file("empty", b""),
        ]),
        layer(&[file("opt/tool", shared)]),
    ]
}

#[test]
fn zero_copy_ingest_matches_reference() {
    let layers = oracle_layers();
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

/// Every layer some image of a tiny hub names, once each.
fn hub_layers() -> Vec<(Digest, Vec<u8>)> {
    let hub = generate_hub(&SynthConfig::tiny(23).with_repos(30));
    let mut digests: Vec<Digest> = Vec::new();
    for repo in &hub.truth.ok_repos {
        let session = hub.registry.get_manifest(repo, "latest", true).unwrap();
        digests.extend(session.manifest.layers.iter().map(|l| l.digest));
    }
    digests.sort();
    digests.dedup();
    digests.into_iter().map(|d| (d, hub.registry.get_blob(&d).unwrap().to_vec())).collect()
}

/// Every profile of each layer equals the oracle analyzer's: the fused
/// `analyze_layer`, `analyze_and_ingest`'s, and the fold over its recipe
/// built by an in-memory or a durable ingest, and read back from the
/// durable store's layer files after a reopen of `dir`.
fn assert_profiles_agree(layers: &[(Digest, Vec<u8>)], dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let want: Vec<_> = layers.iter().map(|(d, b)| analyze_layer_reference(*d, b).unwrap()).collect();
    {
        let mem = DedupStore::new();
        let durable = PersistentDedupStore::open(dir, Publisher::new()).unwrap();
        let mut scratch = Scratch::new();
        for ((d, b), want) in layers.iter().zip(&want) {
            assert_eq!(&dhub_analyzer::analyze_layer(*d, b).unwrap(), want);
            mem.ingest_layer(*d, b).unwrap();
            let (profile, ingest) = analyze_and_ingest(&durable, *d, b, &mut scratch).unwrap();
            ingest.unwrap();
            assert_eq!(&profile, want);
            assert_eq!(&mem.recipe(d).unwrap().profile(), want);
            assert_eq!(&durable.mem().recipe(d).unwrap().profile(), want);
        }
    }
    let reopened = PersistentDedupStore::open(dir, Publisher::new()).unwrap();
    for ((d, _), want) in layers.iter().zip(&want) {
        assert_eq!(&reopened.mem().recipe(d).unwrap().profile(), want, "reopened {d:?}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_recipe_folds_to_its_layers_profile() {
    let mut layers = oracle_layers();
    layers.extend(hub_layers());
    assert!(layers.len() > 20, "{} layers", layers.len());
    let dir = std::env::temp_dir().join(format!("dhub-recipe-profile-{}", std::process::id()));
    assert_profiles_agree(&layers, &dir);
}

/// A path of one to four components from `{a, b, cc, ., ""}`, so `//`
/// appears, with an optional leading and an optional trailing `/`.
fn arb_path() -> impl Strategy<Value = String> {
    const COMPONENTS: [&str; 5] = ["a", "b", "cc", ".", ""];
    (proptest::collection::vec(0usize..5, 1..5), any::<bool>(), any::<bool>()).prop_map(
        |(parts, lead, trail)| {
            let body: Vec<&str> = parts.iter().map(|&i| COMPONENTS[i]).collect();
            let slash = |on: bool| if on { "/" } else { "" };
            format!("{}{}{}", slash(lead), body.join("/"), slash(trail))
        },
    )
}

fn arb_entry() -> impl Strategy<Value = TarEntry> {
    let kind = prop_oneof![
        3 => proptest::collection::vec(any::<u8>(), 0..64).prop_map(EntryKind::File),
        2 => Just(EntryKind::Dir),
        1 => arb_path().prop_map(EntryKind::Symlink),
        1 => arb_path().prop_map(EntryKind::Hardlink),
    ];
    (arb_path(), kind).prop_map(|(path, kind)| TarEntry { path, kind, mode: 0o644, uid: 0, gid: 0, mtime: 0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Entries in any order, parents never forced into the layer.
    #[test]
    fn dirty_paths_fold_alike_everywhere(
        entry_lists in proptest::collection::vec(proptest::collection::vec(arb_entry(), 0..16), 1..4),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let mut layers: Vec<_> = entry_lists.iter().map(|entries| layer(entries)).collect();
        // Two equal entry lists are one layer.
        layers.sort_by_key(|(d, _)| *d);
        layers.dedup_by_key(|(d, _)| *d);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dhub-dirty-profile-{}-{case}", std::process::id()));
        assert_profiles_agree(&layers, &dir);
    }
}
