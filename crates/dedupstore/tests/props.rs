//! Property tests: any layer our tar/gzip stack can produce survives a
//! round-trip through the dedup store byte-identically.

use dhub_compress::{gzip_compress, CompressOptions};
use dhub_dedupstore::DedupStore;
use dhub_model::Digest;
use dhub_tar::{write_archive, EntryKind, TarEntry};
use proptest::prelude::*;

fn arb_entry() -> impl Strategy<Value = TarEntry> {
    let path = "[a-z]{1,8}(/[a-z0-9._-]{1,10}){0,3}";
    let kind = prop_oneof![
        4 => proptest::collection::vec(any::<u8>(), 0..1024).prop_map(EntryKind::File),
        1 => Just(EntryKind::Dir),
        1 => "[a-z]{1,12}".prop_map(EntryKind::Symlink),
    ];
    (path, kind, 0u32..0o1000, 0u64..1 << 31).prop_map(|(path, kind, mode, mtime)| TarEntry {
        path,
        kind,
        mode,
        uid: 0,
        gid: 0,
        mtime,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ingest_reconstruct_identity(entries in proptest::collection::vec(arb_entry(), 0..12)) {
        let tar = write_archive(&entries);
        let blob = gzip_compress(&tar, &CompressOptions::fast());
        let digest = Digest::of(&blob);
        let store = DedupStore::new();
        store.ingest_layer(digest, &blob).unwrap();
        prop_assert_eq!(store.reconstruct_tar(&digest).unwrap(), tar);
    }

    /// Accounting invariants hold across arbitrary ingest sets.
    #[test]
    fn accounting_invariants(layers in proptest::collection::vec(
        proptest::collection::vec(arb_entry(), 0..6), 1..6)) {
        let store = DedupStore::new();
        for entries in &layers {
            let tar = write_archive(entries);
            let blob = gzip_compress(&tar, &CompressOptions::fast());
            let _ = store.ingest_layer(Digest::of(&blob), &blob); // dup blobs rejected, fine
        }
        let st = store.stats();
        prop_assert!(st.physical_bytes <= st.logical_bytes);
        prop_assert!(st.dedup_factor() >= 1.0);
        prop_assert!(st.unique_objects <= layers.iter().map(|l| l.len()).sum::<usize>());
    }
}
