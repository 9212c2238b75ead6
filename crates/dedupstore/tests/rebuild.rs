//! Layer rebuild: `DedupStore::reconstruct_tar` must give back the original
//! tar bytes, for layers on both sides of the 2 MiB size from which the
//! rebuild is split across cores — empty files, directories, links, long
//! names and MiB-sized files that straddle the cuts between runs — and it
//! must build its output in one exact-sized allocation.
//!
//! `scripts/ci.sh` runs this file pinned to one core (`taskset -c 0`, where
//! `available_parallelism()` is 1 and every layer is filled inline) and
//! unpinned, each also under `MALLOC_PERTURB_`, where fresh memory is not
//! zero, so a byte the rebuild does not write shows.

use dhub_dedupstore::{DedupStore, ParsedLayer};
use dhub_model::{Digest, FileKind};
use dhub_oracle::alloc::{allocs_during, CountingAlloc};
use dhub_tar::{write_archive, EntryKind, EntryViewKind, TarEntry, TarView};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: usize = 1 << 20;

/// The tar size from which a rebuild is split across cores.
const SPLIT: usize = 2 * MIB;

/// `len` bytes that differ per `seed` (cheap to make at multi-MiB sizes).
fn content(len: usize, seed: u64) -> Vec<u8> {
    let mut data = vec![seed as u8; len];
    let tag = seed.to_le_bytes();
    let n = len.min(tag.len());
    data[..n].copy_from_slice(&tag[..n]);
    data
}

/// Paths up to 300 bytes, some multibyte: plain names, ustar prefix splits
/// and GNU long names.
fn arb_path() -> impl Strategy<Value = String> {
    "[a-z\u{e9}]{1,12}(/[a-z0-9._\u{4e2d}-]{1,50}){0,5}".prop_map(|p| {
        let mut end = p.len().min(300);
        while !p.is_char_boundary(end) {
            end -= 1;
        }
        p[..end].to_string()
    })
}

fn arb_small_entry() -> impl Strategy<Value = TarEntry> {
    let kind = prop_oneof![
        4 => (0usize..3000, any::<u64>()).prop_map(|(len, seed)| EntryKind::File(content(len, seed))),
        1 => Just(EntryKind::File(Vec::new())),
        1 => Just(EntryKind::Dir),
        1 => "\\PC{1,60}".prop_map(EntryKind::Symlink),
        1 => "[a-z/]{1,150}".prop_map(EntryKind::Hardlink),
    ];
    (arb_path(), kind, 0u32..0o10000, any::<u32>(), 0u64..1 << 40)
        .prop_map(|(path, kind, mode, uid, mtime)| TarEntry { path, kind, mode, uid, gid: uid / 3, mtime })
}

/// Small entries with `big` files of 1–2 MiB dropped in at random places.
fn arb_layer(small: std::ops::Range<usize>, big: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TarEntry>> {
    let bigs = proptest::collection::vec((MIB..2 * MIB, any::<u64>(), any::<u32>()), big);
    (proptest::collection::vec(arb_small_entry(), small), bigs).prop_map(|(mut entries, bigs)| {
        for (i, (len, seed, at)) in bigs.into_iter().enumerate() {
            let file = TarEntry::file(&format!("big/{i}.bin"), content(len, seed));
            entries.insert(at as usize % (entries.len() + 1), file);
        }
        entries
    })
}

/// Files `tar` into `store` as one layer, its digest naming it (the store
/// never needs the compressed blob to rebuild, nor a file's class).
fn ingest(store: &DedupStore, tar: &[u8]) -> Digest {
    let digest = Digest::of(tar);
    let mut layer = ParsedLayer::new(digest, tar.len() as u64);
    for entry in TarView::new(tar) {
        let entry = entry.unwrap();
        let file = match entry.kind {
            EntryViewKind::File(data) => Some((Digest::of(data), FileKind::OtherBinary, data)),
            _ => None,
        };
        layer.push(&entry, file);
    }
    store.commit_parsed(layer).unwrap();
    digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layers_below_the_split_rebuild_exactly(entries in arb_layer(0..40, 0..1)) {
        let tar = write_archive(&entries);
        prop_assert!(tar.len() < SPLIT);
        let store = DedupStore::new();
        let digest = ingest(&store, &tar);
        prop_assert_eq!(store.reconstruct_tar(&digest).unwrap(), tar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn layers_above_the_split_rebuild_exactly(entries in arb_layer(0..60, 3..6)) {
        let tar = write_archive(&entries);
        prop_assert!(tar.len() >= SPLIT);
        let store = DedupStore::new();
        let digest = ingest(&store, &tar);
        prop_assert!(store.reconstruct_tar(&digest).unwrap() == tar, "rebuilt tar differs");
    }
}

/// One huge file between two runs of small ones: a layer whose byte
/// midpoint falls inside one entry.
#[test]
fn one_entry_holding_most_of_the_bytes() {
    let mut entries: Vec<TarEntry> = (0..20).map(|i| TarEntry::file(&format!("a/{i}"), content(700, i))).collect();
    entries.push(TarEntry::file("huge", content(9 * MIB + 3, 99)));
    entries.extend((0..20).map(|i| TarEntry::symlink(&format!("b/{i}"), &"t".repeat(150))));
    let tar = write_archive(&entries);
    let store = DedupStore::new();
    let digest = ingest(&store, &tar);
    assert!(store.reconstruct_tar(&digest).unwrap() == tar, "rebuilt tar differs");
}

/// A rebuild sizes its output first: no reallocation, and nothing beyond
/// the tar itself but a few KiB (the entry end offsets and the spawned
/// thread).
#[test]
fn a_rebuild_allocates_its_output_once() {
    for (small, big) in [(300u64, 0u64), (300, 4)] {
        let mut entries: Vec<TarEntry> =
            (0..small).map(|i| TarEntry::file(&format!("d/{i}"), content(900, i))).collect();
        entries.extend((0..big).map(|i| TarEntry::file(&format!("big/{i}"), content(2 * MIB + 1, i))));
        let tar = write_archive(&entries);
        let store = DedupStore::new();
        let digest = ingest(&store, &tar);
        // The first large rebuild in a process asks the OS for its core
        // count once (which reads cgroup files); measure the one after it.
        store.reconstruct_tar(&digest).unwrap();
        let (rebuilt, allocs) = allocs_during(|| store.reconstruct_tar(&digest).unwrap());
        assert!(rebuilt == tar, "rebuilt tar differs");
        assert_eq!(allocs.reallocs, 0, "{} MiB layer", tar.len() / MIB);
        assert!(
            allocs.bytes <= tar.len() + 64 * 1024,
            "{} bytes allocated for a {}-byte tar",
            allocs.bytes,
            tar.len()
        );
    }
}
