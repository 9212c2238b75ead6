//! The layer file codec: a durable commit writes, for any layer, the bytes
//! a per-row encoder kept here writes — one row per tar entry, a file's
//! class as the oracle analyzer assigns it, no file content — and a reopen
//! reads back the same rows, rebuilds the same tar and folds the same
//! profile. A file whose class is not a file kind, or names one on a row
//! that is not a file, is torn.

use dhub_compress::{gzip_compress, CompressOptions};
use dhub_dedupstore::{analyze_and_ingest, LayerRecipe, PersistentDedupStore, PersistentError};
use dhub_model::{Digest, FileKind};
use dhub_oracle::{analyze_layer_reference, RefKind, RefRow};
use dhub_persist::{
    hex_of, BytesColumn, ColType, Column, PersistError, Publisher, Schema, StrColumn, Table,
};
use dhub_tar::{write_archive, EntryKind, EntryView, EntryViewKind, TarEntry, TarView};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The largest object a layer's segment holds rather than an object file.
const INLINE_MAX: usize = 4096;

/// The layer file of `entries`, written the way the store wrote it before
/// its recipes were columns: row by row, from each entry's own fields and
/// `class[i]` as row `i`'s class.
fn layer_file_reference(blob_len: u64, entries: &[EntryView<'_>], class: &[u64]) -> Vec<u8> {
    use ColType::{Bytes, Str, U64};
    let schema = Schema::new(&[
        ("path", Str),
        ("kind", U64),
        ("mode", U64),
        ("uid", U64),
        ("gid", U64),
        ("mtime", U64),
        ("size", U64),
        ("sha256", Bytes),
        ("class", U64),
        ("target", Str),
    ]);
    let (mut path, mut target) = (StrColumn::default(), StrColumn::default());
    let mut sha256 = BytesColumn::default();
    let mut ints: [Vec<u64>; 6] = Default::default();
    assert_eq!(entries.len(), class.len());
    for e in entries {
        let (kind, link) = match e.kind {
            EntryViewKind::File(_) => (0, ""),
            EntryViewKind::Dir => (1, ""),
            EntryViewKind::Symlink(t) => (2, t),
            EntryViewKind::Hardlink(t) => (3, t),
        };
        let (size, digest) = match e.kind {
            EntryViewKind::File(data) => (data.len() as u64, Digest::of(data).0.to_vec()),
            _ => (0, Vec::new()),
        };
        let row = [kind, e.mode.into(), e.uid.into(), e.gid.into(), e.mtime, size];
        for (col, v) in ints.iter_mut().zip(row) {
            col.push(v);
        }
        path.push(&e.path);
        target.push(link);
        sha256.push(&digest);
    }
    let [kind, mode, uid, gid, mtime, size] = ints.map(Column::U64);
    let cols = vec![
        Column::Str(path),
        kind,
        mode,
        uid,
        gid,
        mtime,
        size,
        Column::Bytes(sha256),
        Column::U64(class.to_vec()),
        Column::Str(target),
    ];
    let table = Table::from_columns(schema, cols).unwrap();
    table.with_meta("format", 4).with_meta("blob_len", blob_len).to_bytes()
}

/// Each entry's class: a file's, from the oracle analyzer's profile of
/// `blob`, in order; 0 on every other row.
fn classes(digest: Digest, blob: &[u8], entries: &[EntryView<'_>]) -> Vec<u64> {
    let profile = analyze_layer_reference(digest, blob).unwrap();
    let mut kinds = profile.files.iter().map(|f| f.kind.index() as u64);
    let class = entries
        .iter()
        .map(|e| match e.kind {
            EntryViewKind::File(_) => kinds.next().unwrap(),
            _ => 0,
        })
        .collect();
    assert!(kinds.next().is_none());
    class
}

/// An entry's row, owned, a file's class `class`.
fn row_of(e: &EntryView<'_>, class: u64) -> RefRow {
    let (kind, size) = match e.kind {
        EntryViewKind::File(data) => {
            let kind = FileKind::ALL[class as usize];
            (RefKind::File(Digest::of(data), kind), data.len() as u64)
        }
        EntryViewKind::Dir => (RefKind::Dir, 0),
        EntryViewKind::Symlink(t) => (RefKind::Symlink(t.to_string()), 0),
        EntryViewKind::Hardlink(t) => (RefKind::Hardlink(t.to_string()), 0),
    };
    let (mode, uid, gid, mtime) = (e.mode, e.uid, e.gid, e.mtime);
    RefRow { path: e.path.to_string(), kind, size, mode, uid, gid, mtime }
}

/// `len` bytes that differ per `seed`.
fn content(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect()
}

/// Files on both sides of the inline bound, from few enough seeds that a
/// layer often holds one content twice; directories; links with long and
/// multibyte targets.
fn arb_entry() -> impl Strategy<Value = TarEntry> {
    let len = prop_oneof![
        Just(0usize),
        1usize..200,
        Just(INLINE_MAX - 1),
        Just(INLINE_MAX),
        Just(INLINE_MAX + 1),
        INLINE_MAX..3 * INLINE_MAX,
    ];
    let kind = prop_oneof![
        5 => (len, 0u8..3).prop_map(|(len, seed)| EntryKind::File(content(len, seed))),
        1 => Just(EntryKind::Dir),
        1 => "\\PC{1,60}".prop_map(EntryKind::Symlink),
        1 => "[a-z/]{1,150}".prop_map(EntryKind::Hardlink),
    ];
    let path = "[a-z\u{e9}]{1,12}(/[a-z0-9._\u{4e2d}-]{1,60}){0,3}";
    (path, kind, 0u32..0o10000, any::<u32>(), 0u64..1 << 40)
        .prop_map(|(path, kind, mode, uid, mtime)| TarEntry { path, kind, mode, uid, gid: uid / 3, mtime })
}

fn blob_of(tar: &[u8]) -> Vec<u8> {
    gzip_compress(tar, &CompressOptions::fast())
}

/// Where a store rooted at `dir` keeps `digest`'s layer file.
fn layer_path(dir: &std::path::Path, digest: &Digest) -> PathBuf {
    let hex = hex_of(digest);
    dir.join("layers").join(&hex[..2]).join(&hex)
}

fn store_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dhub-layer-file-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two layers into one store through the fused pass, so the second
    /// names objects the first holds: each layer file is its own rows
    /// alone.
    #[test]
    fn layer_files_are_the_per_row_encoders_bytes(
        first in proptest::collection::vec(arb_entry(), 0..24),
        second in proptest::collection::vec(arb_entry(), 0..24),
    ) {
        let dir = store_dir();
        let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
        let tars: Vec<Vec<u8>> = [first, second].iter().map(|e| write_archive(e)).collect();
        let mut scratch = dhub_par::Scratch::new();
        let mut layers = Vec::new();
        for (i, tar) in tars.iter().enumerate() {
            // Named apart even when both layers are the same tar.
            let digest = Digest::of(&[tar.as_slice(), &[i as u8]].concat());
            let blob = blob_of(tar);
            let entries: Vec<EntryView<'_>> = TarView::new(tar).map(Result::unwrap).collect();
            let class = classes(digest, &blob, &entries);
            let (profile, ingest) = analyze_and_ingest(&store, digest, &blob, &mut scratch).unwrap();
            ingest.unwrap();
            let written = std::fs::read(layer_path(&dir, &digest)).unwrap();
            let want = layer_file_reference(blob.len() as u64, &entries, &class);
            prop_assert!(written == want, "layer {}", i);
            let rows: Vec<RefRow> = entries.iter().zip(&class).map(|(e, c)| row_of(e, *c)).collect();
            layers.push((digest, blob.len() as u64, rows, profile));
        }
        drop(store);
        let reopened = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
        for ((digest, blob_len, rows, profile), tar) in layers.iter().zip(&tars) {
            let recipe: std::sync::Arc<LayerRecipe> = reopened.mem().recipe(digest).unwrap();
            prop_assert_eq!(recipe.blob_len, *blob_len);
            let back: Vec<RefRow> = recipe.rows().map(RefRow::from).collect();
            prop_assert_eq!(&back, rows);
            prop_assert_eq!(&recipe.profile(), profile);
            prop_assert!(&reopened.mem().reconstruct_tar(digest).unwrap() == tar);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A layer file the per-row encoder writes with `class` as its class
/// column, in place of the one a commit wrote beside its segment, opens,
/// or fails `open` as torn naming it, and nothing else.
#[test]
fn a_class_past_the_kinds_or_on_a_row_that_is_not_a_file_is_torn() {
    let tar = write_archive(&[
        TarEntry::dir("d/"),
        TarEntry::file("d/f.txt", b"plain text\n".to_vec()),
        TarEntry::symlink("d/l", "f.txt"),
    ]);
    let blob = blob_of(&tar);
    let digest = Digest::of(&blob);
    let entries: Vec<EntryView<'_>> = TarView::new(&tar).map(Result::unwrap).collect();
    let sound = classes(digest, &blob, &entries);
    let last = FileKind::COUNT as u64 - 1;
    let opens = |class: &[u64]| {
        let dir = store_dir();
        let path = layer_path(&dir, &digest);
        let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
        analyze_and_ingest(&store, digest, &blob, &mut dhub_par::Scratch::new()).unwrap().1.unwrap();
        drop(store);
        std::fs::write(&path, layer_file_reference(blob.len() as u64, &entries, class)).unwrap();
        let open = PersistentDedupStore::open(&dir, Publisher::new());
        let opened = match open {
            Ok(store) => {
                let recipe = store.mem().recipe(&digest).unwrap();
                assert_eq!(recipe.rows().map(RefRow::from).collect::<Vec<_>>().len(), 3);
                true
            }
            Err(PersistentError::Persist(PersistError::Torn(p))) => {
                assert_eq!(p, path);
                false
            }
            Err(other) => panic!("class {class:?}: expected a torn layer file, got {other}"),
        };
        let _ = std::fs::remove_dir_all(&dir);
        opened
    };
    assert!(opens(&sound));
    assert!(opens(&[0, last, 0]), "the last kind is a kind");
    for torn in [
        [0, FileKind::COUNT as u64, 0],
        [0, u64::MAX, 0],
        [1, sound[1], 0],
        [0, sound[1], last],
    ] {
        assert!(!opens(&torn), "class {torn:?} opened");
    }
}
