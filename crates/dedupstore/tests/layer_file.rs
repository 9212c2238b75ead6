//! The layer file codec: a durable commit writes, for any layer, the bytes
//! a per-row encoder kept here writes — one row per tar entry, each small
//! content inline on the first row in the layer that names it — and a
//! reopen reads back the same rows and rebuilds the same tar.

use dhub_dedupstore::{LayerRecipe, ParsedLayer, PersistentDedupStore};
use dhub_model::Digest;
use dhub_oracle::{RefKind, RefRow};
use dhub_persist::{hex_of, BytesColumn, ColType, Column, Publisher, Schema, StrColumn, Table};
use dhub_tar::{write_archive, EntryKind, EntryView, EntryViewKind, TarEntry, TarView};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The largest object a layer file carries inline.
const INLINE_MAX: usize = 4096;

/// The layer file of `entries`, written the way the store wrote it before
/// its recipes were columns: row by row, from each entry's own fields.
fn layer_file_reference(blob_len: u64, entries: &[EntryView<'_>]) -> Vec<u8> {
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
        ("target", Str),
        ("content", Bytes),
    ]);
    let (mut path, mut target) = (StrColumn::default(), StrColumn::default());
    let (mut sha256, mut content) = (BytesColumn::default(), BytesColumn::default());
    let mut ints: [Vec<u64>; 6] = Default::default();
    let mut inlined = HashSet::new();
    for e in entries {
        let (kind, link) = match e.kind {
            EntryViewKind::File(_) => (0, ""),
            EntryViewKind::Dir => (1, ""),
            EntryViewKind::Symlink(t) => (2, t),
            EntryViewKind::Hardlink(t) => (3, t),
        };
        let (size, digest, body) = match e.kind {
            EntryViewKind::File(data) => {
                let d = Digest::of(data);
                let inline = data.len() <= INLINE_MAX && inlined.insert(d);
                (data.len() as u64, d.0.to_vec(), if inline { data } else { &[] })
            }
            _ => (0, Vec::new(), &[][..]),
        };
        let row = [kind, e.mode.into(), e.uid.into(), e.gid.into(), e.mtime, size];
        for (col, v) in ints.iter_mut().zip(row) {
            col.push(v);
        }
        path.push(&e.path);
        target.push(link);
        sha256.push(&digest);
        content.push(body);
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
        Column::Str(target),
        Column::Bytes(content),
    ];
    let table = Table::from_columns(schema, cols).unwrap();
    table.with_meta("format", 2).with_meta("blob_len", blob_len).to_bytes()
}

/// An entry's row, owned.
fn row_of(e: &EntryView<'_>) -> RefRow {
    let (kind, size) = match e.kind {
        EntryViewKind::File(data) => (RefKind::File(Digest::of(data)), data.len() as u64),
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

fn store_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dhub-layer-file-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two layers into one store, so the second names objects the first
    /// holds: each layer file still carries its own small contents.
    #[test]
    fn layer_files_are_the_per_row_encoders_bytes(
        first in proptest::collection::vec(arb_entry(), 0..24),
        second in proptest::collection::vec(arb_entry(), 0..24),
    ) {
        let dir = store_dir();
        let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
        let tars: Vec<Vec<u8>> = [first, second].iter().map(|e| write_archive(e)).collect();
        let mut layers = Vec::new();
        for (i, tar) in tars.iter().enumerate() {
            let digest = Digest::of(tar);
            let blob_len = tar.len() as u64 + i as u64;
            let entries: Vec<EntryView<'_>> = TarView::new(tar).map(Result::unwrap).collect();
            let mut layer = ParsedLayer::new(digest, blob_len);
            for entry in &entries {
                layer.push(entry, None);
            }
            store.commit_parsed(layer).unwrap();
            let hex = hex_of(&digest);
            let written = std::fs::read(dir.join("layers").join(&hex[..2]).join(&hex)).unwrap();
            prop_assert!(written == layer_file_reference(blob_len, &entries), "layer {}", i);
            layers.push((digest, blob_len, entries.iter().map(row_of).collect::<Vec<_>>()));
        }
        drop(store);
        let reopened = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
        for ((digest, blob_len, rows), tar) in layers.iter().zip(&tars) {
            let recipe: std::sync::Arc<LayerRecipe> = reopened.mem().recipe(digest).unwrap();
            prop_assert_eq!(recipe.blob_len, *blob_len);
            let back: Vec<RefRow> = recipe.rows().map(RefRow::from).collect();
            prop_assert_eq!(&back, rows);
            prop_assert!(&reopened.mem().reconstruct_tar(digest).unwrap() == tar);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
