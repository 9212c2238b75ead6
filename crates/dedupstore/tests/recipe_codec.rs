//! The layer recipe writer against its `Json`-tree oracle: `to_json` must
//! write the bytes printing the recipe as a `Json` object gives, for paths
//! and link targets of any text and numbers of any width. The recipe is
//! built by pushing the oracle's owned rows, and its row views must read
//! them back.

use dhub_dedupstore::LayerRecipe;
use dhub_model::Digest;
use dhub_oracle::{recipe_json_reference, RefKind, RefRow};
use proptest::prelude::*;

/// Paths and link targets: quotes, backslashes, control characters,
/// multibyte text, and lengths past the 100-byte ustar name field.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "\\PC{0,40}",
        "[a-z/\"\\\\\u{1}\u{8}\u{c}\u{1f}\n\t\r\u{e9}\u{65e5}\u{1f600}]{0,30}",
        "[a-z0-9/._-]{101,180}",
    ]
}

fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just((1u64 << 53) - 1),
        Just(1u64 << 53),
        Just((1u64 << 53) + 1),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

/// A row; only a file has a size.
fn arb_row() -> impl Strategy<Value = RefRow> {
    let kind = (0u8..4, any::<[u8; 32]>(), arb_text()).prop_map(|(k, d, t)| match k {
        0 => RefKind::File(Digest(d)),
        1 => RefKind::Dir,
        2 => RefKind::Symlink(t),
        _ => RefKind::Hardlink(t),
    });
    let ids = (arb_u32(), arb_u32(), arb_u32(), arb_u64());
    ((arb_text(), kind, arb_u64()), ids).prop_map(
        |((path, kind, size), (mode, uid, gid, mtime))| {
            let size = if matches!(kind, RefKind::File(_)) { size } else { 0 };
            RefRow { path, kind, size, mode, uid, gid, mtime }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_json_writes_the_json_printers_bytes(
        d in any::<[u8; 32]>(),
        rows in proptest::collection::vec(arb_row(), 0..8),
        blob_len in arb_u64(),
    ) {
        let layer_digest = Digest(d);
        let mut recipe = LayerRecipe::new(layer_digest, blob_len);
        for row in &rows {
            recipe.push(row.view());
        }
        let back: Vec<RefRow> = recipe.rows().map(RefRow::from).collect();
        prop_assert_eq!(&back, &rows);
        prop_assert_eq!(recipe.to_json(), recipe_json_reference(&layer_digest, &rows));
    }
}
