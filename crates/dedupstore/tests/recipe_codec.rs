//! The layer recipe writer against its `Json`-tree oracle: `to_json` must
//! write the bytes printing the recipe as a `Json` object gives, for paths
//! and link targets of any text and numbers of any width.

use dhub_dedupstore::{EntryMeta, LayerRecipe, RecipeEntryKind};
use dhub_model::Digest;
use dhub_oracle::recipe_json_reference;
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

fn arb_entry() -> impl Strategy<Value = EntryMeta> {
    let kind = (0u8..4, any::<[u8; 32]>(), arb_text()).prop_map(|(k, d, t)| match k {
        0 => RecipeEntryKind::File(Digest(d)),
        1 => RecipeEntryKind::Dir,
        2 => RecipeEntryKind::Symlink(t),
        _ => RecipeEntryKind::Hardlink(t),
    });
    (arb_text(), kind, arb_u32(), arb_u32(), arb_u32(), arb_u64()).prop_map(
        |(path, kind, mode, uid, gid, mtime)| EntryMeta { path, kind, mode, uid, gid, mtime },
    )
}

fn arb_recipe() -> impl Strategy<Value = LayerRecipe> {
    (any::<[u8; 32]>(), proptest::collection::vec(arb_entry(), 0..8))
        .prop_map(|(d, entries)| LayerRecipe { layer_digest: Digest(d), entries })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_json_writes_the_json_printers_bytes(recipe in arb_recipe()) {
        prop_assert_eq!(recipe.to_json(), recipe_json_reference(&recipe));
    }
}
