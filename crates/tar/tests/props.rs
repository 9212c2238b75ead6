//! Property tests: write→read identity over arbitrary entry sets.

use dhub_tar::{read_archive, write_archive, EntryKind, TarEntry, TarView};
use proptest::prelude::*;

/// The longest prefix of `s` that is at most `max` bytes on a character
/// boundary.
fn cut(mut s: String, max: usize) -> String {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s.truncate(end);
    s
}

/// Paths and link targets up to 300 bytes, multibyte characters included:
/// plain ustar names, prefix splits, GNU `L` long names and `K` long links.
fn arb_entry() -> impl Strategy<Value = TarEntry> {
    let path = "[a-z\u{e9}]{1,12}(/\\PC{1,40}){0,8}".prop_map(|p| cut(p, 300));
    let target = || "\\PC{1,150}".prop_map(|t| cut(t, 300));
    let kind = prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048).prop_map(EntryKind::File),
        Just(EntryKind::Dir),
        target().prop_map(EntryKind::Symlink),
        target().prop_map(EntryKind::Hardlink),
    ];
    (path, kind, 0u32..0o10000, any::<u32>(), any::<u32>(), 0u64..1 << 40)
        .prop_map(|(path, kind, mode, uid, gid, mtime)| TarEntry { path, kind, mode, uid, gid, mtime })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip(entries in proptest::collection::vec(arb_entry(), 0..20)) {
        let bytes = write_archive(&entries);
        prop_assert_eq!(bytes.len() % 512, 0);
        let back = read_archive(&bytes).unwrap();
        prop_assert_eq!(back, entries);
    }

    #[test]
    fn reader_never_panics(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = TarView::new(&data).count();
    }
}
