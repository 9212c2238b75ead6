//! Property tests: write→read identity over arbitrary entry sets.

use dhub_tar::{read_archive, write_archive, EntryKind, TarEntry};
use proptest::prelude::*;

fn arb_entry() -> impl Strategy<Value = TarEntry> {
    let path = "[a-z]{1,12}(/[a-z0-9._-]{1,12}){0,4}";
    let kind = prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048).prop_map(EntryKind::File),
        Just(EntryKind::Dir),
        "[a-z]{1,20}".prop_map(EntryKind::Symlink),
        "[a-z]{1,20}".prop_map(EntryKind::Hardlink),
    ];
    (path, kind, 0u32..0o1000, 0u32..1 << 18, 0u64..1 << 33).prop_map(
        |(path, kind, mode, uid, mtime)| TarEntry { path, kind, mode, uid, gid: uid / 2, mtime },
    )
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
        let _ = read_archive(&data);
    }
}
