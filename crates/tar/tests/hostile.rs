//! `TarView` on hostile input: arbitrary bytes, and valid archives with a
//! header's size field blown up, a byte flipped or the tail cut off. A
//! layer's tar comes straight off the wire (through inflate), so the walk
//! must never panic and never allocate more than the archive it was given:
//! it borrows payloads and GNU long names, and assembles at most one
//! ≤ 256-byte ustar path per 512-byte header.

use dhub_oracle::alloc::{allocs_during, CountingAlloc};
use dhub_tar::{write_archive, EntryKind, TarEntry, TarView, BLOCK_SIZE};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Walks `data` to its end or first error, returning the bytes allocated.
fn walk_allocs(data: &[u8]) -> usize {
    allocs_during(|| TarView::new(data).count()).1.bytes
}

/// Paths up to ~370 bytes: plain ustar names, name/prefix splits past 100
/// bytes, and GNU `L` long-name records past 255.
fn arb_entry() -> impl Strategy<Value = TarEntry> {
    let path = "[a-z]{1,12}(/[a-z0-9._-]{1,40}){0,8}";
    let kind = prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..1500).prop_map(EntryKind::File),
        Just(EntryKind::Dir),
        "[a-z]{1,20}".prop_map(EntryKind::Symlink),
    ];
    (path, kind).prop_map(|(path, kind)| TarEntry { path, kind, mode: 0o644, uid: 0, gid: 0, mtime: 0 })
}

/// Offsets of the blocks whose checksum field is right: the headers,
/// long-name records included.
fn header_offsets(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len() / BLOCK_SIZE)
        .map(|i| i * BLOCK_SIZE)
        .filter(|&at| bytes[at..at + BLOCK_SIZE].iter().any(|&b| b != 0))
        .filter(|&at| checksum(&bytes[at..at + BLOCK_SIZE]) == octal(&bytes[at + 148..at + 156]))
        .collect()
}

/// Header byte sum with the checksum field read as spaces.
fn checksum(header: &[u8]) -> u64 {
    header.iter().enumerate().map(|(i, &b)| if (148..156).contains(&i) { 32 } else { b as u64 }).sum()
}

fn octal(field: &[u8]) -> u64 {
    let digits = field.iter().skip_while(|&&b| b == b' ').take_while(|b| b.is_ascii_digit());
    digits.fold(0, |v, &b| v * 8 + (b - b'0') as u64)
}

/// Writes `value` into the header's 12-byte size field and re-signs it, so
/// the walk gets past the checksum to the size it must not trust.
fn set_size(bytes: &mut [u8], at: usize, value: u64) {
    bytes[at + 124..at + 136].copy_from_slice(format!("{value:011o}\0").as_bytes());
    let sum = checksum(&bytes[at..at + BLOCK_SIZE]);
    bytes[at + 148..at + 156].copy_from_slice(format!("{sum:06o}\0 ").as_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic_or_overallocate(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let bytes = walk_allocs(&data);
        prop_assert!(bytes <= data.len(), "{bytes} bytes allocated walking {} input bytes", data.len());
    }

    #[test]
    fn mutated_archives_never_panic_or_overallocate(
        entries in proptest::collection::vec(arb_entry(), 1..12),
        pick in any::<u32>(),
        size in prop_oneof![Just(0o77777777777u64), Just(1u64 << 32), 0u64..1 << 24],
        flip in any::<u32>(),
        mask in any::<u8>(),
        cut in any::<u32>(),
    ) {
        let archive = write_archive(&entries);
        let headers = header_offsets(&archive);
        prop_assert!(headers.len() >= entries.len(), "every entry has a header");
        let at = headers[pick as usize % headers.len()];

        let mut huge = archive.clone();
        set_size(&mut huge, at, size);
        let mut flipped = archive.clone();
        flipped[flip as usize % archive.len()] ^= mask | 1;
        let cut = &archive[..cut as usize % archive.len()];
        for data in [&archive[..], &huge, &flipped, cut] {
            let bytes = walk_allocs(data);
            prop_assert!(bytes <= data.len(), "{bytes} bytes allocated walking {} input bytes", data.len());
        }
    }
}
