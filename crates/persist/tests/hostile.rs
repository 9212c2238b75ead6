//! `Table::load` on hostile input: arbitrary bytes, and valid tables cut
//! short, bit-flipped, or with a row count, block length or row's varint
//! replaced by a huge one; and varints no writer writes (overlong, eleven
//! bytes, past `u64`) behind right checksums. A layer file of the durable
//! dedup store is a table read straight off disk at every reopen, so a
//! load must never panic or abort; must return either
//! `PersistError::Torn` or a table whose bytes are exactly the input (no
//! second spelling of any table reads back); and must allocate no more
//! than a fixed multiple of the input's length, whatever its length
//! fields claim. Mutants are tried with their trailing CRC left stale and
//! recomputed, so the structural checks behind the CRC are reached too.

use dhub_digest::crc32;
use dhub_oracle::alloc::{allocs_during, CountingAlloc};
use dhub_persist::{ColType, Column, PersistError, Schema, Table};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a load may allocate: this many bytes per input byte…
const PER_BYTE: usize = 16;
/// …plus this many.
const SLACK: usize = 1024;

/// Length fields are replaced by these.
const HUGE: [u64; 6] = [1 << 31, u32::MAX as u64, 1 << 40, 1 << 62, u64::MAX, 3];

fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dhub-persist-hostile-{}-{n}.tbl", std::process::id()))
}

/// Loads `bytes` from a file and checks the three claims.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let path = scratch();
    std::fs::write(&path, bytes).unwrap();
    let (got, used) = allocs_during(|| Table::load(&path));
    std::fs::remove_file(&path).ok();
    match got {
        Ok(table) => prop_assert!(table.to_bytes() == bytes, "a second spelling of a table loaded"),
        Err(PersistError::Torn(p)) => prop_assert_eq!(p, path),
        Err(other) => prop_assert!(false, "expected Torn, got {other:?}"),
    }
    prop_assert!(
        used.bytes <= PER_BYTE * bytes.len() + SLACK,
        "a {}-byte file allocated {} bytes",
        bytes.len(),
        used.bytes
    );
    Ok(())
}

/// Replaces the trailing CRC with the right one for the bytes before it.
fn fix_trailer(bytes: &mut [u8]) {
    if bytes.len() >= 4 {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// The fixed-width length fields of a table's bytes, with their widths:
/// the column count, each name and key length, the metadata count, the
/// row count and each block length.
fn length_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    layout(bytes).0
}

/// Where each block's first row starts, when the block is of varints (a
/// U64 block, or a Str / Bytes block's lengths) and has a row.
fn first_varints(bytes: &[u8]) -> Vec<usize> {
    layout(bytes).1
}

/// Both of the above, in one walk of the header.
fn layout(bytes: &[u8]) -> (Vec<(usize, usize)>, Vec<usize>) {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut fields = vec![(8, 4)];
    let mut at = 12;
    let mut types = Vec::new();
    for _ in 0..u32_at(8) {
        fields.push((at, 4));
        at += 4 + u32_at(at);
        types.push(bytes[at]);
        at += 1;
    }
    fields.push((at, 4));
    let nmeta = u32_at(at);
    at += 4;
    for _ in 0..nmeta {
        fields.push((at, 4));
        at += 4 + u32_at(at) + 8;
    }
    fields.push((at, 8));
    let nrows = u64_at(at);
    at += 8;
    let mut varints = Vec::new();
    for t in types {
        fields.push((at, 8));
        if t != 1 && nrows > 0 {
            varints.push(at + 8);
        }
        at += 8 + u64_at(at) + 4;
    }
    (fields, varints)
}

/// A LEB128 varint.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// The length of the varint at `bytes[at..]`.
fn varint_len(bytes: &[u8], at: usize) -> usize {
    bytes[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1
}

/// Replaces the varint at `at` with `with`, moving the bytes after it and
/// growing or shrinking its block's length field to match, then rewrites
/// every crc: a table whose checksums and block lengths all hold around
/// the new varint.
fn splice_varint(bytes: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
    let old = varint_len(bytes, at);
    let (len_at, _) = *length_fields(bytes)
        .iter()
        .rfind(|(field, width)| *width == 8 && field + 8 <= at)
        .expect("a block length before the varint");
    let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
    let mut out = bytes[..at].to_vec();
    out.extend_from_slice(with);
    out.extend_from_slice(&bytes[at + old..]);
    let len = len + with.len() as u64 - old as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    fix_crcs(&mut out, at);
    out
}

/// A table of up to four columns of any type, up to six rows filled from
/// `seed`, and up to two metadata fields.
fn table() -> impl Strategy<Value = Table> {
    (
        proptest::collection::vec((0u8..4, "[a-z]{0,6}"), 0..5),
        0usize..7,
        any::<u64>(),
        proptest::collection::vec(("[a-z]{1,6}", any::<u64>()), 0..3),
    )
        .prop_map(|(cols, nrows, seed, meta)| {
            let nrows = if cols.is_empty() { 0 } else { nrows };
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 11
            };
            let mut schema = Vec::new();
            let mut columns = Vec::new();
            for (tag, name) in &cols {
                let (t, c) = match tag {
                    0 => (ColType::U64, Column::U64((0..nrows).map(|_| next()).collect())),
                    1 => (ColType::F64, Column::F64((0..nrows).map(|_| f64::from_bits(next())).collect())),
                    2 => (ColType::Str, Column::Str((0..nrows).map(|_| "é".repeat(next() as usize % 4)).collect())),
                    _ => (ColType::Bytes, Column::Bytes((0..nrows).map(|_| vec![7; next() as usize % 5]).collect())),
                };
                schema.push((name.as_str(), t));
                columns.push(c);
            }
            let mut t = Table::from_columns(Schema::new(&schema), columns).unwrap();
            for (key, value) in &meta {
                t = t.with_meta(key, *value);
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_torn(
        body in proptest::collection::vec(any::<u8>(), 0..200),
        version in 0u32..5,
        headed in any::<bool>(),
        fix in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if headed {
            bytes.extend_from_slice(b"DHTB");
            bytes.extend_from_slice(&version.to_le_bytes());
        }
        bytes.extend_from_slice(&body);
        if fix {
            bytes.extend_from_slice(&[0; 4]);
            fix_trailer(&mut bytes);
        }
        check(&bytes)?;
    }

    #[test]
    fn mutated_tables_are_torn(
        t in table(),
        ops in proptest::collection::vec(
            (0u8..4, any::<u64>(), 0usize..HUGE.len(), any::<bool>()),
            1..4,
        ),
    ) {
        let sound = t.to_bytes();
        check(&sound)?;
        let fields = length_fields(&sound);
        for (op, at, huge, fix) in ops {
            let mut bytes = sound.clone();
            match op {
                0 => bytes.truncate(at as usize % bytes.len()),
                1 => {
                    let bit = at as usize % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                2 => {
                    let (at, width) = fields[at as usize % fields.len()];
                    bytes[at..at + width].copy_from_slice(&HUGE[huge].to_le_bytes()[..width]);
                }
                _ => {
                    let varints = first_varints(&sound);
                    if varints.is_empty() {
                        continue;
                    }
                    let v = varints[at as usize % varints.len()];
                    bytes = splice_varint(&sound, v, &varint(HUGE[huge]));
                }
            }
            if fix {
                fix_trailer(&mut bytes);
            }
            if bytes != sound {
                check(&bytes)?;
            }
        }
    }
}

/// The file that used to abort the process: valid CRCs and a row count of
/// 2^40 over an 8-byte block.
#[test]
fn a_huge_row_count_is_torn_not_an_abort() {
    for t in [ColType::U64, ColType::Str, ColType::Bytes] {
        let table = Table::from_columns(Schema::new(&[("x", t)]), vec![match t {
            ColType::U64 => Column::U64(vec![1]),
            ColType::Str => Column::Str(["abcd"].into_iter().collect()),
            _ => Column::Bytes([[1, 2, 3, 4]].into_iter().collect()),
        }])
        .unwrap();
        let mut bytes = table.to_bytes();
        let (at, _) = length_fields(&bytes)[3];
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        fix_trailer(&mut bytes);
        assert!(bytes.len() < 64);
        let path = scratch();
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Table::load(&path), Err(PersistError::Torn(_))), "{t:?}");
        std::fs::remove_file(&path).ok();
    }
}

/// Rewrites the CRC of the block that holds byte `at`, then the trailer:
/// a mutant whose checksums all hold, so only the row walk can catch it.
fn fix_crcs(bytes: &mut [u8], at: usize) {
    let (start, _) = *length_fields(bytes)
        .iter()
        .rfind(|(field, width)| *width == 8 && field + 8 <= at)
        .expect("a block length before the byte");
    let len = u64::from_le_bytes(bytes[start..start + 8].try_into().unwrap()) as usize;
    let block = start + 8..start + 8 + len;
    assert!(block.contains(&at), "byte {at} is not in a block");
    let crc = crc32(&bytes[block.clone()]);
    bytes[block.end..block.end + 4].copy_from_slice(&crc.to_le_bytes());
    fix_trailer(bytes);
}

/// A Str block whose later row is not utf-8, and one whose last length
/// runs past its block, with every CRC right: both are torn, within the
/// allocation bound.
#[test]
fn a_bad_row_behind_good_crcs_is_torn() {
    let rows = ["first", "second", "third"];
    let table = Table::from_columns(
        Schema::new(&[("n", ColType::U64), ("s", ColType::Str)]),
        vec![Column::U64(vec![1, 2, 3]), Column::Str(rows.into_iter().collect())],
    )
    .unwrap();
    let sound = table.to_bytes();
    check(&sound).unwrap();
    let third = sound.windows(5).position(|w| w == b"third").unwrap();

    let mut not_utf8 = sound.clone();
    not_utf8[third + 2] = 0xff;
    fix_crcs(&mut not_utf8, third);
    assert!(Table::from_bytes(not_utf8.clone()).is_none());
    check(&not_utf8).unwrap();

    // The block's lengths are 5, 6, 5 and then come the values.
    let lengths = *first_varints(&sound).last().unwrap();
    assert_eq!(&sound[lengths..lengths + 3], &[5, 6, 5]);
    let mut past = sound.clone();
    past[lengths + 2] = 6;
    fix_crcs(&mut past, third);
    assert!(Table::from_bytes(past.clone()).is_none());
    check(&past).unwrap();
}

/// Each varint a canonical writer never writes, behind right crcs and
/// block lengths, is torn with no panic and within the allocation bound:
/// an overlong one, one of eleven bytes, one past `u64`, a row length
/// past its block, and a row count above the bytes of a block.
#[test]
fn hostile_varints_are_torn_within_bounds() {
    let table = Table::from_columns(
        Schema::new(&[("n", ColType::U64), ("s", ColType::Bytes)]),
        vec![Column::U64(vec![3, 9]), Column::Bytes([&b"ab"[..], b"c"].into_iter().collect())],
    )
    .unwrap();
    let sound = table.to_bytes();
    check(&sound).unwrap();
    let [ints, lengths] = <[usize; 2]>::try_from(first_varints(&sound)).unwrap();
    let eleven = [[0x80; 10].as_slice(), &[0x00]].concat();
    let past_u64 = [[0xff; 9].as_slice(), &[0x02]].concat();
    let mut mutants = Vec::new();
    for at in [ints, lengths] {
        for with in [&[0x86, 0x00][..], &[0x80, 0x80, 0x80, 0x00], &eleven, &past_u64] {
            mutants.push(splice_varint(&sound, at, with));
        }
    }
    // A length past the block: the first row claims 200 bytes of 3.
    mutants.push(splice_varint(&sound, lengths, &varint(200)));
    // A row count above the bytes of the U64 block (2), of the Bytes
    // block (5), and of both.
    let (nrows, _) = length_fields(&sound)[5];
    for claim in [3u64, 6, 1 << 40] {
        let mut bytes = sound.clone();
        bytes[nrows..nrows + 8].copy_from_slice(&claim.to_le_bytes());
        fix_trailer(&mut bytes);
        mutants.push(bytes);
    }
    for bytes in &mutants {
        assert!(Table::from_bytes(bytes.clone()).is_none(), "{bytes:02x?}");
        check(bytes).unwrap();
    }
}

/// A table as the previous version wrote it — version 2, fixed 8-byte
/// integers and `u32` length prefixes — is torn, not misread.
#[test]
fn a_v2_file_is_torn() {
    let mut v2 = b"DHTB".to_vec();
    v2.extend_from_slice(&2u32.to_le_bytes());
    v2.extend_from_slice(&1u32.to_le_bytes());
    v2.extend_from_slice(&1u32.to_le_bytes());
    v2.extend_from_slice(b"n\x00");
    v2.extend_from_slice(&1u32.to_le_bytes());
    v2.extend_from_slice(&1u32.to_le_bytes());
    v2.extend_from_slice(b"k");
    v2.extend_from_slice(&7u64.to_le_bytes());
    v2.extend_from_slice(&1u64.to_le_bytes());
    v2.extend_from_slice(&8u64.to_le_bytes());
    v2.extend_from_slice(&42u64.to_le_bytes());
    v2.extend_from_slice(&crc32(&42u64.to_le_bytes()).to_le_bytes());
    v2.extend_from_slice(&[0; 4]);
    fix_trailer(&mut v2);
    assert!(Table::from_bytes(v2.clone()).is_none());
    check(&v2).unwrap();
    // The same bytes with the version field set to 3 are torn as well:
    // the v3 header has its metadata count where v2 had it, but no
    // fixed-width block reads as v3 varints here.
    v2[4..8].copy_from_slice(&3u32.to_le_bytes());
    fix_trailer(&mut v2);
    check(&v2).unwrap();
}
