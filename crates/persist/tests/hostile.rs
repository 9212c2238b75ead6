//! `Table::load` on hostile input: arbitrary bytes, and valid tables cut
//! short, bit-flipped, or with a row count, block length or string length
//! replaced by a huge one. A layer file of the durable dedup store is a
//! table read straight off disk at every reopen, so a load must never
//! panic or abort; must return either `PersistError::Torn` or a table
//! whose bytes are exactly the input (no second spelling of any table
//! reads back); and must allocate no more than a fixed multiple of the
//! input's length, whatever its length fields claim. Mutants are tried
//! with their trailing CRC left stale and recomputed, so the structural
//! checks behind the CRC are reached too.

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

/// Where a table's length fields sit in its bytes, with their widths:
/// the column count, each name and key length, the metadata count, the
/// row count, each block length, and the first row's length in each
/// string or bytes block.
fn length_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
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
    if u32_at(4) == 2 {
        fields.push((at, 4));
        let nmeta = u32_at(at);
        at += 4;
        for _ in 0..nmeta {
            fields.push((at, 4));
            at += 4 + u32_at(at) + 8;
        }
    }
    fields.push((at, 8));
    let nrows = u64_at(at);
    at += 8;
    for t in types {
        fields.push((at, 8));
        if t >= 2 && nrows > 0 {
            fields.push((at + 8, 4));
        }
        at += 8 + u64_at(at) + 4;
    }
    fields
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
        version in 0u32..3,
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
        ops in proptest::collection::vec((0u8..3, any::<u64>(), 0usize..HUGE.len(), any::<bool>()), 1..4),
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
                _ => {
                    let (at, width) = fields[at as usize % fields.len()];
                    bytes[at..at + width].copy_from_slice(&HUGE[huge].to_le_bytes()[..width]);
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
        let (at, _) = length_fields(&bytes)[2];
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

    let mut past = sound.clone();
    past[third - 4..third].copy_from_slice(&6u32.to_le_bytes());
    fix_crcs(&mut past, third);
    assert!(Table::from_bytes(past.clone()).is_none());
    check(&past).unwrap();
}
