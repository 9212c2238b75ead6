//! The table codec against a per-row encoder kept here: on arbitrary
//! tables, `to_bytes` writes exactly the bytes encoding cell by cell
//! gives, `from_bytes` reads them back to an equal table, and the column
//! views hand back every cell. One small table's bytes are pinned, so the
//! format cannot move with the encoder and this test together.

use dhub_digest::crc32;
use dhub_persist::{ColType, Column, Schema, Table};
use proptest::prelude::*;

/// One column's cells, owned one by one.
#[derive(Clone, Debug)]
enum Cells {
    U64(Vec<u64>),
    F64(Vec<f64>),
    Str(Vec<String>),
    Bytes(Vec<Vec<u8>>),
}

impl Cells {
    fn col_type(&self) -> ColType {
        match self {
            Cells::U64(_) => ColType::U64,
            Cells::F64(_) => ColType::F64,
            Cells::Str(_) => ColType::Str,
            Cells::Bytes(_) => ColType::Bytes,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Cells::U64(_) => 0,
            Cells::F64(_) => 1,
            Cells::Str(_) => 2,
            Cells::Bytes(_) => 3,
        }
    }

    fn column(&self) -> Column {
        match self {
            Cells::U64(v) => Column::U64(v.clone()),
            Cells::F64(v) => Column::F64(v.clone()),
            Cells::Str(v) => Column::Str(v.iter().collect()),
            Cells::Bytes(v) => Column::Bytes(v.iter().collect()),
        }
    }
}

/// A LEB128 varint, one bit test a byte.
fn varint(out: &mut Vec<u8>, v: u64) {
    let mut v = v;
    loop {
        let low = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(low);
            return;
        }
        out.push(low | 0x80);
    }
}

/// The `DHTB` v3 encoder, a growing block per column and one append per
/// cell: a U64 cell as the zigzag of its signed step from the cell
/// before, a Str / Bytes cell as its length among the block's lengths and
/// its bytes among its values.
fn encode(cols: &[(String, Cells)], nrows: usize, meta: &[(String, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"DHTB");
    out.extend_from_slice(&3u32.to_le_bytes());
    out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    for (name, cells) in cols {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.push(cells.tag());
    }
    out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    for (key, value) in meta {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(&(nrows as u64).to_le_bytes());
    for (_, cells) in cols {
        let (mut block, mut values) = (Vec::new(), Vec::new());
        match cells {
            Cells::U64(vs) => {
                let mut prev = 0i64;
                for &v in vs {
                    let step = (v as i64).wrapping_sub(prev);
                    varint(&mut block, ((step << 1) ^ (step >> 63)) as u64);
                    prev = v as i64;
                }
            }
            Cells::F64(vs) => {
                for v in vs {
                    block.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Cells::Str(vs) => {
                for v in vs {
                    varint(&mut block, v.len() as u64);
                    values.extend_from_slice(v.as_bytes());
                }
            }
            Cells::Bytes(vs) => {
                for v in vs {
                    varint(&mut block, v.len() as u64);
                    values.extend_from_slice(v);
                }
            }
        }
        block.extend_from_slice(&values);
        out.extend_from_slice(&(block.len() as u64).to_le_bytes());
        out.extend_from_slice(&block);
        out.extend_from_slice(&crc32(&block).to_le_bytes());
    }
    let trailer = crc32(&out);
    out.extend_from_slice(&trailer.to_le_bytes());
    out
}

/// The cells' random source.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// A cell's length in chars or bytes: mostly short, one in eight past
    /// 255.
    fn len(&mut self) -> usize {
        match self.next() % 8 {
            0 => 256 + self.next() as usize % 64,
            n => n as usize - 1,
        }
    }

    /// An integer cell: small, near either end of `u64`, or anything.
    fn int(&mut self) -> u64 {
        match self.next() % 4 {
            0 => self.next() % 300,
            1 => u64::MAX - self.next() % 3,
            2 => self.next() % 3,
            _ => (self.next() << 11) | (self.next() % 2048),
        }
    }

    fn text(&mut self) -> String {
        const CHARS: [char; 6] = ['a', '\0', '"', '\u{e9}', '\u{65e5}', '\u{1f600}'];
        (0..self.len()).map(|_| CHARS[self.next() as usize % 6]).collect()
    }

    fn bytes(&mut self) -> Vec<u8> {
        (0..self.len()).map(|_| self.next() as u8).collect()
    }
}

/// Named columns, the row count, and metadata fields.
type Drawn = (Vec<(String, Cells)>, usize, Vec<(String, u64)>);

/// Up to five columns of any type over up to twelve rows, filled from
/// `seed`: strings empty, multibyte or over 255 bytes, bytes of any value,
/// floats of any bits; and up to two metadata fields.
fn tables() -> impl Strategy<Value = Drawn> {
    (
        proptest::collection::vec((0u8..4, "[a-z]{0,6}"), 0..6),
        0usize..13,
        any::<u64>(),
        proptest::collection::vec(("[a-z]{1,6}", any::<u64>()), 0..3),
    )
        .prop_map(|(heads, nrows, seed, meta)| {
            let nrows = if heads.is_empty() { 0 } else { nrows };
            let mut rng = Lcg(seed);
            let cols = heads
                .into_iter()
                .map(|(tag, name)| {
                    let cells = match tag {
                        0 => Cells::U64((0..nrows).map(|_| rng.int()).collect()),
                        1 => Cells::F64((0..nrows).map(|_| f64::from_bits(rng.next())).collect()),
                        2 => Cells::Str((0..nrows).map(|_| rng.text()).collect()),
                        _ => Cells::Bytes((0..nrows).map(|_| rng.bytes()).collect()),
                    };
                    (name, cells)
                })
                .collect();
            (cols, nrows, meta)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_bytes_is_the_per_row_encoding_and_reads_back(table in tables()) {
        let (cols, nrows, meta) = table;
        let heads: Vec<(&str, ColType)> =
            cols.iter().map(|(name, cells)| (name.as_str(), cells.col_type())).collect();
        let columns = cols.iter().map(|(_, cells)| cells.column()).collect();
        let mut t = Table::from_columns(Schema::new(&heads), columns).unwrap();
        for (key, value) in &meta {
            t = t.with_meta(key, *value);
        }
        let bytes = t.to_bytes();
        prop_assert_eq!(&bytes, &encode(&cols, nrows, &meta));
        let back = Table::from_bytes(bytes.clone()).unwrap();
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(back.to_bytes(), bytes);
        prop_assert_eq!(back.len(), nrows);
        for ((name, cells), col) in cols.iter().zip(back.into_columns()) {
            match (cells, &col) {
                (Cells::Str(want), Column::Str(got)) => {
                    prop_assert_eq!(got.len(), want.len());
                    prop_assert!(got.iter().eq(want.iter().map(String::as_str)), "{}", name);
                    prop_assert!((0..want.len()).all(|i| got.get(i) == want[i]));
                }
                (Cells::Bytes(want), Column::Bytes(got)) => {
                    prop_assert!(got.iter().eq(want.iter().map(Vec::as_slice)), "{}", name);
                    prop_assert!((0..want.len()).all(|i| got.get(i) == want[i].as_slice()));
                }
                (Cells::U64(want), Column::U64(got)) => prop_assert_eq!(got, want),
                (Cells::F64(want), Column::F64(got)) => {
                    let bits = |v: &f64| v.to_bits();
                    prop_assert!(got.iter().map(bits).eq(want.iter().map(bits)));
                }
                _ => prop_assert!(false, "column {} changed type", name),
            }
        }
    }
}

/// The bytes of one small table, written down: header, the metadata
/// count, then a U64 block of zigzag steps (5, +2, -7, wrapping -1), a
/// Str block of lengths then values, each with its crc, and the trailer.
#[test]
fn a_small_table_is_pinned() {
    let schema = Schema::new(&[("n", ColType::U64), ("s", ColType::Str)]);
    let cols = vec![
        Column::U64(vec![5, 7, 0, u64::MAX]),
        Column::Str(["ab", "", "é", "z"].into_iter().collect()),
    ];
    let bytes = Table::from_columns(schema, cols).unwrap().to_bytes();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, PIN);
    assert_eq!(Table::from_bytes(bytes.clone()).unwrap().to_bytes(), bytes);
}

const PIN: &str = concat!(
    "44485442", "03000000", "02000000", // "DHTB", version 3, two columns
    "01000000", "6e", "00", "01000000", "73", "02", // n: U64, s: Str
    "00000000", "0400000000000000", // no metadata, four rows
    "0400000000000000", "0a040d01", "7fd9598b", // n: 5, +2, -7, -1
    "0900000000000000", "02000201", "6162c3a97a", "4a28bdfd", // s: lengths, values
    "5ae90a05", // trailer
);
