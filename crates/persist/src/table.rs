//! Typed columnar tables: the study's queryable on-disk database.
//!
//! A [`Table`] is a schema (ordered, typed columns) plus column vectors.
//! Rows are appended in memory, snapshotted to a single crc-checked
//! binary file through the crash-safe publish path, and scanned with
//! predicate pushdown: each predicate is evaluated against its column
//! vector alone, narrowing a selection before any row is materialized —
//! the classic column-store trick, sized for study tables of 10^3..10^6
//! rows rather than a warehouse.
//!
//! On-disk layout (`DHTB` v1, all integers little-endian):
//!
//! ```text
//! "DHTB" | u32 version | u32 ncols
//! ncols × ( u32 name_len | name utf8 | u8 col_type )
//! u64 nrows
//! ncols × ( u64 block_len | block bytes | u32 crc32(block) )
//! u32 crc32(everything above)
//! ```
//!
//! U64/F64 blocks are packed 8-byte values (f64 via `to_bits`, so reload
//! is bit-exact); Str blocks are `u32 len | bytes` per row. A reader
//! validates structure, both crc tiers, and utf8; any failure surfaces as
//! [`PersistError::Torn`] — torn bytes never come back as data.

use crate::fsync::Publisher;
use crate::PersistError;
use dhub_digest::crc32;
use std::path::Path;

/// Column type tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColType {
    U64,
    F64,
    Str,
}

impl ColType {
    fn tag(self) -> u8 {
        match self {
            ColType::U64 => 0,
            ColType::F64 => 1,
            ColType::Str => 2,
        }
    }

    fn from_tag(t: u8) -> Option<ColType> {
        match t {
            0 => Some(ColType::U64),
            1 => Some(ColType::F64),
            2 => Some(ColType::Str),
            _ => None,
        }
    }
}

/// A single cell value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    U64(u64),
    F64(f64),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// An ordered, typed column list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    cols: Vec<(String, ColType)>,
}

impl Schema {
    pub fn new(cols: &[(&str, ColType)]) -> Schema {
        Schema { cols: cols.iter().map(|(n, t)| (n.to_string(), *t)).collect() }
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|(n, _)| n == name)
    }
}

/// Column storage, one vector per column.
#[derive(Clone, Debug, PartialEq)]
enum Column {
    U64(Vec<u64>),
    F64(Vec<f64>),
    Str(Vec<String>),
}

impl Column {
    fn empty(t: ColType) -> Column {
        match t {
            ColType::U64 => Column::U64(Vec::new()),
            ColType::F64 => Column::F64(Vec::new()),
            ColType::Str => Column::Str(Vec::new()),
        }
    }
}

/// A pushed-down filter over one column.
#[derive(Clone, Debug)]
pub enum Predicate {
    U64Eq(String, u64),
    StrEq(String, String),
}

impl Predicate {
    fn column(&self) -> &str {
        match self {
            Predicate::U64Eq(c, _) | Predicate::StrEq(c, _) => c,
        }
    }
}

/// An in-memory columnar table with a durable snapshot format.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    schema: Schema,
    cols: Vec<Column>,
    nrows: usize,
}

impl Table {
    pub fn new(schema: Schema) -> Table {
        let cols = schema.cols.iter().map(|(_, t)| Column::empty(*t)).collect();
        Table { schema, cols, nrows: 0 }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.nrows
    }

    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Appends one row; every cell must match its column's type.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), PersistError> {
        if row.len() != self.cols.len() {
            return Err(PersistError::Schema(format!(
                "row has {} cells, schema has {} columns",
                row.len(),
                self.cols.len()
            )));
        }
        for (i, v) in row.iter().enumerate() {
            let ok = matches!(
                (&self.cols[i], v),
                (Column::U64(_), Value::U64(_))
                    | (Column::F64(_), Value::F64(_))
                    | (Column::Str(_), Value::Str(_))
            );
            if !ok {
                return Err(PersistError::Schema(format!(
                    "cell {i} ({}) has the wrong type",
                    self.schema.cols[i].0
                )));
            }
        }
        for (col, v) in self.cols.iter_mut().zip(row) {
            match (col, v) {
                (Column::U64(vs), Value::U64(v)) => vs.push(v),
                (Column::F64(vs), Value::F64(v)) => vs.push(v),
                (Column::Str(vs), Value::Str(v)) => vs.push(v),
                _ => unreachable!("types checked above"),
            }
        }
        self.nrows += 1;
        Ok(())
    }

    /// Borrow a u64 column by name.
    pub fn col_u64(&self, name: &str) -> Option<&[u64]> {
        match &self.cols[self.schema.index_of(name)?] {
            Column::U64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow an f64 column by name.
    pub fn col_f64(&self, name: &str) -> Option<&[f64]> {
        match &self.cols[self.schema.index_of(name)?] {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow a string column by name.
    pub fn col_str(&self, name: &str) -> Option<&[String]> {
        match &self.cols[self.schema.index_of(name)?] {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Materializes row `i` (for small result sets after a scan).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols
            .iter()
            .map(|c| match c {
                Column::U64(v) => Value::U64(v[i]),
                Column::F64(v) => Value::F64(v[i]),
                Column::Str(v) => Value::Str(v[i].clone()),
            })
            .collect()
    }

    /// Scans with predicate pushdown: each predicate runs over its own
    /// column vector, ANDed into a selection mask; matching row indexes
    /// are materialized only at the end. Unknown columns or type
    /// mismatches are schema errors, not empty results.
    pub fn scan(&self, preds: &[Predicate]) -> Result<Vec<usize>, PersistError> {
        let mut mask = vec![true; self.nrows];
        for p in preds {
            let idx = self.schema.index_of(p.column()).ok_or_else(|| {
                PersistError::Schema(format!("unknown column {:?}", p.column()))
            })?;
            match (p, &self.cols[idx]) {
                (Predicate::U64Eq(_, want), Column::U64(vs)) => {
                    for (m, v) in mask.iter_mut().zip(vs) {
                        *m &= v == want;
                    }
                }
                (Predicate::StrEq(_, want), Column::Str(vs)) => {
                    for (m, v) in mask.iter_mut().zip(vs) {
                        *m &= v == want;
                    }
                }
                _ => {
                    return Err(PersistError::Schema(format!(
                        "predicate on {:?} does not match column type",
                        p.column()
                    )))
                }
            }
        }
        Ok(mask.iter().enumerate().filter(|(_, m)| **m).map(|(i, _)| i).collect())
    }

    /// Serializes to the `DHTB` v1 snapshot bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"DHTB");
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&(self.cols.len() as u32).to_le_bytes());
        for (name, t) in &self.schema.cols {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(t.tag());
        }
        out.extend_from_slice(&(self.nrows as u64).to_le_bytes());
        for col in &self.cols {
            let mut block = Vec::new();
            match col {
                Column::U64(vs) => {
                    for v in vs {
                        block.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Column::F64(vs) => {
                    for v in vs {
                        block.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
                Column::Str(vs) => {
                    for v in vs {
                        block.extend_from_slice(&(v.len() as u32).to_le_bytes());
                        block.extend_from_slice(v.as_bytes());
                    }
                }
            }
            out.extend_from_slice(&(block.len() as u64).to_le_bytes());
            out.extend_from_slice(&block);
            out.extend_from_slice(&crc32(&block).to_le_bytes());
        }
        let trailer = crc32(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    /// Publishes the snapshot at `path` (atomically, faultably).
    pub fn save(&self, path: &Path, publisher: &Publisher) -> Result<(), PersistError> {
        publisher.publish(path, &self.to_bytes())
    }

    /// Parses snapshot bytes; `None` on any structural or checksum
    /// violation (the caller maps that to [`PersistError::Torn`]).
    fn from_bytes(data: &[u8]) -> Option<Table> {
        let mut r = Reader { data, at: 0 };
        // Trailer crc covers everything before it — check first so a torn
        // tail fails fast.
        if data.len() < 4 {
            return None;
        }
        let (body, trailer) = data.split_at(data.len() - 4);
        if crc32(body) != u32::from_le_bytes(trailer.try_into().ok()?) {
            return None;
        }
        if r.take(4)? != b"DHTB" || r.u32()? != 1 {
            return None;
        }
        let ncols = r.u32()? as usize;
        if ncols > 1 << 16 {
            return None;
        }
        let mut cols_meta = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name_len = r.u32()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?).ok()?.to_string();
            let t = ColType::from_tag(r.u8()?)?;
            cols_meta.push((name, t));
        }
        let nrows = r.u64()? as usize;
        let mut cols = Vec::with_capacity(ncols);
        for (_, t) in &cols_meta {
            let block_len = r.u64()? as usize;
            let block = r.take(block_len)?;
            if crc32(block) != r.u32()? {
                return None;
            }
            let mut b = Reader { data: block, at: 0 };
            let col = match t {
                ColType::U64 => {
                    let mut vs = Vec::with_capacity(nrows);
                    for _ in 0..nrows {
                        vs.push(b.u64()?);
                    }
                    Column::U64(vs)
                }
                ColType::F64 => {
                    let mut vs = Vec::with_capacity(nrows);
                    for _ in 0..nrows {
                        vs.push(f64::from_bits(b.u64()?));
                    }
                    Column::F64(vs)
                }
                ColType::Str => {
                    let mut vs = Vec::with_capacity(nrows);
                    for _ in 0..nrows {
                        let len = b.u32()? as usize;
                        vs.push(std::str::from_utf8(b.take(len)?).ok()?.to_string());
                    }
                    Column::Str(vs)
                }
            };
            if b.at != block.len() {
                return None;
            }
            cols.push(col);
        }
        if r.at != body.len() {
            return None;
        }
        Some(Table { schema: Schema { cols: cols_meta }, cols, nrows })
    }

    /// Loads a snapshot; [`PersistError::Torn`] on any validation failure,
    /// `Io(NotFound)` when absent (`dhub query` tells "not written yet"
    /// from "damaged" by that difference).
    pub fn load(path: &Path) -> Result<Table, PersistError> {
        let data = std::fs::read(path)?;
        Table::from_bytes(&data).ok_or_else(|| PersistError::Torn(path.to_path_buf()))
    }
}

/// Bounds-checked little-endian cursor for `from_bytes`.
struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.at..end];
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files_schema() -> Schema {
        Schema::new(&[("path", ColType::Str), ("size", ColType::U64), ("score", ColType::F64)])
    }

    fn sample() -> Table {
        let mut t = Table::new(files_schema());
        for (path, size, score) in [
            ("/bin/sh", 100u64, 0.5f64),
            ("/etc/passwd", 40, 0.25),
            ("/bin/ls", 100, 0.75),
            ("/usr/lib/libc.so", 900, 1.0),
        ] {
            t.push_row(vec![path.into(), size.into(), score.into()]).unwrap();
        }
        t
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let t = sample();
        let got = Table::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(got, t);
        assert_eq!(got.to_bytes(), t.to_bytes());
        // Empty tables roundtrip too.
        let e = Table::new(files_schema());
        assert_eq!(Table::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn scan_pushes_predicates_down() {
        let t = sample();
        let by_size = || Predicate::U64Eq("size".into(), 100);
        assert_eq!(t.scan(&[by_size()]).unwrap(), vec![0, 2]);
        let rows = t.scan(&[by_size(), Predicate::StrEq("path".into(), "/bin/ls".into())]).unwrap();
        assert_eq!(rows, vec![2], "predicates AND together");
        assert_eq!(t.scan(&[]).unwrap().len(), 4, "no predicates selects all");
        assert!(matches!(
            t.scan(&[Predicate::U64Eq("nope".into(), 1)]),
            Err(PersistError::Schema(_))
        ));
        assert!(matches!(
            t.scan(&[Predicate::StrEq("size".into(), "x".into())]),
            Err(PersistError::Schema(_))
        ));
    }

    #[test]
    fn schema_violations_are_rejected() {
        let mut t = Table::new(files_schema());
        assert!(matches!(
            t.push_row(vec![Value::U64(1)]),
            Err(PersistError::Schema(_))
        ));
        assert!(matches!(
            t.push_row(vec![Value::U64(1), Value::U64(2), Value::F64(0.0)]),
            Err(PersistError::Schema(_))
        ));
        assert_eq!(t.len(), 0, "failed pushes must not partially append");
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let bytes = sample().to_bytes();
        // Flip one bit at a spread of positions; the reader must reject
        // every mutant (crc tiers + structural checks).
        let step = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(Table::from_bytes(&bad).is_none(), "bit flip at byte {pos} not caught");
        }
        // Truncations at any length are rejected too.
        for len in 0..bytes.len() {
            assert!(Table::from_bytes(&bytes[..len]).is_none(), "truncation to {len} not caught");
        }
    }

    #[test]
    fn save_load_through_publisher() {
        let dir = std::env::temp_dir().join(format!("dhub-persist-tbl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("files.tbl");
        let t = sample();
        t.save(&path, &Publisher::new()).unwrap();
        assert_eq!(Table::load(&path).unwrap(), t);
        std::fs::write(&path, b"DHTBgarbage").unwrap();
        assert!(matches!(Table::load(&path), Err(PersistError::Torn(_))));
        let _ = std::fs::remove_dir_all(dir);
    }
}
