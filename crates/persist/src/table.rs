//! Typed columnar tables: the study's queryable on-disk database, and the
//! durable dedup store's per-layer files.
//!
//! A [`Table`] is a schema (ordered, typed columns) plus whole columns and
//! a few named `u64` metadata fields. It is built from its columns
//! ([`Table::from_columns`]), snapshotted to a single crc-checked binary
//! file through the crash-safe publish path, and scanned with predicate
//! pushdown: each predicate is evaluated against its column alone,
//! narrowing a selection before any row is looked at — the classic
//! column-store trick, sized for study tables of 10^3..10^6 rows rather
//! than a warehouse.
//!
//! On-disk layout (`DHTB`, all integers little-endian):
//!
//! ```text
//! "DHTB" | u32 version | u32 ncols
//! ncols × ( u32 name_len | name utf8 | u8 col_type )
//! v2 only: u32 nmeta | nmeta × ( u32 key_len | key utf8 | u64 value )
//! u64 nrows
//! ncols × ( u64 block_len | block bytes | u32 crc32(block) )
//! u32 crc32(everything above)
//! ```
//!
//! A table without metadata is written as version 1, one with metadata as
//! version 2; a reader takes both, and nothing else (a v2 file with no
//! metadata is not a layout any writer produces, so it reads as torn).
//! U64/F64 blocks are packed 8-byte values (f64 via `to_bits`, so reload
//! is bit-exact); Str and Bytes blocks are `u32 len | bytes` per row. A
//! reader validates structure, both crc tiers, and utf8; any failure
//! surfaces as [`PersistError::Torn`] — torn bytes never come back as
//! data. Every length is checked against the bytes that are actually there
//! before anything is allocated for it, so what a load allocates is bounded
//! by the file's length, whatever its length fields claim.
//!
//! In memory, a U64 / F64 column is a plain vector, and a Str / Bytes
//! column ([`StrColumn`], [`BytesColumn`]) is its on-disk block itself —
//! one buffer of `u32 len | bytes` rows — plus the offset each row starts
//! at. Building one appends to its block, [`Table::to_bytes`] copies each
//! block once, and a loaded table keeps the file it was read from, its
//! Str / Bytes columns pointing into it: one validating walk per block,
//! and no heap string per cell. Readers get `&str` / `&[u8]` views.

use crate::fsync::Publisher;
use crate::PersistError;
use dhub_digest::crc32;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Column type tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColType {
    U64,
    F64,
    Str,
    Bytes,
}

impl ColType {
    fn tag(self) -> u8 {
        match self {
            ColType::U64 => 0,
            ColType::F64 => 1,
            ColType::Str => 2,
            ColType::Bytes => 3,
        }
    }

    fn from_tag(t: u8) -> Option<ColType> {
        match t {
            0 => Some(ColType::U64),
            1 => Some(ColType::F64),
            2 => Some(ColType::Str),
            3 => Some(ColType::Bytes),
            _ => None,
        }
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

/// The rows of a Str or Bytes column in their on-disk form: `u32 len |
/// bytes` each, back to back in `buf`, row `i` spanning `offs[i]..offs[i +
/// 1]`.
#[derive(Clone)]
struct Block {
    /// What the rows lie in: the column's own buffer when built in memory,
    /// the whole file (shared by its columns) when loaded.
    buf: Arc<Vec<u8>>,
    /// `nrows + 1` offsets into `buf`.
    offs: Vec<usize>,
}

impl Default for Block {
    fn default() -> Block {
        Block::with_capacity(0, 0)
    }
}

impl PartialEq for Block {
    /// Equal blocks hold equal rows, wherever they lie.
    fn eq(&self, other: &Block) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Block {
    fn with_capacity(rows: usize, bytes: usize) -> Block {
        let mut offs = Vec::with_capacity(rows + 1);
        offs.push(0);
        Block { buf: Arc::new(Vec::with_capacity(4 * rows + bytes)), offs }
    }

    fn len(&self) -> usize {
        self.offs.len() - 1
    }

    fn end(&self) -> usize {
        self.offs[self.len()]
    }

    /// The block as written to disk.
    fn bytes(&self) -> &[u8] {
        &self.buf[self.offs[0]..self.end()]
    }

    fn get(&self, i: usize) -> &[u8] {
        &self.buf[self.offs[i] + 4..self.offs[i + 1]]
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.offs.windows(2).map(|w| &self.buf[w[0] + 4..w[1]])
    }

    fn push(&mut self, v: &[u8]) {
        let len = u32::try_from(v.len()).expect("a table cell holds under 4 GiB");
        let end = self.end();
        if Arc::get_mut(&mut self.buf).is_none_or(|buf| buf.len() != end) {
            // Loaded rows share the file they were read from: append to a
            // copy of the block of their own.
            let start = self.offs[0];
            self.buf = Arc::new(self.buf[start..end].to_vec());
            self.offs.iter_mut().for_each(|o| *o -= start);
        }
        let buf = Arc::get_mut(&mut self.buf).expect("the column owns its buffer");
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(v);
        self.offs.push(buf.len());
    }

    /// The `nrows` rows of the block at `buf[start..end]`, in one walk:
    /// every length within the bytes left, every value utf-8 when `utf8`,
    /// and the block used up exactly. `None` otherwise.
    fn read(
        buf: &Arc<Vec<u8>>,
        start: usize,
        end: usize,
        nrows: usize,
        utf8: bool,
    ) -> Option<Block> {
        let block = &buf[start..end];
        let mut offs = Vec::with_capacity(nrows + 1);
        offs.push(start);
        let mut at = 0;
        for _ in 0..nrows {
            let len = u32::from_le_bytes(block.get(at..at + 4)?.try_into().ok()?) as usize;
            let value = block.get(at + 4..at + 4 + len)?;
            if utf8 && std::str::from_utf8(value).is_err() {
                return None;
            }
            at += 4 + len;
            offs.push(start + at);
        }
        (at == block.len()).then(|| Block { buf: Arc::clone(buf), offs })
    }
}

/// A `Str` column: utf-8 values, viewed as `&str`.
#[derive(Clone, Default, PartialEq)]
pub struct StrColumn(Block);

impl StrColumn {
    /// An empty column with room for `rows` values of `bytes` bytes in all.
    pub fn with_capacity(rows: usize, bytes: usize) -> StrColumn {
        StrColumn(Block::with_capacity(rows, bytes))
    }

    pub fn push(&mut self, v: &str) {
        self.0.push(v.as_bytes());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`'s value; panics past the end, as slice indexing does.
    pub fn get(&self, i: usize) -> &str {
        as_str(self.0.get(i))
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.0.iter().map(as_str)
    }
}

/// A value of a [`StrColumn`], not checked again: over the files table's
/// 32 k `kind` cells, `top_file_types` takes 1.2 ms unchecked and 1.7 ms
/// checked.
fn as_str(v: &[u8]) -> &str {
    // SAFETY: every value of a `StrColumn` is utf-8: it was pushed as a
    // `&str`, or `Block::read` checked it when the table was loaded; the
    // column's `Block` is private to this module, and nothing else writes
    // to it.
    unsafe { std::str::from_utf8_unchecked(v) }
}

impl<S: AsRef<str>> FromIterator<S> for StrColumn {
    fn from_iter<I: IntoIterator<Item = S>>(values: I) -> StrColumn {
        let mut col = StrColumn::default();
        values.into_iter().for_each(|v| col.push(v.as_ref()));
        col
    }
}

impl std::fmt::Debug for StrColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A `Bytes` column: values viewed as `&[u8]`.
#[derive(Clone, Default, PartialEq)]
pub struct BytesColumn(Block);

impl BytesColumn {
    /// An empty column with room for `rows` values of `bytes` bytes in all.
    pub fn with_capacity(rows: usize, bytes: usize) -> BytesColumn {
        BytesColumn(Block::with_capacity(rows, bytes))
    }

    pub fn push(&mut self, v: &[u8]) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`'s value; panics past the end, as slice indexing does.
    pub fn get(&self, i: usize) -> &[u8] {
        self.0.get(i)
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.0.iter()
    }

    /// Row `i` as the buffer it lies in and its range there, so a reader
    /// can keep the value past the column without copying it (a loaded
    /// column's buffer is the whole file). Rows pushed later never move
    /// it: a column whose buffer is shared appends to a copy of its own.
    pub fn shared(&self, i: usize) -> (&Arc<Vec<u8>>, Range<usize>) {
        (&self.0.buf, self.0.offs[i] + 4..self.0.offs[i + 1])
    }
}

impl<B: AsRef<[u8]>> FromIterator<B> for BytesColumn {
    fn from_iter<I: IntoIterator<Item = B>>(values: I) -> BytesColumn {
        let mut col = BytesColumn::default();
        values.into_iter().for_each(|v| col.push(v.as_ref()));
        col
    }
}

impl std::fmt::Debug for BytesColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Column storage, one per schema column.
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    U64(Vec<u64>),
    F64(Vec<f64>),
    Str(StrColumn),
    Bytes(BytesColumn),
}

impl Column {
    fn col_type(&self) -> ColType {
        match self {
            Column::U64(_) => ColType::U64,
            Column::F64(_) => ColType::F64,
            Column::Str(_) => ColType::Str,
            Column::Bytes(_) => ColType::Bytes,
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::U64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bytes(v) => v.len(),
        }
    }

    /// The length of the column's on-disk block.
    fn block_len(&self) -> usize {
        match self {
            Column::U64(v) => 8 * v.len(),
            Column::F64(v) => 8 * v.len(),
            Column::Str(StrColumn(b)) | Column::Bytes(BytesColumn(b)) => b.bytes().len(),
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
    meta: Vec<(String, u64)>,
}

impl Table {
    /// A table built from whole columns, one per schema column in order,
    /// all of the same length and each of its column's type.
    pub fn from_columns(schema: Schema, cols: Vec<Column>) -> Result<Table, PersistError> {
        let nrows = cols.first().map_or(0, Column::len);
        let fits = cols.len() == schema.cols.len()
            && cols
                .iter()
                .zip(&schema.cols)
                .all(|(c, (_, t))| c.col_type() == *t && c.len() == nrows);
        if !fits {
            return Err(PersistError::Schema("columns do not match the schema".into()));
        }
        Ok(Table { schema, cols, nrows, meta: Vec::new() })
    }

    /// Adds a named `u64` metadata field; fields keep the order they were
    /// added in.
    pub fn with_meta(mut self, key: &str, value: u64) -> Table {
        self.meta.push((key.to_string(), value));
        self
    }

    /// Every metadata field, in the order written.
    pub fn meta(&self) -> &[(String, u64)] {
        &self.meta
    }

    /// The columns, in schema order, moved out.
    pub fn into_columns(self) -> Vec<Column> {
        self.cols
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
    pub fn col_str(&self, name: &str) -> Option<&StrColumn> {
        match &self.cols[self.schema.index_of(name)?] {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Scans with predicate pushdown: each predicate runs over its own
    /// column, ANDed into a selection mask; matching row indexes are
    /// collected only at the end. Unknown columns or type mismatches are
    /// schema errors, not empty results.
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
                    for (m, v) in mask.iter_mut().zip(vs.iter()) {
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

    /// Serializes to the `DHTB` snapshot bytes: version 1 without
    /// metadata, version 2 with. One allocation; a Str / Bytes block is
    /// one copy.
    pub fn to_bytes(&self) -> Vec<u8> {
        let names: usize = self.schema.cols.iter().map(|(n, _)| 5 + n.len()).sum();
        let meta: usize = self.meta.iter().map(|(k, _)| 12 + k.len()).sum();
        let blocks: usize = self.cols.iter().map(|c| 12 + c.block_len()).sum();
        let meta = if self.meta.is_empty() { 0 } else { 4 + meta };
        let size = 12 + names + meta + 8 + blocks + 4;
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(b"DHTB");
        let version: u32 = if self.meta.is_empty() { 1 } else { 2 };
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(self.cols.len() as u32).to_le_bytes());
        for (name, t) in &self.schema.cols {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(t.tag());
        }
        if !self.meta.is_empty() {
            out.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
            for (key, value) in &self.meta {
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.nrows as u64).to_le_bytes());
        for col in &self.cols {
            out.extend_from_slice(&(col.block_len() as u64).to_le_bytes());
            let start = out.len();
            match col {
                Column::U64(vs) => vs.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes())),
                Column::F64(vs) => {
                    vs.iter().for_each(|v| out.extend_from_slice(&v.to_bits().to_le_bytes()))
                }
                Column::Str(StrColumn(b)) | Column::Bytes(BytesColumn(b)) => {
                    out.extend_from_slice(b.bytes())
                }
            }
            let crc = crc32(&out[start..]);
            out.extend_from_slice(&crc.to_le_bytes());
        }
        let trailer = crc32(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
        debug_assert_eq!(out.len(), size);
        out
    }

    /// Publishes the snapshot at `path` (atomically, faultably).
    pub fn save(&self, path: &Path, publisher: &Publisher) -> Result<(), PersistError> {
        publisher.publish(path, &self.to_bytes())
    }

    /// Parses snapshot bytes, keeping them: the table's Str / Bytes
    /// columns are views into `data`. `None` on any structural or
    /// checksum violation (the caller maps that to
    /// [`PersistError::Torn`]). Nothing is sized from a length field
    /// before the bytes it counts are known to be there.
    pub fn from_bytes(data: Vec<u8>) -> Option<Table> {
        // Trailer crc covers everything before it — check first so a torn
        // tail fails fast.
        if data.len() < 4 {
            return None;
        }
        let (body, trailer) = data.split_at(data.len() - 4);
        if crc32(body) != u32::from_le_bytes(trailer.try_into().ok()?) {
            return None;
        }
        let data = Arc::new(data);
        let body_len = data.len() - 4;
        let mut r = Reader { data: &data[..body_len], at: 0 };
        if r.take(4)? != b"DHTB" {
            return None;
        }
        let version = r.u32()?;
        if version != 1 && version != 2 {
            return None;
        }
        let ncols = r.u32()?;
        let mut cols_meta = Vec::new();
        for _ in 0..ncols {
            let name = r.str()?.to_string();
            let t = ColType::from_tag(r.u8()?)?;
            cols_meta.push((name, t));
        }
        let mut meta = Vec::new();
        if version == 2 {
            let nmeta = r.u32()?;
            if nmeta == 0 {
                return None;
            }
            for _ in 0..nmeta {
                let key = r.str()?.to_string();
                meta.push((key, r.u64()?));
            }
        }
        let nrows = r.u64()?;
        if cols_meta.is_empty() && nrows != 0 {
            return None;
        }
        let mut cols = Vec::new();
        for (_, t) in &cols_meta {
            let block_len = r.u64()?;
            let start = r.at;
            let block = r.take(usize::try_from(block_len).ok()?)?;
            if crc32(block) != r.u32()? {
                return None;
            }
            // Each row takes 8 bytes of a fixed-width block and at least
            // its 4-byte length of a Str / Bytes one.
            let fits = match t {
                ColType::U64 | ColType::F64 => nrows.checked_mul(8) == Some(block_len),
                ColType::Str | ColType::Bytes => {
                    nrows.checked_mul(4).is_some_and(|min| min <= block_len)
                }
            };
            if !fits {
                return None;
            }
            let nrows = nrows as usize;
            let words =
                || block.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
            let end = start + block.len();
            cols.push(match t {
                ColType::U64 => Column::U64(words().collect()),
                ColType::F64 => Column::F64(words().map(f64::from_bits).collect()),
                ColType::Str => {
                    Column::Str(StrColumn(Block::read(&data, start, end, nrows, true)?))
                }
                ColType::Bytes => {
                    Column::Bytes(BytesColumn(Block::read(&data, start, end, nrows, false)?))
                }
            });
        }
        if r.at != body_len {
            return None;
        }
        Some(Table { schema: Schema { cols: cols_meta }, cols, nrows: nrows as usize, meta })
    }

    /// Loads a snapshot; [`PersistError::Torn`] on any validation failure,
    /// `Io(NotFound)` when absent (`dhub query` tells "not written yet"
    /// from "damaged" by that difference).
    pub fn load(path: &Path) -> Result<Table, PersistError> {
        let data = std::fs::read(path)?;
        Table::from_bytes(data).ok_or_else(|| PersistError::Torn(path.to_path_buf()))
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

    /// A `u32 len | utf8` string.
    fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files_schema() -> Schema {
        Schema::new(&[("path", ColType::Str), ("size", ColType::U64), ("score", ColType::F64)])
    }

    fn sample() -> Table {
        let cols = vec![
            Column::Str(
                ["/bin/sh", "/etc/passwd", "/bin/ls", "/usr/lib/libc.so"].into_iter().collect(),
            ),
            Column::U64(vec![100, 40, 100, 900]),
            Column::F64(vec![0.5, 0.25, 0.75, 1.0]),
        ];
        Table::from_columns(files_schema(), cols).unwrap()
    }

    /// A version-2 table: a bytes column and two metadata fields.
    fn with_bytes() -> Table {
        let schema = Schema::new(&[("name", ColType::Str), ("blob", ColType::Bytes)]);
        let cols = vec![
            Column::Str(["a", "", "c"].into_iter().collect()),
            Column::Bytes([vec![0, 1, 2], Vec::new(), vec![0xff; 40]].into_iter().collect()),
        ];
        Table::from_columns(schema, cols).unwrap().with_meta("format", 2).with_meta("len", 7)
    }

    fn empty() -> Table {
        let cols =
            vec![Column::Str(StrColumn::default()), Column::U64(vec![]), Column::F64(vec![])];
        Table::from_columns(files_schema(), cols).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        for t in [sample(), with_bytes(), empty()] {
            let got = Table::from_bytes(t.to_bytes()).unwrap();
            assert_eq!(got, t);
            assert_eq!(got.to_bytes(), t.to_bytes());
        }
        assert_eq!(&sample().to_bytes()[4..8], &1u32.to_le_bytes(), "no metadata: version 1");
        assert_eq!(&with_bytes().to_bytes()[4..8], &2u32.to_le_bytes());
        let back = Table::from_bytes(with_bytes().to_bytes()).unwrap();
        assert_eq!(back.meta(), &[("format".to_string(), 2), ("len".to_string(), 7)]);
        let Column::Bytes(blob) = &back.into_columns()[1] else { unreachable!() };
        assert_eq!(blob.get(2), &[0xff; 40]);
        assert_eq!(blob.iter().map(<[u8]>::len).collect::<Vec<_>>(), [3, 0, 40]);
        let back = Table::from_bytes(sample().to_bytes()).unwrap();
        let paths = back.col_str("path").unwrap();
        assert_eq!(paths.get(1), "/etc/passwd");
        assert_eq!(paths.iter().len(), 4);
        assert!(back.col_str("size").is_none() && back.col_str("nope").is_none());
    }

    /// Rows appended to a loaded column land after its own rows, whatever
    /// else the file it was read from holds.
    #[test]
    fn a_loaded_column_takes_more_rows() {
        let back = Table::from_bytes(with_bytes().to_bytes()).unwrap();
        let [Column::Str(mut names), Column::Bytes(mut blobs)] =
            <[Column; 2]>::try_from(back.into_columns()).unwrap()
        else {
            unreachable!()
        };
        let (buf, at) = blobs.shared(2);
        let (kept, at) = (Arc::clone(buf), at);
        names.push("d");
        blobs.push(b"more");
        assert_eq!(&kept[at], &[0xff; 40], "a kept row outlives pushes to its column");
        let (buf, at) = blobs.shared(3);
        assert_eq!((&buf[at.clone()], buf.len()), (&b"more"[..], at.end));
        assert_eq!(names.iter().collect::<Vec<_>>(), ["a", "", "c", "d"]);
        assert_eq!(blobs.get(3), b"more");
        assert_eq!(names, ["a", "", "c", "d"].into_iter().collect());
    }

    #[test]
    fn from_columns_checks_types_and_lengths() {
        let schema = || Schema::new(&[("a", ColType::U64), ("b", ColType::Bytes)]);
        let bytes = |n: usize| Column::Bytes((0..n).map(|i| vec![i as u8; i]).collect());
        let cols = vec![Column::U64(vec![1, 2]), bytes(2)];
        assert_eq!(Table::from_columns(schema(), cols).unwrap().len(), 2);
        for cols in [
            vec![Column::U64(vec![1])],
            vec![Column::U64(vec![1, 2]), bytes(1)],
            vec![Column::U64(vec![1]), Column::Str(["x"].into_iter().collect())],
        ] {
            assert!(matches!(Table::from_columns(schema(), cols), Err(PersistError::Schema(_))));
        }
    }

    /// Snapshot bytes with valid crcs around whatever the fields claim: one
    /// column of type `t` holding `block`, and `nrows` rows.
    fn crafted(t: ColType, nrows: u64, block: &[u8]) -> Vec<u8> {
        let mut out = b"DHTB".to_vec();
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.push(b'x');
        out.push(t.tag());
        out.extend_from_slice(&nrows.to_le_bytes());
        out.extend_from_slice(&(block.len() as u64).to_le_bytes());
        out.extend_from_slice(block);
        out.extend_from_slice(&crc32(block).to_le_bytes());
        let trailer = crc32(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    /// A tiny file whose row count claims 2^40 rows used to size a column
    /// vector from that claim and abort the process; it is torn, like any
    /// other row count its blocks cannot hold.
    #[test]
    fn a_row_count_the_blocks_cannot_hold_is_torn() {
        for t in [ColType::U64, ColType::F64, ColType::Str, ColType::Bytes] {
            for nrows in [1u64 << 40, u64::MAX, 3] {
                let bytes = crafted(t, nrows, &[0; 8]);
                assert!(bytes.len() < 64);
                assert!(Table::from_bytes(bytes).is_none(), "{t:?} nrows={nrows}");
            }
            // One 8-byte row fits a fixed-width block; a string row's length
            // field of 0 leaves four bytes over.
            let fixed = matches!(t, ColType::U64 | ColType::F64);
            assert_eq!(Table::from_bytes(crafted(t, 1, &[0; 8])).is_some(), fixed);
        }
        // A fixed-width block must be exactly 8 bytes a row.
        assert!(Table::from_bytes(crafted(ColType::U64, 1, &[0; 16])).is_none());
        // No columns, yet rows.
        let mut none = b"DHTB".to_vec();
        none.extend_from_slice(&1u32.to_le_bytes());
        none.extend_from_slice(&0u32.to_le_bytes());
        none.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let trailer = crc32(&none);
        none.extend_from_slice(&trailer.to_le_bytes());
        assert!(Table::from_bytes(none).is_none());
    }

    /// A Str block's rows are checked one by one: a value that is not
    /// utf-8, or a length past the block, is torn even where the block's
    /// bytes as a whole would pass.
    #[test]
    fn a_str_block_is_walked_row_by_row() {
        let row = |v: &[u8]| [&(v.len() as u32).to_le_bytes()[..], v].concat();
        let block = |rows: &[&[u8]]| rows.iter().flat_map(|v| row(v)).collect::<Vec<u8>>();
        let sound = block(&[b"ok", "é".as_bytes()]);
        assert!(Table::from_bytes(crafted(ColType::Str, 2, &sound)).is_some());
        // "é" split across two rows: the block is utf-8, its rows are not.
        let split = block(&[&"é".as_bytes()[..1], &"é".as_bytes()[1..]]);
        assert!(Table::from_bytes(crafted(ColType::Str, 2, &split)).is_none());
        assert!(Table::from_bytes(crafted(ColType::Bytes, 2, &split)).is_some());
        // A length that runs past the block into the bytes after it.
        let mut over = block(&[b"ab", b"cd"]);
        over[6..10].copy_from_slice(&3u32.to_le_bytes());
        for t in [ColType::Str, ColType::Bytes] {
            assert!(Table::from_bytes(crafted(t, 2, &over)).is_none(), "{t:?}");
        }
    }

    #[test]
    fn a_version_2_table_without_metadata_is_torn() {
        let mut bytes = sample().to_bytes();
        // Where the metadata count would go: after the three column headers.
        let at = 12 + ["path", "size", "score"].iter().map(|n| 5 + n.len()).sum::<usize>();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        bytes.splice(at..at, 0u32.to_le_bytes());
        let body = bytes.len() - 4;
        let trailer = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&trailer.to_le_bytes());
        assert!(Table::from_bytes(bytes).is_none());
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
        let schema = files_schema;
        let path = || Column::Str(["/bin/sh"].into_iter().collect());
        let (size, score) = (|| Column::U64(vec![1]), || Column::F64(vec![0.0]));
        for cols in [
            vec![size()],
            vec![size(), size(), score()],
            vec![path(), size(), score(), score()],
            vec![path(), size(), Column::F64(vec![0.0, 1.0])],
        ] {
            assert!(matches!(Table::from_columns(schema(), cols), Err(PersistError::Schema(_))));
        }
        assert_eq!(Table::from_columns(schema(), vec![path(), size(), score()]).unwrap().len(), 1);
        let none = Table::from_columns(Schema::new(&[]), Vec::new()).unwrap();
        assert!(none.is_empty());
        assert_eq!(Table::from_bytes(none.to_bytes()).unwrap(), none);
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        for bytes in [sample().to_bytes(), with_bytes().to_bytes()] {
            // Flip every bit; the reader must reject every mutant (crc
            // tiers + structural checks).
            for bit in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(Table::from_bytes(bad).is_none(), "flip of bit {bit} not caught");
            }
            // Truncations at any length are rejected too.
            for len in 0..bytes.len() {
                assert!(Table::from_bytes(bytes[..len].to_vec()).is_none(), "truncation to {len}");
            }
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
