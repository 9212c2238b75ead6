//! Layer recipes: everything needed to rebuild a layer except the file
//! contents themselves, which live deduplicated in the object store.
//!
//! A recipe is held in column form — the columns of the durable store's
//! layer file, less its inline contents: path and link target as
//! [`StrColumn`]s, the 32-byte content digest as a [`BytesColumn`], and
//! the integer fields (a file's class too) as plain vectors. A recipe built
//! by an ingest owns one buffer per string column; one read back from a
//! layer file keeps that file's buffer, its columns pointing into it.
//! Either way no row is a heap value of its own: readers walk
//! [`RecipeRow`] views. Holding every per-file fact, a recipe is also its
//! layer's profile ([`LayerRecipe::profile`]).

use dhub_json::{push_string, push_u64};
use dhub_model::{Digest, FileKind, FileRecord, LayerProfile, ProfileFold};
use dhub_persist::{BytesColumn, StrColumn};

/// The `kind` column's values.
pub(crate) const FILE: u64 = 0;
pub(crate) const DIR: u64 = 1;
pub(crate) const SYMLINK: u64 = 2;
pub(crate) const HARDLINK: u64 = 3;

/// What a recipe row is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowKind<'a> {
    /// Regular file: its contents' digest in the object store, its class.
    File(Digest, FileKind),
    Dir,
    /// Symlink target.
    Symlink(&'a str),
    /// Hardlink target.
    Hardlink(&'a str),
}

/// One tar entry's metadata, borrowed from its recipe's columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecipeRow<'a> {
    pub path: &'a str,
    pub kind: RowKind<'a>,
    /// A file's content length; 0 for every other kind.
    pub size: u64,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    pub mtime: u64,
}

/// A complete layer recipe: the layer's entries in original archive
/// order, plus the digest and length of the original compressed blob.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRecipe {
    /// Digest of the original compressed layer blob.
    pub layer_digest: Digest,
    /// Length of the original compressed layer blob.
    pub blob_len: u64,
    pub(crate) path: StrColumn,
    pub(crate) kind: Vec<u64>,
    pub(crate) mode: Vec<u64>,
    pub(crate) uid: Vec<u64>,
    pub(crate) gid: Vec<u64>,
    pub(crate) mtime: Vec<u64>,
    pub(crate) size: Vec<u64>,
    /// A file row's 32-byte content digest; empty on every other row.
    pub(crate) sha256: BytesColumn,
    /// A file row's [`FileKind::ALL`] index; 0 on every other row.
    pub(crate) class: Vec<u64>,
    /// A link row's target; empty on every other row.
    pub(crate) target: StrColumn,
}

impl LayerRecipe {
    /// A recipe with no rows yet.
    pub fn new(layer_digest: Digest, blob_len: u64) -> LayerRecipe {
        LayerRecipe {
            layer_digest,
            blob_len,
            path: StrColumn::default(),
            kind: Vec::new(),
            mode: Vec::new(),
            uid: Vec::new(),
            gid: Vec::new(),
            mtime: Vec::new(),
            size: Vec::new(),
            sha256: BytesColumn::default(),
            class: Vec::new(),
            target: StrColumn::default(),
        }
    }

    /// Appends a row to every column.
    pub fn push(&mut self, row: RecipeRow<'_>) {
        let (kind, digest, class, link): (u64, &[u8], usize, &str) = match &row.kind {
            RowKind::File(d, k) => (FILE, &d.0, k.index(), ""),
            RowKind::Dir => (DIR, &[], 0, ""),
            RowKind::Symlink(t) => (SYMLINK, &[], 0, t),
            RowKind::Hardlink(t) => (HARDLINK, &[], 0, t),
        };
        let size = if kind == FILE { row.size } else { 0 };
        self.path.push(row.path);
        self.kind.push(kind);
        self.mode.push(row.mode.into());
        self.uid.push(row.uid.into());
        self.gid.push(row.gid.into());
        self.mtime.push(row.mtime);
        self.size.push(size);
        self.sha256.push(digest);
        self.class.push(class as u64);
        self.target.push(link);
    }

    /// Number of rows (tar entries).
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`; panics past the end, as slice indexing does. The integer
    /// fields fit their widths and a file's class is a [`FileKind`]: a
    /// built recipe pushed them so, and a layer file's reader checks them.
    pub fn row(&self, i: usize) -> RecipeRow<'_> {
        let kind = match self.kind[i] {
            FILE => RowKind::File(self.digest(i), FileKind::ALL[self.class[i] as usize]),
            DIR => RowKind::Dir,
            SYMLINK => RowKind::Symlink(self.target.get(i)),
            _ => RowKind::Hardlink(self.target.get(i)),
        };
        RecipeRow {
            path: self.path.get(i),
            kind,
            size: self.size[i],
            mode: self.mode[i] as u32,
            uid: self.uid[i] as u32,
            gid: self.gid[i] as u32,
            mtime: self.mtime[i],
        }
    }

    /// Every row, in archive order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RecipeRow<'_>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The content digest of file row `i`.
    pub(crate) fn digest(&self, i: usize) -> Digest {
        Digest(self.sha256.get(i).try_into().expect("a file row holds a 32-byte digest"))
    }

    /// The layer's profile: its rows through the fold the analyzer runs
    /// over tar entries, so it is the profile the layer's analysis gave.
    pub fn profile(&self) -> LayerProfile {
        let mut fold = ProfileFold::default();
        for row in self.rows() {
            match row.kind {
                RowKind::File(digest, kind) => {
                    fold.file(row.path, FileRecord { digest, kind, size: row.size })
                }
                RowKind::Dir => fold.dir(row.path),
                RowKind::Symlink(_) | RowKind::Hardlink(_) => fold.link(row.path),
            }
        }
        fold.finish(self.layer_digest, self.blob_len)
    }

    /// Serializes to JSON, the recipe format of stores written before
    /// layer files (the store writes none now; `bench/` still replays it),
    /// written straight into one pre-sized `String`. The bytes are what
    /// printing the equivalent `Json` object yields: keys in the order
    /// below, through `dhub-json`'s own escaper and number writer.
    pub fn to_json(&self) -> String {
        // Room for an entry's keys, four numbers and a file digest.
        const ENTRY: usize = 180;
        let text: usize = self.path.iter().chain(self.target.iter()).map(str::len).sum();
        let mut out = String::with_capacity(100 + ENTRY * self.len() + text);
        out.push_str(r#"{"layerDigest":""#);
        self.layer_digest.push_docker_string(&mut out);
        out.push_str(r#"","entries":["#);
        for (i, e) in self.rows().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r#"{"path":"#);
            push_string(&mut out, e.path);
            for (key, n) in [
                (r#","mode":"#, e.mode as u64),
                (r#","uid":"#, e.uid as u64),
                (r#","gid":"#, e.gid as u64),
                (r#","mtime":"#, e.mtime),
            ] {
                out.push_str(key);
                push_u64(&mut out, n);
            }
            match e.kind {
                RowKind::File(d, _) => {
                    out.push_str(r#","type":"file","digest":""#);
                    d.push_docker_string(&mut out);
                    out.push('"');
                }
                RowKind::Dir => out.push_str(r#","type":"dir""#),
                RowKind::Symlink(t) => {
                    out.push_str(r#","type":"symlink","target":"#);
                    push_string(&mut out, t);
                }
                RowKind::Hardlink(t) => {
                    out.push_str(r#","type":"hardlink","target":"#);
                    push_string(&mut out, t);
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(path: &'a str, kind: RowKind<'a>) -> RecipeRow<'a> {
        RecipeRow { path, kind, size: 0, mode: 0o755, uid: 0, gid: 0, mtime: 0 }
    }

    fn sample() -> LayerRecipe {
        let mut r = LayerRecipe::new(Digest::of(b"blob"), 4);
        r.push(row("usr", RowKind::Dir));
        r.push(RecipeRow {
            size: 8,
            uid: 1000,
            gid: 1000,
            mtime: 1_495_000_000,
            ..row("usr/bin/tool", RowKind::File(Digest::of(b"contents"), FileKind::Elf))
        });
        r.push(RecipeRow { mode: 0o777, ..row("usr/bin/alias", RowKind::Symlink("tool")) });
        r
    }

    /// Rows read back as they were pushed; a size pushed with a non-file
    /// row is not kept.
    #[test]
    fn rows_read_back_as_pushed() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(1).kind, RowKind::File(Digest::of(b"contents"), FileKind::Elf));
        assert_eq!((r.row(1).size, r.row(1).uid, r.row(1).mtime), (8, 1000, 1_495_000_000));
        assert_eq!(r.row(2), RecipeRow { mode: 0o777, ..row("usr/bin/alias", RowKind::Symlink("tool")) });
        let mut dir = LayerRecipe::new(Digest::of(b"d"), 0);
        dir.push(RecipeRow { size: 9, ..row("d", RowKind::Dir) });
        assert_eq!(dir.row(0).size, 0);
    }

    /// The text is JSON holding the recipe's fields, entries in archive
    /// order.
    #[test]
    fn json_roundtrip() {
        let r = sample();
        let j = dhub_json::parse(&r.to_json()).unwrap();
        let digest = r.layer_digest.to_docker_string();
        assert_eq!(j.get("layerDigest").and_then(|d| d.as_str()), Some(digest.as_str()));
        let entries = j.get("entries").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(entries.len(), r.len());
        let field = |i: usize, key: &str| entries[i].get(key).and_then(|v| v.as_str()).unwrap();
        assert_eq!(field(1, "type"), "file");
        assert_eq!(field(1, "digest"), Digest::of(b"contents").to_docker_string());
        assert_eq!(field(2, "target"), "tool");
        assert_eq!(entries[1].get("mtime").and_then(|v| v.as_u64()), Some(1_495_000_000));
    }

    #[test]
    fn order_preserved() {
        let r = sample();
        let text = r.to_json();
        let at = |path: &str| text.find(&format!(r#""path":"{path}""#)).unwrap();
        assert!(at("usr") < at("usr/bin/tool") && at("usr/bin/tool") < at("usr/bin/alias"));
    }
}
