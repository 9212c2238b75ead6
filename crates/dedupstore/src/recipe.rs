//! Layer recipes: everything needed to rebuild a layer except the file
//! contents themselves, which live deduplicated in the object store.

use dhub_json::{push_string, push_u64};
use dhub_model::Digest;

/// Non-content entry kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecipeEntryKind {
    /// Regular file; contents found by digest in the object store.
    File(Digest),
    Dir,
    Symlink(String),
    Hardlink(String),
}

/// One tar entry's metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryMeta {
    pub path: String,
    pub kind: RecipeEntryKind,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    pub mtime: u64,
}

/// A complete layer recipe: ordered entries plus the digest of the
/// original compressed blob for verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerRecipe {
    /// Digest of the original compressed layer blob.
    pub layer_digest: Digest,
    /// Entries in original archive order.
    pub entries: Vec<EntryMeta>,
}

impl LayerRecipe {
    /// Digests of the file contents this recipe references (with
    /// repetition, in order).
    pub fn file_digests(&self) -> impl Iterator<Item = Digest> + '_ {
        self.entries.iter().filter_map(|e| match &e.kind {
            RecipeEntryKind::File(d) => Some(*d),
            _ => None,
        })
    }

    /// Serializes to JSON, the recipe format of stores written before
    /// layer files (the store writes none now; `bench/` still replays it),
    /// written straight into one pre-sized `String`. The bytes are what
    /// printing the equivalent `Json` object yields: keys in the order
    /// below, through `dhub-json`'s own escaper and number writer.
    pub fn to_json(&self) -> String {
        // Room for an entry's keys, four numbers and a file digest.
        const ENTRY: usize = 180;
        let link = |e: &EntryMeta| match &e.kind {
            RecipeEntryKind::Symlink(t) | RecipeEntryKind::Hardlink(t) => t.len(),
            _ => 0,
        };
        let size: usize = self.entries.iter().map(|e| ENTRY + e.path.len() + link(e)).sum();
        let mut out = String::with_capacity(100 + size);
        out.push_str(r#"{"layerDigest":""#);
        self.layer_digest.push_docker_string(&mut out);
        out.push_str(r#"","entries":["#);
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r#"{"path":"#);
            push_string(&mut out, &e.path);
            for (key, n) in [
                (r#","mode":"#, e.mode as u64),
                (r#","uid":"#, e.uid as u64),
                (r#","gid":"#, e.gid as u64),
                (r#","mtime":"#, e.mtime),
            ] {
                out.push_str(key);
                push_u64(&mut out, n);
            }
            match &e.kind {
                RecipeEntryKind::File(d) => {
                    out.push_str(r#","type":"file","digest":""#);
                    d.push_docker_string(&mut out);
                    out.push('"');
                }
                RecipeEntryKind::Dir => out.push_str(r#","type":"dir""#),
                RecipeEntryKind::Symlink(t) => {
                    out.push_str(r#","type":"symlink","target":"#);
                    push_string(&mut out, t);
                }
                RecipeEntryKind::Hardlink(t) => {
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

    fn sample() -> LayerRecipe {
        LayerRecipe {
            layer_digest: Digest::of(b"blob"),
            entries: vec![
                EntryMeta {
                    path: "usr".into(),
                    kind: RecipeEntryKind::Dir,
                    mode: 0o755,
                    uid: 0,
                    gid: 0,
                    mtime: 0,
                },
                EntryMeta {
                    path: "usr/bin/tool".into(),
                    kind: RecipeEntryKind::File(Digest::of(b"contents")),
                    mode: 0o755,
                    uid: 1000,
                    gid: 1000,
                    mtime: 1_495_000_000,
                },
                EntryMeta {
                    path: "usr/bin/alias".into(),
                    kind: RecipeEntryKind::Symlink("tool".into()),
                    mode: 0o777,
                    uid: 0,
                    gid: 0,
                    mtime: 0,
                },
            ],
        }
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
        assert_eq!(entries.len(), r.entries.len());
        let field = |i: usize, key: &str| entries[i].get(key).and_then(|v| v.as_str()).unwrap();
        assert_eq!(field(1, "type"), "file");
        assert_eq!(field(1, "digest"), Digest::of(b"contents").to_docker_string());
        assert_eq!(field(2, "target"), "tool");
        assert_eq!(entries[1].get("mtime").and_then(|v| v.as_u64()), Some(1_495_000_000));
    }

    #[test]
    fn file_digests_iterates_files_only() {
        let r = sample();
        let digests: Vec<Digest> = r.file_digests().collect();
        assert_eq!(digests, vec![Digest::of(b"contents")]);
    }

    #[test]
    fn order_preserved() {
        let r = sample();
        let text = r.to_json();
        let at = |path: &str| text.find(&format!(r#""path":"{path}""#)).unwrap();
        assert!(at("usr") < at("usr/bin/tool") && at("usr/bin/tool") < at("usr/bin/alias"));
    }
}
