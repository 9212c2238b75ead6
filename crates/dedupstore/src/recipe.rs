//! Layer recipes: everything needed to rebuild a layer except the file
//! contents themselves, which live deduplicated in the object store.

use dhub_json::{push_string, push_u64, Kind, Reader};
use dhub_model::Digest;
use std::borrow::Cow;

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

    /// Parses a recipe back from JSON.
    pub fn from_json(text: &str) -> Option<LayerRecipe> {
        let mut r = Reader::new(text);
        let recipe = LayerRecipe::read(&mut r)?;
        r.end().ok()?;
        Some(recipe)
    }

    /// Reads one recipe object off `r`, building no `Json` tree but
    /// accepting exactly what a lookup in one would: keys in any order,
    /// the first of a repeated key wins, unknown keys are skipped, and
    /// integers follow `Json::as_u64`. `None` on anything else, and on
    /// malformed JSON anywhere in the value.
    pub(crate) fn read(r: &mut Reader<'_>) -> Option<LayerRecipe> {
        let (mut layer_digest, mut entries) = (None, None);
        r.begin_object().ok()?;
        while let Some(key) = r.next_key().ok()? {
            match &*key {
                "layerDigest" if layer_digest.is_none() => {
                    layer_digest = Some(Digest::parse(&r.string().ok()?)?);
                }
                "entries" if entries.is_none() => {
                    let mut list = Vec::new();
                    r.begin_array().ok()?;
                    while r.next_item().ok()? {
                        list.push(read_entry(r)?);
                    }
                    entries = Some(list);
                }
                _ => r.skip_value().ok()?,
            }
        }
        Some(LayerRecipe { layer_digest: layer_digest?, entries: entries? })
    }
}

/// An entry's `type`, before the field it names is looked at.
#[derive(Clone, Copy)]
enum Type {
    File,
    Dir,
    Symlink,
    Hardlink,
}

/// One entry object, by [`LayerRecipe::read`]'s rules. `digest` and
/// `target` matter only for the types that use them, so their first
/// occurrence is kept whatever it holds and judged once `type` is known.
fn read_entry(r: &mut Reader<'_>) -> Option<EntryMeta> {
    let (mut path, mut ty, mut digest, mut target) = (None, None, None, None);
    let (mut mode, mut uid, mut gid, mut mtime) = (None, None, None, None);
    let int = |r: &mut Reader<'_>| r.u64().ok().flatten();
    r.begin_object().ok()?;
    while let Some(key) = r.next_key().ok()? {
        match &*key {
            "path" if path.is_none() => path = Some(r.string().ok()?.into_owned()),
            "mode" if mode.is_none() => mode = Some(int(r)? as u32),
            "uid" if uid.is_none() => uid = Some(int(r)? as u32),
            "gid" if gid.is_none() => gid = Some(int(r)? as u32),
            "mtime" if mtime.is_none() => mtime = Some(int(r)?),
            "type" if ty.is_none() => {
                ty = Some(match &*r.string().ok()? {
                    "file" => Type::File,
                    "dir" => Type::Dir,
                    "symlink" => Type::Symlink,
                    "hardlink" => Type::Hardlink,
                    _ => return None,
                });
            }
            "digest" if digest.is_none() => {
                digest = Some(string_or_skip(r)?.and_then(|s| Digest::parse(&s)));
            }
            "target" if target.is_none() => {
                target = Some(string_or_skip(r)?.map(|s| s.into_owned()));
            }
            _ => r.skip_value().ok()?,
        }
    }
    let kind = match ty? {
        Type::File => RecipeEntryKind::File(digest??),
        Type::Dir => RecipeEntryKind::Dir,
        Type::Symlink => RecipeEntryKind::Symlink(target??),
        Type::Hardlink => RecipeEntryKind::Hardlink(target??),
    };
    Some(EntryMeta { path: path?, kind, mode: mode?, uid: uid?, gid: gid?, mtime: mtime? })
}

/// The next value if it is a string, else `Some(None)` once it is skipped;
/// `None` on malformed JSON.
fn string_or_skip<'a>(r: &mut Reader<'a>) -> Option<Option<Cow<'a, str>>> {
    if r.peek().ok()? == Kind::Str {
        Some(Some(r.string().ok()?))
    } else {
        r.skip_value().ok()?;
        Some(None)
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

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let text = r.to_json();
        assert_eq!(LayerRecipe::from_json(&text), Some(r));
    }

    #[test]
    fn file_digests_iterates_files_only() {
        let r = sample();
        let digests: Vec<Digest> = r.file_digests().collect();
        assert_eq!(digests, vec![Digest::of(b"contents")]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(LayerRecipe::from_json("{}").is_none());
        assert!(LayerRecipe::from_json("nope").is_none());
        let bad_type = r#"{"layerDigest":"sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855","entries":[{"path":"x","mode":1,"uid":0,"gid":0,"mtime":0,"type":"socket"}]}"#;
        assert!(LayerRecipe::from_json(bad_type).is_none());
    }

    #[test]
    fn order_preserved() {
        let r = sample();
        let back = LayerRecipe::from_json(&r.to_json()).unwrap();
        assert_eq!(back.entries[0].path, "usr");
        assert_eq!(back.entries[2].path, "usr/bin/alias");
    }
}
