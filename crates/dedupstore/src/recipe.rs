//! Layer recipes: everything needed to rebuild a layer except the file
//! contents themselves, which live deduplicated in the object store.

use dhub_json::Json;
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

    /// Serializes to JSON (the registry would store this as a small blob).
    pub fn to_json(&self) -> String {
        let mut root = Json::obj();
        root.set("layerDigest", self.layer_digest.to_docker_string());
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let mut o = Json::obj();
                o.set("path", e.path.as_str())
                    .set("mode", e.mode as u64)
                    .set("uid", e.uid as u64)
                    .set("gid", e.gid as u64)
                    .set("mtime", e.mtime);
                match &e.kind {
                    RecipeEntryKind::File(d) => {
                        o.set("type", "file").set("digest", d.to_docker_string());
                    }
                    RecipeEntryKind::Dir => {
                        o.set("type", "dir");
                    }
                    RecipeEntryKind::Symlink(t) => {
                        o.set("type", "symlink").set("target", t.as_str());
                    }
                    RecipeEntryKind::Hardlink(t) => {
                        o.set("type", "hardlink").set("target", t.as_str());
                    }
                }
                o
            })
            .collect();
        root.set("entries", Json::Arr(entries));
        root.to_string()
    }

    /// Parses a recipe back from JSON.
    pub fn from_json(text: &str) -> Option<LayerRecipe> {
        LayerRecipe::from_value(&dhub_json::parse(text).ok()?)
    }

    /// Rebuilds a recipe from its already-parsed JSON value (the recipe
    /// envelope holds one; re-serialising it to parse it again is waste).
    pub fn from_value(j: &Json) -> Option<LayerRecipe> {
        let layer_digest = Digest::parse(j.get("layerDigest")?.as_str()?)?;
        let entries = j
            .get("entries")?
            .as_arr()?
            .iter()
            .map(|e| {
                let kind = match e.get("type")?.as_str()? {
                    "file" => RecipeEntryKind::File(Digest::parse(e.get("digest")?.as_str()?)?),
                    "dir" => RecipeEntryKind::Dir,
                    "symlink" => RecipeEntryKind::Symlink(e.get("target")?.as_str()?.to_string()),
                    "hardlink" => RecipeEntryKind::Hardlink(e.get("target")?.as_str()?.to_string()),
                    _ => return None,
                };
                Some(EntryMeta {
                    path: e.get("path")?.as_str()?.to_string(),
                    kind,
                    mode: e.get("mode")?.as_u64()? as u32,
                    uid: e.get("uid")?.as_u64()? as u32,
                    gid: e.get("gid")?.as_u64()? as u32,
                    mtime: e.get("mtime")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(LayerRecipe { layer_digest, entries })
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
