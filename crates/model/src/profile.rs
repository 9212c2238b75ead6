//! Analyzer output profiles (§III-C of the paper).
//!
//! For each layer the analyzer records layer metadata, compression ratio,
//! per-directory and per-file metadata; image profiles aggregate over the
//! layer profiles referenced by the manifest.

use crate::digest::Digest;
use crate::repo::RepoName;
use crate::taxonomy::FileKind;
use dhub_digest::FxHashSet;

/// Per-file metadata inside a layer (§III-C item 4); its path is kept
/// once, in the layer's recipe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileRecord {
    /// Content digest (dedup key).
    pub digest: Digest,
    /// Classified type (by magic number).
    pub kind: FileKind,
    /// Size in bytes.
    pub size: u64,
}

/// Per-layer profile (§III-C items 1–4).
#[derive(Clone, Debug, PartialEq)]
pub struct LayerProfile {
    /// Digest of the compressed layer blob (the registry key).
    pub digest: Digest,
    /// Files-in-layer size: sum of contained file sizes (FLS).
    pub fls: u64,
    /// Compressed layer size (CLS).
    pub cls: u64,
    /// Number of directories.
    pub dir_count: u64,
    /// Number of regular files.
    pub file_count: u64,
    /// Maximum directory depth (root entries have depth 1).
    pub max_depth: u64,
    /// Per-file metadata.
    pub files: Vec<FileRecord>,
}

impl LayerProfile {
    /// FLS-to-CLS compression ratio (§III-C item 2). Layers whose file
    /// content is empty compress to a small non-zero tarball, so the ratio
    /// is defined as 0 when FLS is 0.
    pub fn compression_ratio(&self) -> f64 {
        if self.fls == 0 || self.cls == 0 {
            0.0
        } else {
            self.fls as f64 / self.cls as f64
        }
    }

    /// True when the layer holds no regular files (7 % of layers in the
    /// paper).
    pub fn is_empty(&self) -> bool {
        self.file_count == 0
    }
}

/// Per-image profile (§III-C).
#[derive(Clone, Debug, PartialEq)]
pub struct ImageProfile {
    /// Repository the image came from.
    pub repo: RepoName,
    /// Manifest digest.
    pub manifest_digest: Digest,
    /// Digests of the layers, base first (pointers to layer profiles).
    pub layers: Vec<Digest>,
    /// Sum of containing file sizes (FIS).
    pub fis: u64,
    /// Compressed image size: sum of compressed layer sizes (CIS).
    pub cis: u64,
    /// Total directories across layers.
    pub dir_count: u64,
    /// Total files across layers.
    pub file_count: u64,
}

impl ImageProfile {
    /// FIS-to-CIS compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        if self.fis == 0 || self.cis == 0 {
            0.0
        } else {
            self.fis as f64 / self.cis as f64
        }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }
}

/// A path's depth (Fig. 7): `usr/lib/x.so` has depth 3.
fn path_depth(path: &str) -> u64 {
    path.split('/').filter(|c| !c.is_empty()).count() as u64
}

/// The fold every [`LayerProfile`] comes from, over a layer's entries in
/// archive order (tar entries in the analyzer, rows in a stored recipe).
///
/// A layer's directories are every dir entry and every ancestor of a file
/// or link (tars often omit parents), each with its prefixes of non-empty
/// components. They go into one set kept closed under prefixes: seeding a
/// clean directory walks up from it and stops at the first ancestor
/// already in the set, so each distinct directory is allocated once and no
/// prefix is ever cloned; [`ProfileFold::finish`] just counts the set.
///
/// A path with an empty component — a leading `/`, `//` inside, or the
/// empty string — also counts its raw spelling: a dir entry its own, a
/// file or link every raw ancestor (`a//b/c` adds `a//b`, `a/` and, from
/// their prefixes, `a` and `a/b`). A clean string never equals such a raw
/// one, so the walk's stop rule holds. A trailing `/` on an entry's path is
/// ignored.
#[derive(Default)]
pub struct ProfileFold {
    dirs: FxHashSet<String>,
    files: Vec<FileRecord>,
    fls: u64,
    max_depth: u64,
}

impl ProfileFold {
    /// A directory entry.
    pub fn dir(&mut self, path: &str) {
        let dir = self.enter(path);
        self.seed(dir);
    }

    /// A regular file.
    pub fn file(&mut self, path: &str, file: FileRecord) {
        self.link(path);
        self.fls += file.size;
        self.files.push(file);
    }

    /// A symlink or hardlink (and each file): its ancestors are
    /// directories.
    pub fn link(&mut self, path: &str) {
        let Some((parent, _)) = self.enter(path).rsplit_once('/') else {
            return;
        };
        if self.seed_clean(parent) {
            return;
        }
        let mut ancestor = Some(parent);
        while let Some(dir) = ancestor {
            self.seed(dir);
            ancestor = dir.rsplit_once('/').map(|(up, _)| up);
        }
    }

    /// The profile of blob `digest`, `cls` compressed bytes.
    pub fn finish(self, digest: Digest, cls: u64) -> LayerProfile {
        LayerProfile {
            digest,
            fls: self.fls,
            cls,
            dir_count: self.dirs.len() as u64,
            file_count: self.files.len() as u64,
            max_depth: self.max_depth,
            files: self.files,
        }
    }

    /// Counts `path`'s depth and returns it without a trailing `/`.
    fn enter<'p>(&mut self, path: &'p str) -> &'p str {
        let path = path.trim_end_matches('/');
        self.max_depth = self.max_depth.max(path_depth(path));
        path
    }

    /// Seeds `dir` with its ancestors if it is clean (its raw ancestors
    /// are then its prefixes); false, seeding nothing, if it is not.
    fn seed_clean(&mut self, dir: &str) -> bool {
        if dir.is_empty() || dir.starts_with('/') || dir.ends_with('/') || dir.contains("//") {
            return false;
        }
        self.insert_closed(dir);
        true
    }

    /// Adds `dir` as spelled plus its prefixes of non-empty components.
    fn seed(&mut self, dir: &str) {
        if self.seed_clean(dir) {
            return;
        }
        let clean: Vec<&str> = dir.split('/').filter(|c| !c.is_empty()).collect();
        if !clean.is_empty() {
            self.insert_closed(&clean.join("/"));
        }
        if !self.dirs.contains(dir) {
            self.dirs.insert(dir.to_string());
        }
    }

    /// Adds clean `dir` and every prefix the set lacks: the set holds a
    /// clean directory only with all its prefixes, so the walk stops at
    /// the first one it finds.
    fn insert_closed(&mut self, mut dir: &str) {
        while !self.dirs.contains(dir) {
            self.dirs.insert(dir.to_string());
            match dir.rsplit_once('/') {
                Some((parent, _)) => dir = parent,
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(fls: u64, cls: u64, files: u64) -> LayerProfile {
        LayerProfile {
            digest: Digest::of(&fls.to_le_bytes()),
            fls,
            cls,
            dir_count: 1,
            file_count: files,
            max_depth: 1,
            files: vec![],
        }
    }

    #[test]
    fn compression_ratio() {
        assert_eq!(layer(260, 100, 3).compression_ratio(), 2.6);
        assert_eq!(layer(0, 40, 0).compression_ratio(), 0.0);
    }

    #[test]
    fn empty_layer_detection() {
        assert!(layer(0, 32, 0).is_empty());
        assert!(!layer(10, 8, 1).is_empty());
    }

    #[test]
    fn image_ratio_and_layer_count() {
        let img = ImageProfile {
            repo: RepoName::official("nginx"),
            manifest_digest: Digest::of(b"m"),
            layers: vec![Digest::of(b"a"), Digest::of(b"b")],
            fis: 500,
            cis: 100,
            dir_count: 10,
            file_count: 50,
        };
        assert_eq!(img.compression_ratio(), 5.0);
        assert_eq!(img.layer_count(), 2);
    }

    /// Directories a fold over `entries` counts; a path ending in `/` is
    /// a dir entry, any other a file.
    fn dir_count(entries: &[&str]) -> u64 {
        let mut fold = ProfileFold::default();
        for path in entries {
            if path.ends_with('/') {
                fold.dir(path);
            } else {
                let file = FileRecord { digest: Digest::of(b""), kind: FileKind::ALL[0], size: 0 };
                fold.file(path, file);
            }
        }
        fold.finish(Digest::of(b"layer"), 1).dir_count
    }

    #[test]
    fn directories_are_every_ancestor_with_its_prefixes() {
        assert_eq!(dir_count(&["x"]), 0);
        assert_eq!(dir_count(&["usr/lib/x.so", "usr/lib/y.so", "etc/", "etc/passwd"]), 3);
        assert_eq!(dir_count(&["a/b/c/d", "a/b/", "a/e"]), 3);
        // Raw spellings count too: `a//b`, `a/`, `a`, `a/b`.
        assert_eq!(dir_count(&["a//b/c"]), 4);
        // `/a`, `` and `a`.
        assert_eq!(dir_count(&["/a/b"]), 3);
        // A dir entry counts its own spelling, not its raw ancestors.
        assert_eq!(dir_count(&["/a/b/"]), 3);
        assert_eq!(dir_count(&["/"]), 1);
        // A clean seed after a raw one still walks up.
        assert_eq!(dir_count(&["a/b/", "/a/b/c", "a/b/c"]), 5);
    }

    #[test]
    fn path_depths() {
        assert_eq!(path_depth("etc"), 1);
        assert_eq!(path_depth("usr/lib/x.so"), 3);
        assert_eq!(path_depth("usr/lib/"), 2);
        assert_eq!(path_depth(""), 0);
    }
}
