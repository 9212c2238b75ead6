//! Analyzer output profiles (§III-C of the paper).
//!
//! For each layer the analyzer records layer metadata, compression ratio,
//! per-directory and per-file metadata; image profiles aggregate over the
//! layer profiles referenced by the manifest.

use crate::digest::Digest;
use crate::repo::RepoName;
use crate::taxonomy::FileKind;
use std::collections::HashSet;

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
/// Directories are counted from seeds — every dir entry plus the parent of
/// every file and link — each expanded to its component prefixes once, in
/// [`ProfileFold::finish`] (tars often omit parents). A trailing `/` on a
/// path is ignored.
#[derive(Default)]
pub struct ProfileFold {
    seed_dirs: HashSet<String>,
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

    /// A symlink or hardlink (and each file): its parent is a seed.
    pub fn link(&mut self, path: &str) {
        if let Some((parent, _)) = self.enter(path).rsplit_once('/') {
            self.seed(parent);
        }
    }

    /// The profile of blob `digest`, `cls` compressed bytes.
    pub fn finish(self, digest: Digest, cls: u64) -> LayerProfile {
        let mut all: HashSet<String> = HashSet::with_capacity(self.seed_dirs.len() * 2);
        for d in self.seed_dirs {
            let mut prefix = String::new();
            for comp in d.split('/').filter(|c| !c.is_empty()) {
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(comp);
                if !all.contains(&prefix) {
                    all.insert(prefix.clone());
                }
            }
            all.insert(d);
        }
        LayerProfile {
            digest,
            fls: self.fls,
            cls,
            dir_count: all.len() as u64,
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

    fn seed(&mut self, dir: &str) {
        if !self.seed_dirs.contains(dir) {
            self.seed_dirs.insert(dir.to_string());
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

    #[test]
    fn path_depths() {
        assert_eq!(path_depth("etc"), 1);
        assert_eq!(path_depth("usr/lib/x.so"), 3);
        assert_eq!(path_depth("usr/lib/"), 2);
        assert_eq!(path_depth(""), 0);
    }
}
