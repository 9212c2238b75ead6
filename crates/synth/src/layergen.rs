//! Layer assembly: prototypes + directory tree → tar → gzip blob.
//!
//! A layer is fully determined by its 64-bit seed: the seed drives the
//! file-count bucket, the pool draws, the directory tree, and file
//! placement. Two images that reference the same seed therefore produce
//! byte-identical blobs, which the registry's content addressing collapses
//! into one shared layer — the mechanism behind Fig. 23.

use crate::calibration::{LAYER_EMPTY_FRACTION, LAYER_FILES_CAP, LAYER_FILE_BUCKETS, LAYER_SINGLE_FILE_FRACTION};
use crate::paths::DirTree;
use crate::pool::FilePool;
use dhub_compress::{gzip_compress, CompressOptions};
use dhub_stats::{LogNormal, Rng};
use dhub_tar::{TarEntry, Writer};

/// A fully built layer blob.
#[derive(Clone, Debug)]
pub struct BuiltLayer {
    /// gzip-compressed tarball — what the registry stores (CLS bytes); its
    /// digest is the one the registry's `put` computes.
    pub blob: Vec<u8>,
    /// Sum of contained file sizes (FLS).
    pub fls: u64,
    /// Regular files in the layer.
    pub file_count: u64,
}

impl BuiltLayer {
    /// Compressed layer size.
    pub fn cls(&self) -> u64 {
        self.blob.len() as u64
    }
}

/// Samples a file count for an app layer (Fig. 5 shape: 7 % empty, 27 %
/// single-file, log-normal mixture body).
fn sample_file_count(rng: &mut Rng) -> u64 {
    let u = rng.next_f64();
    if u < LAYER_EMPTY_FRACTION {
        return 0;
    }
    if u < LAYER_EMPTY_FRACTION + LAYER_SINGLE_FILE_FRACTION {
        return 1;
    }
    let mut pick = rng.next_f64();
    for &(w, median, sigma) in &LAYER_FILE_BUCKETS {
        if pick < w {
            let d = LogNormal { mu: median.ln(), sigma };
            return (d.sample(rng) as u64).clamp(2, LAYER_FILES_CAP);
        }
        pick -= w;
    }
    2
}

/// The file count of the app layer built from `seed`: its build's first
/// draws, and the generator's estimate of its cost.
pub(crate) fn app_layer_files(seed: u64) -> u64 {
    sample_file_count(&mut Rng::new(seed))
}

/// Builds an app layer entirely from its seed.
pub fn build_app_layer(pool: &FilePool, seed: u64) -> BuiltLayer {
    let mut rng = Rng::new(seed);
    let nfiles = sample_file_count(&mut rng);
    build_layer_with_files(pool, nfiles, &mut rng)
}

/// Builds a layer with an explicit file count (base chains use this).
pub fn build_layer_with_files(pool: &FilePool, nfiles: u64, rng: &mut Rng) -> BuiltLayer {
    let tree = DirTree::generate(nfiles, rng);
    let mut w = Writer::new();
    // Directories first, parents before children (lexicographic order
    // guarantees that because a parent is a strict prefix).
    let mut dirs = tree.dirs.clone();
    dirs.sort();
    for d in &dirs {
        let mut entry = TarEntry::dir(d);
        // Build timestamps vary between layers; this also keeps dir-only
        // ("empty") layers distinct blobs — in real images only the
        // no-entry layer is byte-identical across images (§V-A).
        entry.mtime = 1_490_000_000 + rng.below(10_000_000);
        w.append(&entry);
    }
    let mut used_paths = std::collections::HashSet::with_capacity(nfiles as usize);
    let mut fls = 0u64;
    // Whiteout entries: overlay-driver deletion markers (`.wh.<name>`,
    // empty files). Real RUN layers that delete files carry these; they are
    // one source of the paper's massively duplicated empty file (§V-B).
    if nfiles > 0 && rng.chance(0.08) {
        let n_wh = 1 + rng.below(2);
        for k in 0..n_wh {
            let dir = tree.place(rng);
            let path = format!("{dir}/.wh.removed-{k}");
            if used_paths.insert(path.clone()) {
                w.append(&TarEntry::file(&path, Vec::new()));
            }
        }
    }
    for i in 0..nfiles {
        let proto = pool.draw(rng);
        let dir = tree.place(rng);
        let mut path = format!("{dir}/{}", proto.name());
        if !used_paths.insert(path.clone()) {
            // Same prototype landed twice in one directory; disambiguate
            // the name (contents stay identical, so dedup still sees it).
            path = format!("{dir}/{}.{i}", proto.name());
            used_paths.insert(path.clone());
        }
        let content = proto.content();
        fls += content.len() as u64;
        let mut entry = TarEntry::file(&path, content);
        entry.mtime = 1_495_000_000 + (i % 1000); // May 2017, like the crawl
        entry.mode = if rng.chance(0.15) { 0o755 } else { 0o644 };
        w.append(&entry);
    }
    let tar = w.finish();
    let blob = gzip_compress(&tar, &CompressOptions::fast());
    BuiltLayer { blob, fls, file_count: nfiles }
}

/// Builds the famous shared empty layer: a tar with no entries at all
/// (§V-A: one empty layer is referenced by 184,171 images).
pub fn build_empty_layer() -> BuiltLayer {
    let tar = Writer::new().finish();
    let blob = gzip_compress(&tar, &CompressOptions::fast());
    BuiltLayer { blob, fls: 0, file_count: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::SynthConfig;
    use dhub_compress::gzip_decompress;
    use dhub_model::Digest;
    use dhub_tar::read_archive;

    fn pool() -> FilePool {
        FilePool::build(&SynthConfig::tiny(1), 50_000)
    }

    #[test]
    fn layer_is_valid_gzip_tar() {
        let p = pool();
        let layer = build_app_layer(&p, 42);
        let tar = gzip_decompress(&layer.blob).unwrap();
        let entries = read_archive(&tar).unwrap();
        let files: u64 = entries.iter().filter(|e| e.is_file()).count() as u64;
        assert_eq!(files, layer.file_count);
        let fls: u64 = entries.iter().map(|e| e.data().len() as u64).sum();
        assert_eq!(fls, layer.fls);
    }

    /// The tar bytes of one generated layer, pinned, so a drift in the
    /// shared ustar encoder cannot hide behind a rebuild that drifts with it.
    #[test]
    fn app_layer_tar_bytes_are_pinned() {
        let layer = build_app_layer(&pool(), 15);
        assert_eq!(layer.file_count, 104);
        let tar = gzip_decompress(&layer.blob).unwrap();
        assert_eq!(
            Digest::of(&tar).to_docker_string(),
            "sha256:8f36a62dbe40e8e0f97a5624c6fa44c072c3af884553c931314f4a5920e488d8"
        );
    }

    #[test]
    fn same_seed_same_blob() {
        let p = pool();
        let a = build_app_layer(&p, 7);
        let b = build_app_layer(&p, 7);
        assert_eq!(a.blob, b.blob);
        let c = build_app_layer(&p, 8);
        assert_ne!(a.blob, c.blob);
    }

    #[test]
    fn file_count_distribution_shape() {
        let mut rng = Rng::new(5);
        let counts: Vec<u64> = (0..20_000).map(|_| sample_file_count(&mut rng)).collect();
        let zero = counts.iter().filter(|&&c| c == 0).count() as f64 / counts.len() as f64;
        let one = counts.iter().filter(|&&c| c == 1).count() as f64 / counts.len() as f64;
        assert!((zero - 0.07).abs() < 0.01, "zero-file fraction {zero}");
        assert!((one - 0.27).abs() < 0.015, "single-file fraction {one}");
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let p50 = sorted[counts.len() / 2];
        assert!((10..60).contains(&p50), "p50 files {p50}");
        assert!(*sorted.last().unwrap() <= LAYER_FILES_CAP);
    }

    #[test]
    fn empty_layer_has_no_entries() {
        let e = build_empty_layer();
        assert_eq!(e.file_count, 0);
        assert_eq!(e.fls, 0);
        let tar = gzip_decompress(&e.blob).unwrap();
        assert!(read_archive(&tar).unwrap().is_empty());
        // Stable digest: every build of the empty layer is the same blob.
        assert_eq!(e.blob, build_empty_layer().blob);
    }

    #[test]
    fn zero_file_app_layer_still_has_dirs() {
        let p = pool();
        // Find a seed that samples 0 files.
        for seed in 0..200 {
            let l = build_app_layer(&p, seed);
            if l.file_count == 0 && l.cls() > 0 {
                let tar = gzip_decompress(&l.blob).unwrap();
                let entries = read_archive(&tar).unwrap();
                assert!(!entries.is_empty(), "dir-only layer expected");
                assert!(entries.iter().all(|e| !e.is_file()));
                return;
            }
        }
        panic!("no zero-file layer in 200 seeds");
    }

    #[test]
    fn duplicate_paths_resolved() {
        // Tiny pools force prototype collisions within a layer.
        let p = FilePool::build(&SynthConfig::tiny(2), 500);
        for seed in 0..20 {
            let layer = build_app_layer(&p, seed);
            let tar = gzip_decompress(&layer.blob).unwrap();
            let entries = read_archive(&tar).unwrap();
            let mut paths = std::collections::HashSet::new();
            for e in &entries {
                assert!(paths.insert(e.path.clone()), "duplicate path {}", e.path);
            }
        }
    }
}
