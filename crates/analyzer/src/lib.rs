//! The analyzer (§III-C of the paper).
//!
//! Takes downloaded compressed layer blobs, decompresses and extracts each
//! tarball, walks the entries, and produces the paper's two profile kinds:
//!
//! * **layer profiles** — digest, FLS (sum of contained file sizes), CLS
//!   (compressed blob size), directory count, file count, maximum
//!   directory depth, and per-file metadata (name, sha256 digest, type by
//!   magic number, size),
//! * **image profiles** — manifest-driven aggregation over the referenced
//!   layer profiles (FIS, CIS, total file/dir counts).
//!
//! Layers are analyzed in parallel; each layer is independent.
//!
//! # The fused hot path
//!
//! [`analyze_layer_with`] performs the whole per-layer pass in one sweep:
//! the blob inflates into a reusable [`Scratch`] buffer, the tar is walked
//! zero-copy with [`TarView`], and each file is hashed and classified
//! exactly once — digest, class and borrowed payload go to a caller-supplied
//! sink so downstream consumers (the dedup store) never re-decompress,
//! re-hash or re-classify.
//! The original allocate-per-layer implementation is the test oracle
//! `dhub_oracle::analyze_layer_reference`, which the equivalence tests
//! hold this pass to.

use dhub_compress::gzip_decompress_into;
use dhub_digest::FxHashMap;
use dhub_model::{
    Digest, FileKind, FileRecord, ImageProfile, LayerProfile, ProfileFold, RepoName,
};
use dhub_obs::{Counter, MetricsRegistry};
use dhub_par::Scratch;
use dhub_tar::{EntryView, EntryViewKind, TarView};
use std::sync::Arc;
use std::time::Instant;

/// Analysis errors for a single layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalyzeError {
    /// Blob is not a valid gzip member.
    BadGzip(String),
    /// Decompressed payload is not a valid tar archive.
    BadTar(String),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::BadGzip(e) => write!(f, "layer gunzip failed: {e}"),
            AnalyzeError::BadTar(e) => write!(f, "layer untar failed: {e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Analyzes one compressed layer blob into a [`LayerProfile`].
///
/// Convenience wrapper over [`analyze_layer_scratch`] with a throwaway
/// arena; batch callers should thread a per-worker [`Scratch`] through
/// instead so the decompression buffer is reused across layers.
pub fn analyze_layer(digest: Digest, blob: &[u8]) -> Result<LayerProfile, AnalyzeError> {
    let mut scratch = Scratch::new();
    analyze_layer_scratch(digest, blob, &mut scratch)
}

/// Analyzes one layer using a caller-provided scratch arena.
pub fn analyze_layer_scratch(
    digest: Digest,
    blob: &[u8],
    scratch: &mut Scratch,
) -> Result<LayerProfile, AnalyzeError> {
    analyze_layer_with(digest, blob, scratch, |_, _| {})
}

/// The fused single-pass analysis: inflate → tar walk → hash → classify.
///
/// The blob decompresses into `scratch`'s buffer (reused across calls) and
/// the tar is iterated zero-copy, each entry folded into the profile by
/// [`ProfileFold`]. For every entry the `sink` is invoked with the borrowed
/// [`EntryView`]; for regular files it also receives the digest, class and
/// payload slice already computed for the profile. Sink calls made before a
/// tar parse error are discarded work — the function returns `Err` and the
/// caller must not commit them.
pub fn analyze_layer_with<'s, F>(
    digest: Digest,
    blob: &[u8],
    scratch: &'s mut Scratch,
    mut sink: F,
) -> Result<LayerProfile, AnalyzeError>
where
    F: FnMut(&EntryView<'s>, Option<(Digest, FileKind, &'s [u8])>),
{
    let buf = scratch.tar_buf();
    gzip_decompress_into(blob, buf).map_err(|e| AnalyzeError::BadGzip(e.to_string()))?;
    let tar: &'s [u8] = buf;

    let mut fold = ProfileFold::default();
    for entry in TarView::new(tar) {
        let entry = entry.map_err(|e| AnalyzeError::BadTar(e.to_string()))?;
        match entry.kind {
            EntryViewKind::Dir => {
                fold.dir(&entry.path);
                sink(&entry, None);
            }
            EntryViewKind::File(data) => {
                let file_digest = Digest::of(data);
                let kind = dhub_magic::classify(entry.path.trim_end_matches('/'), data);
                fold.file(&entry.path, FileRecord { digest: file_digest, kind, size: data.len() as u64 });
                sink(&entry, Some((file_digest, kind, data)));
            }
            EntryViewKind::Symlink(_) | EntryViewKind::Hardlink(_) => {
                fold.link(&entry.path);
                sink(&entry, None);
            }
        }
    }
    Ok(fold.finish(digest, blob.len() as u64))
}

/// One-line summary of the kernels every analysis pass dispatches to, e.g.
/// `sha256=sha_ni crc32=pclmul inflate=sse41`. Printed by `dhub study
/// --metrics` and recorded in bench setups.
pub fn kernel_summary() -> String {
    let (sha, crc) = dhub_digest::kernel_names();
    format!("sha256={sha} crc32={crc} inflate={}", dhub_compress::inflate_kernel_name())
}

/// True when any dispatched kernel is non-scalar (drives the
/// `dhub_analyze_simd_bytes_total` counter).
fn simd_active() -> bool {
    let (sha, crc) = dhub_digest::kernel_names();
    sha != "scalar" || crc != "scalar" || dhub_compress::inflate_kernel_name() != "scalar"
}

/// Publishes the `dhub_kernel_*` info gauges on `obs`: one gauge per
/// kernel, with the selected implementation embedded as a Prometheus label
/// (`dhub_kernel_sha256{impl="sha_ni"} 1`).
fn set_kernel_gauges(obs: &MetricsRegistry) {
    let (sha, crc) = dhub_digest::kernel_names();
    let inf = dhub_compress::inflate_kernel_name();
    obs.gauge(&format!("dhub_kernel_sha256{{impl=\"{sha}\"}}")).set(1.0);
    obs.gauge(&format!("dhub_kernel_crc32{{impl=\"{crc}\"}}")).set(1.0);
    obs.gauge(&format!("dhub_kernel_inflate{{impl=\"{inf}\"}}")).set(1.0);
}

/// Handles to the `dhub_analyze_*` counters. Both schedulers of the
/// per-layer pass — the batch loop and the queued study's layer jobs —
/// run it under [`AnalyzeCounters::time_layer`], so the observability
/// gates reconcile one set of names no matter which path ran or what the
/// pass fed (plain analysis, fused ingest).
pub struct AnalyzeCounters {
    layers: Counter,
    files: Counter,
    errors: Counter,
    /// Compressed input consumed, summed over successfully analyzed layers
    /// (Σ cls — reconciles with the report's "layer bytes analyzed").
    bytes: Counter,
    /// Decompressed tar bytes produced for those layers.
    tar_bytes: Counter,
    /// Tar bytes that flowed through SIMD kernels: equals `tar_bytes` when
    /// dispatch selected any non-scalar kernel, stays 0 under
    /// `DHUB_FORCE_SCALAR=1` or on hardware without the extensions.
    simd_bytes: Counter,
    /// Wall-clock nanoseconds spent inside per-layer analysis.
    busy_ns: Counter,
    simd: bool,
}

impl AnalyzeCounters {
    /// Binds the counters on `obs` and publishes the kernel info gauges.
    pub fn on(obs: &MetricsRegistry) -> AnalyzeCounters {
        set_kernel_gauges(obs);
        AnalyzeCounters {
            layers: obs.counter("dhub_analyze_layers_total"),
            files: obs.counter("dhub_analyze_files_total"),
            errors: obs.counter("dhub_analyze_errors_total"),
            bytes: obs.counter("dhub_analyze_bytes_total"),
            tar_bytes: obs.counter("dhub_analyze_tar_bytes_total"),
            simd_bytes: obs.counter("dhub_analyze_simd_bytes_total"),
            busy_ns: obs.counter("dhub_analyze_busy_ns_total"),
            simd: simd_active(),
        }
    }

    /// Runs one layer's analysis `f` on this worker's thread-local scratch
    /// arena and records what it did: layer/file/byte counts on success,
    /// an error otherwise, and the wall-clock time either way. `f` returns
    /// the profile plus whatever else the pass produced (`()` for plain
    /// analysis, the ingest outcome for the fused pass). This is the
    /// per-layer step of the batch loop ([`analyze_all_with`]) and of the
    /// queued study's layer job.
    pub fn time_layer<T>(
        &self,
        f: impl FnOnce(&mut Scratch) -> Result<(LayerProfile, T), AnalyzeError>,
    ) -> Result<(LayerProfile, T), AnalyzeError> {
        let start = Instant::now();
        let r = dhub_par::with_scratch(|scratch| {
            let r = f(scratch);
            match &r {
                Ok((profile, _)) => {
                    let tar_len = scratch.tar_len() as u64;
                    self.layers.inc();
                    self.files.add(profile.file_count);
                    self.bytes.add(profile.cls);
                    self.tar_bytes.add(tar_len);
                    if self.simd {
                        self.simd_bytes.add(tar_len);
                    }
                }
                Err(_) => self.errors.inc(),
            }
            r
        });
        self.busy_ns.add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        r
    }
}

/// Outcome of analyzing a set of layers.
#[derive(Default)]
pub struct AnalysisResult {
    /// Successfully analyzed layer profiles, keyed by digest.
    pub layers: FxHashMap<Digest, LayerProfile>,
    /// Layers that failed to decode.
    pub errors: Vec<(Digest, AnalyzeError)>,
}

impl AnalysisResult {
    /// Files one layer's outcome under its digest.
    fn record(&mut self, digest: Digest, outcome: Result<LayerProfile, AnalyzeError>) {
        match outcome {
            Ok(profile) => {
                self.layers.insert(digest, profile);
            }
            Err(e) => self.errors.push((digest, e)),
        }
    }
}

/// The one batch loop: runs `per_layer` over all layers in parallel (each
/// worker on its thread-local scratch arena), recording the
/// `dhub_analyze_*` counters into `obs` as workers finish layers (live
/// progress, not end-of-run). Returns the profiles and failures plus, for
/// the layers that analyzed cleanly, whatever else `per_layer` produced,
/// in input order. [`analyze_all_obs`] and the dedup store's fused
/// `analyze_and_ingest_all` are this loop with different per-layer passes.
pub fn analyze_all_with<T: Send>(
    layers: &[(Digest, Arc<Vec<u8>>)],
    threads: usize,
    obs: &MetricsRegistry,
    per_layer: impl Fn(Digest, &[u8], &mut Scratch) -> Result<(LayerProfile, T), AnalyzeError> + Sync,
) -> (AnalysisResult, Vec<(Digest, T)>) {
    let counters = AnalyzeCounters::on(obs);
    let results = dhub_par::par_map(threads, layers, |(digest, blob)| {
        (*digest, counters.time_layer(|scratch| per_layer(*digest, blob, scratch)))
    });
    let mut analysis = AnalysisResult::default();
    let mut extras = Vec::new();
    for (digest, r) in results {
        let outcome = r.map(|(profile, extra)| {
            extras.push((digest, extra));
            profile
        });
        analysis.record(digest, outcome);
    }
    (analysis, extras)
}

/// Analyzes all layers in parallel, recording into `obs`.
pub fn analyze_all_obs(
    layers: &[(Digest, Arc<Vec<u8>>)],
    threads: usize,
    obs: &MetricsRegistry,
) -> AnalysisResult {
    let plain = |digest, blob: &[u8], scratch: &mut Scratch| {
        analyze_layer_scratch(digest, blob, scratch).map(|p| (p, ()))
    };
    analyze_all_with(layers, threads, obs, plain).0
}

/// A downloaded image reference the aggregator needs (repo + manifest).
pub struct ImageInput {
    pub repo: RepoName,
    pub manifest_digest: Digest,
    /// `(layer digest, compressed size)` pairs from the manifest.
    pub layers: Vec<(Digest, u64)>,
}

/// Builds image profiles by aggregating layer profiles per manifest
/// (§III-C: the image profile holds pointers to its layer profiles).
pub fn image_profiles(
    images: &[ImageInput],
    layers: &FxHashMap<Digest, LayerProfile>,
) -> Vec<ImageProfile> {
    images
        .iter()
        .map(|img| {
            let mut fis = 0u64;
            let mut cis = 0u64;
            let mut file_count = 0u64;
            let mut dir_count = 0u64;
            for (d, cls) in &img.layers {
                cis += cls;
                if let Some(lp) = layers.get(d) {
                    fis += lp.fls;
                    file_count += lp.file_count;
                    dir_count += lp.dir_count;
                }
            }
            ImageProfile {
                repo: img.repo.clone(),
                manifest_digest: img.manifest_digest,
                layers: img.layers.iter().map(|(d, _)| *d).collect(),
                fis,
                cis,
                dir_count,
                file_count,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_compress::{gzip_compress, CompressOptions};
    use dhub_tar::{write_archive, TarEntry};

    fn layer_blob(entries: &[TarEntry]) -> (Digest, Vec<u8>) {
        let tar = write_archive(entries);
        let blob = gzip_compress(&tar, &CompressOptions::fast());
        (Digest::of(&blob), blob)
    }

    #[test]
    fn profiles_simple_layer() {
        let (digest, blob) = layer_blob(&[
            TarEntry::dir("usr"),
            TarEntry::dir("usr/bin"),
            TarEntry::file("usr/bin/tool.py", b"#!/usr/bin/env python\nprint(1)\n".to_vec()),
            TarEntry::file("etc/conf", b"plain text config\n".to_vec()),
        ]);
        let p = analyze_layer(digest, &blob).unwrap();
        assert_eq!(p.file_count, 2);
        // usr, usr/bin, etc.
        assert_eq!(p.dir_count, 3);
        assert_eq!(p.max_depth, 3);
        assert_eq!(p.fls, 31 + 18);
        assert_eq!(p.cls, blob.len() as u64);
        assert!(p.compression_ratio() > 0.0);
        let kinds: Vec<FileKind> = p.files.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FileKind::PythonScript));
        assert!(kinds.contains(&FileKind::AsciiText));
    }

    #[test]
    fn implied_parent_dirs_counted() {
        let (digest, blob) =
            layer_blob(&[TarEntry::file("a/b/c/file.txt", b"text content here\n".to_vec())]);
        let p = analyze_layer(digest, &blob).unwrap();
        assert_eq!(p.dir_count, 3, "a, a/b, a/b/c");
        assert_eq!(p.max_depth, 4);
    }

    #[test]
    fn empty_layer_profile() {
        let (digest, blob) = layer_blob(&[]);
        let p = analyze_layer(digest, &blob).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.fls, 0);
        assert_eq!(p.dir_count, 0);
        assert!(p.cls > 0);
    }

    #[test]
    fn file_digests_enable_dedup() {
        let same = b"identical content".to_vec();
        let (digest, blob) = layer_blob(&[
            TarEntry::file("a/x", same.clone()),
            TarEntry::file("b/y", same.clone()),
            TarEntry::file("c/z", b"different".to_vec()),
        ]);
        let p = analyze_layer(digest, &blob).unwrap();
        assert_eq!(p.files[0].digest, p.files[1].digest);
        assert_ne!(p.files[0].digest, p.files[2].digest);
    }

    #[test]
    fn corrupt_blob_reports_error() {
        let err = analyze_layer(Digest::of(b"x"), b"not gzip at all").unwrap_err();
        assert!(matches!(err, AnalyzeError::BadGzip(_)));
    }

    #[test]
    fn corrupt_tar_reports_error() {
        let garbage = gzip_compress(&[0xAAu8; 700], &CompressOptions::fast());
        let err = analyze_layer(Digest::of(b"x"), &garbage).unwrap_err();
        assert!(matches!(err, AnalyzeError::BadTar(_)));
    }

    #[test]
    fn sink_sees_every_entry_and_file_digests() {
        let (digest, blob) = layer_blob(&[
            TarEntry::dir("d/"),
            TarEntry::file("d/f", b"payload".to_vec()),
            TarEntry::symlink("d/l", "f"),
        ]);
        let mut scratch = Scratch::new();
        let mut seen = Vec::new();
        let p = analyze_layer_with(digest, &blob, &mut scratch, |entry, file| {
            seen.push((entry.path.to_string(), file.map(|(d, _, data)| (d, data.to_vec()))));
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], ("d/".to_string(), None));
        assert_eq!(
            seen[1],
            ("d/f".to_string(), Some((Digest::of(b"payload"), b"payload".to_vec())))
        );
        assert_eq!(seen[2], ("d/l".to_string(), None));
        assert_eq!(p.files[0].digest, Digest::of(b"payload"));
    }

    #[test]
    fn scratch_stops_growing_after_warmup() {
        let entries: Vec<TarEntry> =
            (0..20).map(|i| TarEntry::file(&format!("f{i}"), vec![i as u8; 4096])).collect();
        let blobs: Vec<(Digest, Vec<u8>)> =
            (0..8).map(|_| layer_blob(&entries)).collect();
        let mut scratch = Scratch::new();
        // Warmup: first layer may grow the buffer.
        analyze_layer_scratch(blobs[0].0, &blobs[0].1, &mut scratch).unwrap();
        let warm = scratch.stats();
        for (d, b) in &blobs[1..] {
            analyze_layer_scratch(*d, b, &mut scratch).unwrap();
        }
        let end = scratch.stats();
        assert_eq!(end.grows, warm.grows, "decompression buffer grew after warmup");
        assert_eq!(end.acquires, warm.acquires + (blobs.len() - 1) as u64);
    }

    #[test]
    fn analyze_all_partitions_errors() {
        let (d1, b1) = layer_blob(&[TarEntry::file("f", b"data".to_vec())]);
        let bad = (Digest::of(b"bad"), Arc::new(b"junk".to_vec()));
        let layers = vec![(d1, Arc::new(b1)), bad];
        let res = analyze_all_obs(&layers, 2, &MetricsRegistry::new());
        assert_eq!(res.layers.len(), 1);
        assert_eq!(res.errors.len(), 1);
        assert!(res.layers.contains_key(&d1));
    }

    #[test]
    fn obs_counters_track_analysis() {
        let (d1, b1) = layer_blob(&[
            TarEntry::file("a", b"one".to_vec()),
            TarEntry::file("b", b"two".to_vec()),
        ]);
        let (d2, b2) = layer_blob(&[TarEntry::file("c", b"three".to_vec())]);
        let bad = (Digest::of(b"bad"), Arc::new(b"junk".to_vec()));
        let cls_ok = (b1.len() + b2.len()) as u64;
        let tar_ok = (dhub_compress::gzip_decompress(&b1).unwrap().len()
            + dhub_compress::gzip_decompress(&b2).unwrap().len()) as u64;
        let layers = vec![(d1, Arc::new(b1)), (d2, Arc::new(b2)), bad];
        let obs = MetricsRegistry::new();
        let res = analyze_all_obs(&layers, 2, &obs);
        assert_eq!(obs.counter_value("dhub_analyze_layers_total"), res.layers.len() as u64);
        assert_eq!(obs.counter_value("dhub_analyze_files_total"), 3);
        assert_eq!(obs.counter_value("dhub_analyze_errors_total"), res.errors.len() as u64);
        assert_eq!(
            obs.counter_value("dhub_analyze_bytes_total"),
            cls_ok,
            "bytes counter must equal the summed cls of analyzed layers"
        );
        assert_eq!(obs.counter_value("dhub_analyze_tar_bytes_total"), tar_ok);
    }

    #[test]
    fn kernel_summary_names_every_kernel() {
        let s = kernel_summary();
        assert!(s.starts_with("sha256="), "{s}");
        assert!(s.contains(" crc32="), "{s}");
        assert!(s.contains(" inflate="), "{s}");
    }

    #[test]
    fn simd_bytes_counter_tracks_dispatch() {
        let (d1, b1) = layer_blob(&[TarEntry::file("a", b"one".to_vec())]);
        let tar_len = dhub_compress::gzip_decompress(&b1).unwrap().len() as u64;
        let obs = MetricsRegistry::new();
        analyze_all_obs(&[(d1, Arc::new(b1))], 1, &obs);
        let want = if simd_active() { tar_len } else { 0 };
        assert_eq!(obs.counter_value("dhub_analyze_simd_bytes_total"), want);
        // The info gauges carry the selected impl as a label.
        let (sha, crc) = dhub_digest::kernel_names();
        assert_eq!(obs.gauge_value(&format!("dhub_kernel_sha256{{impl=\"{sha}\"}}")), 1.0);
        assert_eq!(obs.gauge_value(&format!("dhub_kernel_crc32{{impl=\"{crc}\"}}")), 1.0);
    }

    #[test]
    fn image_profile_aggregates() {
        let (d1, b1) = layer_blob(&[TarEntry::file("a/f1", vec![1; 100])]);
        let (d2, b2) = layer_blob(&[
            TarEntry::file("b/f2", vec![2; 50]),
            TarEntry::file("b/f3", vec![3; 25]),
        ]);
        let layers = [(d1, Arc::new(b1.clone())), (d2, Arc::new(b2.clone()))];
        let res = analyze_all_obs(&layers, 2, &MetricsRegistry::new());
        let input = ImageInput {
            repo: RepoName::official("t"),
            manifest_digest: Digest::of(b"m"),
            layers: vec![(d1, b1.len() as u64), (d2, b2.len() as u64)],
        };
        let profiles = image_profiles(&[input], &res.layers);
        let img = &profiles[0];
        assert_eq!(img.fis, 175);
        assert_eq!(img.cis, (b1.len() + b2.len()) as u64);
        assert_eq!(img.file_count, 3);
        assert_eq!(img.dir_count, 2);
        assert_eq!(img.layer_count(), 2);
    }
}
