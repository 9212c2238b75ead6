//! Fused analyze + ingest: one decompression, one tar walk, one hash per
//! file, shared between the profiler and the dedup store.
//!
//! The study's store pipeline previously ran each layer through
//! `analyze_layer` (inflate → untar → hash) and then `ingest_layer`
//! (inflate → untar → hash again). [`analyze_and_ingest`] drives the
//! analyzer's entry sink to append each entry to a [`ParsedLayer`]'s recipe
//! columns while the profile is built, then commits it — the second decompression and the second
//! content hash per file disappear, and the decompressed tar only ever
//! lives in the worker's scratch arena.

use crate::persistent::{PersistentDedupStore, PersistentError};
use crate::store::{DedupStore, IngestStats, ParsedLayer, StoreError};
use dhub_analyzer::{analyze_all_with, analyze_layer_with, AnalysisResult, AnalyzeError};
use dhub_model::{Digest, LayerProfile};
use dhub_obs::MetricsRegistry;
use dhub_par::Scratch;
use std::sync::Arc;

/// A store the fused pass can commit a parsed layer into. The in-memory
/// and the durable store differ only in what a commit costs and how it can
/// fail; everything upstream of the commit is shared.
pub trait LayerSink: Sync {
    /// What a failed commit reports.
    type Error: Send;

    /// Commits a layer the analyzer already parsed and hashed.
    fn commit_parsed(&self, layer: ParsedLayer<'_>) -> Result<IngestStats, Self::Error>;
}

impl LayerSink for DedupStore {
    type Error = StoreError;

    fn commit_parsed(&self, layer: ParsedLayer<'_>) -> Result<IngestStats, StoreError> {
        DedupStore::commit_parsed(self, layer)
    }
}

impl LayerSink for PersistentDedupStore {
    type Error = PersistentError;

    fn commit_parsed(&self, layer: ParsedLayer<'_>) -> Result<IngestStats, PersistentError> {
        PersistentDedupStore::commit_parsed(self, layer)
    }
}

/// Analyzes one layer and ingests it into `store` in a single pass.
///
/// The outer `Result` is the analysis outcome: an undecodable blob yields
/// `Err` and touches neither the profile nor the store. On success the
/// inner `Result` reports the ingest outcome separately — a layer that is
/// already stored still produces its profile (with
/// [`StoreError::AlreadyIngested`] alongside).
pub fn analyze_and_ingest<S: LayerSink>(
    store: &S,
    digest: Digest,
    blob: &[u8],
    scratch: &mut Scratch,
) -> Result<(LayerProfile, Result<IngestStats, S::Error>), AnalyzeError> {
    let mut layer = ParsedLayer::new(digest, blob.len() as u64);
    let profile = analyze_layer_with(digest, blob, scratch, |entry, file| layer.push(entry, file))?;
    let ingest = store.commit_parsed(layer);
    Ok((profile, ingest))
}

/// Outcome of a fused batch run; `E` is the store's commit error.
pub struct FusedResult<E> {
    /// Profiles and analysis failures, exactly as `analyze_all_obs` would
    /// report them.
    pub analysis: AnalysisResult,
    /// Per-layer ingest outcomes for the layers that analyzed cleanly, in
    /// input order.
    pub ingests: Vec<(Digest, Result<IngestStats, E>)>,
}

/// Analyzes all layers in parallel, ingesting each into `store` as part of
/// the same pass. Records the `dhub_analyze_*` counters into `obs` with
/// the same semantics as `analyze_all_obs` (the store's own `dhub_store_*`
/// metrics fire via `store`'s registry binding, if any).
pub fn analyze_and_ingest_all<S: LayerSink>(
    layers: &[(Digest, Arc<Vec<u8>>)],
    threads: usize,
    store: &S,
    obs: &MetricsRegistry,
) -> FusedResult<S::Error> {
    let (analysis, ingests) = analyze_all_with(layers, threads, obs, |digest, blob, scratch| {
        analyze_and_ingest(store, digest, blob, scratch)
    });
    FusedResult { analysis, ingests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_compress::{gzip_compress, CompressOptions};
    use dhub_tar::{write_archive, TarEntry};

    fn layer(entries: &[TarEntry]) -> (Digest, Vec<u8>) {
        let tar = write_archive(entries);
        let blob = gzip_compress(&tar, &CompressOptions::fast());
        (Digest::of(&blob), blob)
    }

    fn file(path: &str, data: &[u8]) -> TarEntry {
        TarEntry::file(path, data.to_vec())
    }

    #[test]
    fn bad_blob_reports_analysis_error_and_stores_nothing() {
        let store = DedupStore::new();
        let mut scratch = Scratch::new();
        let err = analyze_and_ingest(&store, Digest::of(b"x"), b"junk", &mut scratch).unwrap_err();
        assert!(matches!(err, AnalyzeError::BadGzip(_)));
        assert_eq!(store.stats().layers, 0);
    }

    #[test]
    fn duplicate_layer_still_profiles() {
        let store = DedupStore::new();
        let mut scratch = Scratch::new();
        let (d, b) = layer(&[file("f", b"data")]);
        let (_, first) = analyze_and_ingest(&store, d, &b, &mut scratch).unwrap();
        first.unwrap();
        let (profile, ingest) = analyze_and_ingest(&store, d, &b, &mut scratch).unwrap();
        assert_eq!(profile.file_count, 1);
        assert_eq!(ingest.unwrap_err(), StoreError::AlreadyIngested);
        assert_eq!(store.stats().layers, 1, "duplicate must not double-count");
    }

    #[test]
    fn batch_counters_match_result() {
        let (d1, b1) = layer(&[file("a", b"one"), file("b", b"two")]);
        let (d2, b2) = layer(&[file("c", b"three")]);
        let bad = (Digest::of(b"bad"), Arc::new(b"junk".to_vec()));
        let layers = vec![(d1, Arc::new(b1)), (d2, Arc::new(b2)), bad];
        let store = DedupStore::new();
        let obs = MetricsRegistry::new();
        let res = analyze_and_ingest_all(&layers, 2, &store, &obs);
        assert_eq!(res.analysis.layers.len(), 2);
        assert_eq!(res.analysis.errors.len(), 1);
        assert_eq!(res.ingests.len(), 2);
        assert!(res.ingests.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(obs.counter_value("dhub_analyze_layers_total"), 2);
        assert_eq!(obs.counter_value("dhub_analyze_files_total"), 3);
        assert_eq!(obs.counter_value("dhub_analyze_errors_total"), 1);
        let cls: u64 = res.analysis.layers.values().map(|p| p.cls).sum();
        assert_eq!(obs.counter_value("dhub_analyze_bytes_total"), cls);
        assert_eq!(store.stats().layers, 2);
    }
}
