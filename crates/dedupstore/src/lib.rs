//! File-level deduplicating layer store.
//!
//! The paper concludes that "file-level deduplication can eliminate 96.8 %
//! of the files" and plans to "utilize our deduplication observations to
//! improve storage efficiency for Docker registry" (§VI). This crate is
//! that improvement, built: a registry-side store that ingests gzip layer
//! tarballs, splits them into content-addressed *file objects* shared
//! across all layers, and keeps a per-layer *recipe* (entry list +
//! metadata + file digests) from which the layer can be reconstructed on
//! demand (cf. Slimmer \[16\] and "Carving perfect layers" \[30\], both cited
//! by the paper).
//!
//! * [`recipe`] — the layer recipe model with JSON (de)serialization,
//! * [`store`] — the store itself: recipes and file objects in,
//!   reconstructed layers and savings accounting out,
//! * [`fused`] — single-pass analyze + ingest sharing one decompression
//!   and one content hash per file with the profiler,
//! * [`persistent`] — the same store backed by `dhub-persist`'s
//!   crash-safe on-disk layout (objects + recipe envelopes), so ingest
//!   output survives the process and can be reopened and resumed, with
//!   crash orphans swept on the way out.

pub mod fused;
pub mod persistent;
pub mod recipe;
pub mod store;

pub use fused::{analyze_and_ingest, analyze_and_ingest_all, FusedResult, LayerSink};
// The frozen `bench/` driver imports the durable spelling by name; it is the
// generic `analyze_and_ingest` at `S = PersistentDedupStore`. Retire it with
// the next `benchmark` PR.
pub use fused::analyze_and_ingest as analyze_and_ingest_persistent;
pub use persistent::{PersistentDedupStore, PersistentError};
pub use recipe::{EntryMeta, LayerRecipe, RecipeEntryKind};
pub use store::{DedupStore, IngestStats, PendingEntry, StoreError, StoreStats};
