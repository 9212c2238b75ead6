//! In-process Docker registry simulation.
//!
//! This substrate stands in for Docker Hub (see DESIGN.md §2): the same
//! protocol surface the paper's tooling hit, minus the TCP transport.
//!
//! * [`blobstore`] — content-addressed storage for layer tarballs and
//!   manifests (what the registry backend stores on disk/S3),
//! * [`api`] — the Registry-V2-shaped operations: resolve a tag to a
//!   manifest, fetch blobs, with token-auth failures and missing-`latest`
//!   failures exactly where the paper's downloader hit them (§III-B),
//! * [`search`] — the Hub's paginated web search, including the duplicate
//!   index entries the paper had to dedup (634,412 hits → 457,627 repos),
//! * [`network`] — a deterministic latency/bandwidth model so pull-latency
//!   experiments (the paper's compression trade-off discussion) have a
//!   transport cost to measure.

pub mod api;
pub mod blobstore;
pub mod http;
pub mod network;
pub mod search;

pub use api::{ApiError, PullSession, Registry, RegistryStats};
pub use blobstore::BlobStore;
pub use http::{BackendError, ClientError, MirrorBackend, RegistryServer, RemoteRegistry, RetryStats, DEFAULT_MAX_CONNS};
pub use network::NetworkModel;
pub use search::{SearchIndex, SearchPage};
