//! Shared data model for the Docker Hub study.
//!
//! Everything the pipeline stages exchange lives here so that the crawler,
//! downloader, analyzer, and dedup crates agree on types:
//!
//! * [`Digest`] — sha256 content addresses in Docker's `sha256:<hex>` form,
//! * [`RepoName`] — official vs. `<user>/<name>` repository naming,
//! * [`Manifest`] — the JSON image manifest (schema v2 shape),
//! * [`taxonomy`] — the paper's three-level file-type classification
//!   (8 groups, ~45 leaf types; Fig. 13),
//! * [`profile`] — the analyzer's layer/image profiles (§III-C).

pub mod digest;
pub mod manifest;
pub mod profile;
pub mod repo;
pub mod taxonomy;

pub use digest::Digest;
pub use manifest::{LayerRef, Manifest};
pub use profile::{FileRecord, ImageProfile, LayerProfile, ProfileFold};
pub use repo::RepoName;
pub use taxonomy::{FileKind, TypeGroup};
