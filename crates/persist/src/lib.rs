//! Durable storage tier (`dhub-persist`): a crash-safe content-addressed
//! blob store plus a small columnar table layer, so dedup-store contents
//! and study results survive the process instead of living one pipeline
//! run (ROADMAP item 1; cf. npm-follower's split between scrape products
//! and derived analysis tables).
//!
//! * [`fsync`] — the write-to-temp + fsync + atomic-rename + parent-dir
//!   fsync discipline, extracted from `dhub-registry`'s disk store so the
//!   registry and the persist tier share one durability code path. The
//!   [`Publisher`] wraps it with deterministic crash injection
//!   (`FaultOp::Persist`) and retry/backoff.
//! * [`blobstore`] — content-addressed objects under sharded fanout
//!   directories with digest-verified reads and GC of unreferenced
//!   objects and in-flight temp debris.
//! * [`table`] — typed columnar tables (u64 / f64 / string / bytes
//!   columns, plus named u64 metadata): built from whole columns, a
//!   string or bytes column held as its on-disk block, snapshotted to a
//!   crc-checked binary file, scanned with predicate pushdown over the
//!   column data. The study database is a set of them, and so is each
//!   layer of the durable dedup store.
//!
//! Every durable write goes through the same publish path, so one fault
//! plan (`--fault-rate`) exercises torn and bit-flipped in-flight files
//! across the whole tier, and `dhub_persist_*` counters expose its work.

pub mod blobstore;
pub mod fsync;
pub mod table;

pub use blobstore::{BlobStore, GcStats};
pub use fsync::{fsync_dir, tmp_path, Publisher, WriteFaults};
pub use table::{BytesColumn, ColType, Column, Predicate, Schema, StrColumn, Table};

use dhub_model::Digest;
use std::path::PathBuf;

/// Errors from the durable tier.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    /// Stored object bytes do not match their digest (on-disk corruption).
    Corrupt(Digest),
    /// A table or layer file failed its structural/checksum validation
    /// (torn write that escaped the atomic-publish discipline, or outside
    /// tampering).
    Torn(PathBuf),
    /// An injected crash exhausted the write retry budget.
    CrashedWrite(PathBuf),
    /// Table misuse: schema/row mismatch or unknown column.
    Schema(String),
    /// A publish batch named this path twice: two payloads for one file
    /// is a caller bug, and nothing of the batch was written.
    DuplicatePath(PathBuf),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist io error: {e}"),
            PersistError::Corrupt(d) => write!(f, "corrupt object {}", d.to_docker_string()),
            PersistError::Torn(p) => write!(f, "torn/invalid persisted file {}", p.display()),
            PersistError::CrashedWrite(p) => {
                write!(f, "write crashed (injected) and retries exhausted: {}", p.display())
            }
            PersistError::Schema(s) => write!(f, "table schema error: {s}"),
            PersistError::DuplicatePath(p) => {
                write!(f, "publish batch names {} twice", p.display())
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Lowercase hex of a digest, without the `sha256:` prefix — the on-disk
/// object/layer file name.
pub fn hex_of(d: &Digest) -> String {
    let s = d.to_docker_string();
    s.strip_prefix("sha256:").unwrap_or(&s).to_string()
}

/// Parses an on-disk hex file name back to a digest.
pub fn digest_from_hex(hex: &str) -> Option<Digest> {
    Digest::parse(&format!("sha256:{hex}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let d = Digest::of(b"some bytes");
        let hex = hex_of(&d);
        assert_eq!(hex.len(), 64);
        assert!(!hex.contains(':'));
        assert_eq!(digest_from_hex(&hex), Some(d));
        assert_eq!(digest_from_hex("zz"), None);
    }
}
