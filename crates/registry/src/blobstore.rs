//! Content-addressed blob storage.
//!
//! Every layer tarball and manifest is stored once, keyed by sha256 — the
//! mechanism behind Docker's layer sharing (§V-A): pushing the same blob
//! twice costs nothing. Blobs are `Arc`ed so concurrent pulls share one
//! allocation.

use dhub_model::Digest;
use dhub_sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A shared, content-addressed blob store.
#[derive(Default)]
pub struct BlobStore {
    blobs: RwLock<HashMap<Digest, Arc<Vec<u8>>>>,
    /// Total stored bytes (deduplicated).
    bytes: std::sync::atomic::AtomicU64,
}

impl BlobStore {
    /// Creates an empty store.
    pub fn new() -> BlobStore {
        BlobStore::default()
    }

    /// Stores `data`, returning its digest. Re-pushing an existing blob is
    /// a no-op (this is what makes layer sharing free).
    pub fn put(&self, data: Vec<u8>) -> Digest {
        let digest = Digest::of(&data);
        let mut map = self.blobs.write();
        map.entry(digest).or_insert_with(|| {
            self.bytes.fetch_add(data.len() as u64, std::sync::atomic::Ordering::Relaxed);
            Arc::new(data)
        });
        digest
    }

    /// Fetches a blob by digest.
    pub fn get(&self, digest: &Digest) -> Option<Arc<Vec<u8>>> {
        self.blobs.read().get(digest).cloned()
    }

    /// True if the digest is stored.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.blobs.read().contains_key(digest)
    }

    /// Number of unique blobs.
    pub fn len(&self) -> usize {
        self.blobs.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.read().is_empty()
    }

    /// Total deduplicated bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = BlobStore::new();
        let d = store.put(b"layer bytes".to_vec());
        assert_eq!(store.get(&d).unwrap().as_slice(), b"layer bytes");
        assert!(store.contains(&d));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn digest_matches_content() {
        let store = BlobStore::new();
        let d = store.put(b"abc".to_vec());
        assert_eq!(d, Digest::of(b"abc"));
    }

    #[test]
    fn deduplicates_identical_blobs() {
        let store = BlobStore::new();
        let d1 = store.put(vec![7; 1000]);
        let d2 = store.put(vec![7; 1000]);
        assert_eq!(d1, d2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 1000);
    }

    #[test]
    fn missing_blob_is_none() {
        let store = BlobStore::new();
        assert!(store.get(&Digest::of(b"nope")).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_puts_count_once() {
        let store = std::sync::Arc::new(BlobStore::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = store.clone();
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        s.put(i.to_le_bytes().to_vec());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 100);
        assert_eq!(store.total_bytes(), 400);
    }
}
