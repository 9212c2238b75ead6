//! Lock-striped concurrent hash map.
//!
//! The downloader's claim set maps `layer digest → ()` and is checked once
//! per manifest layer by every pulling worker: the first insert claims the
//! fetch. A single mutex-protected map serializes every claim; striping
//! the key space across shards lets claims proceed in parallel with
//! conflicts only on same-shard keys.

use dhub_sync::{Mutex, Striped};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// FxHash-style mixer for shard selection and map hashing (fast, non-DoS
/// resistant; keys here are content digests).
#[derive(Clone, Copy, Default)]
struct ShardHasher {
    hash: u64,
}

impl Hasher for ShardHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type Shard<K, V> = HashMap<K, V, BuildHasherDefault<ShardHasher>>;

/// A hash map striped over `2^k` shards, each behind its own cache-padded
/// mutex ([`dhub_sync::Striped`] does the stripe selection and padding).
pub struct ShardedMap<K, V> {
    shards: Striped<Shard<K, V>>,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// Creates a map with `shards` stripes (rounded up to a power of two).
    pub fn new(shards: usize) -> Self {
        ShardedMap { shards: Striped::new(shards, HashMap::default) }
    }

    #[inline]
    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = ShardHasher::default();
        key.hash(&mut h);
        // Striped selects by the hash's high bits so the map's in-shard
        // bucketing (low bits) stays decorrelated.
        self.shards.stripe(h.finish())
    }

    /// Inserts a value, returning the previous one if present.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_for(&key).lock().insert(key, value)
    }

    /// True if the key is present.
    pub fn contains(&self, key: &K) -> bool {
        self.shard_for(key).lock().contains_key(key)
    }

    /// Total entries across shards (takes each lock briefly).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par_map;

    #[test]
    fn concurrent_counting_is_exact() {
        // Every key is claimed by exactly one of its 100 inserts.
        let map: ShardedMap<u64, ()> = ShardedMap::new(16);
        let keys: Vec<u64> = (0..100_000).map(|i| i % 1000).collect();
        let firsts = par_map(8, &keys, |&k| map.insert(k, ()).is_none());
        assert_eq!(map.len(), 1000);
        assert_eq!(firsts.iter().filter(|&&first| first).count(), 1000);
    }

    #[test]
    fn matches_hashmap_semantics() {
        let map: ShardedMap<String, u32> = ShardedMap::new(4);
        assert!(map.insert("a".into(), 1).is_none());
        assert_eq!(map.insert("a".into(), 2), Some(1));
        assert!(map.contains(&"a".to_string()));
        assert!(!map.contains(&"b".to_string()));
        assert_eq!(map.len(), 1);
        assert_eq!(map.insert("a".into(), 3), Some(2));
    }

    #[test]
    fn entries_spread_across_shards() {
        let map: ShardedMap<u64, ()> = ShardedMap::new(16);
        for i in 0..10_000u64 {
            map.insert(i, ());
        }
        let mut used = 0;
        for s in map.shards.iter() {
            if !s.lock().is_empty() {
                used += 1;
            }
        }
        assert_eq!(used, 16, "keys should hit every shard");
    }
}
