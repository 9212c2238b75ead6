//! Property tests for the durability discipline: whatever a crash leaves
//! behind — a truncated or bit-flipped in-flight temp file, a tampered
//! published object — a reopened store never serves torn bytes, and GC
//! never collects an object something still references.

use dhub_digest::FxHashSet;
use dhub_model::Digest;
use dhub_persist::{hex_of, tmp_path, BlobStore, PersistError, Publisher};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch dir per proptest case (no external tempdir crate).
fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dhub-persist-props-{}-{n}", std::process::id()))
}

/// The published path of `digest` inside a store rooted at `root`
/// (mirrors the store's two-hex fanout layout).
fn object_path(root: &Path, digest: &Digest) -> PathBuf {
    let hex = hex_of(digest);
    root.join(&hex[..2]).join(hex)
}

fn arb_objects() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..512), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A crash mid-write leaves a torn `*.tmp` file. Reopening the store
    /// must (a) read every published object back verified, (b) report the
    /// in-flight object absent rather than serving the torn bytes, and
    /// (c) have GC sweep the debris without touching anything referenced.
    #[test]
    fn torn_inflight_writes_never_surface(
        objects in arb_objects(),
        victim in proptest::collection::vec(any::<u8>(), 2..512),
        cut_frac in 0.0f64..1.0,
        flip_bit in any::<u64>(),
        flip_not_truncate in any::<bool>(),
    ) {
        let root = scratch();
        let store = BlobStore::open(&root, Publisher::new()).unwrap();
        let mut live = FxHashSet::default();
        for obj in &objects {
            live.insert(store.put(obj).unwrap());
        }

        // Simulate the crash: the victim's temp file exists, torn — either
        // truncated at a random point or with one random bit flipped —
        // and the rename never happened.
        let victim_digest = Digest::of(&victim);
        prop_assume!(!live.contains(&victim_digest));
        let path = object_path(&root, &victim_digest);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let torn = if flip_not_truncate {
            let mut t = victim.clone();
            let bit = (flip_bit as usize) % (t.len() * 8);
            t[bit / 8] ^= 1 << (bit % 8);
            t
        } else {
            let cut = ((victim.len() as f64 * cut_frac) as usize).min(victim.len() - 1);
            victim[..cut].to_vec()
        };
        std::fs::write(tmp_path(&path), &torn).unwrap();
        drop(store);

        let store = BlobStore::open(&root, Publisher::new()).unwrap();
        // (b) the in-flight object never published: absent, not torn.
        prop_assert_eq!(store.get(&victim_digest).unwrap(), None);
        // (a) every published object reads back exactly.
        for obj in &objects {
            let d = Digest::of(obj);
            let got = store.get(&d).unwrap();
            prop_assert_eq!(got.as_deref(), Some(obj.as_slice()));
        }
        // (c) GC sweeps the temp debris, never a referenced object.
        let swept = store.gc(&live).unwrap();
        prop_assert_eq!(swept.objects, 0, "GC collected a referenced object");
        prop_assert!(swept.tmp_files >= 1, "GC missed the torn temp file");
        for obj in &objects {
            let d = Digest::of(obj);
            let got = store.get(&d).unwrap();
            prop_assert_eq!(got.as_deref(), Some(obj.as_slice()));
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// Bit-flipping a *published* object is detected on read: the store
    /// returns `Corrupt`, never the damaged bytes.
    #[test]
    fn flipped_published_object_reads_corrupt(
        objects in arb_objects(),
        pick in any::<u64>(),
        flip_bit in any::<u64>(),
    ) {
        let root = scratch();
        let store = BlobStore::open(&root, Publisher::new()).unwrap();
        let digests: Vec<Digest> = objects.iter().map(|o| store.put(o).unwrap()).collect();
        let i = (pick as usize) % objects.len();
        let path = object_path(&root, &digests[i]);
        let mut bytes = std::fs::read(&path).unwrap();
        let bit = (flip_bit as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();

        let store = BlobStore::open(&root, Publisher::new()).unwrap();
        match store.get(&digests[i]) {
            Err(PersistError::Corrupt(d)) => prop_assert_eq!(d, digests[i]),
            other => {
                // Duplicate payloads elsewhere in `objects` can't mask the
                // damage: digests are content-addressed, same digest ==
                // same file, and we damaged that file.
                prop_assert!(false, "tampered read returned {other:?}");
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// GC over an arbitrary live subset collects exactly the complement:
    /// referenced objects all survive readable, unreferenced ones are gone.
    #[test]
    fn gc_collects_exactly_the_unreferenced(
        objects in arb_objects(),
        keep_mask in proptest::collection::vec(any::<bool>(), 8..9),
    ) {
        let root = scratch();
        let store = BlobStore::open(&root, Publisher::new()).unwrap();
        let digests: Vec<Digest> = objects.iter().map(|o| store.put(o).unwrap()).collect();
        let live: FxHashSet<Digest> = digests
            .iter()
            .zip(&keep_mask)
            .filter(|(_, keep)| **keep)
            .map(|(d, _)| *d)
            .collect();
        let dead: FxHashSet<Digest> =
            digests.iter().filter(|d| !live.contains(d)).copied().collect();

        let swept = store.gc(&live).unwrap();
        prop_assert_eq!(swept.objects as usize, dead.len());
        for (obj, d) in objects.iter().zip(&digests) {
            if live.contains(d) {
                let got = store.get(d).unwrap();
                prop_assert_eq!(got.as_deref(), Some(obj.as_slice()));
            } else {
                prop_assert_eq!(store.get(d).unwrap(), None);
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
