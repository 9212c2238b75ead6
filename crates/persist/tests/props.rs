//! Property tests for the durability discipline: whatever a crash leaves
//! behind — a truncated or bit-flipped in-flight temp file, a tampered
//! published object — a reopened store never serves torn bytes, and GC
//! never collects an object something still references. And for the
//! table codec: any table reads back equal and re-encodes to its own
//! bytes, and a mutated block, crcs made right around it, either loads as
//! the one table those bytes spell or not at all.

use dhub_digest::{crc32, FxHashSet};
use dhub_model::Digest;
use dhub_persist::{
    hex_of, tmp_path, BlobStore, ColType, Column, PersistError, Publisher, Schema, Table,
};
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

/// The cells' random source.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// A U64 cell: 0, `u64::MAX`, small, or anything, so runs alternate
    /// between the ends of the range and steps wrap.
    fn int(&mut self) -> u64 {
        match self.next() % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => self.next() % 300,
            _ => (self.next() << 11) ^ self.next(),
        }
    }

    /// A string cell, empty one time in three.
    fn text(&mut self) -> String {
        const CHARS: [char; 4] = ['a', 'z', '\u{e9}', '\u{1f600}'];
        (0..(self.next() % 3) * self.next() % 6).map(|_| CHARS[self.next() as usize % 4]).collect()
    }

    /// A bytes cell, empty one time in three.
    fn bytes(&mut self) -> Vec<u8> {
        (0..(self.next() % 3) * self.next() % 6).map(|_| self.next() as u8).collect()
    }
}

/// Up to four columns of any type over up to 20 rows (none when there are
/// no columns), filled from a seed, and up to two metadata fields.
fn arb_table() -> impl Strategy<Value = Table> {
    (
        proptest::collection::vec(0u8..4, 0..5),
        0usize..21,
        any::<u64>(),
        proptest::collection::vec(("[a-z]{1,5}", any::<u64>()), 0..3),
    )
        .prop_map(|(tags, nrows, seed, meta)| {
            let nrows = if tags.is_empty() { 0 } else { nrows };
            let mut rng = Lcg(seed);
            let names: Vec<String> = (0..tags.len()).map(|i| format!("c{i}")).collect();
            let mut heads = Vec::new();
            let mut cols = Vec::new();
            for (name, tag) in names.iter().zip(tags) {
                let (t, col) = match tag {
                    0 => (ColType::U64, Column::U64((0..nrows).map(|_| rng.int()).collect())),
                    1 => {
                        let floats = (0..nrows).map(|_| f64::from_bits(rng.int())).collect();
                        (ColType::F64, Column::F64(floats))
                    }
                    2 => (ColType::Str, Column::Str((0..nrows).map(|_| rng.text()).collect())),
                    _ => {
                        (ColType::Bytes, Column::Bytes((0..nrows).map(|_| rng.bytes()).collect()))
                    }
                };
                heads.push((name.as_str(), t));
                cols.push(col);
            }
            let mut t = Table::from_columns(Schema::new(&heads), cols).unwrap();
            for (key, value) in &meta {
                t = t.with_meta(key, *value);
            }
            t
        })
}

/// Each block of a table's bytes: where its length field is, and the
/// block's range.
fn blocks(bytes: &[u8]) -> Vec<(usize, std::ops::Range<usize>)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let ncols = u32_at(8);
    let mut at = 12;
    for _ in 0..ncols {
        at += 4 + u32_at(at) + 1;
    }
    let nmeta = u32_at(at);
    at += 4;
    for _ in 0..nmeta {
        at += 4 + u32_at(at) + 8;
    }
    at += 8;
    let mut out = Vec::new();
    for _ in 0..ncols {
        let len = u64_at(at);
        out.push((at, at + 8..at + 8 + len));
        at += 8 + len + 4;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tables_roundtrip_to_their_own_bytes(t in arb_table()) {
        let bytes = t.to_bytes();
        let back = Table::from_bytes(bytes.clone()).unwrap();
        prop_assert_eq!(back.to_bytes(), bytes);
        prop_assert_eq!(back.meta(), t.meta());
        prop_assert_eq!(back.len(), t.len());
        // Float columns compare by bits: a NaN cell is still the same cell.
        for (a, b) in back.into_columns().iter().zip(t.into_columns()) {
            match (a, &b) {
                (Column::F64(x), Column::F64(y)) => {
                    prop_assert!(x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits())))
                }
                _ => prop_assert_eq!(a, &b),
            }
        }
    }

    /// A block's byte overwritten, one inserted or one removed, its length
    /// field and both crcs made right: whatever loads re-encodes to exactly
    /// the bytes it was read from.
    #[test]
    fn accepted_mutants_reencode_to_themselves(
        t in arb_table(),
        edits in proptest::collection::vec((0u8..3, any::<u64>(), any::<u64>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = t.to_bytes();
        for (op, pick, at, byte) in edits {
            let all = blocks(&bytes);
            if all.is_empty() {
                break;
            }
            let (len_at, block) = all[pick as usize % all.len()].clone();
            let mut body = bytes[block.clone()].to_vec();
            let at = at as usize % (body.len() + 1);
            match op {
                0 if at < body.len() => body[at] = byte,
                1 => body.insert(at, byte),
                _ if at < body.len() => {
                    body.remove(at);
                }
                _ => {}
            }
            let mut next = bytes[..len_at].to_vec();
            next.extend_from_slice(&(body.len() as u64).to_le_bytes());
            next.extend_from_slice(&body);
            next.extend_from_slice(&crc32(&body).to_le_bytes());
            next.extend_from_slice(&bytes[block.end + 4..]);
            let trailer = next.len() - 4;
            let crc = crc32(&next[..trailer]);
            next[trailer..].copy_from_slice(&crc.to_le_bytes());
            bytes = next;
            if let Some(back) = Table::from_bytes(bytes.clone()) {
                prop_assert_eq!(back.to_bytes(), bytes.clone());
            }
        }
    }
}
