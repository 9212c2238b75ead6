//! The durable dedup store: the in-memory [`DedupStore`] backed by a
//! crash-safe on-disk layout, so `analyze_and_ingest` output survives the
//! process and can be reopened, resumed, and queried later.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! objects/ab/<hex>        content-addressed file objects (dhub-persist BlobStore)
//! layers/ab/<hex>.json    one recipe envelope per ingested layer
//! ```
//!
//! **Write ordering** makes every crash recoverable without a journal: a
//! layer commit publishes (1) any new file objects, then (2) the recipe
//! envelope, then (3) updates the in-memory store. Each publish is
//! atomic (temp + fsync + rename + parent fsync), so a crash anywhere
//! leaves either orphan objects with no recipe — garbage, collected by
//! [`PersistentDedupStore::gc`] — or a complete recipe whose objects are
//! all already durable. A recipe can never reference bytes that were not
//! published first.
//!
//! **Reopen** replays the recipe files (sorted by digest, so
//! deterministic) in three steps: every envelope read and parsed in
//! parallel, every referenced object fetched and digest-verified exactly
//! once in parallel, then a sequential commit in recipe order that moves
//! recipes and bytes into memory with the checks and counters of a live
//! ingest's [`DedupStore::commit_parsed`]. Every aggregate the store
//! reports is an order-independent sum, so a reloaded store's stats —
//! including the float `dedup_factor()` — are bit-identical to the
//! single-process run that wrote it, at any thread count. Recipes and
//! objects are the only state on disk: nothing derived from them is
//! stored, so there is nothing to go stale.

use crate::recipe::LayerRecipe;
use crate::store::{DedupStore, IngestStats, PendingEntry, StoreError};
use dhub_digest::{FxHashMap, FxHashSet};
use dhub_model::Digest;
use dhub_obs::MetricsRegistry;
use dhub_persist::{fsync_dir, hex_of, BlobStore, GcStats, PersistError, Publisher};
use std::path::{Path, PathBuf};

/// Errors from the persistent store: either a logical store error (same
/// domain as the in-memory store) or a durability-tier failure.
#[derive(Debug)]
pub enum PersistentError {
    Store(StoreError),
    Persist(PersistError),
}

impl std::fmt::Display for PersistentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistentError::Store(e) => write!(f, "{e}"),
            PersistentError::Persist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistentError {}

impl From<StoreError> for PersistentError {
    fn from(e: StoreError) -> Self {
        PersistentError::Store(e)
    }
}

impl From<PersistError> for PersistentError {
    fn from(e: PersistError) -> Self {
        PersistentError::Persist(e)
    }
}

/// A [`DedupStore`] whose objects and recipes live on disk.
pub struct PersistentDedupStore {
    mem: DedupStore,
    objects: BlobStore,
    layers_dir: PathBuf,
    publisher: Publisher,
}

impl PersistentDedupStore {
    /// Opens (creating if needed) a store rooted at `root` and replays any
    /// recipes already on disk into memory. All durable writes go through
    /// `publisher` (which may carry fault injection and metrics).
    pub fn open(root: impl AsRef<Path>, publisher: Publisher) -> Result<Self, PersistentError> {
        Self::open_obs(root, publisher, None)
    }

    /// [`PersistentDedupStore::open`] with the in-memory store's
    /// `dhub_store_*` metrics (and the blob store's `dhub_persist_*`
    /// metrics) bound to `reg`.
    pub fn open_obs(
        root: impl AsRef<Path>,
        publisher: Publisher,
        reg: Option<&MetricsRegistry>,
    ) -> Result<Self, PersistentError> {
        Self::open_with(root.as_ref(), publisher, reg, dhub_par::default_threads())
    }

    /// [`PersistentDedupStore::open_obs`] replaying on `threads` workers
    /// (every core outside tests).
    fn open_with(
        root: &Path,
        publisher: Publisher,
        reg: Option<&MetricsRegistry>,
        threads: usize,
    ) -> Result<Self, PersistentError> {
        let layers_dir = root.join("layers");
        std::fs::create_dir_all(&layers_dir).map_err(PersistError::from)?;
        let mut objects = BlobStore::open(root.join("objects"), publisher.clone())?;
        let mem = match reg {
            Some(reg) => {
                objects = objects.with_metrics(reg);
                DedupStore::with_metrics(reg)
            }
            None => DedupStore::new(),
        };
        let store = PersistentDedupStore { mem, objects, layers_dir, publisher };
        store.replay_with(threads)?;
        Ok(store)
    }

    /// The in-memory store (stats, reconstruction, recipes — everything
    /// that does not touch disk).
    pub fn mem(&self) -> &DedupStore {
        &self.mem
    }

    /// The underlying object store.
    pub fn objects(&self) -> &BlobStore {
        &self.objects
    }

    fn recipe_path(&self, layer_digest: &Digest) -> PathBuf {
        let hex = hex_of(layer_digest);
        self.layers_dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Everything of an envelope before the recipe text. The writer emits
    /// it and the reader rebuilds it from the parsed fields to find the
    /// recipe span, so this is the only envelope layout there is: any
    /// other byte layout reads as torn.
    fn envelope_head(blob_len: u64, checksum: &str) -> String {
        format!(
            r#"{{"schema":"dhub-persist-recipe-v1","blobLen":{blob_len},"checksum":"{checksum}","recipe":"#
        )
    }

    /// Serializes a recipe envelope: the recipe JSON plus the compressed
    /// blob length (needed to rebuild the conventional-bytes counter) and
    /// a checksum over the recipe text so tampering behind the store's
    /// back is caught on replay. The recipe text is spliced in as written.
    fn envelope(recipe: &LayerRecipe, blob_len: u64) -> String {
        let recipe_text = recipe.to_json();
        let checksum = Digest::of(recipe_text.as_bytes()).to_docker_string();
        format!("{}{recipe_text}}}", Self::envelope_head(blob_len, &checksum))
    }

    /// Parses an envelope once and checks its checksum over the raw
    /// `recipe` span of `text` — the bytes [`Self::envelope`] hashed —
    /// rather than over a re-serialisation of the parsed value.
    fn parse_envelope(text: &str) -> Option<(LayerRecipe, u64)> {
        let j = dhub_json::parse(text).ok()?;
        if j.get("schema")?.as_str()? != "dhub-persist-recipe-v1" {
            return None;
        }
        let blob_len = j.get("blobLen")?.as_u64()?;
        let checksum = j.get("checksum")?.as_str()?;
        let head = Self::envelope_head(blob_len, checksum);
        let recipe_text = text.strip_prefix(head.as_str())?.strip_suffix('}')?;
        if Digest::parse(checksum)? != Digest::of(recipe_text.as_bytes()) {
            return None;
        }
        Some((LayerRecipe::from_value(j.get("recipe")?)?, blob_len))
    }

    /// Every `*.json` under `layers/`, sorted — the replay order.
    fn recipe_files(&self) -> Result<Vec<PathBuf>, PersistError> {
        let mut recipe_files: Vec<PathBuf> = Vec::new();
        for shard in std::fs::read_dir(&self.layers_dir)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for f in std::fs::read_dir(shard.path())? {
                let path = f?.path();
                // In-flight temp files are crash debris, not recipes.
                if path.extension().map(|e| e == "json").unwrap_or(false) {
                    recipe_files.push(path);
                }
            }
        }
        recipe_files.sort();
        Ok(recipe_files)
    }

    /// Replays every recipe on disk into memory: reopen, in three steps
    /// over the sorted recipe list. Steps 1 and 2 run on `threads` workers
    /// but hand their results back in input order, and each is checked
    /// front to back before the next starts, so the damaged file an error
    /// names never depends on thread timing: the first bad recipe in path
    /// order, else the first bad object in first-seen order.
    fn replay_with(&self, threads: usize) -> Result<(), PersistentError> {
        // (1) Read and parse every envelope.
        let recipe_files = self.recipe_files()?;
        let parsed = dhub_par::par_map(threads, &recipe_files, |path| {
            let text = std::fs::read_to_string(path)?;
            Self::parse_envelope(&text).ok_or_else(|| PersistError::Torn(path.clone()))
        });
        let recipes = parsed.into_iter().collect::<Result<Vec<_>, PersistError>>()?;

        // (2) Fetch each referenced object once, however many layers name
        // it; reads are digest-verified, so torn or flipped bytes surface
        // as Corrupt, never as data.
        let mut seen: FxHashSet<Digest> = FxHashSet::default();
        let wanted: Vec<Digest> = recipes
            .iter()
            .flat_map(|(recipe, _)| recipe.file_digests())
            .filter(|d| seen.insert(*d))
            .collect();
        let fetched = dhub_par::par_map(threads, &wanted, |d| {
            self.objects.get(d)?.ok_or(PersistentError::Store(StoreError::MissingObject(*d)))
        });
        let mut contents = wanted
            .iter()
            .zip(fetched)
            .map(|(d, data)| Ok((*d, data?)))
            .collect::<Result<FxHashMap<Digest, Vec<u8>>, PersistentError>>()?;

        // (3) Commit in recipe order; recipes and bytes move into memory.
        for (recipe, blob_len) in recipes {
            self.mem.commit_recipe(recipe, blob_len, &mut contents)?;
        }
        Ok(())
    }

    /// Commits a layer from already-parsed entries, durably. Publishes
    /// new objects first, then the recipe envelope, then updates memory —
    /// see the module docs for why this ordering makes crashes safe.
    pub fn commit_parsed(
        &self,
        layer_digest: Digest,
        blob_len: u64,
        pending: Vec<PendingEntry<'_>>,
    ) -> Result<IngestStats, PersistentError> {
        if self.mem.contains_layer(&layer_digest) {
            return Err(StoreError::AlreadyIngested.into());
        }
        // One batched publish for the layer's new objects: a single fanout
        // dir fsync per touched shard instead of one per object.
        let new_objects: Vec<(Digest, &[u8])> = pending
            .iter()
            .filter_map(|p| p.file.as_ref())
            .filter(|(digest, _)| !self.mem.has_object(digest))
            .map(|(digest, data)| (*digest, *data))
            .collect();
        self.objects.put_batch(&new_objects)?;
        let recipe = LayerRecipe {
            layer_digest,
            entries: pending.iter().map(|p| p.meta.clone()).collect(),
        };
        let path = self.recipe_path(&layer_digest);
        let shard = path.parent().expect("recipe path has a shard dir");
        if !shard.exists() {
            std::fs::create_dir_all(shard).map_err(PersistError::from)?;
            // The fanout directory itself is a fresh entry in `layers/`.
            fsync_dir(&self.layers_dir).map_err(PersistError::from)?;
        }
        self.publisher.publish(&path, Self::envelope(&recipe, blob_len).as_bytes())?;
        Ok(self.mem.commit_parsed(layer_digest, blob_len, pending)?)
    }

    /// No-op: recipes + objects are the only durable state. Kept for the
    /// frozen `bench/` driver, which still calls it (ROADMAP item 1).
    pub fn checkpoint(&self) -> Result<(), PersistentError> {
        Ok(())
    }

    /// Garbage-collects objects no recipe references (crash orphans) and
    /// sweeps in-flight temp debris. Must not overlap a layer commit: a
    /// commit's objects land before the recipe that makes them live, so a
    /// sweep in between would collect them. (Against a bare object publish
    /// the sweep is safe — both hold that fanout shard's lock.)
    pub fn gc(&self) -> Result<GcStats, PersistentError> {
        let mut live: FxHashSet<Digest> = FxHashSet::default();
        for d in self.mem.layer_digests() {
            if let Some(r) = self.mem.recipe(&d) {
                live.extend(r.file_digests());
            }
        }
        Ok(self.objects.gc(&live)?)
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_compress::{gzip_compress, CompressOptions};
    use dhub_tar::TarEntry;
    use std::sync::Arc;

    fn layer(entries: &[TarEntry]) -> (Digest, Vec<u8>) {
        let tar = dhub_tar::write_archive(entries);
        let blob = gzip_compress(&tar, &CompressOptions::fast());
        (Digest::of(&blob), blob)
    }

    fn file(path: &str, data: &[u8]) -> TarEntry {
        TarEntry::file(path, data.to_vec())
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dhub-pstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Ingests one layer the way `dhub store --store-dir` does: through
    /// the fused analyze + ingest pass.
    fn ingest(
        store: &PersistentDedupStore,
        digest: Digest,
        blob: &[u8],
    ) -> Result<IngestStats, PersistentError> {
        dhub_par::with_scratch(|scratch| {
            crate::analyze_and_ingest(store, digest, blob, scratch).expect("layer decodes").1
        })
    }

    fn sample_layers() -> Vec<(Digest, Vec<u8>)> {
        let shared = b"the shared library bytes".as_slice();
        vec![
            layer(&[
                TarEntry::dir("usr/"),
                file("usr/lib/libx.so", shared),
                file("etc/one", b"one"),
                TarEntry::symlink("usr/l", "lib"),
            ]),
            layer(&[file("opt/lib/libx.so", shared), file("etc/two", b"two")]),
            layer(&[file("var/empty", b""), TarEntry::hardlink("var/h", "var/empty")]),
        ]
    }

    #[test]
    fn reopened_store_matches_fresh_run_bit_for_bit() {
        let root = tmp_root("reopen");
        let reference = DedupStore::new();
        {
            let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
            for (d, b) in &sample_layers() {
                let sp = ingest(&store, *d, b).unwrap();
                let sm = reference.ingest_layer(*d, b).unwrap();
                assert_eq!(sp, sm, "persistent ingest must report identical stats");
            }
        }
        // Dirs written before the refcount manifest was dropped still carry
        // one; it is never opened, whatever it holds.
        std::fs::write(root.join("manifest.json"), b"{not json").unwrap();
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats(), reference.stats());
        assert_eq!(
            reopened.mem().stats().dedup_factor().to_bits(),
            reference.stats().dedup_factor().to_bits(),
            "dedup factor must be bit-identical after reload"
        );
        for (d, _) in &sample_layers() {
            assert_eq!(
                reopened.mem().reconstruct_tar(d).unwrap(),
                reference.reconstruct_tar(d).unwrap(),
                "reloaded recipes must reconstruct byte-identically"
            );
        }
        // Each envelope on disk is byte for byte what serializing it as
        // one JSON value yields: splicing the recipe text in changed
        // nothing about the format.
        for (d, _) in &sample_layers() {
            let text = std::fs::read_to_string(reopened.recipe_path(d)).unwrap();
            assert_eq!(dhub_json::parse(&text).unwrap().to_string(), text);
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn resume_skips_already_ingested_layers() {
        let root = tmp_root("resume");
        let layers = sample_layers();
        {
            let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
            ingest(&store, layers[0].0, &layers[0].1).unwrap();
        }
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert!(store.mem().contains_layer(&layers[0].0));
        assert!(matches!(
            ingest(&store, layers[0].0, &layers[0].1),
            Err(PersistentError::Store(StoreError::AlreadyIngested))
        ));
        for (d, b) in &layers[1..] {
            ingest(&store, *d, b).unwrap();
        }
        assert_eq!(store.mem().stats().layers, 3);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn orphan_objects_from_partial_commit_are_gced() {
        let root = tmp_root("orphan");
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        let (d, b) = sample_layers()[0].clone();
        ingest(&store, d, &b).unwrap();
        // Simulate a crash between object publish and recipe publish:
        // objects on disk, no recipe referencing them.
        let orphan = store.objects().put(b"orphaned by a crash").unwrap();
        let live_before = store.mem().stats().unique_objects;
        let swept = store.gc().unwrap();
        assert_eq!(swept.objects, 1, "exactly the orphan is collected");
        assert!(!store.objects().contains(&orphan));
        // Reopen: referenced objects all still present.
        drop(store);
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats().unique_objects, live_before);
        assert_eq!(reopened.mem().reconstruct_tar(&d).unwrap().len() % 512, 0);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn faulted_writes_retry_to_a_consistent_store() {
        use dhub_faults::{FaultConfig, FaultInjector, RetryPolicy};
        let root = tmp_root("faulted");
        let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(41, 0.25)));
        let publisher = Publisher::new().with_faults(Some(dhub_persist::WriteFaults {
            injector: injector.clone(),
            policy: RetryPolicy::fast(32),
        }));
        let reference = DedupStore::new();
        {
            let store = PersistentDedupStore::open(&root, publisher).unwrap();
            for (d, b) in &sample_layers() {
                ingest(&store, *d, b).unwrap();
                reference.ingest_layer(*d, b).unwrap();
            }
        }
        assert!(injector.stats().total() > 0, "25 % crash rate must fire");
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats(), reference.stats());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn torn_recipe_fails_replay_loudly() {
        let root = tmp_root("torn");
        let (d, b) = sample_layers()[0].clone();
        {
            let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
            ingest(&store, d, &b).unwrap();
        }
        // Flip a byte inside the recipe envelope behind the store's back.
        let hex = hex_of(&d);
        let path = root.join("layers").join(&hex[..2]).join(format!("{hex}.json"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = PersistentDedupStore::open(&root, Publisher::new())
            .err()
            .expect("replay of a tampered recipe must fail");
        match err {
            PersistentError::Persist(PersistError::Torn(p)) => assert_eq!(p, path),
            other => panic!("expected torn recipe error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(root);
    }

    /// Twelve layers whose objects are shared by all, by pairs, by none,
    /// and twice within one layer — 19 unique objects over 48 file entries.
    fn many_layers() -> Vec<(Digest, Vec<u8>)> {
        (0..12u32)
            .map(|i| {
                let own = format!("only in layer {i}");
                layer(&[
                    TarEntry::dir("shared/"),
                    file("shared/lib", b"shared by every layer"),
                    file(&format!("pair/{}", i / 2), format!("shared by pair {}", i / 2).as_bytes()),
                    file(&format!("own/{i}"), own.as_bytes()),
                    file("own/again", own.as_bytes()),
                ])
            })
            .collect()
    }

    /// A populated store dir plus the in-memory store the same layers give.
    fn populated(tag: &str) -> (PathBuf, DedupStore) {
        let root = tmp_root(tag);
        let reference = DedupStore::new();
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        for (d, b) in &many_layers() {
            ingest(&store, *d, b).unwrap();
            reference.ingest_layer(*d, b).unwrap();
        }
        (root, reference)
    }

    fn flip_byte(path: &Path, at: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn reopen_is_bit_identical_at_any_thread_count() {
        let (root, reference) = populated("threads");
        for threads in [1, 2, 8] {
            let reopened =
                PersistentDedupStore::open_with(&root, Publisher::new(), None, threads).unwrap();
            assert_eq!(reopened.mem().stats(), reference.stats(), "threads={threads}");
            assert_eq!(
                reopened.mem().stats().dedup_factor().to_bits(),
                reference.stats().dedup_factor().to_bits(),
                "threads={threads}"
            );
            for (d, _) in &many_layers() {
                assert_eq!(
                    reopened.mem().reconstruct_tar(d).unwrap(),
                    reference.reconstruct_tar(d).unwrap(),
                    "threads={threads}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn reopen_reads_and_verifies_each_object_exactly_once() {
        let (root, reference) = populated("readonce");
        let reg = MetricsRegistry::new();
        let reopened = PersistentDedupStore::open_obs(&root, Publisher::new(), Some(&reg)).unwrap();
        let stats = reopened.mem().stats();
        assert_eq!(stats, reference.stats());
        assert!(stats.logical_bytes > stats.physical_bytes, "the sample must share objects");
        assert_eq!(reg.counter_value("dhub_persist_reads_total"), stats.unique_objects as u64);
        assert_eq!(reg.counter_value("dhub_persist_read_bytes_total"), stats.physical_bytes);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn the_damaged_file_open_names_does_not_depend_on_thread_timing() {
        let (root, _) = populated("blame");
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        let recipe_files = store.recipe_files().unwrap();
        let mut first_seen: Vec<Digest> = Vec::new();
        for path in &recipe_files {
            let text = std::fs::read_to_string(path).unwrap();
            let (recipe, _) = PersistentDedupStore::parse_envelope(&text).unwrap();
            for d in recipe.file_digests() {
                if !first_seen.contains(&d) {
                    first_seen.push(d);
                }
            }
        }
        drop(store);
        let object_path = |d: &Digest| {
            let hex = hex_of(d);
            root.join("objects").join(&hex[..2]).join(hex)
        };
        // Two torn recipes and two flipped objects at once: the first torn
        // recipe in path order is named, whatever the objects look like.
        let torn = [&recipe_files[3], &recipe_files[9]];
        let sound: Vec<Vec<u8>> = torn.iter().map(|p| std::fs::read(p).unwrap()).collect();
        let flipped = [first_seen[4], first_seen[first_seen.len() - 2]];
        for path in torn {
            flip_byte(path, 200);
        }
        for d in &flipped {
            flip_byte(&object_path(d), 0);
        }
        for threads in [1, 2, 8] {
            match PersistentDedupStore::open_with(&root, Publisher::new(), None, threads).err() {
                Some(PersistentError::Persist(PersistError::Torn(p))) => {
                    assert_eq!(&p, torn[0], "threads={threads}")
                }
                other => panic!("threads={threads}: expected a torn recipe, got {other:?}"),
            }
        }
        // Every recipe sound again: the first flipped object in first-seen
        // order is named.
        for (path, bytes) in torn.iter().zip(&sound) {
            std::fs::write(path, bytes).unwrap();
        }
        for threads in [1, 2, 8] {
            match PersistentDedupStore::open_with(&root, Publisher::new(), None, threads).err() {
                Some(PersistentError::Persist(PersistError::Corrupt(d))) => {
                    assert_eq!(d, flipped[0], "threads={threads}")
                }
                other => panic!("threads={threads}: expected a corrupt object, got {other:?}"),
            }
        }
        // And an object gone altogether, earlier still, is what is named.
        std::fs::remove_file(object_path(&first_seen[1])).unwrap();
        for threads in [1, 2, 8] {
            match PersistentDedupStore::open_with(&root, Publisher::new(), None, threads).err() {
                Some(PersistentError::Store(StoreError::MissingObject(d))) => {
                    assert_eq!(d, first_seen[1], "threads={threads}")
                }
                other => panic!("threads={threads}: expected a missing object, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn any_envelope_layout_but_the_writers_is_torn() {
        let root = tmp_root("tamper");
        let (d, b) = sample_layers()[0].clone();
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        ingest(&store, d, &b).unwrap();
        let path = store.recipe_path(&d);
        drop(store);
        let sound = std::fs::read_to_string(&path).unwrap();
        assert!(PersistentDedupStore::parse_envelope(&sound).is_some());
        let head_len = sound.find(r#""recipe":"#).unwrap() + r#""recipe":"#.len();

        // One flipped bit anywhere. `blobLen`'s digits are the one part of
        // an envelope its checksum has never covered (a flipped digit is
        // another digit): skipped here, not claimed.
        let blob_len_at = sound.find(r#""blobLen":"#).unwrap() + r#""blobLen":"#.len();
        let blob_len_digits = sound[blob_len_at..].find(',').unwrap();
        let flip = |at: usize| {
            let mut bytes = sound.clone().into_bytes();
            bytes[at] ^= 0x01;
            String::from_utf8(bytes).expect("ascii stays ascii")
        };
        for at in 0..sound.len() {
            if (blob_len_at..blob_len_at + blob_len_digits).contains(&at) {
                continue;
            }
            assert!(PersistentDedupStore::parse_envelope(&flip(at)).is_none(), "flip at byte {at}");
        }

        // The named cases, end to end through `open`: a flip in the head,
        // in the recipe span, in the tail, and a JSON-equal envelope that
        // is spaced differently.
        let respaced = sound.replacen(r#","recipe":"#, r#", "recipe": "#, 1);
        assert_eq!(dhub_json::parse(&respaced).unwrap(), dhub_json::parse(&sound).unwrap());
        let cases = [
            ("head", flip(3)),
            ("recipe span", flip(head_len + (sound.len() - head_len) / 2)),
            ("tail", flip(sound.len() - 1)),
            ("trailing newline", format!("{sound}\n")),
            ("re-spaced", respaced),
        ];
        for (what, text) in cases {
            std::fs::write(&path, text).unwrap();
            match PersistentDedupStore::open(&root, Publisher::new()).err() {
                Some(PersistentError::Persist(PersistError::Torn(p))) => assert_eq!(p, path, "{what}"),
                other => panic!("{what}: expected a torn recipe, got {other:?}"),
            }
        }
        std::fs::write(&path, &sound).unwrap();
        assert!(PersistentDedupStore::open(&root, Publisher::new()).is_ok());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn persistent_fused_matches_memory_fused() {
        let root = tmp_root("fused");
        let layers: Vec<(Digest, Arc<Vec<u8>>)> =
            sample_layers().into_iter().map(|(d, b)| (d, Arc::new(b))).collect();
        let mem_store = DedupStore::new();
        let mem_obs = MetricsRegistry::new();
        let mem_res = crate::analyze_and_ingest_all(&layers, 2, &mem_store, &mem_obs);

        let pstore = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        let pobs = MetricsRegistry::new();
        let pres = crate::analyze_and_ingest_all(&layers, 2, &pstore, &pobs);

        assert_eq!(pres.analysis.layers, mem_res.analysis.layers);
        assert_eq!(pres.ingests.len(), mem_res.ingests.len());
        assert_eq!(pstore.mem().stats(), mem_store.stats());
        assert_eq!(
            pobs.counter_value("dhub_analyze_files_total"),
            mem_obs.counter_value("dhub_analyze_files_total")
        );

        drop(pstore);
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats(), mem_store.stats());
        let _ = std::fs::remove_dir_all(root);
    }
}
