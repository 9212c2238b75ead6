//! The per-digest file index and file-level deduplication (Fig. 24 and
//! the paper's headline numbers: only 3.2 % of files unique; 31.5× by
//! count, 6.9× by capacity).

use crate::by_type::TypeDedupRow;
use dhub_digest::{FxHashMap, FxHashSet};
use dhub_model::{Digest, FileKind, LayerProfile};
use dhub_par::ShardedMap;

/// Per-unique-file aggregate.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FileEntry {
    /// Number of instances (copies) across all layers.
    pub copies: u64,
    /// File size in bytes (identical content ⇒ identical size).
    pub size: u64,
    /// The smallest kind any copy was classified as. One content can
    /// classify differently by path (magic falls back to the extension);
    /// the minimum does not depend on which worker touched it last.
    pub kind: FileKind,
    /// Number of distinct layers holding at least one copy.
    pub layers: u32,
}

/// Every unique file of a layer population, keyed by content digest.
/// Built in one parallel pass, then read without locks by every dedup
/// analysis: the headline stats, the per-type rows, the cross-layer
/// fractions and each growth sample.
pub struct FileIndex {
    entries: FxHashMap<Digest, FileEntry>,
}

impl FileIndex {
    /// Indexes all files in all `layers`, in parallel.
    pub fn build(layers: &[&LayerProfile], threads: usize) -> FileIndex {
        let index: ShardedMap<Digest, Option<FileEntry>> = ShardedMap::new(64);
        dhub_par::par_for_each(threads, layers, |layer| {
            let mut seen = FxHashSet::default();
            for f in &layer.files {
                let new_layer = seen.insert(f.digest) as u32;
                index.update(f.digest, |slot| match slot {
                    Some(e) => {
                        e.copies += 1;
                        e.kind = e.kind.min(f.kind);
                        e.layers += new_layer;
                    }
                    None => {
                        *slot = Some(FileEntry { copies: 1, size: f.size, kind: f.kind, layers: 1 })
                    }
                });
            }
        });
        let entries = (index.into_entries().into_iter())
            .map(|(d, e)| (d, e.expect("the first update fills the slot")))
            .collect();
        FileIndex { entries }
    }

    /// The entry of one content, if any indexed layer holds it.
    pub(crate) fn get(&self, digest: &Digest) -> Option<&FileEntry> {
        self.entries.get(digest)
    }

    /// Every unique file, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Digest, &FileEntry)> {
        self.entries.iter()
    }

    /// The headline dedup statistics: one fold over the index.
    pub fn stats(&self) -> FileDedupStats {
        let mut total = TypeDedupRow::default();
        let mut repeat_counts = Vec::with_capacity(self.entries.len());
        for e in self.entries.values() {
            total.add(e);
            repeat_counts.push(e.copies);
        }
        repeat_counts.sort_unstable_by(|a, b| b.cmp(a));
        // Ties on copies go to the smallest digest, so the row does not
        // depend on the order the workers filled the map in.
        let top = (self.entries.iter())
            .max_by(|(da, a), (db, b)| a.copies.cmp(&b.copies).then(db.cmp(da)));
        let (max_repeat, max_repeat_size) = top.map_or((0, 0), |(_, e)| (e.copies, e.size));
        FileDedupStats {
            total_instances: total.instances,
            unique_files: total.unique,
            total_bytes: total.bytes,
            unique_bytes: total.unique_bytes,
            repeat_counts,
            max_repeat,
            max_repeat_size,
        }
    }
}

/// A dedup ratio: logical over physical, 1 when nothing is stored.
pub(crate) fn ratio(logical: u64, physical: u64) -> f64 {
    if physical == 0 {
        1.0
    } else {
        logical as f64 / physical as f64
    }
}

/// Dedup statistics over a layer population.
#[derive(Clone, Debug)]
pub struct FileDedupStats {
    pub total_instances: u64,
    pub unique_files: u64,
    /// Logical bytes (every instance counted).
    pub total_bytes: u64,
    /// Physical bytes after dedup (each unique file once).
    pub unique_bytes: u64,
    /// Copy count of every unique file, descending.
    pub repeat_counts: Vec<u64>,
    /// Copy count and size of the most-repeated file.
    pub max_repeat: u64,
    pub max_repeat_size: u64,
}

impl FileDedupStats {
    /// The paper's count dedup ratio (31.5× at full scale).
    pub fn count_ratio(&self) -> f64 {
        ratio(self.total_instances, self.unique_files)
    }

    /// The paper's capacity dedup ratio (6.9× at full scale).
    pub fn capacity_ratio(&self) -> f64 {
        ratio(self.total_bytes, self.unique_bytes)
    }

    /// Fraction of files that remain after dedup (paper: 3.2 %).
    pub fn unique_fraction(&self) -> f64 {
        if self.total_instances == 0 {
            0.0
        } else {
            self.unique_files as f64 / self.total_instances as f64
        }
    }

    /// Fraction of *instances* whose file has more than one copy
    /// (paper: 99.4 %).
    pub fn duplicated_instance_fraction(&self) -> f64 {
        if self.total_instances == 0 {
            return 0.0;
        }
        let dup_instances: u64 = self.repeat_counts.iter().filter(|&&c| c > 1).sum();
        dup_instances as f64 / self.total_instances as f64
    }

    /// Instance-weighted repeat counts for Fig. 24's CDF ("50 % of files
    /// have exactly 4 copies" weights each *instance* by its file's copy
    /// count). Returns `(copies, instances_with_that_count)` ascending.
    pub fn repeat_histogram(&self) -> Vec<(u64, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for &c in &self.repeat_counts {
            *map.entry(c).or_insert(0u64) += c; // weight by instances
        }
        map.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::FileRecord;

    fn file_dedup(layers: &[&LayerProfile], threads: usize) -> FileDedupStats {
        FileIndex::build(layers, threads).stats()
    }

    fn file(content: &[u8], size: u64) -> FileRecord {
        FileRecord {
            path: "p".into(),
            digest: Digest::of(content),
            kind: FileKind::AsciiText,
            size,
        }
    }

    fn layer(files: Vec<FileRecord>) -> LayerProfile {
        LayerProfile {
            digest: Digest::of(&[files.len() as u8]),
            fls: files.iter().map(|f| f.size).sum(),
            cls: 10,
            dir_count: 1,
            file_count: files.len() as u64,
            max_depth: 1,
            files,
        }
    }

    #[test]
    fn counts_copies_across_layers() {
        let l1 = layer(vec![file(b"a", 100), file(b"b", 50)]);
        let l2 = layer(vec![file(b"a", 100), file(b"c", 25)]);
        let l3 = layer(vec![file(b"a", 100)]);
        let stats = file_dedup(&[&l1, &l2, &l3], 2);
        assert_eq!(stats.total_instances, 5);
        assert_eq!(stats.unique_files, 3);
        assert_eq!(stats.total_bytes, 300 + 50 + 25);
        assert_eq!(stats.unique_bytes, 175);
        assert_eq!(stats.max_repeat, 3);
        assert_eq!(stats.max_repeat_size, 100);
        assert!((stats.count_ratio() - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unique_fraction_and_dup_instances() {
        let l1 = layer(vec![file(b"a", 10), file(b"a", 10), file(b"b", 10)]);
        let stats = file_dedup(&[&l1], 1);
        assert_eq!(stats.total_instances, 3);
        assert_eq!(stats.unique_files, 2);
        assert!((stats.unique_fraction() - 2.0 / 3.0).abs() < 1e-9);
        // "a" contributes 2 duplicated instances; "b" none.
        assert!((stats.duplicated_instance_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn repeat_histogram_instance_weighted() {
        // 1 file with 4 copies, 2 files with 1 copy.
        let l = layer(vec![
            file(b"x", 1),
            file(b"x", 1),
            file(b"x", 1),
            file(b"x", 1),
            file(b"y", 1),
            file(b"z", 1),
        ]);
        let stats = file_dedup(&[&l], 1);
        let hist = stats.repeat_histogram();
        assert_eq!(hist, vec![(1, 2), (4, 4)]);
    }

    #[test]
    fn empty_population() {
        let stats = file_dedup(&[], 4);
        assert_eq!(stats.count_ratio(), 1.0);
        assert_eq!(stats.capacity_ratio(), 1.0);
        assert_eq!(stats.unique_fraction(), 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let layers: Vec<LayerProfile> = (0..50)
            .map(|i| {
                layer(
                    (0..20)
                        .map(|j| file(format!("{}", (i * j) % 37).as_bytes(), 10))
                        .collect(),
                )
            })
            .collect();
        let refs: Vec<&LayerProfile> = layers.iter().collect();
        let a = file_dedup(&refs, 1);
        let b = file_dedup(&refs, 8);
        assert_eq!(a.total_instances, b.total_instances);
        assert_eq!(a.unique_files, b.unique_files);
        assert_eq!(a.total_bytes, b.total_bytes);
        let mut ra = a.repeat_counts.clone();
        let mut rb = b.repeat_counts.clone();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb);
    }

    #[test]
    fn tied_max_repeat_takes_the_smallest_digest() {
        // Two contents with three copies each, of different sizes: the
        // reported size is the smaller digest's, at every thread count.
        let (a, b) = (file(b"tie-a", 7), file(b"tie-b", 9));
        let layers: Vec<LayerProfile> =
            (0..3).map(|i| layer(vec![a.clone(), b.clone(), file(&[i], 1)])).collect();
        let refs: Vec<&LayerProfile> = layers.iter().collect();
        let want = if a.digest < b.digest { a.size } else { b.size };
        for threads in [1, 2, 8] {
            for _ in 0..10 {
                let stats = file_dedup(&refs, threads);
                let max = (stats.max_repeat, stats.max_repeat_size);
                assert_eq!(max, (3, want), "threads={threads}");
            }
        }
    }

    #[test]
    fn entries_record_smallest_kind_and_distinct_layers() {
        let mut elf = file(b"same", 4);
        elf.kind = FileKind::Elf;
        let l1 = layer(vec![file(b"same", 4), file(b"same", 4)]);
        let l2 = layer(vec![elf]);
        let index = FileIndex::build(&[&l1, &l2], 2);
        let e = index.get(&Digest::of(b"same")).unwrap();
        assert_eq!((e.copies, e.layers), (3, 2));
        assert_eq!(e.kind, FileKind::AsciiText.min(FileKind::Elf));
        assert!(index.get(&Digest::of(b"absent")).is_none());
    }
}
