//! The content index and file-level deduplication (Fig. 24 and the
//! paper's headline numbers: only 3.2 % of files unique; 31.5× by count,
//! 6.9× by capacity).

use crate::by_type::{TypeCensus, TypeDedupRow};
use dhub_digest::FxHashMap;
use dhub_model::{Digest, FileKind, LayerProfile};

/// Per-unique-file aggregate.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FileEntry {
    /// Number of instances (copies) across all layers.
    pub copies: u64,
    /// File size in bytes: the first copy's (identical content ⇒
    /// identical size).
    pub size: u64,
    /// The smallest kind any copy was classified as. One content can
    /// classify differently by path (magic falls back to the extension);
    /// the minimum does not depend on the order the layers come in.
    pub kind: FileKind,
    /// Number of distinct layers holding at least one copy.
    pub layers: u32,
}

/// Every unique file of a layer population, each at a dense slot in
/// first-seen order, and every layer's files as slots. Built in one
/// sequential pass — the only pass that hashes a file digest — then read
/// by every file-level analysis: the headline stats, the per-type rows,
/// the cross-layer fractions, each growth sample and the image index.
pub struct FileIndex {
    /// Slot `s` holds content `digests[s]`, aggregated in `entries[s]`.
    digests: Vec<Digest>,
    entries: Vec<FileEntry>,
    /// Layer `at` (its position in the slice the index was built from)
    /// holds `slots[starts[at]..starts[at + 1]]`, in file order.
    starts: Vec<usize>,
    slots: Vec<u32>,
    /// Layer digests, ascending, with their positions.
    positions: Vec<(Digest, u32)>,
    census: TypeCensus,
}

impl FileIndex {
    /// Indexes all files in all `layers`, in slice order.
    pub fn build(layers: &[&LayerProfile]) -> FileIndex {
        let mut slot_of: FxHashMap<Digest, u32> = FxHashMap::default();
        let (mut digests, mut entries) = (Vec::new(), Vec::new());
        // `last[s]` is one past the last layer that held slot `s`, so a
        // copy repeated within a layer adds no distinct layer.
        let mut last: Vec<u32> = Vec::new();
        let mut census = TypeCensus::default();
        let mut starts = Vec::with_capacity(layers.len() + 1);
        starts.push(0);
        let mut slots = Vec::with_capacity(layers.iter().map(|l| l.files.len()).sum());
        for (at, layer) in (1u32..).zip(layers) {
            for f in &layer.files {
                census.add(f.kind, f.size);
                let s = *slot_of.entry(f.digest).or_insert_with(|| {
                    digests.push(f.digest);
                    entries.push(FileEntry { copies: 0, size: f.size, kind: f.kind, layers: 0 });
                    last.push(0);
                    (entries.len() - 1) as u32
                });
                let e = &mut entries[s as usize];
                e.copies += 1;
                e.kind = e.kind.min(f.kind);
                if last[s as usize] != at {
                    last[s as usize] = at;
                    e.layers += 1;
                }
                slots.push(s);
            }
            starts.push(slots.len());
        }
        let mut positions: Vec<(Digest, u32)> =
            (layers.iter().zip(0u32..)).map(|(l, at)| (l.digest, at)).collect();
        positions.sort_unstable();
        FileIndex { digests, entries, starts, slots, positions, census }
    }

    /// Every unique file's aggregate, by slot.
    pub(crate) fn entries(&self) -> &[FileEntry] {
        &self.entries
    }

    /// Every unique file's digest, by slot.
    pub(crate) fn digests(&self) -> &[Digest] {
        &self.digests
    }

    /// Number of indexed layers.
    pub(crate) fn layer_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The slots of layer `at`'s files, in file order.
    pub(crate) fn layer_slots(&self, at: usize) -> &[u32] {
        &self.slots[self.starts[at]..self.starts[at + 1]]
    }

    /// The position of the indexed layer `digest`, if it was indexed.
    pub(crate) fn layer_at(&self, digest: &Digest) -> Option<usize> {
        let found = self.positions.binary_search_by(|(d, _)| d.cmp(digest));
        found.ok().map(|i| self.positions[i].1 as usize)
    }

    /// Instances and bytes per kind over every indexed copy (Figs. 13–22).
    pub fn census(&self) -> &TypeCensus {
        &self.census
    }

    /// The headline dedup statistics: one fold over the slots.
    pub fn stats(&self) -> FileDedupStats {
        let mut total = TypeDedupRow::default();
        for e in &self.entries {
            total.add(e);
        }
        let mut repeat_counts: Vec<u64> = self.entries.iter().map(|e| e.copies).collect();
        repeat_counts.sort_unstable_by(|a, b| b.cmp(a));
        // Ties on copies go to the smallest digest, so the row does not
        // depend on the order the layers came in.
        let top = (self.digests.iter().zip(&self.entries))
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

    fn file_dedup(layers: &[&LayerProfile]) -> FileDedupStats {
        FileIndex::build(layers).stats()
    }

    fn file(content: &[u8], size: u64) -> FileRecord {
        FileRecord {
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
        let stats = file_dedup(&[&l1, &l2, &l3]);
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
        let stats = file_dedup(&[&l1]);
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
        let stats = file_dedup(&[&l]);
        let hist = stats.repeat_histogram();
        assert_eq!(hist, vec![(1, 2), (4, 4)]);
    }

    #[test]
    fn empty_population() {
        let stats = file_dedup(&[]);
        assert_eq!(stats.count_ratio(), 1.0);
        assert_eq!(stats.capacity_ratio(), 1.0);
        assert_eq!(stats.unique_fraction(), 0.0);
    }

    #[test]
    fn tied_max_repeat_takes_the_smallest_digest() {
        // Two contents with three copies each, of different sizes: the
        // reported size is the smaller digest's, whichever the index met
        // first.
        let (a, b) = (file(b"tie-a", 7), file(b"tie-b", 9));
        let layers: Vec<LayerProfile> = (0..3u8)
            .map(|i| layer(if i == 0 { vec![a, b, file(&[i], 1)] } else { vec![b, a, file(&[i], 1)] }))
            .collect();
        let mut refs: Vec<&LayerProfile> = layers.iter().collect();
        let want = if a.digest < b.digest { a.size } else { b.size };
        for _ in 0..2 {
            let stats = file_dedup(&refs);
            assert_eq!((stats.max_repeat, stats.max_repeat_size), (3, want));
            refs.reverse();
        }
    }

    #[test]
    fn entries_record_smallest_kind_and_distinct_layers() {
        let mut elf = file(b"same", 4);
        elf.kind = FileKind::Elf;
        let l1 = layer(vec![file(b"same", 4), file(b"same", 4)]);
        let l2 = layer(vec![elf]);
        let index = FileIndex::build(&[&l1, &l2]);
        assert_eq!(index.digests(), [Digest::of(b"same")]);
        let e = index.entries()[0];
        assert_eq!((e.copies, e.layers), (3, 2));
        assert_eq!(e.kind, FileKind::AsciiText.min(FileKind::Elf));
        assert_eq!((index.layer_slots(0), index.layer_slots(1)), (&[0, 0][..], &[0][..]));
        assert_eq!((index.layer_at(&l2.digest), index.layer_at(&Digest::of(b"absent"))), (Some(1), None));
    }
}
