//! File types: the per-kind census of every copy (Figs. 13–22) and dedup
//! broken down by type (Figs. 27–29).

use crate::file_dedup::{FileEntry, FileIndex};
use dhub_model::{FileKind, TypeGroup};
use std::collections::BTreeMap;

/// Per-kind census over every file instance: the [`FileIndex`] fills one
/// in its pass, and `dhub query` folds one from the stored file rows.
#[derive(Clone, Debug)]
pub struct TypeCensus {
    /// Indexed by `FileKind::index()`: (instances, bytes).
    kinds: [(u64, u64); FileKind::COUNT],
}

impl Default for TypeCensus {
    fn default() -> TypeCensus {
        TypeCensus { kinds: [(0, 0); FileKind::COUNT] }
    }
}

impl FromIterator<(FileKind, u64)> for TypeCensus {
    /// The census of `(kind, size)` pairs, one per file.
    fn from_iter<I: IntoIterator<Item = (FileKind, u64)>>(files: I) -> TypeCensus {
        let mut census = TypeCensus::default();
        for (kind, size) in files {
            census.add(kind, size);
        }
        census
    }
}

impl TypeCensus {
    /// Counts one file instance.
    pub(crate) fn add(&mut self, kind: FileKind, size: u64) {
        let e = &mut self.kinds[kind.index()];
        e.0 += 1;
        e.1 += size;
    }

    /// Instances of one kind.
    pub fn count(&self, k: FileKind) -> u64 {
        self.kinds[k.index()].0
    }

    /// Logical bytes of one kind.
    pub fn bytes(&self, k: FileKind) -> u64 {
        self.kinds[k.index()].1
    }

    /// Total instances across kinds.
    pub fn total_count(&self) -> u64 {
        self.kinds.iter().map(|k| k.0).sum()
    }

    /// Total logical bytes.
    fn total_bytes(&self) -> u64 {
        self.kinds.iter().map(|k| k.1).sum()
    }

    /// The kinds of one group, in [`FileKind::ALL`] order.
    pub fn kinds_of(group: TypeGroup) -> Vec<FileKind> {
        FileKind::ALL.iter().copied().filter(|k| k.group() == group).collect()
    }

    /// (instances, bytes) for a whole group.
    pub fn group_totals(&self, group: TypeGroup) -> (u64, u64) {
        Self::kinds_of(group)
            .into_iter()
            .fold((0, 0), |(c, b), k| (c + self.count(k), b + self.bytes(k)))
    }

    /// Count share of a group among all files.
    pub fn group_count_share(&self, group: TypeGroup) -> f64 {
        self.group_totals(group).0 as f64 / self.total_count().max(1) as f64
    }

    /// Capacity share of a group.
    pub fn group_capacity_share(&self, group: TypeGroup) -> f64 {
        self.group_totals(group).1 as f64 / self.total_bytes().max(1) as f64
    }

    /// Count share of a kind *within its group*.
    pub fn kind_count_share_in_group(&self, k: FileKind) -> f64 {
        let (gc, _) = self.group_totals(k.group());
        self.count(k) as f64 / gc.max(1) as f64
    }

    /// Capacity share of a kind within its group.
    pub fn kind_capacity_share_in_group(&self, k: FileKind) -> f64 {
        let (_, gb) = self.group_totals(k.group());
        self.bytes(k) as f64 / gb.max(1) as f64
    }

    /// Average file size of a kind, in paper-scale bytes.
    pub fn kind_avg_size(&self, k: FileKind, size_scale: u64) -> f64 {
        let c = self.count(k);
        if c == 0 {
            0.0
        } else {
            self.bytes(k) as f64 * size_scale as f64 / c as f64
        }
    }

    /// Average file size of a group, in paper-scale bytes.
    pub fn group_avg_size(&self, g: TypeGroup, size_scale: u64) -> f64 {
        let (c, b) = self.group_totals(g);
        if c == 0 {
            0.0
        } else {
            b as f64 * size_scale as f64 / c as f64
        }
    }
}

/// Dedup numbers for one type group or leaf type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TypeDedupRow {
    pub instances: u64,
    pub unique: u64,
    /// Logical bytes before dedup.
    pub bytes: u64,
    /// Physical bytes after dedup.
    pub unique_bytes: u64,
}

impl TypeDedupRow {
    /// Fraction of instances removable by dedup — the paper's per-type
    /// "deduplication ratio" percentages (Fig. 27: e.g. scripts 98 %).
    pub fn redundancy(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            1.0 - self.unique as f64 / self.instances as f64
        }
    }

    /// Capacity redundancy: fraction of bytes removable.
    pub fn capacity_redundancy(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            1.0 - self.unique_bytes as f64 / self.bytes as f64
        }
    }

    /// Accumulates one unique file: every row, and the headline totals,
    /// are folds of this over the index.
    pub(crate) fn add(&mut self, e: &FileEntry) {
        self.instances += e.copies;
        self.unique += 1;
        self.bytes += e.copies * e.size;
        self.unique_bytes += e.size;
    }
}

/// Per-group dedup rows, in [`TypeGroup::ALL`] order.
pub fn dedup_by_group(index: &FileIndex) -> Vec<(TypeGroup, TypeDedupRow)> {
    let mut rows: Vec<(TypeGroup, TypeDedupRow)> =
        TypeGroup::ALL.iter().map(|&g| (g, TypeDedupRow::default())).collect();
    for e in index.entries() {
        let (_, row) = (rows.iter_mut().find(|(g, _)| *g == e.kind.group()))
            .expect("ALL lists every group");
        row.add(e);
    }
    rows
}

/// Per-leaf-kind dedup rows, restricted to kinds of `group` (e.g. the EOL
/// breakdown of Fig. 28 or the source-code breakdown of Fig. 29).
pub fn dedup_by_kind(index: &FileIndex, group: TypeGroup) -> Vec<(FileKind, TypeDedupRow)> {
    let mut rows: BTreeMap<FileKind, TypeDedupRow> = BTreeMap::new();
    for e in index.entries().iter().filter(|e| e.kind.group() == group) {
        rows.entry(e.kind).or_default().add(e);
    }
    rows.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::{Digest, FileRecord, LayerProfile};

    fn file(tag: &str, kind: FileKind, size: u64) -> FileRecord {
        FileRecord { digest: Digest::of(tag.as_bytes()), kind, size }
    }

    fn layer(id: u8, files: Vec<FileRecord>) -> LayerProfile {
        LayerProfile {
            digest: Digest::of(&[id]),
            fls: files.iter().map(|f| f.size).sum(),
            cls: 1,
            dir_count: 1,
            file_count: files.len() as u64,
            max_depth: 1,
            files,
        }
    }

    #[test]
    fn group_rows_aggregate() {
        // Two copies of one C file, one unique C file, one script.
        let l1 = layer(1, vec![file("c1", FileKind::CSource, 100), file("s1", FileKind::ShellScript, 10)]);
        let l2 = layer(2, vec![file("c1", FileKind::CSource, 100), file("c2", FileKind::CSource, 40)]);
        let rows = dedup_by_group(&FileIndex::build(&[&l1, &l2]));
        let sc = rows.iter().find(|(g, _)| *g == TypeGroup::SourceCode).unwrap().1;
        assert_eq!(sc.instances, 3);
        assert_eq!(sc.unique, 2);
        assert_eq!(sc.bytes, 240);
        assert_eq!(sc.unique_bytes, 140);
        assert!((sc.redundancy() - 1.0 / 3.0).abs() < 1e-9);
        let scripts = rows.iter().find(|(g, _)| *g == TypeGroup::Scripts).unwrap().1;
        assert_eq!(scripts.instances, 1);
        assert_eq!(scripts.redundancy(), 0.0);
    }

    #[test]
    fn kind_rows_restricted_to_group() {
        let l = layer(
            1,
            vec![
                file("e", FileKind::Elf, 100),
                file("p", FileKind::PythonBytecode, 10),
                file("c", FileKind::CSource, 5),
            ],
        );
        let rows = dedup_by_kind(&FileIndex::build(&[&l]), TypeGroup::Eol);
        let kinds: Vec<FileKind> = rows.iter().map(|(k, _)| *k).collect();
        assert!(kinds.contains(&FileKind::Elf));
        assert!(kinds.contains(&FileKind::PythonBytecode));
        assert!(!kinds.contains(&FileKind::CSource));
    }

    #[test]
    fn rows_do_not_depend_on_layer_order() {
        // One content ("shared") appears in every layer, classified three
        // different ways by its path; which layer the index meets first
        // must not decide its row, its count of distinct layers or Table
        // 2's most-repeated file.
        let kinds = [FileKind::CSource, FileKind::Elf, FileKind::ShellScript];
        let layers: Vec<LayerProfile> = (0..48u8)
            .map(|i| {
                let own = file(&format!("own{i}"), FileKind::PythonBytecode, 10);
                let twin = file(&format!("twin{}", i / 2), FileKind::AsciiText, 3);
                layer(i, vec![file("shared", kinds[i as usize % 3], 100), own, twin])
            })
            .collect();
        let rows = |refs: &[&LayerProfile]| {
            let index = FileIndex::build(refs);
            let stats = index.stats();
            let layers_of = |tag: &str| {
                let at = index.digests().iter().position(|d| *d == Digest::of(tag.as_bytes()));
                at.map(|s| index.entries()[s].layers)
            };
            (
                dedup_by_group(&index),
                dedup_by_kind(&index, TypeGroup::Eol),
                dedup_by_kind(&index, TypeGroup::SourceCode),
                (stats.max_repeat, stats.max_repeat_size, layers_of("shared"), layers_of("twin0")),
            )
        };
        let mut refs: Vec<&LayerProfile> = layers.iter().collect();
        let (groups, eol, src, max) = rows(&refs);
        refs.reverse();
        assert_eq!(rows(&refs), (groups.clone(), eol.clone(), src.clone(), max));
        refs.rotate_left(17);
        assert_eq!(rows(&refs), (groups.clone(), eol.clone(), src.clone(), max));
        assert_eq!(max, (48, 100, Some(48), Some(2)));
        // The shared content is counted once, under its smallest kind.
        let shared_kind = *kinds.iter().min().unwrap();
        let total_unique: u64 = groups.iter().map(|(_, r)| r.unique).sum();
        assert_eq!(total_unique, 1 + 48 + 24);
        let row = |rows: &[(FileKind, TypeDedupRow)]| {
            rows.iter().find(|(k, _)| *k == shared_kind).map(|(_, r)| r.instances)
        };
        assert_eq!(row(&eol).or(row(&src)), Some(48));
    }

    #[test]
    fn capacity_redundancy() {
        let l1 = layer(1, vec![file("x", FileKind::Elf, 1000)]);
        let l2 = layer(2, vec![file("x", FileKind::Elf, 1000)]);
        let rows = dedup_by_group(&FileIndex::build(&[&l1, &l2]));
        let eol = rows.iter().find(|(g, _)| *g == TypeGroup::Eol).unwrap().1;
        assert!((eol.capacity_redundancy() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_rows_are_zero() {
        let rows = dedup_by_group(&FileIndex::build(&[]));
        for (_, r) in rows {
            assert_eq!(r.instances, 0);
            assert_eq!(r.redundancy(), 0.0);
        }
    }
}
