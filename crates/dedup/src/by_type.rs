//! Dedup broken down by file type (Figs. 27–29).

use crate::file_dedup::{FileEntry, FileIndex};
use dhub_model::{FileKind, TypeGroup};
use std::collections::BTreeMap;

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
    for (_, e) in index.iter() {
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
    for (_, e) in index.iter().filter(|(_, e)| e.kind.group() == group) {
        rows.entry(e.kind).or_default().add(e);
    }
    rows.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::{Digest, FileRecord, LayerProfile};

    fn file(tag: &str, kind: FileKind, size: u64) -> FileRecord {
        FileRecord { path: tag.into(), digest: Digest::of(tag.as_bytes()), kind, size }
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
        let rows = dedup_by_group(&FileIndex::build(&[&l1, &l2], 2));
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
        let rows = dedup_by_kind(&FileIndex::build(&[&l], 1), TypeGroup::Eol);
        let kinds: Vec<FileKind> = rows.iter().map(|(k, _)| *k).collect();
        assert!(kinds.contains(&FileKind::Elf));
        assert!(kinds.contains(&FileKind::PythonBytecode));
        assert!(!kinds.contains(&FileKind::CSource));
    }

    #[test]
    fn rows_do_not_depend_on_threads_or_scheduling() {
        // One content ("shared") appears in every layer, classified three
        // different ways by its path; whichever worker touches it last must
        // not decide its row, its count of distinct layers or Table 2's
        // most-repeated file.
        let kinds = [FileKind::CSource, FileKind::Elf, FileKind::ShellScript];
        let layers: Vec<LayerProfile> = (0..48u8)
            .map(|i| {
                let own = file(&format!("own{i}"), FileKind::PythonBytecode, 10);
                let twin = file(&format!("twin{}", i / 2), FileKind::AsciiText, 3);
                layer(i, vec![file("shared", kinds[i as usize % 3], 100), own, twin])
            })
            .collect();
        let refs: Vec<&LayerProfile> = layers.iter().collect();
        let rows = |threads| {
            let index = FileIndex::build(&refs, threads);
            let stats = index.stats();
            let layers_of = |tag: &str| index.get(&Digest::of(tag.as_bytes())).map(|e| e.layers);
            (
                dedup_by_group(&index),
                dedup_by_kind(&index, TypeGroup::Eol),
                dedup_by_kind(&index, TypeGroup::SourceCode),
                (stats.max_repeat, stats.max_repeat_size, layers_of("shared"), layers_of("twin0")),
            )
        };
        let (groups, eol, src, max) = rows(1);
        for threads in [1, 2, 8] {
            for _ in 0..10 {
                let want = (groups.clone(), eol.clone(), src.clone(), max);
                assert_eq!(rows(threads), want, "threads={threads}");
            }
        }
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
        let rows = dedup_by_group(&FileIndex::build(&[&l1, &l2], 1));
        let eol = rows.iter().find(|(g, _)| *g == TypeGroup::Eol).unwrap().1;
        assert!((eol.capacity_redundancy() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_rows_are_zero() {
        let rows = dedup_by_group(&FileIndex::build(&[], 1));
        for (_, r) in rows {
            assert_eq!(r.instances, 0);
            assert_eq!(r.redundancy(), 0.0);
        }
    }
}
