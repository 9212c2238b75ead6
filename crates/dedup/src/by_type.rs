//! Dedup broken down by file type (Figs. 27–29).

use crate::file_dedup::FileEntry;
use dhub_model::{Digest, FileKind, LayerProfile, TypeGroup};
use dhub_par::ShardedMap;

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
}

fn build_index(layers: &[&LayerProfile], threads: usize) -> Vec<(Digest, FileEntry)> {
    let index: ShardedMap<Digest, FileEntry> = ShardedMap::new(64);
    dhub_par::par_for_each(threads, layers, |layer| {
        for f in &layer.files {
            index.update(f.digest, |e| {
                e.copies += 1;
                e.size = f.size;
                // One content can classify differently by path (magic falls
                // back to the extension). Keep the smallest kind so the row
                // a digest lands in does not depend on which worker touched
                // it last.
                e.kind = Some(e.kind.map_or(f.kind, |k| k.min(f.kind)));
            });
        }
    });
    index.into_entries()
}

/// Per-group dedup rows, in [`TypeGroup::ALL`] order.
pub fn dedup_by_group(layers: &[&LayerProfile], threads: usize) -> Vec<(TypeGroup, TypeDedupRow)> {
    let entries = build_index(layers, threads);
    let mut rows = vec![TypeDedupRow::default(); TypeGroup::ALL.len()];
    for (_, e) in entries {
        let kind = e.kind.expect("entries always record a kind");
        let g = TypeGroup::ALL.iter().position(|&x| x == kind.group()).unwrap();
        rows[g].instances += e.copies;
        rows[g].unique += 1;
        rows[g].bytes += e.copies * e.size;
        rows[g].unique_bytes += e.size;
    }
    TypeGroup::ALL.iter().copied().zip(rows).collect()
}

/// Per-leaf-kind dedup rows, restricted to kinds of `group` (e.g. the EOL
/// breakdown of Fig. 28 or the source-code breakdown of Fig. 29).
pub fn dedup_by_kind(
    layers: &[&LayerProfile],
    group: TypeGroup,
    threads: usize,
) -> Vec<(FileKind, TypeDedupRow)> {
    let entries = build_index(layers, threads);
    let mut map: std::collections::BTreeMap<FileKind, TypeDedupRow> = std::collections::BTreeMap::new();
    for (_, e) in entries {
        let kind = e.kind.expect("entries always record a kind");
        if kind.group() != group {
            continue;
        }
        let row = map.entry(kind).or_default();
        row.instances += e.copies;
        row.unique += 1;
        row.bytes += e.copies * e.size;
        row.unique_bytes += e.size;
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::FileRecord;

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
        let rows = dedup_by_group(&[&l1, &l2], 2);
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
        let rows = dedup_by_kind(&[&l], TypeGroup::Eol, 1);
        let kinds: Vec<FileKind> = rows.iter().map(|(k, _)| *k).collect();
        assert!(kinds.contains(&FileKind::Elf));
        assert!(kinds.contains(&FileKind::PythonBytecode));
        assert!(!kinds.contains(&FileKind::CSource));
    }

    #[test]
    fn rows_do_not_depend_on_threads_or_scheduling() {
        // One content ("shared") appears in every layer, classified three
        // different ways by its path; whichever worker touches it last must
        // not decide its row.
        let kinds = [FileKind::CSource, FileKind::Elf, FileKind::ShellScript];
        let layers: Vec<LayerProfile> = (0..48u8)
            .map(|i| {
                let own = file(&format!("own{i}"), FileKind::PythonBytecode, 10);
                layer(i, vec![file("shared", kinds[i as usize % 3], 100), own])
            })
            .collect();
        let refs: Vec<&LayerProfile> = layers.iter().collect();
        let groups = dedup_by_group(&refs, 1);
        let eol = dedup_by_kind(&refs, TypeGroup::Eol, 1);
        let src = dedup_by_kind(&refs, TypeGroup::SourceCode, 1);
        for threads in [1, 2, 8] {
            for _ in 0..10 {
                assert_eq!(dedup_by_group(&refs, threads), groups, "threads={threads}");
                assert_eq!(dedup_by_kind(&refs, TypeGroup::Eol, threads), eol);
                assert_eq!(dedup_by_kind(&refs, TypeGroup::SourceCode, threads), src);
            }
        }
        // The shared content is counted once, under its smallest kind.
        let shared_kind = *kinds.iter().min().unwrap();
        let total_unique: u64 = groups.iter().map(|(_, r)| r.unique).sum();
        assert_eq!(total_unique, 49);
        let row = |rows: &[(FileKind, TypeDedupRow)]| {
            rows.iter().find(|(k, _)| *k == shared_kind).map(|(_, r)| r.instances)
        };
        assert_eq!(row(&eol).or(row(&src)), Some(48));
    }

    #[test]
    fn capacity_redundancy() {
        let l1 = layer(1, vec![file("x", FileKind::Elf, 1000)]);
        let l2 = layer(2, vec![file("x", FileKind::Elf, 1000)]);
        let rows = dedup_by_group(&[&l1, &l2], 1);
        let eol = rows.iter().find(|(g, _)| *g == TypeGroup::Eol).unwrap().1;
        assert!((eol.capacity_redundancy() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_rows_are_zero() {
        let rows = dedup_by_group(&[], 1);
        for (_, r) in rows {
            assert_eq!(r.instances, 0);
            assert_eq!(r.redundancy(), 0.0);
        }
    }
}
