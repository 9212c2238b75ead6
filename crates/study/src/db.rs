//! The persisted study database: typed columnar tables written next to
//! the durable dedup store, answering Table-1-style questions without
//! re-running the pipeline.
//!
//! One pipeline run writes five tables under `<store-dir>/db/`:
//!
//! | table        | one row per      | columns                                     |
//! |--------------|------------------|---------------------------------------------|
//! | `layers.tbl` | unique layer     | digest, cls, fls, files, dirs, depth        |
//! | `files.tbl`  | file in a layer  | layer, kind, group, size                    |
//! | `images.tbl` | downloaded image | repo, manifest, layers, fis, cis, files     |
//! | `dedup.tbl`  | store (single)   | layers, objects, physical, logical, conventional, factor |
//! | `study.tbl`  | Table-1 counter  | key, value                                  |
//!
//! In `files.tbl`, `layer` is the file's layer as its row in
//! `layers.tbl`, `kind` is its [`FileKind`] as an index into
//! [`FileKind::ALL`] (as the layer files' `class` column holds it), and
//! `group` is the kind's group label, kept as text because a scan filters
//! on it; a file's path is only in its layer file. [`StudyDb::load`]
//! checks both indexes, so a query never meets one out of range.
//!
//! Rows are emitted in deterministic order (layers sorted by digest,
//! files in archive order within each layer, images sorted by repo), and
//! every numeric column round-trips bit-exactly, so two runs over the
//! same hub — or one run reloaded from disk — produce byte-identical
//! table files and byte-identical query answers.

use crate::pipeline::StudyData;
use dhub_dedupstore::StoreStats;
use dhub_model::FileKind;
use dhub_persist::{
    hex_of, ColType, Column, PersistError, Predicate, Publisher, Schema, StrColumn, Table,
};
use std::path::{Path, PathBuf};

/// The five study tables, in memory.
pub struct StudyDb {
    pub layers: Table,
    pub files: Table,
    pub images: Table,
    pub dedup: Table,
    pub study: Table,
}

fn layers_schema() -> Schema {
    Schema::new(&[
        ("digest", ColType::Str),
        ("cls", ColType::U64),
        ("fls", ColType::U64),
        ("files", ColType::U64),
        ("dirs", ColType::U64),
        ("depth", ColType::U64),
    ])
}

fn files_schema() -> Schema {
    Schema::new(&[
        ("layer", ColType::U64),
        ("kind", ColType::U64),
        ("group", ColType::Str),
        ("size", ColType::U64),
    ])
}

fn images_schema() -> Schema {
    Schema::new(&[
        ("repo", ColType::Str),
        ("manifest", ColType::Str),
        ("layers", ColType::U64),
        ("fis", ColType::U64),
        ("cis", ColType::U64),
        ("files", ColType::U64),
    ])
}

fn dedup_schema() -> Schema {
    Schema::new(&[
        ("layers", ColType::U64),
        ("uniqueObjects", ColType::U64),
        ("physicalBytes", ColType::U64),
        ("logicalBytes", ColType::U64),
        ("conventionalBytes", ColType::U64),
        ("factor", ColType::F64),
    ])
}

fn study_schema() -> Schema {
    Schema::new(&[("key", ColType::Str), ("value", ColType::U64)])
}

fn table(schema: Schema, cols: Vec<Column>) -> Table {
    Table::from_columns(schema, cols).expect("columns built to the schema")
}

impl StudyDb {
    /// Builds the tables from one pipeline run plus the dedup store's
    /// aggregate stats.
    pub fn build(data: &StudyData, store: &StoreStats) -> StudyDb {
        let layers_in = data.layer_slice();
        let u64s = |f: fn(&_) -> u64| Column::U64(layers_in.iter().map(f).collect());
        let layers = table(
            layers_schema(),
            vec![
                Column::Str(layers_in.iter().map(|p| hex_of(&p.digest)).collect()),
                u64s(|p| p.cls),
                u64s(|p| p.fls),
                u64s(|p| p.file_count),
                u64s(|p| p.dir_count),
                u64s(|p| p.max_depth),
            ],
        );

        let nfiles: usize = layers_in.iter().map(|p| p.files.len()).sum();
        let mut layer = Vec::with_capacity(nfiles);
        let mut kind = Vec::with_capacity(nfiles);
        let mut group = StrColumn::with_capacity(nfiles, 0);
        let mut size = Vec::with_capacity(nfiles);
        for (row, p) in layers_in.iter().enumerate() {
            for f in &p.files {
                layer.push(row as u64);
                kind.push(f.kind.index() as u64);
                group.push(f.kind.group().label());
                size.push(f.size);
            }
        }
        let files = table(
            files_schema(),
            vec![
                Column::U64(layer),
                Column::U64(kind),
                Column::Str(group),
                Column::U64(size),
            ],
        );

        let imgs = &data.images;
        let u64s = |f: fn(&_) -> u64| Column::U64(imgs.iter().map(f).collect());
        let images = table(
            images_schema(),
            vec![
                Column::Str(imgs.iter().map(|img| img.repo.to_string()).collect()),
                Column::Str(imgs.iter().map(|img| hex_of(&img.manifest_digest)).collect()),
                u64s(|img| img.layer_count() as u64),
                u64s(|img| img.fis),
                u64s(|img| img.cis),
                u64s(|img| img.file_count),
            ],
        );

        let dedup = table(
            dedup_schema(),
            vec![
                Column::U64(vec![store.layers as u64]),
                Column::U64(vec![store.unique_objects as u64]),
                Column::U64(vec![store.physical_bytes]),
                Column::U64(vec![store.logical_bytes]),
                Column::U64(vec![store.conventional_bytes]),
                Column::F64(vec![store.dedup_factor()]),
            ],
        );

        // Table-1 counters, keyed by the human label `summary` prints.
        let total_files: u64 = layers_in.iter().map(|l| l.file_count).sum();
        let layer_bytes: u64 = layers_in.iter().map(|l| l.cls).sum();
        let rows: [(&str, u64); 14] = [
            ("search results (raw)", data.crawl.raw_results as u64),
            ("distinct repositories", data.crawl.distinct_repos as u64),
            ("images downloaded", data.download.images_downloaded as u64),
            ("images failed", data.download.failures() as u64),
            ("failed: auth required", data.download.failed_auth as u64),
            ("failed: no latest tag", data.download.failed_no_latest as u64),
            ("unique compressed layers", data.download.unique_layers as u64),
            ("layer fetches skipped", data.download.layer_fetches_skipped),
            ("files analyzed", total_files),
            ("layer bytes analyzed", layer_bytes),
            ("compressed bytes fetched", data.download.bytes_fetched),
            ("analyze errors", data.analyze_errors as u64),
            ("size scale", data.size_scale),
            ("seed", data.seed),
        ];
        let study = table(
            study_schema(),
            vec![
                Column::Str(rows.iter().map(|(k, _)| k).collect()),
                Column::U64(rows.iter().map(|(_, v)| *v).collect()),
            ],
        );

        StudyDb { layers, files, images, dedup, study }
    }

    fn table_path(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.tbl"))
    }

    /// Publishes all five tables under `dir` (created if needed).
    pub fn save(&self, dir: &Path, publisher: &Publisher) -> Result<(), PersistError> {
        std::fs::create_dir_all(dir)?;
        dhub_persist::fsync_dir(dir.parent().unwrap_or(dir))?;
        for (name, table) in [
            ("layers", &self.layers),
            ("files", &self.files),
            ("images", &self.images),
            ("dedup", &self.dedup),
            ("study", &self.study),
        ] {
            table.save(&Self::table_path(dir, name), publisher)?;
        }
        Ok(())
    }

    /// Loads all five tables from `dir`. A table that is not the one its
    /// builder writes — another schema, a `dedup` table without exactly
    /// one row, or a `files` row whose layer or kind index points past its
    /// table — is [`PersistError::Torn`], so the queries never meet one.
    pub fn load(dir: &Path) -> Result<StudyDb, PersistError> {
        let load = |name: &str, schema: Schema, rows: Option<usize>| {
            let path = Self::table_path(dir, name);
            let table = Table::load(&path)?;
            if table.schema() != &schema || rows.is_some_and(|n| n != table.len()) {
                return Err(PersistError::Torn(path));
            }
            Ok(table)
        };
        let layers = load("layers", layers_schema(), None)?;
        let files = load("files", files_schema(), None)?;
        let below = |col: &str, n: usize| {
            files.col_u64(col).expect("files table column").iter().all(|&i| i < n as u64)
        };
        if !below("layer", layers.len()) || !below("kind", FileKind::COUNT) {
            return Err(PersistError::Torn(Self::table_path(dir, "files")));
        }
        Ok(StudyDb {
            layers,
            files,
            images: load("images", images_schema(), None)?,
            dedup: load("dedup", dedup_schema(), Some(1))?,
            study: load("study", study_schema(), None)?,
        })
    }

    /// The persisted dedup factor (bit-exact: the f64 column stores raw
    /// bits).
    pub fn dedup_factor(&self) -> f64 {
        self.dedup.col_f64("factor").map(|c| c[0]).unwrap_or(1.0)
    }

    /// Table-1-style summary lines, rebuilt purely from persisted rows —
    /// the `dhub query summary` payload.
    pub fn summary(&self) -> Vec<String> {
        let keys = self.study.col_str("key").expect("study table has key column");
        let values = self.study.col_u64("value").expect("study table has value column");
        let mut rows: Vec<String> = keys
            .iter()
            .zip(values)
            .map(|(k, v)| format!("{k:28}: {v}"))
            .collect();
        rows.push(format!("{:28}: {}", "empty layers", self.empty_layers()));
        rows.push(format!("{:28}: {:.6}x", "dedup factor", self.dedup_factor()));
        rows
    }

    /// Dedup-store lines for `dhub query dedup`.
    pub fn dedup_summary(&self) -> Vec<String> {
        let col = |n: &str| self.dedup.col_u64(n).expect("dedup table column")[0];
        vec![
            format!("{:20}: {}", "layers", col("layers")),
            format!("{:20}: {}", "unique objects", col("uniqueObjects")),
            format!("{:20}: {}", "physical bytes", col("physicalBytes")),
            format!("{:20}: {}", "logical bytes", col("logicalBytes")),
            format!("{:20}: {}", "conventional bytes", col("conventionalBytes")),
            format!("{:20}: {:.6}x", "dedup factor", self.dedup_factor()),
        ]
    }

    /// Layers holding no regular files, via predicate pushdown on the
    /// `files` count column.
    fn empty_layers(&self) -> usize {
        self.layers
            .scan(&[Predicate::U64Eq("files".to_string(), 0)])
            .map(|rows| rows.len())
            .unwrap_or(0)
    }

    /// Top `n` file types by count ([`top_types`] over the `files` table).
    pub fn top_file_types(&self, n: usize) -> Vec<(String, u64, u64)> {
        let kinds = self.files.col_u64("kind").expect("files table has kind column");
        let sizes = self.files.col_u64("size").expect("files table has size column");
        // In range: `load` checked every index, and `build` wrote them.
        let kinds = kinds.iter().map(|&k| FileKind::ALL[k as usize]);
        top_types(kinds.zip(sizes.iter().copied()), n)
    }

    /// Compressed-layer-size percentiles ([`size_percentiles`] over the
    /// `layers` table's `cls` column) for `dhub query layer-percentiles`.
    pub fn layer_size_percentiles(&self) -> Vec<(&'static str, u64)> {
        let mut cls: Vec<u64> =
            self.layers.col_u64("cls").expect("layers table has cls column").to_vec();
        cls.sort_unstable();
        size_percentiles(&cls)
    }
}

/// Top `n` file types by count over `(kind, size)` pairs, one per file:
/// `(kind label, files, bytes)`, count descending, label ascending on
/// ties. Shared by [`StudyDb::top_file_types`] and `dhub query`'s
/// replayed-recipe fallback, so both answer with the same rows.
pub fn top_types(
    files: impl IntoIterator<Item = (FileKind, u64)>,
    n: usize,
) -> Vec<(String, u64, u64)> {
    let mut agg = [(0u64, 0u64); FileKind::COUNT];
    for (k, s) in files {
        let e = &mut agg[k.index()];
        e.0 += 1;
        e.1 += s;
    }
    let mut rows: Vec<(&str, u64, u64)> = FileKind::ALL
        .iter()
        .zip(agg)
        .filter(|(_, (c, _))| *c > 0)
        .map(|(k, (c, b))| (k.label(), c, b))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    rows.truncate(n);
    rows.into_iter().map(|(k, c, b)| (k.to_string(), c, b)).collect()
}

/// Nearest-rank p10 … p99 of an ascending-sorted slice (all 0 when empty).
pub fn size_percentiles(sorted: &[u64]) -> Vec<(&'static str, u64)> {
    [("p10", 0.10), ("p25", 0.25), ("p50", 0.50), ("p75", 0.75), ("p90", 0.90), ("p99", 0.99)]
        .into_iter()
        .map(|(label, p)| (label, dhub_stats::nearest_rank(sorted, p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_study_store_obs;
    use dhub_faults::RetryPolicy;
    use dhub_obs::MetricsRegistry;
    use dhub_synth::{generate_hub, SynthConfig};

    fn built() -> StudyDb {
        let hub = generate_hub(&SynthConfig::tiny(31).with_repos(30));
        let store = dhub_dedupstore::DedupStore::new();
        let data =
            run_study_store_obs(&hub, 2, &RetryPolicy::default(), &store, &MetricsRegistry::new());
        StudyDb::build(&data, &store.stats())
    }

    #[test]
    fn build_is_deterministic_and_roundtrips() {
        let a = built();
        let b = built();
        for (ta, tb) in [
            (&a.layers, &b.layers),
            (&a.files, &b.files),
            (&a.images, &b.images),
            (&a.dedup, &b.dedup),
            (&a.study, &b.study),
        ] {
            assert_eq!(ta.to_bytes(), tb.to_bytes(), "tables must serialize identically");
        }

        let dir = std::env::temp_dir().join(format!("dhub-studydb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        a.save(&dir, &Publisher::new()).unwrap();
        let loaded = StudyDb::load(&dir).unwrap();
        assert_eq!(loaded.layers.to_bytes(), a.layers.to_bytes());
        assert_eq!(loaded.files.to_bytes(), a.files.to_bytes());
        assert_eq!(loaded.summary(), a.summary(), "query answers must survive reload");
        assert_eq!(loaded.dedup_factor().to_bits(), a.dedup_factor().to_bits());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// CRC-valid tables in the wrong places used to load and then panic in
    /// the queries; they are torn now, named by the file that is wrong.
    #[test]
    fn a_table_its_builder_did_not_write_is_torn() {
        let dir = std::env::temp_dir().join(format!("dhub-studydb-swap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        built().save(&dir, &Publisher::new()).unwrap();
        let path = |name: &str| StudyDb::table_path(&dir, name);
        let torn = |want: &str| match StudyDb::load(&dir) {
            Err(PersistError::Torn(p)) => assert_eq!(p, path(want)),
            Err(other) => panic!("expected {want} torn, got {other}"),
            Ok(_) => panic!("expected {want} torn, got tables"),
        };
        let read = |name: &str| std::fs::read(path(name)).unwrap();
        let (files, layers) = (read("files"), read("layers"));
        std::fs::write(path("files"), &layers).unwrap();
        std::fs::write(path("layers"), &files).unwrap();
        torn("layers");
        std::fs::write(path("layers"), &layers).unwrap();
        torn("files");
        std::fs::write(path("files"), &files).unwrap();
        assert!(StudyDb::load(&dir).is_ok());
        // A `files` row whose layer or kind index is past its table.
        let nlayers = StudyDb::load(&dir).unwrap().layers.len() as u64;
        for (layer, kind) in [(nlayers, 0), (0, FileKind::COUNT as u64)] {
            let cols = vec![
                Column::U64(vec![0, layer]),
                Column::U64(vec![0, kind]),
                Column::Str(["EOL", "EOL"].into_iter().collect()),
                Column::U64(vec![1, 2]),
            ];
            table(files_schema(), cols).save(&path("files"), &Publisher::new()).unwrap();
            torn("files");
        }
        std::fs::write(path("files"), &files).unwrap();
        // A `dedup` table of the right schema but no row (or two).
        for rows in [0, 2] {
            let mut cols = vec![Column::U64(vec![7; rows]); 5];
            cols.push(Column::F64(vec![1.5; rows]));
            table(dedup_schema(), cols).save(&path("dedup"), &Publisher::new()).unwrap();
            torn("dedup");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn queries_agree_with_source_data() {
        let hub = generate_hub(&SynthConfig::tiny(37).with_repos(30));
        let store = dhub_dedupstore::DedupStore::new();
        let data =
            run_study_store_obs(&hub, 2, &RetryPolicy::default(), &store, &MetricsRegistry::new());
        let db = StudyDb::build(&data, &store.stats());

        assert_eq!(db.dedup_factor().to_bits(), store.stats().dedup_factor().to_bits());
        assert_eq!(db.layers.len(), data.layers.len());
        let total_files: u64 = data.layer_slice().iter().map(|l| l.file_count).sum();
        assert_eq!(db.files.len() as u64, total_files);
        assert_eq!(db.images.len(), data.images.len());

        let empty = data.layer_slice().iter().filter(|l| l.is_empty()).count();
        assert_eq!(db.empty_layers(), empty);

        let top = db.top_file_types(5);
        assert!(!top.is_empty());
        let counted: u64 = db.top_file_types(usize::MAX).iter().map(|(_, c, _)| c).sum();
        assert_eq!(counted, total_files, "type census must cover every file");

        let pcts = db.layer_size_percentiles();
        assert_eq!(pcts.len(), 6);
        assert!(pcts.windows(2).all(|w| w[0].1 <= w[1].1), "percentiles must be monotone");
    }

    #[test]
    fn query_arithmetic_orders_ties_and_picks_nearest_rank() {
        use FileKind::{AsciiText, Elf, Png, ZipGzip};
        let files = [(Elf, 10), (AsciiText, 1), (Png, 7), (AsciiText, 2), (Elf, 5), (ZipGzip, 9)];
        let rows = top_types(files, 3);
        let row = |k: &str, c, b| (k.to_string(), c, b);
        // Count descending, then label ascending; truncated to n.
        assert_eq!(rows, vec![row("ASCII text", 2, 3), row("ELF", 2, 15), row("PNG", 1, 7)]);
        assert!(top_types([], 3).is_empty());

        let picks = |v: &[u64]| size_percentiles(v).into_iter().map(|(_, x)| x).collect::<Vec<_>>();
        assert_eq!(picks(&[]), [0; 6]);
        assert_eq!(picks(&[7]), [7; 6]);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(picks(&hundred), [10, 25, 50, 75, 90, 99]);
    }
}
