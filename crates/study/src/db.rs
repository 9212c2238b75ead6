//! The persisted study database: typed columnar tables written next to
//! the durable dedup store, answering Table-1-style questions without
//! re-running the pipeline.
//!
//! One pipeline run writes five tables under `<store-dir>/db/`:
//!
//! | table        | one row per      | columns                                     |
//! |--------------|------------------|---------------------------------------------|
//! | `layers.tbl` | unique layer     | digest, cls, fls, files, dirs, depth        |
//! | `files.tbl`  | file in a layer  | layer, path, kind, group, size              |
//! | `images.tbl` | downloaded image | repo, manifest, layers, fis, cis, files     |
//! | `dedup.tbl`  | store (single)   | layers, objects, physical, logical, conventional, factor |
//! | `study.tbl`  | Table-1 counter  | key, value                                  |
//!
//! Rows are emitted in deterministic order (layers sorted by digest,
//! files in archive order within each layer, images sorted by repo), and
//! every numeric column round-trips bit-exactly, so two runs over the
//! same hub — or one run reloaded from disk — produce byte-identical
//! table files and byte-identical query answers.

use crate::pipeline::StudyData;
use dhub_dedupstore::StoreStats;
use dhub_persist::{hex_of, ColType, PersistError, Predicate, Publisher, Schema, Table, Value};
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
        ("layer", ColType::Str),
        ("path", ColType::Str),
        ("kind", ColType::Str),
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

impl StudyDb {
    /// Builds the tables from one pipeline run plus the dedup store's
    /// aggregate stats.
    pub fn build(data: &StudyData, store: &StoreStats) -> StudyDb {
        let mut layers = Table::new(layers_schema());
        let mut files = Table::new(files_schema());
        for p in data.layer_slice() {
            let hex = hex_of(&p.digest);
            layers
                .push_row(vec![
                    Value::Str(hex.clone()),
                    Value::U64(p.cls),
                    Value::U64(p.fls),
                    Value::U64(p.file_count),
                    Value::U64(p.dir_count),
                    Value::U64(p.max_depth),
                ])
                .expect("layers schema matches");
            for f in &p.files {
                files
                    .push_row(vec![
                        Value::Str(hex.clone()),
                        Value::Str(f.path.clone()),
                        Value::Str(f.kind.label().to_string()),
                        Value::Str(f.kind.group().label().to_string()),
                        Value::U64(f.size),
                    ])
                    .expect("files schema matches");
            }
        }

        let mut images = Table::new(images_schema());
        for img in &data.images {
            images
                .push_row(vec![
                    Value::Str(img.repo.to_string()),
                    Value::Str(hex_of(&img.manifest_digest)),
                    Value::U64(img.layer_count() as u64),
                    Value::U64(img.fis),
                    Value::U64(img.cis),
                    Value::U64(img.file_count),
                ])
                .expect("images schema matches");
        }

        let mut dedup = Table::new(dedup_schema());
        dedup
            .push_row(vec![
                Value::U64(store.layers as u64),
                Value::U64(store.unique_objects as u64),
                Value::U64(store.physical_bytes),
                Value::U64(store.logical_bytes),
                Value::U64(store.conventional_bytes),
                Value::F64(store.dedup_factor()),
            ])
            .expect("dedup schema matches");

        // Table-1 counters, keyed by the human label `summary` prints.
        let total_files: u64 = data.layer_slice().iter().map(|l| l.file_count).sum();
        let layer_bytes: u64 = data.layer_slice().iter().map(|l| l.cls).sum();
        let mut study = Table::new(study_schema());
        let rows: Vec<(&str, u64)> = vec![
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
        for (k, v) in rows {
            study
                .push_row(vec![Value::Str(k.to_string()), Value::U64(v)])
                .expect("study schema matches");
        }

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

    /// Loads all five tables from `dir`.
    pub fn load(dir: &Path) -> Result<StudyDb, PersistError> {
        Ok(StudyDb {
            layers: Table::load(&Self::table_path(dir, "layers"))?,
            files: Table::load(&Self::table_path(dir, "files"))?,
            images: Table::load(&Self::table_path(dir, "images"))?,
            dedup: Table::load(&Self::table_path(dir, "dedup"))?,
            study: Table::load(&Self::table_path(dir, "study"))?,
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
        let kinds = self.files.col_str("kind").expect("files table has kind column");
        let sizes = self.files.col_u64("size").expect("files table has size column");
        top_types(kinds.iter().map(String::as_str).zip(sizes.iter().copied()), n)
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

/// Top `n` file types by count over `(kind label, size)` pairs, one per
/// file: `(kind label, files, bytes)`, count descending, label ascending
/// on ties. Shared by [`StudyDb::top_file_types`] and `dhub query`'s
/// replayed-recipe fallback, so both answer with the same rows.
pub fn top_types<'a>(
    files: impl IntoIterator<Item = (&'a str, u64)>,
    n: usize,
) -> Vec<(String, u64, u64)> {
    let mut agg: std::collections::BTreeMap<&str, (u64, u64)> = std::collections::BTreeMap::new();
    for (k, s) in files {
        let e = agg.entry(k).or_insert((0, 0));
        e.0 += 1;
        e.1 += s;
    }
    let mut rows: Vec<(String, u64, u64)> =
        agg.into_iter().map(|(k, (c, b))| (k.to_string(), c, b)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows.truncate(n);
    rows
}

/// Nearest-rank p10 … p99 of an ascending-sorted slice (all 0 when empty).
pub fn size_percentiles(sorted: &[u64]) -> Vec<(&'static str, u64)> {
    let pick = |p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    };
    [("p10", 10.0), ("p25", 25.0), ("p50", 50.0), ("p75", 75.0), ("p90", 90.0), ("p99", 99.0)]
        .into_iter()
        .map(|(label, p)| (label, pick(p)))
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
        let files = [("ELF", 10), ("ASCII", 1), ("PNG", 7), ("ASCII", 2), ("ELF", 5), ("gzip", 9)];
        let rows = top_types(files, 3);
        let row = |k: &str, c, b| (k.to_string(), c, b);
        // Count descending, then label ascending; truncated to n.
        assert_eq!(rows, vec![row("ASCII", 2, 3), row("ELF", 2, 15), row("PNG", 1, 7)]);
        assert!(top_types([], 3).is_empty());

        let picks = |v: &[u64]| size_percentiles(v).into_iter().map(|(_, x)| x).collect::<Vec<_>>();
        assert_eq!(picks(&[]), [0; 6]);
        assert_eq!(picks(&[7]), [7; 6]);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(picks(&hundred), [10, 25, 50, 75, 90, 99]);
    }
}
