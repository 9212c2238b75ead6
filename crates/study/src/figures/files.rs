//! File characterization figures (Figs. 13–22, §IV-C).

use super::StudyView;
use crate::report::{Anchor, FigureReport};
use dhub_dedup::TypeCensus;
use dhub_model::{FileKind, TypeGroup};

fn group_breakdown_rows(census: &TypeCensus, group: TypeGroup, scale: u64) -> Vec<String> {
    TypeCensus::kinds_of(group)
        .into_iter()
        .filter(|&k| census.count(k) > 0)
        .map(|k| {
            format!(
                "{:<16} count {:>6.1} %  capacity {:>6.1} %  avg {:>12.0} B",
                k.label(),
                census.kind_count_share_in_group(k) * 100.0,
                census.kind_capacity_share_in_group(k) * 100.0,
                census.kind_avg_size(k, scale)
            )
        })
        .collect()
}

/// Fig. 13 — the three-level type taxonomy.
pub fn fig13(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    let mut rows = vec!["level 1: commonly used file types (everything generated)".to_string()];
    for g in TypeGroup::ALL {
        let (c, b) = census.group_totals(g);
        rows.push(format!("level 2: {:<6} — {} files, {} bytes", g.label(), c, b));
        for k in TypeCensus::kinds_of(g) {
            if census.count(k) > 0 {
                rows.push(format!("  level 3: {:<18} {} files", k.label(), census.count(k)));
            }
        }
    }
    let populated = TypeGroup::ALL.iter().filter(|&&g| census.group_totals(g).0 > 0).count();
    FigureReport {
        id: "Fig. 13",
        title: "taxonomy of file types".into(),
        rows,
        anchors: vec![Anchor::new("populated type groups", 8.0, populated as f64)],
    }
}

/// Fig. 14 — file count % and capacity % by type group.
pub fn fig14(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    let rows = TypeGroup::ALL
        .iter()
        .map(|&g| {
            format!(
                "{:<6} count {:>5.1} %   capacity {:>5.1} %",
                g.label(),
                census.group_count_share(g) * 100.0,
                census.group_capacity_share(g) * 100.0
            )
        })
        .collect();
    FigureReport {
        id: "Fig. 14",
        title: "file count and capacity by type group".into(),
        rows,
        anchors: vec![
            Anchor::new("documents count share", 0.44, census.group_count_share(TypeGroup::Documents)),
            Anchor::new("source count share", 0.13, census.group_count_share(TypeGroup::SourceCode)),
            Anchor::new("EOL count share", 0.11, census.group_count_share(TypeGroup::Eol)),
            Anchor::new("scripts count share", 0.09, census.group_count_share(TypeGroup::Scripts)),
            Anchor::new("image-data count share", 0.04, census.group_count_share(TypeGroup::ImageData)),
            Anchor::new("EOL capacity share", 0.37, census.group_capacity_share(TypeGroup::Eol)),
            Anchor::new("archival capacity share", 0.23, census.group_capacity_share(TypeGroup::Archival)),
            Anchor::new("documents capacity share", 0.14, census.group_capacity_share(TypeGroup::Documents)),
        ],
    }
}

/// Fig. 15 — average file size by type group.
pub fn fig15(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    let rows = TypeGroup::ALL
        .iter()
        .map(|&g| format!("{:<6} avg {:>12.0} B", g.label(), census.group_avg_size(g, v.data.size_scale)))
        .collect();
    FigureReport {
        id: "Fig. 15",
        title: "average file size by type group".into(),
        rows,
        anchors: vec![
            Anchor::new("DB avg size (bytes)", 978.8e3, census.group_avg_size(TypeGroup::Database, v.data.size_scale)),
            Anchor::new("EOL avg size (bytes)", 100.0e3, census.group_avg_size(TypeGroup::Eol, v.data.size_scale)),
            Anchor::new("archival avg size (bytes)", 100.0e3, census.group_avg_size(TypeGroup::Archival, v.data.size_scale)),
        ],
    }
}

/// Fig. 16 — EOL breakdown.
pub fn fig16(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    let ir_count: u64 = [FileKind::PythonBytecode, FileKind::JavaClass, FileKind::TerminfoCompiled]
        .iter()
        .map(|&k| census.count(k))
        .sum();
    let ir_bytes: u64 = [FileKind::PythonBytecode, FileKind::JavaClass, FileKind::TerminfoCompiled]
        .iter()
        .map(|&k| census.bytes(k))
        .sum();
    let (eol_count, _) = census.group_totals(TypeGroup::Eol);
    FigureReport {
        id: "Fig. 16",
        title: "EOL files (executables, object code, libraries)".into(),
        rows: group_breakdown_rows(census, TypeGroup::Eol, v.data.size_scale),
        anchors: vec![
            Anchor::new("ELF count share of EOL", 0.30, census.kind_count_share_in_group(FileKind::Elf)),
            Anchor::new("IR count share of EOL", 0.64, ir_count as f64 / eol_count.max(1) as f64),
            Anchor::new("ELF capacity share of EOL", 0.84, census.kind_capacity_share_in_group(FileKind::Elf)),
            Anchor::new("avg ELF size (bytes)", 312.0e3, census.kind_avg_size(FileKind::Elf, v.data.size_scale)),
            Anchor::new(
                "avg IR size (bytes)",
                9.0e3,
                ir_bytes as f64 * v.data.size_scale as f64 / ir_count.max(1) as f64,
            ),
        ],
    }
}

/// Fig. 17 — source code breakdown.
pub fn fig17(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    FigureReport {
        id: "Fig. 17",
        title: "source code files".into(),
        rows: group_breakdown_rows(census, TypeGroup::SourceCode, v.data.size_scale),
        anchors: vec![
            Anchor::new("C/C++ count share", 0.803, census.kind_count_share_in_group(FileKind::CSource)),
            Anchor::new("C/C++ capacity share", 0.80, census.kind_capacity_share_in_group(FileKind::CSource)),
            Anchor::new("Perl5 count share", 0.09, census.kind_count_share_in_group(FileKind::Perl5Module)),
            Anchor::new("Perl5 capacity share", 0.11, census.kind_capacity_share_in_group(FileKind::Perl5Module)),
            Anchor::new("Ruby count share", 0.08, census.kind_count_share_in_group(FileKind::RubyModule)),
            Anchor::new("Ruby capacity share", 0.03, census.kind_capacity_share_in_group(FileKind::RubyModule)),
        ],
    }
}

/// Fig. 18 — scripts breakdown.
pub fn fig18(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    FigureReport {
        id: "Fig. 18",
        title: "script files".into(),
        rows: group_breakdown_rows(census, TypeGroup::Scripts, v.data.size_scale),
        anchors: vec![
            Anchor::new("Python count share", 0.535, census.kind_count_share_in_group(FileKind::PythonScript)),
            Anchor::new("Python capacity share", 0.66, census.kind_capacity_share_in_group(FileKind::PythonScript)),
            Anchor::new("shell count share", 0.20, census.kind_count_share_in_group(FileKind::ShellScript)),
            Anchor::new("shell capacity share", 0.06, census.kind_capacity_share_in_group(FileKind::ShellScript)),
            Anchor::new("Ruby count share", 0.10, census.kind_count_share_in_group(FileKind::RubyScript)),
        ],
    }
}

/// Fig. 19 — documents breakdown.
pub fn fig19(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    FigureReport {
        id: "Fig. 19",
        title: "document files".into(),
        rows: group_breakdown_rows(census, TypeGroup::Documents, v.data.size_scale),
        anchors: vec![
            Anchor::new("ASCII count share", 0.80, census.kind_count_share_in_group(FileKind::AsciiText)),
            Anchor::new("UTF-8 count share", 0.05, census.kind_count_share_in_group(FileKind::Utf8Text)),
            Anchor::new("XML/HTML count share", 0.13, census.kind_count_share_in_group(FileKind::XmlHtml)),
            Anchor::new("XML/HTML capacity share", 0.18, census.kind_capacity_share_in_group(FileKind::XmlHtml)),
        ],
    }
}

/// Fig. 20 — archival breakdown.
pub fn fig20(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    FigureReport {
        id: "Fig. 20",
        title: "archival files".into(),
        rows: group_breakdown_rows(census, TypeGroup::Archival, v.data.size_scale),
        anchors: vec![
            Anchor::new("zip/gzip count share", 0.963, census.kind_count_share_in_group(FileKind::ZipGzip)),
            Anchor::new("zip/gzip capacity share", 0.70, census.kind_capacity_share_in_group(FileKind::ZipGzip)),
            Anchor::new("avg zip/gzip size (bytes)", 67.0e3, census.kind_avg_size(FileKind::ZipGzip, v.data.size_scale)),
            Anchor::new("avg bzip2 size (bytes)", 199.0e3, census.kind_avg_size(FileKind::Bzip2, v.data.size_scale)),
            Anchor::new("avg tar size (bytes)", 466.0e3, census.kind_avg_size(FileKind::TarArchive, v.data.size_scale)),
            Anchor::new("avg xz size (bytes)", 534.0e3, census.kind_avg_size(FileKind::XzArchive, v.data.size_scale)),
        ],
    }
}

/// Fig. 21 — database breakdown.
pub fn fig21(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    FigureReport {
        id: "Fig. 21",
        title: "database files".into(),
        rows: group_breakdown_rows(census, TypeGroup::Database, v.data.size_scale),
        anchors: vec![
            Anchor::new("BerkeleyDB count share", 0.33, census.kind_count_share_in_group(FileKind::BerkeleyDb)),
            Anchor::new("MySQL count share", 0.30, census.kind_count_share_in_group(FileKind::MysqlDb)),
            Anchor::new("SQLite count share", 0.07, census.kind_count_share_in_group(FileKind::SqliteDb)),
            Anchor::new("SQLite capacity share", 0.57, census.kind_capacity_share_in_group(FileKind::SqliteDb)),
        ],
    }
}

/// Fig. 22 — image-data breakdown.
pub fn fig22(v: &StudyView) -> FigureReport {
    let census = v.files.census();
    FigureReport {
        id: "Fig. 22",
        title: "image data files".into(),
        rows: group_breakdown_rows(census, TypeGroup::ImageData, v.data.size_scale),
        anchors: vec![
            Anchor::new("PNG count share", 0.67, census.kind_count_share_in_group(FileKind::Png)),
            Anchor::new("PNG capacity share", 0.45, census.kind_capacity_share_in_group(FileKind::Png)),
            Anchor::new("JPEG capacity share", 0.20, census.kind_capacity_share_in_group(FileKind::Jpeg)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_study, StudyData};
    use dhub_synth::{generate_hub, SynthConfig};
    use std::sync::OnceLock;

    fn view() -> &'static StudyView<'static> {
        static DATA: OnceLock<StudyData> = OnceLock::new();
        static VIEW: OnceLock<StudyView<'static>> = OnceLock::new();
        VIEW.get_or_init(|| StudyView::new(DATA.get_or_init(|| {
            let hub = generate_hub(&SynthConfig::default_scale(23).with_repos(70));
            run_study(&hub, 4)
        })))
    }

    #[test]
    fn census_totals_match_layer_counts() {
        let v = view();
        let files: u64 = v.layers.iter().map(|l| l.file_count).sum();
        assert_eq!(v.files.census().total_count(), files);
        let bytes: u64 = v.layers.iter().map(|l| l.fls).sum();
        let census_bytes: u64 = TypeGroup::ALL.iter().map(|&g| v.files.census().group_totals(g).1).sum();
        assert_eq!(census_bytes, bytes);
    }

    #[test]
    fn fig14_group_shares_in_band() {
        let f = fig14(view());
        let doc = f.anchors.iter().find(|a| a.name.contains("documents count")).unwrap();
        assert!((0.30..0.55).contains(&doc.measured), "doc share {}", doc.measured);
        let eol = f.anchors.iter().find(|a| a.name.contains("EOL count")).unwrap();
        assert!((0.05..0.20).contains(&eol.measured), "eol share {}", eol.measured);
        // Shares sum to ~1 across groups.
        let total: f64 = TypeGroup::ALL.iter().map(|&g| view().files.census().group_count_share(g)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig16_elf_dominates_eol_capacity() {
        let f = fig16(view());
        let cap = f.anchors.iter().find(|a| a.name.contains("ELF capacity")).unwrap();
        assert!(cap.measured > 0.5, "ELF capacity share {}", cap.measured);
        let ir = f.anchors.iter().find(|a| a.name.contains("IR count")).unwrap();
        assert!(ir.measured > 0.4, "IR count share {}", ir.measured);
    }

    #[test]
    fn fig17_c_dominates_source() {
        let f = fig17(view());
        assert!(f.anchors[0].measured > 0.6, "C share {}", f.anchors[0].measured);
    }

    #[test]
    fn fig20_zip_dominates_archival() {
        let f = fig20(view());
        assert!(f.anchors[0].measured > 0.85);
    }

    #[test]
    fn fig21_sqlite_capacity_heavy() {
        let f = fig21(view());
        let cap = f.anchors.iter().find(|a| a.name.contains("SQLite capacity")).unwrap();
        let cnt = f.anchors.iter().find(|a| a.name.contains("SQLite count")).unwrap();
        assert!(cap.measured > cnt.measured, "sqlite capacity {} vs count {}", cap.measured, cnt.measured);
    }

    #[test]
    fn fig13_all_groups_populated() {
        let f = fig13(view());
        assert_eq!(f.anchors[0].measured, 8.0);
    }

    #[test]
    fn all_file_figures_render() {
        let d = view();
        for f in [fig13(d), fig14(d), fig15(d), fig16(d), fig17(d), fig18(d), fig19(d), fig20(d), fig21(d), fig22(d)] {
            assert!(!f.rows.is_empty(), "{} has no rows", f.id);
            assert!(!f.render().is_empty());
        }
    }
}
