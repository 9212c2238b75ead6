//! Image characterization figures (Figs. 8–12, §IV-B).

use super::StudyView;
use crate::report::{cdf_rows, Anchor, FigureReport};
use dhub_stats::{Ecdf, Histogram, LogHistogram};

/// Fig. 8 — repository popularity (pull counts).
pub fn fig08(v: &StudyView) -> FigureReport {
    let pulls: Vec<u64> = v.data.pulls.iter().map(|(_, c)| *c).collect();
    let e = Ecdf::from_u64(pulls.iter().copied());
    let mut rows = cdf_rows(&e, "pulls");

    // Fig. 8b: linear-binned histogram over the low range where the twin
    // peaks live.
    let mut hist = Histogram::new(0.0, 120.0, 40);
    hist.extend(pulls.iter().map(|&p| p as f64));
    rows.extend(
        hist.rows()
            .iter()
            .filter(|(_, _, c)| *c > 0)
            .map(|(lo, hi, c)| format!("pulls [{lo:.0},{hi:.0}) : {c} repos")),
    );
    let top: Vec<String> = v
        .data
        .pulls
        .iter()
        .filter(|(_, c)| *c > 1_000_000)
        .map(|(r, c)| format!("top repo {} : {} pulls", r, c))
        .collect();
    rows.extend(top);
    // Skew summary: Gini + the Lorenz knee (what the caching argument rests on).
    let raw: Vec<f64> = pulls.iter().map(|&p| p as f64).collect();
    rows.push(format!("pull-count gini = {:.3}", dhub_stats::gini(&raw)));
    for (p, m) in dhub_stats::lorenz_curve(&raw, 5) {
        rows.push(format!("lorenz: bottom {:>3.0} % of repos hold {:>5.2} % of pulls", p * 100.0, m * 100.0));
    }

    FigureReport {
        id: "Fig. 8",
        title: "repository popularity (pull counts)".into(),
        rows,
        anchors: vec![
            Anchor::new("median pulls", 40.0, e.median()),
            Anchor::new("p90 pulls", 333.0, e.quantile(0.9)),
            Anchor::new("max pulls (nginx)", 650.0e6, e.max()),
        ],
    }
}

/// Fig. 9 — image size distribution (CIS, FIS).
pub fn fig09(v: &StudyView) -> FigureReport {
    let scale = v.data.size_scale as f64;
    let cis = Ecdf::new(v.data.images.iter().map(|i| i.cis as f64 * scale).collect());
    let fis = Ecdf::new(v.data.images.iter().map(|i| i.fis as f64 * scale).collect());
    let mut rows = cdf_rows(&cis, "CIS(B)");
    rows.extend(cdf_rows(&fis, "FIS(B)"));

    FigureReport {
        id: "Fig. 9",
        title: "image size distribution (CIS, FIS)".into(),
        rows,
        anchors: vec![
            Anchor::new("median CIS (bytes)", 17.0e6, cis.median()),
            Anchor::new("p90 CIS (bytes)", 0.48e9, cis.quantile(0.9)),
            Anchor::new("median FIS (bytes)", 94.0e6, fis.median()),
            Anchor::new("p90 FIS (bytes)", 1.3e9, fis.quantile(0.9)),
        ],
    }
}

/// Fig. 10 — layers per image.
pub fn fig10(v: &StudyView) -> FigureReport {
    let counts: Vec<u64> = v.data.images.iter().map(|i| i.layer_count() as u64).collect();
    let e = Ecdf::from_u64(counts.iter().copied());
    let mut freq = std::collections::BTreeMap::new();
    for &c in &counts {
        *freq.entry(c).or_insert(0u64) += 1;
    }
    let mode = freq.iter().max_by_key(|(_, &c)| c).map(|(&k, _)| k).unwrap_or(0);
    let single = counts.iter().filter(|&&c| c == 1).count() as f64 / counts.len().max(1) as f64;

    let mut rows = cdf_rows(&e, "layers");
    rows.extend(freq.iter().map(|(k, c)| format!("{k} layers : {c} images")));

    FigureReport {
        id: "Fig. 10",
        title: "layer count per image".into(),
        rows,
        anchors: vec![
            Anchor::new("median layers per image", 8.0, e.median()),
            Anchor::new("p90 layers per image", 18.0, e.quantile(0.9)),
            Anchor::new("modal layer count", 8.0, mode as f64),
            Anchor::new("single-layer image fraction", 7060.0 / 355_319.0, single),
            Anchor::new("max layers", 120.0, e.max()),
        ],
    }
}

/// Fig. 11 — directories per image.
pub fn fig11(v: &StudyView) -> FigureReport {
    let e = Ecdf::from_u64(v.data.images.iter().map(|i| i.dir_count));
    let mut rows = cdf_rows(&e, "dirs");
    let mut hist = LogHistogram::new();
    for i in &v.data.images {
        hist.record(i.dir_count);
    }
    rows.extend(hist.rows().iter().map(|(lo, hi, c)| format!("dirs [{lo},{hi}) : {c} images")));

    FigureReport {
        id: "Fig. 11",
        title: "directories per image".into(),
        rows,
        anchors: vec![
            Anchor::new("median dirs per image", 296.0, e.median()),
            Anchor::new("p90 dirs per image", 7344.0, e.quantile(0.9)),
        ],
    }
}

/// Fig. 12 — files per image.
pub fn fig12(v: &StudyView) -> FigureReport {
    let e = Ecdf::from_u64(v.data.images.iter().map(|i| i.file_count));
    FigureReport {
        id: "Fig. 12",
        title: "files per image".into(),
        rows: cdf_rows(&e, "files"),
        anchors: vec![
            Anchor::new("median files per image", 1090.0, e.median()),
            Anchor::new("p90 files per image", 64_780.0, e.quantile(0.9)),
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
            let hub = generate_hub(&SynthConfig::default_scale(22).with_repos(70));
            run_study(&hub, 4)
        })))
    }

    #[test]
    fn fig08_famous_max_reproduced() {
        let f = fig08(view());
        let max = f.anchors.iter().find(|a| a.name.contains("max")).unwrap();
        // nginx's implanted 650 M pulls (+1 for our own download).
        assert!((max.measured - 650.0e6).abs() < 100.0, "max {}", max.measured);
        assert!(f.rows.iter().any(|r| r.contains("nginx")));
    }

    #[test]
    fn fig08_median_in_band() {
        let f = fig08(view());
        let med = &f.anchors[0];
        assert!((10.0..120.0).contains(&med.measured), "median pulls {}", med.measured);
    }

    #[test]
    fn fig09_cis_below_fis() {
        let f = fig09(view());
        let cis = f.anchors.iter().find(|a| a.name.contains("median CIS")).unwrap();
        let fis = f.anchors.iter().find(|a| a.name.contains("median FIS")).unwrap();
        assert!(cis.measured < fis.measured, "compression must shrink images");
    }

    #[test]
    fn fig10_mode_and_median() {
        let f = fig10(view());
        let mode = f.anchors.iter().find(|a| a.name.contains("modal")).unwrap();
        assert!((5.0..=11.0).contains(&mode.measured), "mode {}", mode.measured);
        let med = f.anchors.iter().find(|a| a.name.contains("median")).unwrap();
        assert!((5.0..=12.0).contains(&med.measured));
    }

    #[test]
    fn fig11_fig12_positive() {
        let f11 = fig11(view());
        let f12 = fig12(view());
        assert!(f11.anchors[0].measured > 1.0);
        assert!(f12.anchors[0].measured > 10.0);
        // Images hold more files than directories.
        assert!(f12.anchors[0].measured > f11.anchors[0].measured);
    }
}
