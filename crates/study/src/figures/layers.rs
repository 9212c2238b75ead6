//! Layer characterization figures (Figs. 3–7, §IV-A).

use super::StudyView;
use crate::report::{cdf_rows, Anchor, FigureReport};
use dhub_stats::{Ecdf, Histogram, LogHistogram};

/// Fig. 3 — layer size distribution (CLS and FLS).
pub fn fig03(v: &StudyView) -> FigureReport {
    let scale = v.data.size_scale as f64;
    let cls = Ecdf::new(v.layers.iter().map(|l| l.cls as f64 * scale).collect());
    let fls = Ecdf::new(v.layers.iter().map(|l| l.fls as f64 * scale).collect());

    let mut rows = cdf_rows(&cls, "CLS(B)");
    rows.extend(cdf_rows(&fls, "FLS(B)"));
    // Fig. 3b: frequencies in the 0–128 MB range (paper-scale), log bins.
    let mut hist = LogHistogram::new();
    for l in &v.layers {
        hist.record((l.cls as f64 * scale) as u64);
    }
    rows.extend(
        hist.rows().iter().map(|(lo, hi, c)| format!("CLS bin [{lo}, {hi}) : {c} layers")),
    );

    FigureReport {
        id: "Fig. 3",
        title: "layer size distribution (CLS, FLS)".into(),
        rows,
        anchors: vec![
            Anchor::new("median FLS (bytes)", 4.0e6, fls.median()),
            Anchor::new("p90 FLS (bytes)", 177.0e6, fls.quantile(0.9)),
            Anchor::new("median CLS (bytes)", 4.0e6, cls.median()),
            Anchor::new("p90 CLS (bytes)", 63.0e6, cls.quantile(0.9)),
        ],
    }
}

/// Fig. 4 — FLS-to-CLS compression ratio.
pub fn fig04(v: &StudyView) -> FigureReport {
    // The paper computes the ratio per layer; layers with no file bytes
    // have no meaningful ratio and are excluded from the ratio CDF.
    let ratios: Vec<f64> = v
        .layers
        .iter()
        .filter(|l| l.fls > 0)
        .map(|l| l.compression_ratio())
        .collect();
    let e = Ecdf::new(ratios);
    let mut rows = cdf_rows(&e, "FLS/CLS");
    let mut hist = Histogram::new(0.0, 10.0, 10);
    hist.extend(e.samples().iter().copied());
    rows.extend(hist.rows().iter().map(|(lo, hi, c)| format!("ratio [{lo:.0},{hi:.0}) : {c} layers")));

    FigureReport {
        id: "Fig. 4",
        title: "layer compression ratio (FLS-to-CLS)".into(),
        rows,
        anchors: vec![
            Anchor::new("median compression ratio", 2.6, e.median()),
            Anchor::new("p90 compression ratio", 4.0, e.quantile(0.9)),
            Anchor::new("max compression ratio", 1026.0, e.max()),
        ],
    }
}

/// Fig. 5 — file count per layer.
pub fn fig05(v: &StudyView) -> FigureReport {
    let e = Ecdf::from_u64(v.layers.iter().map(|l| l.file_count));
    let zero = v.layers.iter().filter(|l| l.file_count == 0).count() as f64 / v.layers.len() as f64;
    let one = v.layers.iter().filter(|l| l.file_count == 1).count() as f64 / v.layers.len() as f64;

    FigureReport {
        id: "Fig. 5",
        title: "files per layer".into(),
        rows: cdf_rows(&e, "files"),
        anchors: vec![
            Anchor::new("median files per layer", 30.0, e.median()),
            Anchor::new("p90 files per layer", 7410.0, e.quantile(0.9)),
            Anchor::new("fraction of single-file layers", 0.27, one),
            Anchor::new("fraction of empty layers", 0.07, zero),
            Anchor::new("max files in a layer", 826_196.0, e.max()),
        ],
    }
}

/// Fig. 6 — directory count per layer.
pub fn fig06(v: &StudyView) -> FigureReport {
    // The paper reports a minimum of one directory; its analyzer counts
    // the layer root. Skip fully empty layers for the minimum anchor.
    let e = Ecdf::from_u64(v.layers.iter().map(|l| l.dir_count));
    let nonempty_min = v.layers.iter().map(|l| l.dir_count).filter(|&d| d > 0).min().unwrap_or(0);

    FigureReport {
        id: "Fig. 6",
        title: "directories per layer".into(),
        rows: cdf_rows(&e, "dirs"),
        anchors: vec![
            Anchor::new("median dirs per layer", 11.0, e.median()),
            Anchor::new("p90 dirs per layer", 826.0, e.quantile(0.9)),
            Anchor::new("min dirs (non-empty layers)", 1.0, nonempty_min as f64),
            Anchor::new("max dirs in a layer", 111_940.0, e.max()),
        ],
    }
}

/// Fig. 7 — maximum directory depth per layer.
pub fn fig07(v: &StudyView) -> FigureReport {
    let depths: Vec<u64> = v.layers.iter().filter(|l| l.dir_count > 0).map(|l| l.max_depth).collect();
    let e = Ecdf::from_u64(depths.iter().copied());
    let mut hist = Histogram::new(0.0, 16.0, 16);
    hist.extend(depths.iter().map(|&d| d as f64));
    let mode = hist.mode_bin().map(|(_, lo)| lo).unwrap_or(0.0);

    let mut rows = cdf_rows(&e, "depth");
    rows.extend(
        hist.rows()
            .iter()
            .filter(|(_, _, c)| *c > 0)
            .map(|(lo, _, c)| format!("depth {lo:.0} : {c} layers")),
    );

    FigureReport {
        id: "Fig. 7",
        title: "layer directory depth".into(),
        rows,
        anchors: vec![
            Anchor::new("median max depth", 4.0, e.median()),
            Anchor::new("p90 max depth", 10.0, e.quantile(0.9)),
            Anchor::new("modal depth", 3.0, mode),
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
            let hub = generate_hub(&SynthConfig::default_scale(21).with_repos(60));
            run_study(&hub, 4)
        })))
    }

    #[test]
    fn fig03_has_both_series() {
        let f = fig03(view());
        assert!(f.rows.iter().any(|r| r.contains("CLS")));
        assert!(f.rows.iter().any(|r| r.contains("FLS")));
        assert_eq!(f.anchors.len(), 4);
        assert!(f.anchors[0].measured > 0.0);
    }

    #[test]
    fn fig04_ratios_positive() {
        let f = fig04(view());
        let median = &f.anchors[0];
        assert!(median.measured > 0.8, "median ratio {}", median.measured);
        assert!(median.measured < 20.0);
    }

    #[test]
    fn fig05_fractions_sane() {
        let f = fig05(view());
        let one = f.anchors.iter().find(|a| a.name.contains("single-file")).unwrap();
        assert!((0.1..0.45).contains(&one.measured), "single-file {}", one.measured);
        let zero = f.anchors.iter().find(|a| a.name.contains("empty")).unwrap();
        assert!(zero.measured < 0.2);
    }

    #[test]
    fn fig06_min_dirs_is_one() {
        let f = fig06(view());
        let min = f.anchors.iter().find(|a| a.name.contains("min dirs")).unwrap();
        assert_eq!(min.measured, 1.0);
    }

    #[test]
    fn fig07_mode_near_three() {
        let f = fig07(view());
        let mode = f.anchors.iter().find(|a| a.name.contains("modal")).unwrap();
        assert!((2.0..=5.0).contains(&mode.measured), "mode {}", mode.measured);
    }

    #[test]
    fn reports_render() {
        for f in [fig03(view()), fig04(view()), fig05(view()), fig06(view()), fig07(view())] {
            let text = f.render();
            assert!(text.contains(f.id));
            assert!(text.contains("anchors"));
        }
    }
}
