//! Carving analysis over pipeline results (extension figure C1).
//!
//! Runs the perfect-layer carving of `dhub-carve` against the measured
//! image population and sweeps the fold threshold, exposing the trade-off
//! the paper's layer-count analysis (Fig. 10) and dedup analysis (§V)
//! jointly imply: fewer bytes stored versus more layers per image. The
//! signatures are the view's image index, grouped once for every
//! threshold.

use crate::figures::StudyView;
use crate::report::{Anchor, FigureReport};
use dhub_carve::{CarveConfig, Carver};
use dhub_digest::FxHashSet;

/// Extension figure C1 — storage vs layer-count trade-off of carving.
pub fn ext_c1(v: &StudyView) -> FigureReport {
    let data = v.data;
    // The original layering stores each referenced, analyzed layer once.
    let mut seen_layers = FxHashSet::default();
    let original_bytes: u64 = (data.image_layers.iter().flat_map(|i| &i.layers))
        .filter(|ld| seen_layers.insert(**ld))
        .filter_map(|ld| data.layers.get(ld))
        .map(|lp| lp.fls)
        .sum();
    let files = v.image_index().iter(&v.files);
    let carver = Carver::new(files, data.image_layers.len(), original_bytes);

    let mut rows = Vec::new();
    let mut perfect_saving = 0.0;
    let mut perfect_layers = 0.0;
    let mut perfect_bound = 0.0;
    let original_layers = data
        .images
        .iter()
        .map(|i| i.layer_count() as f64)
        .sum::<f64>()
        / data.images.len().max(1) as f64;

    for (label, threshold) in [
        ("perfect", 0u64),
        ("fold <4KB", 4 << 10),
        ("fold <64KB", 64 << 10),
        ("fold <1MB", 1 << 20),
    ] {
        let c = carver.carve(&CarveConfig { min_group_bytes: threshold });
        rows.push(format!(
            "{label:<10} carved layers {:>7}  stored {:>13} B  saving {:>5.2}x  mean layers/image {:>7.1}  duplicated {:>12} B",
            c.groups.len(),
            c.stored_bytes,
            c.saving_factor(),
            c.mean_layers_per_image(),
            c.duplicated_bytes()
        ));
        if threshold == 0 {
            perfect_saving = c.saving_factor();
            perfect_layers = c.mean_layers_per_image();
            perfect_bound =
                if c.perfect_bytes == 0 { 1.0 } else { c.stored_bytes as f64 / c.perfect_bytes as f64 };
        }
    }
    rows.push(format!("original mean layers/image: {original_layers:.1}"));

    FigureReport {
        id: "Ext. C1",
        title: "perfect-layer carving: storage vs layer count".into(),
        rows,
        anchors: vec![
            // Perfect carving must reach the file-dedup capacity bound the
            // paper reports (our Table 2 capacity ratio at this scale).
            Anchor::new("carving saving vs capacity-dedup bound", 1.0, perfect_bound),
            Anchor::new(
                "perfect-carving layers/image vs original (>1)",
                10.0,
                if original_layers > 0.0 { perfect_layers / original_layers } else { 0.0 },
            ),
            Anchor::new("perfect carving saving factor", 5.0, perfect_saving),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_study;
    use dhub_synth::{generate_hub, SynthConfig};

    #[test]
    fn carving_on_pipeline_output() {
        let hub = generate_hub(&SynthConfig::tiny(51).with_repos(40));
        let data = run_study(&hub, 2);
        let f = ext_c1(&StudyView::new(&data));
        assert!(f.render().contains("Ext. C1"));
        // Perfect carving stores exactly the dedup bound.
        let bound = f.anchors.iter().find(|a| a.name.contains("bound")).unwrap();
        assert!((bound.measured - 1.0).abs() < 1e-9, "bound ratio {}", bound.measured);
        // Carving saves storage but costs layers/image.
        let saving = f.anchors.iter().find(|a| a.name.contains("saving factor")).unwrap();
        assert!(saving.measured > 1.0, "saving {}", saving.measured);
        let cost = f.anchors.iter().find(|a| a.name.contains("layers/image vs")).unwrap();
        assert!(cost.measured > 1.0, "carving should multiply layer counts: {}", cost.measured);
    }
}
