//! One renderer per paper artifact (Table 1, Figs. 3–29).
//!
//! Every function takes a [`StudyView`] of the pipeline's [`StudyData`] and
//! returns a [`FigureReport`]: the same series the paper plots, plus
//! paper-vs-measured anchors. Size-valued measurements are rescaled by
//! `size_scale` back to paper units before comparison.

mod dedup;
mod files;
mod images;
mod layers;

pub use dedup::{fig23, fig24, fig25, fig26, fig27, fig28, fig29, table2};
pub use files::{fig13, fig14, fig15, fig16, fig17, fig18, fig19, fig20, fig21, fig22};
pub use images::{fig08, fig09, fig10, fig11, fig12};
pub use layers::{fig03, fig04, fig05, fig06, fig07};

use crate::pipeline::StudyData;
use crate::report::{Anchor, FigureReport};
use dhub_dedup::{FileDedupStats, FileIndex, ImageIndex};
use dhub_model::LayerProfile;
use std::sync::OnceLock;

/// What the figures read besides [`StudyData`] itself, each derived once:
/// the sorted layer slice, the content index over it with its per-kind
/// census (Figs. 13–29 and Table 2), the headline stats folded from it
/// (Figs. 24, 27 and Table 2) and, on first use, the image index (Fig. 26
/// and Ext. C1).
pub struct StudyView<'a> {
    pub data: &'a StudyData,
    /// Unique layer profiles, sorted by digest.
    pub layers: Vec<&'a LayerProfile>,
    pub files: FileIndex,
    pub stats: FileDedupStats,
    image_index: OnceLock<ImageIndex>,
}

impl<'a> StudyView<'a> {
    /// Derives the view in one pass over the layers. The image index waits
    /// for its first reader, so a view that renders only the tables never
    /// builds it.
    pub fn new(data: &'a StudyData) -> StudyView<'a> {
        let layers = data.layer_slice();
        let files = FileIndex::build(&layers);
        let stats = files.stats();
        StudyView { data, layers, files, stats, image_index: OnceLock::new() }
    }

    /// Which images hold each unique file of `files`, with image ids
    /// indexing `data.image_layers`.
    pub fn image_index(&self) -> &ImageIndex {
        self.image_index.get_or_init(|| ImageIndex::build(&self.data.image_layers, &self.files))
    }
}

/// Table 1-style dataset summary (§III).
pub fn table1(v: &StudyView) -> FigureReport {
    let data = v.data;
    let raw = data.crawl.raw_results as f64;
    let distinct = data.crawl.distinct_repos as f64;
    let attempted = distinct;
    let ok = data.download.images_downloaded as f64;
    let failures = data.download.failures() as f64;
    let auth_share = if failures > 0.0 { data.download.failed_auth as f64 / failures } else { 0.0 };
    let layers_per_image =
        if ok > 0.0 { data.download.unique_layers as f64 / ok } else { 0.0 };
    let total_files: u64 = v.layers.iter().map(|l| l.file_count).sum();

    let rows = vec![
        format!("search results (raw)        : {}", data.crawl.raw_results),
        format!("distinct repositories       : {}", data.crawl.distinct_repos),
        format!("images downloaded           : {}", data.download.images_downloaded),
        format!("images failed               : {}", data.download.failures()),
        format!("  - auth required           : {}", data.download.failed_auth),
        format!("  - no latest tag           : {}", data.download.failed_no_latest),
        format!("unique compressed layers    : {}", data.download.unique_layers),
        format!("layer fetches skipped (dedup): {}", data.download.layer_fetches_skipped),
        format!("transient retries           : {}", data.download.retries),
        format!("  - digest-verify refetches : {}", data.download.corrupt_retries),
        format!("retry give-ups              : {}", data.download.gave_up),
        format!("files analyzed              : {total_files}"),
        format!("layer bytes analyzed        : {}", v.layers.iter().map(|l| l.cls).sum::<u64>()),
        format!(
            "compressed bytes (paper-scale): {:.1} GB",
            data.download.bytes_fetched as f64 * data.size_scale as f64 / 1e9
        ),
    ];
    FigureReport {
        id: "Table 1",
        title: "dataset summary (§III)".into(),
        rows,
        anchors: vec![
            Anchor::new("search duplication factor", 634_412.0 / 457_627.0, raw / distinct),
            Anchor::new("downloaded fraction", 355_319.0 / 457_627.0, ok / attempted),
            Anchor::new("auth share of failures", 0.13, auth_share),
            Anchor::new("unique layers per image", 1_792_609.0 / 355_319.0, layers_per_image),
        ],
    }
}

/// All artifacts in paper order.
pub fn all_figures(data: &StudyData) -> Vec<FigureReport> {
    artifacts(&StudyView::new(data))
}

/// All artifacts in paper order, rendered from one view.
pub fn artifacts(v: &StudyView) -> Vec<FigureReport> {
    vec![
        table1(v),
        fig03(v),
        fig04(v),
        fig05(v),
        fig06(v),
        fig07(v),
        fig08(v),
        fig09(v),
        fig10(v),
        fig11(v),
        fig12(v),
        fig13(v),
        fig14(v),
        fig15(v),
        fig16(v),
        fig17(v),
        fig18(v),
        fig19(v),
        fig20(v),
        fig21(v),
        fig22(v),
        fig23(v),
        fig24(v),
        fig25(v),
        fig26(v),
        fig27(v),
        fig28(v),
        fig29(v),
        table2(v),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_study;
    use dhub_synth::{generate_hub, SynthConfig};

    #[test]
    fn new_leaves_the_image_index_unbuilt() {
        let data = run_study(&generate_hub(&SynthConfig::tiny(7).with_repos(12)), 2);
        let v = StudyView::new(&data);
        assert!(v.image_index.get().is_none(), "StudyView::new built the image index");
        table1(&v);
        table2(&v);
        assert!(v.image_index.get().is_none(), "the tables built the image index");
        fig26(&v);
        assert!(v.image_index.get().is_some());
    }
}
