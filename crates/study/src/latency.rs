//! Pull-latency modeling — the paper's §VI item "analyze how layer
//! hierarchy and compression methods impact access latency", built on the
//! trade-off §IV-A identifies: compression shrinks transfers but costs
//! client-side decompression, and for the small, barely-compressible
//! layers that dominate the registry it can be a net loss.
//!
//! The model charges, per layer, network transfer (latency + size/bw via
//! [`NetworkModel`]) plus decompression at a fixed throughput; an image's
//! pull time is evaluated under two fetch schedules (the "layer hierarchy"
//! axis): sequential, and fully parallel across layers (Docker's actual
//! behaviour is bounded parallelism between these extremes).

use crate::pipeline::StudyData;
use crate::report::{Anchor, FigureReport};
use dhub_registry::NetworkModel;
use dhub_stats::Ecdf;
use std::time::Duration;

/// Cost model for a pull.
#[derive(Clone, Copy, Debug)]
struct LatencyModel {
    /// Transport characteristics.
    net: NetworkModel,
    /// Client decompression throughput (bytes/s of *compressed* input).
    inflate_bps: u64,
    /// Layers whose uncompressed size is below this are stored and
    /// transferred uncompressed (the §IV-A proposal); `0` disables it.
    uncompressed_below: u64,
}

impl LatencyModel {
    /// WAN defaults with a typical single-core gunzip rate.
    fn wan_default() -> LatencyModel {
        LatencyModel { net: NetworkModel::wan(), inflate_bps: 60_000_000, uncompressed_below: 0 }
    }

    /// Per-layer cost: `(transfer, decompress)`.
    fn layer_cost(&self, cls: u64, fls: u64) -> (Duration, Duration) {
        if self.uncompressed_below > 0 && fls < self.uncompressed_below {
            // Stored uncompressed: bigger transfer, no decompression. The
            // on-the-wire size of an uncompressed layer is its tar size,
            // approximated by FLS plus per-file framing already included
            // in FLS-adjacent accounting; FLS is the lower bound.
            (self.net.transfer_time(fls.max(cls)), Duration::ZERO)
        } else {
            (self.net.transfer_time(cls), Duration::from_secs_f64(cls as f64 / self.inflate_bps as f64))
        }
    }
}

/// Per-image pull latencies under a model. `parallel` fetches all layers
/// concurrently (cost = slowest layer); sequential sums them. Decompression
/// is serialized in both cases, as in the Docker client.
fn image_pull_latencies(data: &StudyData, model: &LatencyModel, parallel: bool) -> Vec<Duration> {
    data.images
        .iter()
        .map(|img| {
            let mut transfer_total = Duration::ZERO;
            let mut transfer_max = Duration::ZERO;
            let mut inflate_total = Duration::ZERO;
            for d in &img.layers {
                if let Some(lp) = data.layers.get(d) {
                    let (t, i) = model.layer_cost(lp.cls, lp.fls);
                    transfer_total += t;
                    transfer_max = transfer_max.max(t);
                    inflate_total += i;
                }
            }
            if parallel {
                transfer_max + inflate_total
            } else {
                transfer_total + inflate_total
            }
        })
        .collect()
}

fn median_secs(lat: &[Duration]) -> f64 {
    if lat.is_empty() {
        return 0.0;
    }
    Ecdf::new(lat.iter().map(|d| d.as_secs_f64()).collect()).median()
}

/// Extension figure L1 — pull latency under compression policies and fetch
/// schedules.
pub fn ext_l1(data: &StudyData) -> FigureReport {
    let base = LatencyModel::wan_default();
    // The §IV-A threshold proposal, expressed in generated (scaled) bytes:
    // "small" means small relative to the population, so scale the paper's
    // 4 MB intuition down by size_scale.
    let threshold = (4_000_000 / data.size_scale).max(1);
    let uncmp = LatencyModel { uncompressed_below: threshold, ..base };

    let seq = image_pull_latencies(data, &base, false);
    let par = image_pull_latencies(data, &base, true);
    let seq_uncmp = image_pull_latencies(data, &uncmp, false);

    let seq_med = median_secs(&seq);
    let par_med = median_secs(&par);
    let uncmp_med = median_secs(&seq_uncmp);

    let mut rows = crate::report::cdf_rows(
        &Ecdf::new(seq.iter().map(|d| d.as_secs_f64()).collect()),
        "pull secs (sequential, compressed)",
    );
    rows.push(format!("median sequential compressed   : {seq_med:.3}s"));
    rows.push(format!("median parallel   compressed   : {par_med:.3}s"));
    rows.push(format!("median sequential small-uncomp : {uncmp_med:.3}s (threshold {threshold} B)"));

    FigureReport {
        id: "Ext. L1",
        title: "pull latency: compression policy x fetch schedule (§VI extension)".into(),
        rows,
        anchors: vec![
            // Directional expectations from §IV-A's argument, not paper
            // measurements: parallel fetch beats sequential, and storing
            // small layers uncompressed must not hurt the median pull.
            Anchor::new("parallel/sequential median ratio (<1)", 0.6, par_med / seq_med.max(1e-12)),
            Anchor::new(
                "small-uncompressed/compressed median ratio (<=1)",
                1.0,
                uncmp_med / seq_med.max(1e-12),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_study;
    use dhub_synth::{generate_hub, SynthConfig};
    use std::sync::OnceLock;

    fn data() -> &'static StudyData {
        static DATA: OnceLock<StudyData> = OnceLock::new();
        DATA.get_or_init(|| {
            let hub = generate_hub(&SynthConfig::tiny(41).with_repos(50));
            run_study(&hub, 2)
        })
    }

    #[test]
    fn parallel_never_slower_than_sequential() {
        let m = LatencyModel::wan_default();
        let seq = image_pull_latencies(data(), &m, false);
        let par = image_pull_latencies(data(), &m, true);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert!(p <= s, "parallel {p:?} > sequential {s:?}");
        }
    }

    #[test]
    fn latency_grows_with_layer_count() {
        let m = LatencyModel::wan_default();
        let seq = image_pull_latencies(data(), &m, false);
        // An image with many layers pays at least its per-layer RTTs.
        let (idx, max_layers) = data()
            .images
            .iter()
            .enumerate()
            .map(|(i, img)| (i, img.layer_count()))
            .max_by_key(|&(_, l)| l)
            .unwrap();
        assert!(seq[idx] >= m.net.rtt * max_layers as u32);
    }

    #[test]
    fn uncompressed_small_layers_skip_inflation() {
        let base = LatencyModel::wan_default();
        let all_uncmp = LatencyModel { uncompressed_below: u64::MAX, ..base };
        // With everything uncompressed there is no decompression cost, but
        // transfers grow; both effects must be visible.
        let seq_base = image_pull_latencies(data(), &base, false);
        let seq_uncmp = image_pull_latencies(data(), &all_uncmp, false);
        let sum_base: f64 = seq_base.iter().map(|d| d.as_secs_f64()).sum();
        let sum_uncmp: f64 = seq_uncmp.iter().map(|d| d.as_secs_f64()).sum();
        assert!(sum_base > 0.0 && sum_uncmp > 0.0);
        assert!((sum_base - sum_uncmp).abs() > 1e-9, "policies must differ");
    }

    #[test]
    fn ext_l1_renders_and_parallel_wins() {
        let f = ext_l1(data());
        assert!(f.render().contains("Ext. L1"));
        let ratio = f.anchors.iter().find(|a| a.name.contains("parallel")).unwrap();
        assert!(ratio.measured <= 1.0, "parallel/seq ratio {}", ratio.measured);
    }
}
