//! The plain study and the commands that read it: `report`, `summary`,
//! `cache-sim`, `carve`.

use super::*;
use dhub_study::figures;
use dhub_study::pipeline::{run_study_obs, StudyData};

/// The plain study (`report`, `summary`, `cache-sim`, `carve`).
fn study_for(
    args: &Parsed,
    out: &mut impl Write,
) -> Result<(SyntheticHub, StudyData, Arc<MetricsRegistry>), BoxError> {
    with_study(args, out, |env, _| {
        Ok(run_study_obs(env.hub, threads(args)?, &env.policy, env.obs))
    })
}

pub(super) fn cmd_report(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let (hub, data, obs) = study_for(args, out)?;
    let view = figures::StudyView::new(&data);
    for fig in figures::artifacts(&view) {
        writeln!(out, "{}", fig.render())?;
    }
    let repos = hub.registry.repo_names();
    let versions = dhub_study::versions::analyze_versions(&hub.registry, &repos);
    writeln!(out, "{}", dhub_study::versions::ext_v1(&versions, hub.config.size_scale).render())?;
    writeln!(out, "{}", dhub_study::latency::ext_l1(&data).render())?;
    writeln!(out, "{}", dhub_study::carving::ext_c1(&view).render())?;
    emit_metrics(args, &obs, out)
}

pub(super) fn cmd_summary(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let store_dir = args.str("store-dir", "");
    let (data, obs) = if store_dir.is_empty() {
        let (_hub, data, obs) = study_for(args, out)?;
        (data, obs)
    } else {
        let (data, _stats, obs) = durable::persistent_study_for(args, out, &store_dir)?;
        (data, obs)
    };
    let view = figures::StudyView::new(&data);
    writeln!(out, "{}", figures::table1(&view).render())?;
    writeln!(out, "{}", figures::table2(&view).render())?;
    emit_metrics(args, &obs, out)
}

pub(super) fn cmd_cache_sim(args: &Parsed, out: &mut impl Write) -> CmdResult {
    use dhub_cache::{simulate, Fifo, GreedyDualSizeFrequency, Lfu, Lru, PullTrace, TraceConfig};
    let (_hub, data, obs) = study_for(args, out)?;
    // One cache object per image: (id, popularity weight, size).
    let pulls = |repo| data.pulls.iter().find(|(r, _)| r == repo).map_or(0, |(_, c)| *c);
    let objects: Vec<(u64, f64, u64)> = (data.images.iter().enumerate())
        .map(|(i, img)| (i as u64, (pulls(&img.repo) + 1) as f64, img.cis.max(1)))
        .collect();
    let total: u64 = objects.iter().map(|&(_, _, s)| s).sum();
    let requests = args.num("requests", 100_000usize)?;
    let trace = PullTrace::from_popularity(&objects, &TraceConfig { seed: 1, requests });
    writeln!(out, "{:>12} {:>16} {:>16} {:>16} {:>16}", "cache", "LRU", "LFU", "FIFO", "GDSF")?;
    for frac in [0.02, 0.05, 0.10] {
        let cap = ((total as f64 * frac) as u64).max(1);
        let r = [
            simulate(&mut Lru::new(cap), &trace).hit_ratio(),
            simulate(&mut Lfu::new(cap), &trace).hit_ratio(),
            simulate(&mut Fifo::new(cap), &trace).hit_ratio(),
            simulate(&mut GreedyDualSizeFrequency::new(cap), &trace).hit_ratio(),
        ];
        writeln!(
            out,
            "{:>10.0}% {:>15.1}% {:>15.1}% {:>15.1}% {:>15.1}%",
            frac * 100.0,
            r[0] * 100.0,
            r[1] * 100.0,
            r[2] * 100.0,
            r[3] * 100.0
        )?;
    }
    emit_metrics(args, &obs, out)
}

pub(super) fn cmd_carve(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let (_hub, data, obs) = study_for(args, out)?;
    let view = figures::StudyView::new(&data);
    writeln!(out, "{}", dhub_study::carving::ext_c1(&view).render())?;
    emit_metrics(args, &obs, out)
}
