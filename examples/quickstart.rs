//! Quickstart: generate a synthetic Docker Hub, run the full measurement
//! pipeline, and print the headline results.
//!
//! ```sh
//! cargo run --release --example quickstart [repos] [seed]
//! ```

use dhub_study::figures;
use dhub_study::run_study;
use dhub_synth::{generate_hub, SynthConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let repos: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    println!("Generating a synthetic Docker Hub ({repos} repositories, seed {seed})...");
    let cfg = SynthConfig::default_scale(seed).with_repos(repos);
    let t0 = std::time::Instant::now();
    let hub = generate_hub(&cfg);
    let stats = hub.registry.stats();
    println!(
        "  generated in {:.1?}: {} repos, {} unique blobs, {:.1} MB stored (scale 1/{})",
        t0.elapsed(),
        stats.repositories,
        stats.unique_blobs,
        stats.stored_bytes as f64 / 1e6,
        cfg.size_scale,
    );

    println!("Running crawl -> download -> analyze -> dedup...");
    let t1 = std::time::Instant::now();
    let data = run_study(&hub, dhub_par::default_threads());
    println!("  pipeline finished in {:.1?}", t1.elapsed());

    println!();
    let view = figures::StudyView::new(&data);
    println!("{}", figures::table1(&view).render());
    println!("{}", figures::fig04(&view).render());
    println!("{}", figures::fig23(&view).render());
    println!("{}", figures::table2(&view).render());
    println!("Full set: `dhub report --repos 400 --seed 20170530 --scale 128` (Figs. 3-29 + extensions).");
}
