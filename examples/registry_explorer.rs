//! Registry explorer: pulls one image the way the paper's downloader does
//! and dissects it — manifest JSON, per-layer stats, and the file-type
//! breakdown of its largest layer.
//!
//! ```sh
//! cargo run --release --example registry_explorer [repo] [repos] [seed]
//! ```

use dhub_analyzer::analyze_layer;
use dhub_model::RepoName;
use dhub_synth::{generate_hub, SynthConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let repo_arg = args.next().unwrap_or_else(|| "nginx".to_string());
    let repos: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(120);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);

    let cfg = SynthConfig::default_scale(seed).with_repos(repos);
    let hub = generate_hub(&cfg);
    let repo = RepoName::parse(&repo_arg).expect("repo name like 'nginx' or 'user/app'");

    println!("$ docker pull {repo}:latest   (via direct registry API)\n");
    let sess = match hub.registry.get_manifest(&repo, "latest", false) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pull failed: {e}");
            eprintln!("(try one of: nginx, redis, ubuntu, google/cadvisor, or user*/app-*)");
            std::process::exit(1);
        }
    };

    println!("manifest digest: {}", sess.manifest_digest);
    println!("manifest JSON:\n{}\n", sess.manifest.to_json());
    println!("pull count: {}", hub.registry.pull_count(&repo).unwrap_or(0));
    println!();

    println!(
        "{:<20} {:>12} {:>12} {:>8} {:>6} {:>7} {:>6}",
        "layer", "CLS(B)", "FLS(B)", "ratio", "files", "dirs", "depth"
    );
    let mut largest: Option<dhub_model::LayerProfile> = None;
    for l in &sess.manifest.layers {
        let blob = hub.registry.get_blob(&l.digest).expect("manifest refs exist");
        let p = analyze_layer(l.digest, &blob).expect("layer decodes");
        println!(
            "{:<20} {:>12} {:>12} {:>8.2} {:>6} {:>7} {:>6}",
            format!("{:?}", l.digest),
            p.cls,
            p.fls,
            p.compression_ratio(),
            p.file_count,
            p.dir_count,
            p.max_depth
        );
        if largest.as_ref().map(|b| p.file_count > b.file_count).unwrap_or(true) {
            largest = Some(p);
        }
    }

    if let Some(big) = largest {
        if big.file_count > 0 {
            println!("\nfile types in the largest layer ({} files):", big.file_count);
            let mut by_kind: std::collections::BTreeMap<&'static str, (u64, u64)> =
                std::collections::BTreeMap::new();
            for f in &big.files {
                let e = by_kind.entry(f.kind.label()).or_insert((0, 0));
                e.0 += 1;
                e.1 += f.size;
            }
            let mut rows: Vec<_> = by_kind.into_iter().collect();
            rows.sort_by_key(|(_, (_, b))| std::cmp::Reverse(*b));
            for (label, (count, bytes)) in rows.into_iter().take(12) {
                println!("  {label:<18} {count:>6} files {bytes:>12} B");
            }
        }
    }
}
