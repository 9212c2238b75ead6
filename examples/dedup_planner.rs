//! Dedup planner: what a registry operator would run before deploying
//! file-level deduplication.
//!
//! The paper's motivation (§V): layer sharing already saves ~1.8x, but
//! only 3 % of files are unique, so file-level dedup could save much more.
//! This tool quantifies both on a concrete registry and breaks the
//! remaining opportunity down by file type so the operator knows where the
//! bytes are.
//!
//! ```sh
//! cargo run --release --example dedup_planner [repos] [seed]
//! ```

use dhub_dedup::{dedup_by_group, layer_sharing, FileIndex};
use dhub_dedupstore::DedupStore;
use dhub_model::TypeGroup;
use dhub_study::run_study;
use dhub_synth::{generate_hub, SynthConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let repos: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    let cfg = SynthConfig::default_scale(seed).with_repos(repos);
    let hub = generate_hub(&cfg);
    let data = run_study(&hub, dhub_par::default_threads());
    let layers = data.layer_slice();
    let files = FileIndex::build(&layers);

    println!("=== Dedup planning report ({} unique layers) ===\n", layers.len());

    // Tier 1: what content-addressed layer sharing already gives us.
    let sizes = data.layer_sizes();
    let sharing = layer_sharing(&data.image_layers, &sizes);
    println!("Tier 1 — layer sharing (already deployed in every registry):");
    println!("  bytes if every image stored its own layers : {:>14}", sharing.unshared_bytes);
    println!("  bytes actually stored                      : {:>14}", sharing.stored_bytes);
    println!("  savings factor                             : {:>10.2}x\n", sharing.sharing_factor());

    // Tier 2: what file-level dedup would add.
    let stats = files.stats();
    println!("Tier 2 — file-level dedup (proposed):");
    println!("  file instances                             : {:>14}", stats.total_instances);
    println!("  unique files                               : {:>14}", stats.unique_files);
    println!("  logical bytes                              : {:>14}", stats.total_bytes);
    println!("  bytes after file dedup                     : {:>14}", stats.unique_bytes);
    println!("  count dedup ratio                          : {:>10.2}x", stats.count_ratio());
    println!("  capacity dedup ratio                       : {:>10.2}x\n", stats.capacity_ratio());

    // Tier 3: run the prototype dedup store over the actual blobs and show
    // the realized numbers (not just the analysis projection).
    let store = DedupStore::new();
    let mut ingest_errors = 0usize;
    for (digest, profile) in data.layers.iter() {
        let blob = hub.registry.get_blob(digest).expect("downloaded layers exist");
        match store.ingest_layer(*digest, &blob) {
            Ok(_) => {}
            Err(_) => ingest_errors += 1,
        }
        let _ = profile;
    }
    let st = store.stats();
    println!("Tier 3 — prototype file-level store (realized, not projected):");
    println!("  layers ingested                            : {:>14}", st.layers);
    println!("  unique file objects                        : {:>14}", st.unique_objects);
    println!("  logical bytes                              : {:>14}", st.logical_bytes);
    println!("  physical bytes after dedup                 : {:>14}", st.physical_bytes);
    println!("  realized dedup factor                      : {:>10.2}x", st.dedup_factor());
    println!("  ingest errors                              : {:>14}\n", ingest_errors);

    // Where the reclaimable bytes live.
    println!("Reclaimable capacity by type group:");
    let mut rows = dedup_by_group(&files);
    rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.bytes - r.unique_bytes));
    for (g, r) in &rows {
        let reclaim = r.bytes - r.unique_bytes;
        println!(
            "  {:<6} reclaim {:>13} B  ({:>5.1} % of the group's bytes)",
            g.label(),
            reclaim,
            r.capacity_redundancy() * 100.0
        );
    }

    let (best_group, _) = rows[0];
    println!();
    println!(
        "Recommendation: file-level dedup on top of layer sharing reduces stored file bytes {:.1}x; \
the biggest single win is the {} group.",
        stats.capacity_ratio(),
        label_long(best_group)
    );
}

fn label_long(g: TypeGroup) -> &'static str {
    match g {
        TypeGroup::Eol => "executables/object-code/libraries",
        TypeGroup::SourceCode => "source code",
        TypeGroup::Scripts => "scripts",
        TypeGroup::Documents => "documents",
        TypeGroup::Archival => "archives",
        TypeGroup::ImageData => "image data",
        TypeGroup::Database => "databases",
        TypeGroup::Other => "other files",
    }
}
