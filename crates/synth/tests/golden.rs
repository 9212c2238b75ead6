//! Golden hub digests: one SHA-256 over every sorted (repo, tag, layer
//! digest, size, blob SHA-256) tuple of a generated hub, pinned for three
//! configurations at generator threads 1, 2 and 8.
//!
//! A layer is the same layer only if every compressed byte is the same, so
//! any change to the generator's draws, the tar encoder or the DEFLATE
//! encoder that moves one blob byte fails here, whatever the thread count.

use dhub_model::Digest;
use dhub_synth::{generate_hub, SynthConfig};

/// The hub's tuples, one line each, sorted, hashed.
fn hub_digest(cfg: &SynthConfig) -> String {
    let hub = generate_hub(cfg);
    let reg = &hub.registry;
    let mut lines = Vec::new();
    for repo in reg.repo_names() {
        for tag in reg.tags(&repo).expect("listed repo has tags") {
            let manifest = reg.get_manifest(&repo, &tag, true).expect("tag resolves").manifest;
            for layer in &manifest.layers {
                let blob = reg.get_blob(&layer.digest).expect("layer blob stored");
                lines.push(format!(
                    "{}\t{tag}\t{}\t{}\t{}",
                    repo.full(),
                    layer.digest.to_docker_string(),
                    layer.size,
                    Digest::of(&blob).to_docker_string(),
                ));
            }
        }
    }
    lines.sort();
    Digest::of(lines.join("\n").as_bytes()).to_docker_string()
}

fn check(cfg: SynthConfig, want: &str) {
    for threads in [1, 2, 8] {
        let cfg = SynthConfig { threads, ..cfg.clone() };
        assert_eq!(hub_digest(&cfg), want, "threads={threads}");
    }
}

#[test]
fn tiny_hub_digest_is_pinned() {
    check(SynthConfig::tiny(77), "sha256:14a8ee9c4f2195f9060f398a1f1947ed1701bc3f9c2df01a6eee0b66ed8eae4e");
}

#[test]
fn bench_files_hub_digest_is_pinned() {
    let mut cfg = SynthConfig::default_scale(42).with_repos(8);
    cfg.size_scale = 128;
    check(cfg, "sha256:83e6f67209e6aa4502141ae02980886849b7f51a4c1af34c38744027833624f4");
}

#[test]
fn ci_hub_digest_is_pinned() {
    let mut cfg = SynthConfig::default_scale(5).with_repos(25);
    cfg.size_scale = 1024;
    check(cfg, "sha256:faf756cc3deca9c7da6e9e078df348c6eec27044d6e0d269851230416c74749f");
}
