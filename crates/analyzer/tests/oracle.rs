//! The fused analysis pass against the allocate-per-layer oracle.

use dhub_analyzer::analyze_layer;
use dhub_compress::{gzip_compress, CompressOptions};
use dhub_model::Digest;
use dhub_oracle::analyze_layer_reference;
use dhub_tar::{write_archive, TarEntry};

#[test]
fn fused_matches_reference() {
    let long = format!("{}/file.bin", "deep/".repeat(60).trim_end_matches('/'));
    let tar = write_archive(&[
        TarEntry::dir("usr/"),
        TarEntry::dir("usr/bin/"),
        TarEntry::file("usr/bin/bash", b"\x7fELF fake".to_vec()),
        TarEntry::file("empty", Vec::new()),
        TarEntry::symlink("usr/bin/sh", "bash"),
        TarEntry::hardlink("usr/bin/rbash", "usr/bin/bash"),
        TarEntry::file(&long, vec![0xAB; 1234]),
    ]);
    let blob = gzip_compress(&tar, &CompressOptions::fast());
    let digest = Digest::of(&blob);
    let fast = analyze_layer(digest, &blob).unwrap();
    let golden = analyze_layer_reference(digest, &blob).unwrap();
    assert_eq!(fast, golden);
}

#[test]
fn reference_agrees_on_errors() {
    for blob in [&b"not gzip at all"[..], &gzip_compress(&[0xAA; 700], &CompressOptions::fast())[..]] {
        let fast = analyze_layer(Digest::of(b"x"), blob).unwrap_err();
        let golden = analyze_layer_reference(Digest::of(b"x"), blob).unwrap_err();
        assert_eq!(
            std::mem::discriminant(&fast),
            std::mem::discriminant(&golden),
            "fast={fast:?} golden={golden:?}"
        );
    }
}
