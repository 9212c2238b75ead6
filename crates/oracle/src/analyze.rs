//! The allocate-per-layer analyzer.

use crate::{gzip_decompress_reference, scalar_digest};
use dhub_analyzer::AnalyzeError;
use dhub_model::{Digest, FileRecord, LayerProfile};
use dhub_tar::{read_archive, EntryKind};
use std::collections::HashSet;

/// Profiles one layer the pre-fusion way: an owned decompression buffer,
/// owned tar entries, and an ancestor walk per entry. The fused
/// `dhub_analyzer::analyze_layer_with` must produce the same profile, and
/// fail on the same inputs with the same error variant.
pub fn analyze_layer_reference(digest: Digest, blob: &[u8]) -> Result<LayerProfile, AnalyzeError> {
    let tar = gzip_decompress_reference(blob).map_err(|e| AnalyzeError::BadGzip(e.to_string()))?;
    let entries = read_archive(&tar).map_err(|e| AnalyzeError::BadTar(e.to_string()))?;

    let mut dirs: HashSet<&str> = HashSet::new();
    let mut files = Vec::new();
    let mut fls = 0u64;
    let mut max_depth = 0u64;

    for entry in &entries {
        let path = entry.path.trim_end_matches('/');
        max_depth = max_depth.max(path.split('/').filter(|c| !c.is_empty()).count() as u64);
        match &entry.kind {
            EntryKind::Dir => {
                dirs.insert(path);
            }
            EntryKind::File(data) => {
                collect_ancestors(path, &mut dirs);
                fls += data.len() as u64;
                files.push(FileRecord {
                    digest: scalar_digest(data),
                    kind: dhub_magic::classify(path, data),
                    size: data.len() as u64,
                });
            }
            EntryKind::Symlink(_) | EntryKind::Hardlink(_) => {
                collect_ancestors(path, &mut dirs);
            }
        }
    }
    let explicit: Vec<&str> = dirs.iter().copied().collect();
    let mut all_dirs: HashSet<String> = explicit.iter().map(|s| s.to_string()).collect();
    for d in explicit {
        let mut prefix = String::new();
        for comp in d.split('/').filter(|c| !c.is_empty()) {
            if !prefix.is_empty() {
                prefix.push('/');
            }
            prefix.push_str(comp);
            all_dirs.insert(prefix.clone());
        }
    }

    Ok(LayerProfile {
        digest,
        fls,
        cls: blob.len() as u64,
        dir_count: all_dirs.len() as u64,
        file_count: files.len() as u64,
        max_depth,
        files,
    })
}

fn collect_ancestors<'a>(path: &'a str, dirs: &mut HashSet<&'a str>) {
    let mut end = path.len();
    while let Some(pos) = path[..end].rfind('/') {
        dirs.insert(&path[..pos]);
        end = pos;
    }
}
