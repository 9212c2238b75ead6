//! What the command tests share: running argv through `run`, fresh
//! store directories, and reading stats and counters back out of a run.

use crate::args::Parsed;
use crate::commands::run;
use std::path::{Path, PathBuf};

pub(super) fn run_cmd(argv: &[&str]) -> (i32, String) {
    let parsed = Parsed::parse(argv.iter().map(|s| s.to_string())).unwrap();
    let mut out = Vec::new();
    let code = run(&parsed, &mut out);
    (code, String::from_utf8(out).unwrap())
}

/// Runs `argv`, which must exit 0, and returns its output.
pub(super) fn ok(argv: &[&str]) -> String {
    let (code, out) = run_cmd(argv);
    assert_eq!(code, 0, "{argv:?}: {out}");
    out
}

/// A path under the temp dir, unique to this process and `tag`, with
/// nothing there yet.
pub(super) fn fresh(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dhub-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&path).ok();
    path
}

pub(super) fn arg(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// `dhub query <dir> <question>`, which must succeed.
pub(super) fn query(dir: &Path, question: &str) -> String {
    ok(&["query", arg(dir), question])
}

/// A durable store of `repos` repositories, built by `dhub store`.
pub(super) fn durable_store(tag: &str, repos: &str) -> PathBuf {
    let dir = fresh(tag);
    ok(&["store", "--repos", repos, "--seed", "3", "--scale", "1024", "--threads", "2",
        "--store-dir", arg(&dir)]);
    dir
}

/// The five-line dedup stats block `dhub store` / `dhub work` print
/// (found, not taken from the tail: `--metrics` output follows it).
pub(super) fn stats_block(s: &str) -> Vec<String> {
    let block = s.lines().skip_while(|l| !l.starts_with("layers          :"));
    let block: Vec<String> = block.take(5).map(String::from).collect();
    assert_eq!(block.len(), 5, "no stats block in {s}");
    block
}

/// The counters every study shape must agree on: pure functions of the
/// hub and the fault seed, whoever schedules the steps.
pub(super) const CRAWL_DOWNLOAD_COUNTERS: [&str; 11] = [
    "dhub_crawl_pages_fetched_total",
    "dhub_crawl_raw_results_total",
    "dhub_crawl_dedup_hits_total",
    "dhub_crawl_pages_gave_up_total",
    "dhub_download_images_ok_total",
    "dhub_download_unique_layers_total",
    "dhub_download_bytes_total",
    "dhub_download_layer_fetches_skipped_total",
    "dhub_download_failed_auth_total",
    "dhub_download_failed_no_latest_total",
    "dhub_download_failed_other_total",
];
pub(super) const ANALYZE_COUNTERS: [&str; 4] = [
    "dhub_analyze_layers_total",
    "dhub_analyze_files_total",
    "dhub_analyze_bytes_total",
    "dhub_analyze_errors_total",
];

/// Runs `argv` with `--metrics-snapshot` and reads `names` back out of
/// the snapshot (`None` for a series the run never exported).
pub(super) fn run_counted(
    argv: &[&str],
    names: &[&'static str],
) -> (String, Vec<(&'static str, Option<u64>)>) {
    let snap = fresh(&format!("snap-{:?}.json", std::thread::current().id()));
    let out = ok(&[argv, &["--metrics-snapshot", arg(&snap)]].concat());
    let json = dhub_json::parse(&std::fs::read_to_string(&snap).unwrap()).unwrap();
    std::fs::remove_file(&snap).ok();
    let counters = json.get("counters").expect("snapshot has counters");
    let read = |name| counters.get(name).and_then(dhub_json::Json::as_u64);
    (out, names.iter().map(|&name| (name, read(name))).collect())
}
