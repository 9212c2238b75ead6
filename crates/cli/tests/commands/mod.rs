//! The `dhub` commands driven end to end through `run`, output captured.
//!
//! Built into the library's unit-test binary as `commands::tests` (by a
//! `#[path]` attribute in src/commands/mod.rs), not as a test target of
//! its own: cargo only picks up `tests/*.rs` and `tests/*/main.rs`.

mod support;

use std::path::Path;
use support::*;

#[test]
fn help_prints_usage() {
    let out = ok(&["help"]);
    assert!(out.contains("USAGE"));
    assert!(out.contains("cache-sim"));
}

#[test]
fn unknown_command_fails() {
    let (code, out) = run_cmd(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(out.contains("unknown command"));
}

#[test]
fn generate_summarizes_hub() {
    let out = ok(&["generate", "--repos", "20", "--seed", "3", "--scale", "1024"]);
    assert!(out.contains("repositories : 20"), "{out}");
    assert!(out.contains("unique blobs"));
}

#[test]
fn generate_is_the_same_hub_at_any_thread_count() {
    // `--threads` sizes the generator's workers; the hub it builds must
    // not depend on them.
    let args = ["generate", "--repos", "30", "--seed", "3", "--scale", "1024", "--threads"];
    let one = ok(&[&args[..], &["1"]].concat());
    assert_eq!(ok(&[&args[..], &["8"]].concat()), one);
    assert!(one.contains("repositories : 30"), "{one}");
}

#[test]
fn pull_over_http_works() {
    let out = ok(&["pull", "nginx", "--repos", "20", "--seed", "3", "--scale", "1024"]);
    assert!(out.contains("pulled"), "{out}");
    assert!(out.contains("layers)"), "{out}");
}

#[test]
fn pull_missing_repo_fails_cleanly() {
    let (code, out) =
        run_cmd(&["pull", "ghost/none", "--repos", "10", "--seed", "3", "--scale", "1024"]);
    assert_eq!(code, 1);
    assert!(out.contains("error"), "{out}");
}

#[test]
fn tags_lists_versions() {
    let out = ok(&["tags", "nginx", "--repos", "20", "--seed", "3", "--scale", "1024"]);
    assert!(out.contains("latest"), "{out}");
}

#[test]
fn summary_prints_tables() {
    let out = ok(&["summary", "--repos", "25", "--seed", "5", "--scale", "1024", "--threads", "2"]);
    assert!(out.contains("Table 1"), "{out}");
    assert!(out.contains("Table 2"), "{out}");
    assert!(out.contains("count dedup ratio"));
}

#[test]
fn pull_survives_fault_injection() {
    let out = ok(&[
        "pull", "nginx", "--repos", "20", "--seed", "3", "--scale", "1024",
        "--fault-rate", "0.4", "--fault-seed", "7", "--max-retries", "16",
    ]);
    assert!(out.contains("pulled"), "{out}");
}

#[test]
fn summary_reports_fault_injection() {
    let out = ok(&[
        "summary", "--repos", "25", "--seed", "5", "--scale", "1024", "--threads", "2",
        "--fault-rate", "0.2", "--fault-seed", "7", "--max-retries", "16",
    ]);
    assert!(out.contains("fault injection: rate=0.2 seed=7 max-retries=16"), "{out}");
    assert!(out.contains("faults fired:"), "{out}");
    assert!(out.contains("transient retries"), "{out}");
}

#[test]
fn fault_free_run_mentions_no_injection() {
    let out = ok(&["summary", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2"]);
    assert!(!out.contains("fault injection"), "{out}");
}

#[test]
fn fault_rate_must_be_a_probability() {
    // NaN used to run fault-free without a word, and 1.5 was echoed back
    // as a rate. Both now fail before the hub is even generated.
    let summary = ["summary", "--repos", "5", "--scale", "1024", "--max-retries", "0"];
    for rate in ["NaN", "-0.1", "1.5", "inf"] {
        let (code, out) = run_cmd(&[&summary[..], &["--fault-rate", rate]].concat());
        assert_eq!(code, 1, "{rate}: {out}");
        assert!(out.contains(&format!("option --fault-rate: cannot parse \"{rate}\"")), "{out}");
        assert!(!out.contains("generating hub"), "{rate}: {out}");
    }
    let out = ok(&[&summary[..], &["--fault-rate", "0"]].concat());
    assert!(!out.contains("fault injection"), "{out}");
    let out = ok(&[&summary[..], &["--fault-rate", "1"]].concat());
    assert!(out.contains("fault injection: rate=1 "), "{out}");
}

#[test]
fn store_under_faults_matches_clean_ingest() {
    // The injector is detached once the study finishes, so the store
    // ingest re-reads every layer clean: no panic on transient faults,
    // no corrupted bytes skewing the dedup stats.
    let base = ["store", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2"];
    let clean = ok(&base);
    let faults = ["--fault-rate", "0.3", "--fault-seed", "7", "--max-retries", "16"];
    let faulty = ok(&[&base[..], &faults].concat());
    assert!(faulty.contains("faults fired:"), "{faulty}");
    let stats = |s: &str| s.lines().rev().take(5).map(String::from).collect::<Vec<_>>();
    assert_eq!(stats(&faulty), stats(&clean), "dedup stats diverged under faults");
}

#[test]
fn summary_with_metrics_prints_exposition() {
    let out = ok(&[
        "summary", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2",
        "--metrics",
    ]);
    assert!(out.contains("# TYPE dhub_crawl_pages_fetched_total counter"), "{out}");
    assert!(out.contains("dhub_download_images_ok_total"), "{out}");
    assert!(out.contains("dhub_span_id_digest"), "{out}");
}

#[test]
fn metrics_snapshot_reconciles_with_table1() {
    let path = fresh("snap.json");
    let out = ok(&[
        "summary", "--repos", "25", "--seed", "5", "--scale", "1024", "--threads", "2",
        "--fault-rate", "0.1", "--fault-seed", "7", "--max-retries", "16",
        "--metrics-snapshot", arg(&path),
    ]);
    assert!(out.contains("metrics snapshot written"), "{out}");
    let json = dhub_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    let snap = dhub_obs::MetricsSnapshot::from_json(&json).unwrap();
    // The printed Table 1 and the snapshot describe the same run.
    let table_line = |label: &str| -> u64 {
        out.lines()
            .find(|l| l.trim_start().starts_with(label))
            .and_then(|l| l.rsplit(':').next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("missing table line {label:?} in {out}"))
    };
    assert_eq!(snap.counter("dhub_download_retries_total"), table_line("transient retries"));
    assert_eq!(snap.counter("dhub_crawl_raw_results_total"), table_line("search results (raw)"));
    let layers = table_line("unique compressed layers");
    assert_eq!(snap.counter("dhub_download_unique_layers_total"), layers);
}

#[test]
fn pull_with_metrics_shows_wire_counters() {
    let out = ok(&["pull", "nginx", "--repos", "20", "--seed", "3", "--scale", "1024", "--metrics"]);
    assert!(out.contains("dhub_http_requests_total"), "{out}");
    assert!(out.contains("dhub_http_status_2xx_total"), "{out}");
}

#[test]
fn bad_option_reports_error() {
    let (code, out) = run_cmd(&["generate", "--repos", "banana"]);
    assert_eq!(code, 1);
    assert!(out.contains("cannot parse"), "{out}");
}

#[test]
fn store_dir_persists_matches_memory_and_resumes() {
    let dir = fresh("store");
    let base = ["store", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2"];
    let mem = ok(&base);
    let argv = [&base[..], &["--store-dir", arg(&dir)]].concat();
    let durable = ok(&argv);
    assert_eq!(stats_block(&durable), stats_block(&mem), "durable stats diverged from memory");

    // A second run over the same hub resumes the store instead of
    // re-ingesting, and lands on identical stats.
    let resumed = ok(&argv);
    assert!(resumed.contains("resuming store with"), "{resumed}");
    assert_eq!(stats_block(&resumed), stats_block(&mem));

    // The persisted database answers without a hub: the dedup factor
    // line printed by `store` appears verbatim in `query dedup`.
    let parse_factor = |s: &str| -> f64 {
        s.lines()
            .find(|l| l.starts_with("dedup factor"))
            .and_then(|l| l.rsplit(':').next())
            .and_then(|v| v.trim().trim_end_matches('x').parse().ok())
            .unwrap_or_else(|| panic!("no dedup factor line in {s:?}"))
    };
    let (printed, queried) = (parse_factor(&mem), parse_factor(&query(&dir, "dedup")));
    assert!((printed - queried).abs() < 0.005, "store {printed} vs query {queried}");
    let q = query(&dir, "top-types");
    assert!(q.lines().count() > 2, "{q}");
    let q = query(&dir, "layer-percentiles");
    assert!(q.contains("p50"), "{q}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_dir_under_faults_matches_clean_run() {
    let (clean_dir, fault_dir) = (fresh("pclean"), fresh("pfault"));
    let base = ["store", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2"];
    let clean = ok(&[&base[..], &["--store-dir", arg(&clean_dir)]].concat());
    let faulty = ok(&[
        &base[..],
        &["--store-dir", arg(&fault_dir), "--fault-rate", "0.2", "--fault-seed", "7"],
        &["--max-retries", "16"],
    ]
    .concat());
    assert_eq!(stats_block(&faulty), stats_block(&clean), "stats diverged under write faults");
    // The two stores answer queries identically, byte for byte.
    let (q1, q2) = (query(&clean_dir, "summary"), query(&fault_dir, "summary"));
    assert_eq!(q1, q2, "query output diverged under write faults");
    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&fault_dir).ok();
}

#[test]
fn work_fleet_matches_store_and_resumes_queries() {
    let all: Vec<&str> = [&CRAWL_DOWNLOAD_COUNTERS[..], &ANALYZE_COUNTERS[..]].concat();
    const HUB: [&str; 6] = ["--repos", "20", "--seed", "5", "--scale", "1024"];
    fn work<'a>(dir: &'a Path, workers: &'a str) -> Vec<&'a str> {
        [&["work", "--store-dir", arg(dir), "--workers", workers], &HUB[..]].concat()
    }
    fn store(dir: &Path) -> Vec<&str> {
        [&["store", "--threads", "2", "--store-dir", arg(dir)], &HUB[..]].concat()
    }
    let (one_dir, four_dir, store_dir) = (fresh("work1"), fresh("work4"), fresh("works"));
    let (one, one_counters) = run_counted(&work(&one_dir, "1"), &all);
    let (four, four_counters) = run_counted(&work(&four_dir, "4"), &all);
    assert_eq!(stats_block(&one), stats_block(&four), "worker count changed the store");

    // The plain store pipeline lands on the same stats block and the
    // same crawl / download / analyze counters: the fleet schedules
    // the batch path's steps, it does not re-derive their numbers.
    let (plain, plain_counters) = run_counted(&store(&store_dir), &all);
    assert_eq!(stats_block(&plain), stats_block(&four), "queued run diverged from store");
    assert!(plain_counters.iter().all(|(_, v)| v.is_some()), "{plain_counters:?}");
    assert_eq!(one_counters, plain_counters, "1-worker fleet counters diverged from store");
    assert_eq!(four_counters, plain_counters, "4-worker fleet counters diverged from store");

    // …and every query answers byte-identically across worker counts.
    for q in ["summary", "dedup", "top-types", "layer-percentiles"] {
        assert_eq!(query(&one_dir, q), query(&four_dir, q), "query {q} diverged across worker counts");
    }

    // A killed fleet's resume replays crawl and download from the
    // durable results, so those counters are complete — equal to the
    // never-killed run's — although this process ran only the tail.
    // The killed run reports like any other: exposition on stdout and
    // a snapshot, both carrying the commit count it printed.
    let kill_dir = fresh("workk");
    let (killed, killed_commits) = run_counted(
        &[&work(&kill_dir, "4")[..], &["--max-commits", "12", "--metrics"]].concat(),
        &["dhub_queue_jobs_completed_total"],
    );
    let printed: u64 = killed
        .split_once("fleet killed after ")
        .and_then(|(_, rest)| rest.split(' ').next()?.parse().ok())
        .expect(&killed);
    assert_eq!(killed_commits[0].1, Some(printed), "snapshot vs printed commits: {killed}");
    let series = format!("dhub_queue_jobs_completed_total {printed}\n");
    assert!(killed.contains(&series), "no exposition after the kill: {killed}");
    let (resumed, resumed_counters) = run_counted(&work(&kill_dir, "4"), &CRAWL_DOWNLOAD_COUNTERS);
    assert_eq!(stats_block(&resumed), stats_block(&plain), "resumed fleet diverged");
    assert_eq!(resumed_counters[..], plain_counters[..CRAWL_DOWNLOAD_COUNTERS.len()]);

    // One runner behind `store`, `store --store-dir` (which `summary
    // --store-dir` shares) and `work`: under faults and `--metrics` all
    // three announce the injector, print the kernels line and report
    // what fired, and print the same five stat lines, byte for byte;
    // the durable store and the fleet also agree on every counter.
    let (fs_dir, fw_dir) = (fresh("workfs"), fresh("workfw"));
    let faults = ["--fault-rate", "0.1", "--fault-seed", "7", "--max-retries", "16", "--metrics"];
    let runs: [(&str, Vec<&str>); 3] = [
        ("store", [&["store", "--threads", "2"], &HUB[..]].concat()),
        ("store --store-dir", store(&fs_dir)),
        ("work", work(&fw_dir, "4")),
    ];
    for (name, argv) in runs {
        let (out, counters) = run_counted(&[&argv[..], &faults[..]].concat(), &all);
        assert!(out.contains("fault injection: rate=0.1 seed=7 max-retries=16"), "{name}: {out}");
        assert!(out.contains("kernels: sha256="), "{name}: {out}");
        assert!(out.contains("faults fired:"), "{name}: {out}");
        assert_eq!(stats_block(&out), stats_block(&plain), "{name} stat lines diverged");
        assert_eq!(counters, plain_counters, "{name} counters moved under retried faults");
    }

    for d in [&one_dir, &four_dir, &store_dir, &kill_dir, &fs_dir, &fw_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn query_mid_ingest_store_answers_from_recipes() {
    // A store with durable recipes but no study tables (fleet killed
    // before it finished) still answers store-shaped questions.
    let dir = durable_store("midq", "15");
    let full_dedup = query(&dir, "dedup");
    let full_pcts = query(&dir, "layer-percentiles");
    let full_types = query(&dir, "top-types");

    // Simulate the kill: tables gone, recipes still durable.
    std::fs::remove_dir_all(dir.join("db")).unwrap();
    let tail = |s: &str, n: usize| {
        let lines: Vec<&str> = s.lines().collect();
        lines[lines.len().saturating_sub(n)..].join("\n")
    };
    let q = query(&dir, "dedup");
    assert!(q.contains("no study tables"), "{q}");
    assert_eq!(tail(&q, 6), tail(&full_dedup, 6), "replayed dedup answers diverged");
    let q = query(&dir, "layer-percentiles");
    assert_eq!(tail(&q, 7), tail(&full_pcts, 7), "replayed percentiles diverged");
    let q = query(&dir, "top-types");
    assert_eq!(tail(&q, full_types.lines().count()), full_types.trim_end(),
        "replayed top-types diverged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_corrupt_table_is_an_error_not_a_fallback() {
    let dir = durable_store("qtorn", "10");
    let full = query(&dir, "top-types");

    // One flipped byte fails the table's CRC: the query must say so and
    // name the file, not answer from replayed recipes.
    let tbl = dir.join("db").join("files.tbl");
    let mut bytes = std::fs::read(&tbl).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&tbl, &bytes).unwrap();
    let (code, q) = run_cmd(&["query", arg(&dir), "top-types"]);
    assert_ne!(code, 0, "{q}");
    assert!(q.contains(arg(&tbl)), "{q}");
    assert!(!q.contains("no study tables"), "{q}");

    // A table that is not there yet (killed mid-save) still falls back.
    std::fs::remove_file(&tbl).unwrap();
    let q = query(&dir, "top-types");
    assert!(q.contains("no study tables"), "{q}");
    assert!(q.ends_with(&full), "replayed rows diverged from the tables':\n{q}\nvs\n{full}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_of_a_table_in_the_wrong_place_is_an_error_not_a_panic() {
    // Two CRC-valid tables swapped: the load fails naming the first of
    // them it reads, where the queries used to panic.
    let dir = durable_store("qswap", "10");
    let tbl = |name: &str| dir.join("db").join(format!("{name}.tbl"));
    let files = std::fs::read(tbl("files")).unwrap();
    std::fs::copy(tbl("layers"), tbl("files")).unwrap();
    std::fs::write(tbl("layers"), &files).unwrap();
    for question in ["top-types", "summary"] {
        let (code, q) = run_cmd(&["query", arg(&dir), question]);
        assert_eq!(code, 1, "{q}");
        assert!(q.contains("cannot load study tables") && q.contains(arg(&tbl("layers"))), "{q}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_missing_store_fails_cleanly() {
    let (code, out) = run_cmd(&["query", "/nonexistent/dhub-store"]);
    assert_eq!(code, 1);
    assert!(out.contains("error"), "{out}");
}

#[test]
fn query_unknown_question_fails_cleanly() {
    // Checked before anything is read: a store with no tables yet is not
    // replayed (every object re-verified) just to reject the question.
    let dir = durable_store("qbad", "10");
    for tables in [true, false] {
        if !tables {
            std::fs::remove_dir_all(dir.join("db")).unwrap();
        }
        let (code, out) = run_cmd(&["query", arg(&dir), "flavor"]);
        assert_eq!(code, 1);
        assert_eq!(out.lines().count(), 1, "{out}");
        assert!(out.contains("unknown question \"flavor\""), "{out}");
        assert!(!out.contains("replaying"), "{out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
