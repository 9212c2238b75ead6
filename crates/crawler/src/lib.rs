//! The Docker Hub crawler (§III-A of the paper).
//!
//! Docker Hub offers no list-all-repositories API. The paper's crawler
//! exploited the naming scheme instead: every non-official repository name
//! contains a `/`, so searching for `"/"` returns all of them; the crawler
//! then pages through the HTML results, parses out repository names, and
//! deduplicates (the real index returned 634,412 rows for 457,627 distinct
//! repositories). This crate does exactly that against the simulated
//! search front-end, plus the short known list of official repositories.

mod parse;

pub use parse::{parse_results_page, PageError, PageInfo, ParsedPage};

use dhub_faults::{
    fault_key, FaultInjector, FaultKind, FaultOp, RetryClass, RetryEvent, RetryPolicy,
};
use dhub_model::RepoName;
use dhub_obs::{DeltaCounter, MetricsRegistry};
use dhub_registry::SearchIndex;
use std::collections::BTreeSet;
use std::time::Duration;

/// Crawl statistics, mirroring the paper's reported numbers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrawlReport {
    /// Rows seen across all result pages (duplicates included) — the
    /// paper's 634,412.
    pub raw_results: usize,
    /// Distinct repositories after dedup — the paper's 457,627.
    pub distinct_repos: usize,
    /// Pages fetched.
    pub pages_fetched: usize,
    /// Page fetches re-issued after a transient failure.
    pub page_retries: usize,
    /// Pages abandoned after the retry budget ran out (their rows are
    /// simply missing, as they would be from a real crawl).
    pub pages_gave_up: usize,
    /// Result rows that deduplicated onto an already-seen repository
    /// (`raw_results` minus first sightings).
    pub dedup_hits: usize,
    /// Time lost to retry backoff (deterministic scheduled delays).
    pub backoff_sleep: Duration,
}

/// Crawl outcome: the deduplicated repository list plus statistics.
#[derive(Clone, Debug)]
pub struct CrawlResult {
    pub repos: Vec<RepoName>,
    pub report: CrawlReport,
}

/// Crawls the search index: pages through the `"/"` query, parses each
/// HTML page, dedups, and appends `known_official` (the paper hardcodes
/// the <200 official repositories, which the slash trick cannot find).
pub fn crawl(search: &SearchIndex, known_official: &[RepoName]) -> CrawlResult {
    crawl_obs(search, known_official, None, &RetryPolicy::default(), &MetricsRegistry::new())
}

/// Fault kinds a search-page fetch can experience. Body damage is not
/// modeled here — the parser rejects malformed pages outright.
const SEARCH_FAULTS: [FaultKind; 4] =
    [FaultKind::Drop, FaultKind::RateLimit, FaultKind::ServerError, FaultKind::SlowLink];

/// What fetching one search page did: the parsed page (or `None` after
/// the retry budget ran out) plus the retry accounting the caller folds
/// into its counters.
pub struct PageFetch {
    pub parsed: Option<ParsedPage>,
    pub retries: u32,
    pub backoff: Duration,
}

/// Fetches and parses one search-results page under the crawl's fault
/// model: each attempt consults `faults` (op [`FaultOp::Search`], keyed
/// by the page number), slow links stall and proceed, and transient
/// failures back off under `policy`. This is the single per-page fetch
/// path — the sequential [`crawl_obs`] loop and the queue's distributed
/// page jobs both go through it, so their fault streams are identical —
/// and [`CrawlFold`] is the single place a fetch is accounted for.
pub fn fetch_search_page(
    search: &SearchIndex,
    page: usize,
    faults: Option<&FaultInjector>,
    policy: &RetryPolicy,
) -> PageFetch {
    let key = fault_key(format!("search:{page}").as_bytes());
    let mut retries = 0u32;
    let mut backoff = Duration::ZERO;
    let fetch = || {
        if let Some(inj) = faults {
            match inj.decide(FaultOp::Search, key, &SEARCH_FAULTS) {
                // Stalled, not failed: wait it out and proceed.
                Some(FaultKind::SlowLink) => std::thread::sleep(inj.slow_link()),
                Some(fault) => return Err(fault),
                None => {}
            }
        }
        let result = search.search("/", page);
        Ok(parse_results_page(&result.html).expect("hub returned malformed page"))
    };
    let parsed = policy
        .run(key, fetch, |_| RetryClass::Retryable, |_, event| {
            if let RetryEvent::Retry(slept) = event {
                retries += 1;
                backoff += slept;
            }
        })
        .ok();
    PageFetch { parsed, retries, backoff }
}

/// Per-run crawl counters, attached to `dhub_crawl_*` metrics. The final
/// [`CrawlReport`] is *derived from* these deltas, so a `/metrics` scrape
/// and the report reconcile exactly.
struct CrawlCounters {
    pages_fetched: DeltaCounter,
    page_retries: DeltaCounter,
    pages_gave_up: DeltaCounter,
    raw_results: DeltaCounter,
    dedup_hits: DeltaCounter,
    backoff_ns: DeltaCounter,
}

impl CrawlCounters {
    fn on(reg: &MetricsRegistry) -> Self {
        Self {
            pages_fetched: DeltaCounter::on(reg, "dhub_crawl_pages_fetched_total"),
            page_retries: DeltaCounter::on(reg, "dhub_crawl_page_retries_total"),
            pages_gave_up: DeltaCounter::on(reg, "dhub_crawl_pages_gave_up_total"),
            raw_results: DeltaCounter::on(reg, "dhub_crawl_raw_results_total"),
            dedup_hits: DeltaCounter::on(reg, "dhub_crawl_dedup_hits_total"),
            backoff_ns: DeltaCounter::on(reg, "dhub_crawl_backoff_ns_total"),
        }
    }

    fn report(&self, distinct_repos: usize) -> CrawlReport {
        CrawlReport {
            raw_results: self.raw_results.delta() as usize,
            distinct_repos,
            pages_fetched: self.pages_fetched.delta() as usize,
            page_retries: self.page_retries.delta() as usize,
            pages_gave_up: self.pages_gave_up.delta() as usize,
            dedup_hits: self.dedup_hits.delta() as usize,
            backoff_sleep: Duration::from_nanos(self.backoff_ns.delta()),
        }
    }
}

/// The crawl as a fold over page fetches, in page order: which page comes
/// next, what each [`PageFetch`] adds to the `dhub_crawl_*` counters and
/// the dedup set, and the [`CrawlResult`] they amount to. Whoever holds
/// the fetches drives it — [`crawl_obs`] fetches as it goes, the queued
/// study replays its durable page results — and the report is built from
/// the counter deltas, never from side bookkeeping.
pub struct CrawlFold {
    counters: CrawlCounters,
    seen: BTreeSet<RepoName>,
    next: usize,
    /// Pagination depth, per the last page that loaded.
    total_pages: Option<usize>,
}

impl CrawlFold {
    /// A fresh crawl recording into `obs`.
    pub fn on(obs: &MetricsRegistry) -> CrawlFold {
        CrawlFold {
            counters: CrawlCounters::on(obs),
            seen: BTreeSet::new(),
            next: 0,
            total_pages: None,
        }
    }

    /// The page to record next, or `None` once the crawl is over: past the
    /// last page, or past a first page that never loaded (pagination depth
    /// is unknown without it, so the crawl aborts).
    pub fn next_page(&self) -> Option<usize> {
        (self.next < self.total_pages.unwrap_or(1)).then_some(self.next)
    }

    /// Records the fetch of page [`CrawlFold::next_page`]. A page whose
    /// retry budget ran out is abandoned (its rows go missing).
    pub fn record(&mut self, fetch: PageFetch) {
        let c = &self.counters;
        c.page_retries.add(fetch.retries as u64);
        c.backoff_ns.add(fetch.backoff.as_nanos() as u64);
        match fetch.parsed {
            Some(parsed) => {
                c.pages_fetched.inc();
                c.raw_results.add(parsed.repos.len() as u64);
                for name in parsed.repos {
                    if !self.seen.insert(name) {
                        c.dedup_hits.inc();
                    }
                }
                self.total_pages = Some(parsed.info.total_pages);
            }
            None => c.pages_gave_up.inc(),
        }
        self.next += 1;
    }

    /// Ends the crawl: appends `known_official` (the slash trick cannot
    /// find them) and derives the report from the counters.
    pub fn finish(mut self, known_official: &[RepoName]) -> CrawlResult {
        self.seen.extend(known_official.iter().cloned());
        let report = self.counters.report(self.seen.len());
        CrawlResult { repos: self.seen.into_iter().collect(), report }
    }
}

/// [`crawl`] against a faulty search front-end: each page fetch consults
/// `faults` first, and transient failures back off and retry under
/// `policy` ([`fetch_search_page`]); the fetches are folded through
/// [`CrawlFold`]. Records live metrics into `obs` (`dhub_crawl_*` counters
/// plus a per-page `crawl_page` span).
pub fn crawl_obs(
    search: &SearchIndex,
    known_official: &[RepoName],
    faults: Option<&FaultInjector>,
    policy: &RetryPolicy,
    obs: &MetricsRegistry,
) -> CrawlResult {
    let mut fold = CrawlFold::on(obs);
    while let Some(page) = fold.next_page() {
        let _page_span = dhub_obs::span!(obs, "crawl_page", page);
        fold.record(fetch_search_page(search, page, faults, policy));
    }
    fold.finish(known_official)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repos(n: usize) -> Vec<RepoName> {
        (0..n).map(|i| RepoName::user(&format!("u{}", i % 7), &format!("r{i}"))).collect()
    }

    #[test]
    fn crawl_recovers_all_repos_despite_duplicates() {
        let all = repos(500);
        let index = SearchIndex::build(all.clone(), 1.386, 25);
        let result = crawl(&index, &[]);
        assert_eq!(result.report.distinct_repos, 500);
        assert!(result.report.raw_results > 600, "raw {:?}", result.report);
        let mut expect = all;
        expect.sort();
        assert_eq!(result.repos, expect);
    }

    #[test]
    fn officials_come_from_the_known_list() {
        let mut all = repos(50);
        all.push(RepoName::official("nginx"));
        let index = SearchIndex::build(all, 1.0, 10);
        // Slash search can't see nginx...
        let without = crawl(&index, &[]);
        assert!(!without.repos.iter().any(|r| r.is_official()));
        // ...but the known-official list adds it.
        let with = crawl(&index, &[RepoName::official("nginx")]);
        assert_eq!(with.report.distinct_repos, 51);
        assert!(with.repos.iter().any(|r| r.full() == "nginx"));
    }

    #[test]
    fn single_page_index() {
        let index = SearchIndex::build(repos(5), 1.0, 100);
        let result = crawl(&index, &[]);
        assert_eq!(result.report.pages_fetched, 1);
        assert_eq!(result.report.distinct_repos, 5);
    }

    #[test]
    fn report_duplication_factor() {
        let index = SearchIndex::build(repos(1000), 1.386, 25);
        let r = crawl(&index, &[]).report;
        let factor = r.raw_results as f64 / r.distinct_repos as f64;
        assert!((1.3..1.5).contains(&factor), "factor {factor}");
    }

    use dhub_faults::FaultConfig;

    #[test]
    fn faulty_crawl_with_retries_matches_clean_crawl() {
        let all = repos(400);
        let index = SearchIndex::build(all, 1.386, 25);
        let clean = crawl(&index, &[]);
        let inj = FaultInjector::new(FaultConfig::uniform(77, 0.2));
        let policy = RetryPolicy::fast(16).with_seed(77);
        let faulty = crawl_obs(&index, &[], Some(&inj), &policy, &MetricsRegistry::new());
        assert_eq!(faulty.repos, clean.repos);
        assert_eq!(faulty.report.raw_results, clean.report.raw_results);
        assert_eq!(faulty.report.pages_fetched, clean.report.pages_fetched);
        assert!(faulty.report.page_retries > 0, "20 % faults must force retries");
        assert_eq!(faulty.report.pages_gave_up, 0);
    }

    #[test]
    fn obs_counters_reconcile_with_report() {
        let index = SearchIndex::build(repos(300), 1.386, 25);
        let obs = MetricsRegistry::new();
        let inj = FaultInjector::new(FaultConfig::uniform(9, 0.1));
        let r = crawl_obs(&index, &[], Some(&inj), &RetryPolicy::fast(16).with_seed(9), &obs)
            .report;
        let snap = obs.snapshot();
        assert_eq!(snap.counter("dhub_crawl_pages_fetched_total"), r.pages_fetched as u64);
        assert_eq!(snap.counter("dhub_crawl_page_retries_total"), r.page_retries as u64);
        assert_eq!(snap.counter("dhub_crawl_raw_results_total"), r.raw_results as u64);
        assert_eq!(snap.counter("dhub_crawl_dedup_hits_total"), r.dedup_hits as u64);
        assert_eq!(
            snap.counter("dhub_crawl_backoff_ns_total"),
            r.backoff_sleep.as_nanos() as u64
        );
        // Every raw row either first-sighted a repo or was a dedup hit.
        assert_eq!(r.raw_results - r.dedup_hits, r.distinct_repos);
        // One crawl_page span per page attempted.
        let (calls, _) = obs.span_totals("crawl_page");
        assert_eq!(calls, (r.pages_fetched + r.pages_gave_up) as u64);
    }

    #[test]
    fn crawl_without_retries_aborts_on_dead_front_end() {
        let index = SearchIndex::build(repos(100), 1.386, 25);
        // SlowLink merely delays, so zero it out to make every attempt fail.
        let inj = FaultInjector::new(
            FaultConfig::uniform(1, 1.0).with_weight(FaultKind::SlowLink, 0),
        );
        let official = RepoName::official("nginx");
        let result =
            crawl_obs(&index, &[official], Some(&inj), &RetryPolicy::none(), &MetricsRegistry::new());
        // Page 0 never loads; only the hardcoded official list survives.
        assert_eq!(result.report.pages_fetched, 0);
        assert_eq!(result.report.pages_gave_up, 1);
        assert_eq!(result.repos.len(), 1);
    }
}
