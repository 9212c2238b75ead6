//! The Hub's web search, as the crawler sees it (§III-A).
//!
//! Docker Hub has no API to list all repositories; the paper's crawler
//! searched for `"/"` (every non-official repo name contains one) and
//! paginated through HTML result pages. Two quirks are reproduced because
//! the crawler must handle them:
//!
//! * **duplicate hits** — Docker Hub's indexing returned the same
//!   repository on multiple pages (634,412 raw hits for 457,627 distinct
//!   repos, a duplication factor of ~1.386),
//! * **HTML transport** — results arrive as markup to parse, not JSON.

use dhub_model::RepoName;

/// One page of search results, rendered as simplified HTML.
#[derive(Clone, Debug)]
pub struct SearchPage {
    /// Zero-based page number.
    pub page: usize,
    /// Total number of pages for this query.
    pub total_pages: usize,
    /// The markup the crawler parses.
    pub html: String,
}

/// A snapshot search index over repository names.
pub struct SearchIndex {
    /// Result rows in index order — with duplicates, like the real Hub.
    rows: Vec<RepoName>,
    page_size: usize,
}

impl SearchIndex {
    /// Builds an index over `repos`. `duplication` ≥ 1.0 controls how many
    /// extra (duplicate) hits the index contains; the paper observed ~1.386.
    /// Duplicates are deterministic: every ⌈1/(dup-1)⌉-th repo appears twice.
    pub fn build(mut repos: Vec<RepoName>, duplication: f64, page_size: usize) -> SearchIndex {
        assert!(duplication >= 1.0);
        repos.sort(); // index order is name order, like a search index
        let mut rows = Vec::with_capacity((repos.len() as f64 * duplication) as usize);
        let dup_every = if duplication > 1.0 {
            (1.0 / (duplication - 1.0)).round().max(1.0) as usize
        } else {
            usize::MAX
        };
        for (i, r) in repos.iter().enumerate() {
            rows.push(r.clone());
            if dup_every != usize::MAX && i % dup_every == 0 {
                // Re-list the repo later in the index, as stale shards do.
                rows.push(r.clone());
            }
        }
        SearchIndex { rows, page_size: page_size.max(1) }
    }

    /// Serves one result page for the query. Only `"/"` (the list-everything
    /// trick) and the empty query are supported, matching how the study
    /// used the endpoint. Out-of-range pages yield an empty result list.
    pub fn search(&self, query: &str, page: usize) -> SearchPage {
        let matches: Vec<&RepoName> = if query == "/" {
            self.rows.iter().filter(|r| !r.is_official()).collect()
        } else if query.is_empty() {
            self.rows.iter().collect()
        } else {
            self.rows.iter().filter(|r| r.full().contains(query)).collect()
        };
        let total_pages = matches.len().div_ceil(self.page_size).max(1);
        let start = page * self.page_size;
        let slice: &[&RepoName] = if start >= matches.len() { &[] } else { &matches[start..(start + self.page_size).min(matches.len())] };

        let mut html = String::with_capacity(slice.len() * 80 + 256);
        html.push_str("<!DOCTYPE html><html><body><ul class=\"search-results\">\n");
        for r in slice {
            html.push_str(&format!(
                "  <li class=\"repo-row\"><a class=\"repo-link\" href=\"/r/{0}\">{0}</a></li>\n",
                r.full()
            ));
        }
        html.push_str(&format!(
            "</ul><div class=\"paginator\" data-page=\"{page}\" data-total=\"{total_pages}\"></div></body></html>\n"
        ));
        SearchPage { page, total_pages, html }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repos(n: usize) -> Vec<RepoName> {
        (0..n).map(|i| RepoName::user(&format!("user{}", i % 50), &format!("repo{i}"))).collect()
    }

    #[test]
    fn duplication_factor_applied() {
        let idx = SearchIndex::build(repos(1000), 1.386, 25);
        let ratio = idx.rows.len() as f64 / 1000.0;
        assert!((1.3..1.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn no_duplication_when_factor_one() {
        let idx = SearchIndex::build(repos(100), 1.0, 25);
        assert_eq!(idx.rows.len(), 100);
    }

    #[test]
    fn slash_query_excludes_official() {
        let mut rs = repos(10);
        rs.push(RepoName::official("nginx"));
        let idx = SearchIndex::build(rs, 1.0, 100);
        let page = idx.search("/", 0);
        assert!(!page.html.contains(">nginx<"), "{}", page.html);
        assert!(page.html.contains("user0/repo0"));
    }

    #[test]
    fn pagination_covers_everything_once_per_row() {
        let idx = SearchIndex::build(repos(60), 1.0, 25);
        let mut seen = 0;
        let first = idx.search("/", 0);
        for p in 0..first.total_pages {
            let page = idx.search("/", p);
            seen += page.html.matches("repo-link").count();
        }
        assert_eq!(seen, 60);
    }

    #[test]
    fn out_of_range_page_is_empty() {
        let idx = SearchIndex::build(repos(10), 1.0, 25);
        let page = idx.search("/", 99);
        assert_eq!(page.html.matches("repo-link").count(), 0);
    }

    #[test]
    fn html_has_paginator_metadata() {
        let idx = SearchIndex::build(repos(100), 1.0, 10);
        let page = idx.search("/", 3);
        assert!(page.html.contains("data-page=\"3\""));
        assert!(page.html.contains("data-total=\"10\""));
    }

    #[test]
    fn substring_query() {
        let idx = SearchIndex::build(repos(100), 1.0, 200);
        let page = idx.search("repo7", 0);
        // repo7, repo70..repo79.
        assert_eq!(page.html.matches("repo-link").count(), 11);
    }
}
