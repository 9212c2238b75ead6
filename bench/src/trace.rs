//! The driver's own span recorder for the traced pass.
//!
//! Spans are recorded from outside the program, around calls into each
//! crate's public functions: name, start, end, and the span that caused
//! it. Everything stays in memory until the run ends and is then written
//! to `bench/out/trace-<workload>.json`.
//!
//! Two kinds of child exist. A *nested* child ran inside its parent's
//! interval (`begin` while the parent is open). A *replayed* child ran
//! after the parent closed, standalone over the same bytes, to explain
//! part of the parent's time (`begin_under`): the fused analysis call
//! cannot be opened up from outside, so its inflate / tar-walk / hash /
//! classify shares are measured by replaying each on its own. Self time
//! treats both alike: a span's duration minus its children's durations.

use dhub_json::Json;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// True for a child replayed standalone after its parent closed.
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<SpanId>, replayed: bool) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            replayed,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Opens a span nested in whichever span is currently open.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied();
        self.push(name, parent, false)
    }

    /// Opens a span that explains part of the already-closed span `of`.
    pub fn begin_under(&mut self, name: &'static str, of: SpanId) -> SpanId {
        self.push(name, Some(of), true)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end_ns;
    }

    pub fn dur_ms(&self, id: SpanId) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e6
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the durations of the
    /// spans that name it as parent, floored at zero (replayed children
    /// can add up to slightly more than the fused call they explain).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect()
    }

    /// `(duration, self time)` in ms summed over the spans named `name`
    /// recorded at index `from` or later (one round of the traced pass).
    pub fn totals_ms(&self, name: &str, from: usize) -> (f64, f64) {
        let selfs = self.self_ns();
        let (mut dur, mut own) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            if s.name == name {
                dur += s.dur_ns();
                own += selfs[i];
            }
        }
        (dur as f64 / 1e6, own as f64 / 1e6)
    }

    /// The whole recording as JSON: one object per span, parents by index.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_ns();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut o = Json::obj();
                o.set("id", i)
                    .set("name", s.name)
                    .set("start_ns", s.start_ns);
                o.set("end_ns", s.end_ns).set("self_ns", selfs[i]);
                match s.parent {
                    Some(p) => o.set("parent", p),
                    None => o.set("parent", Json::Null),
                };
                o.set("replayed", s.replayed);
                o
            })
            .collect();
        Json::Arr(spans)
    }
}

/// Share of `total` that the stage times leave unexplained:
/// `1 − Σ stages / total`. Negative when replayed stages overshoot.
pub fn residual_ratio(total_ms: f64, stages_ms: &[f64]) -> f64 {
    if total_ms <= 0.0 {
        return 0.0;
    }
    1.0 - stages_ms.iter().sum::<f64>() / total_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer with hand-set clock readings.
    fn fixed(spans: &[(&'static str, u64, u64, Option<SpanId>, bool)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_ns, end_ns, parent, replayed) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                replayed,
            });
        }
        t
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // a[0,100] ⊃ b[10,60] ⊃ c[20,30]
        let t = fixed(&[
            ("a", 0, 100, None, false),
            ("b", 10, 60, Some(0), false),
            ("c", 20, 30, Some(1), false),
        ]);
        assert_eq!(t.self_ns(), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_both_subtract_from_the_parent() {
        let t = fixed(&[
            ("p", 0, 100, None, false),
            ("x", 0, 30, Some(0), false),
            ("y", 30, 80, Some(0), false),
        ]);
        assert_eq!(t.self_ns(), vec![20, 30, 50]);
    }

    #[test]
    fn replayed_children_count_and_overshoot_floors_at_zero() {
        // fused[0,100]; replays run later: gunzip 70 + hash 40 > 100.
        let t = fixed(&[
            ("fused", 0, 100, None, false),
            ("gunzip", 200, 270, Some(0), true),
            ("hash", 300, 340, Some(0), true),
        ]);
        assert_eq!(t.self_ns()[0], 0);
        let (dur, own) = t.totals_ms("fused", 0);
        assert_eq!((dur, own), (0.0001, 0.0));
    }

    #[test]
    fn totals_respect_the_round_start() {
        let t = fixed(&[("s", 0, 10, None, false), ("s", 20, 50, None, false)]);
        assert_eq!(t.totals_ms("s", 0).0, 0.00004);
        assert_eq!(t.totals_ms("s", 1).0, 0.00003);
    }

    #[test]
    fn live_recording_links_parents() {
        let mut t = Tracer::new();
        let a = t.begin("a");
        let b = t.begin("b");
        t.end(b);
        t.end(a);
        let r = t.begin_under("replay", b);
        t.end(r);
        assert_eq!(t.spans[b].parent, Some(a));
        assert_eq!(t.spans[r].parent, Some(b));
        assert!(t.spans[r].replayed && !t.spans[b].replayed);
        assert!(t.spans[a].dur_ns() >= t.spans[b].dur_ns());
    }

    #[test]
    fn residual_is_what_stages_leave() {
        assert!((residual_ratio(100.0, &[40.0, 50.0]) - 0.10).abs() < 1e-12);
        assert!(residual_ratio(100.0, &[70.0, 50.0]) < 0.0);
        assert_eq!(residual_ratio(0.0, &[1.0]), 0.0);
    }
}
