//! Spans around calls into the product's public functions.
//!
//! Spans are recorded here, in the benchmark, never inside the product.  They
//! stay in memory until the run ends.  End-to-end metrics never come from a
//! pass recorded with the tracer on.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The harness iteration the span belongs to: spans of one pass share it.
    pub iteration: usize,
}

/// How an iteration makes its pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload's own call with the tracer off: what an untraced run
    /// measures.
    Off,
    /// The code a traced pass runs — on the batch workloads the stage
    /// composition in place of `MlnClean::clean` — with the tracer off: what
    /// `trace.overhead_pct` compares a traced pass with.
    Dry,
    /// The same code with spans and counts recorded.
    On,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    mode: Mode,
    iteration: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Counts taken at span boundaries: per name, the total over the latest
    /// traced iteration that counted it, and that iteration.
    counts: BTreeMap<&'static str, (usize, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            mode: Mode::Off,
            iteration: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Start iteration `iteration`; spans and counts are recorded only in
    /// `Mode::On`.
    pub fn begin_iteration(&mut self, iteration: usize, mode: Mode) {
        self.iteration = iteration;
        self.mode = mode;
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    fn recording(&self) -> bool {
        self.mode == Mode::On
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.  With the tracer off this only calls `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording() {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Add `value` to this iteration's count `name`, which replaces an
    /// earlier iteration's.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.recording() {
            let entry = self.counts.entry(name).or_insert((self.iteration, 0.0));
            if entry.0 != self.iteration {
                *entry = (self.iteration, 0.0);
            }
            entry.1 += value;
        }
    }

    /// The count `name` of the latest traced iteration that counted it.
    pub fn counted(&self, name: &str) -> Option<f64> {
        self.counts.get(name).map(|&(_, total)| total)
    }

    /// Duration in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Every span name, in order of first appearance.
    pub fn span_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for span in &self.spans {
            if !names.contains(&span.name) {
                names.push(span.name);
            }
        }
        names
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .collect();
        children.sort_unstable();
        let (mut covered, mut reached) = (0, span.start_ns);
        for (start, end) in children {
            let start = start.max(reached);
            if end > start {
                covered += end - start;
                reached = end;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(i as f64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("iteration".into(), Json::Num(s.iteration as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ("self_ns".into(), Json::Num(self.self_ns(i) as f64)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(name, (_, total))| (name.to_string(), Json::Num(*total)))
            .collect();
        Json::Obj(vec![
            ("counts".into(), Json::Obj(counts)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            iteration: self.iteration,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let mut t = Tracer::new();
        t.push_raw("pass", 100, 1100, None);
        t.push_raw("agp", 200, 500, Some(0));
        // Overlaps the first child: only 500..600 is new cover.
        t.push_raw("rsc", 400, 600, Some(0));
        t.push_raw("fscr", 700, 900, Some(0));
        // A grandchild covers its parent, not the root.
        t.push_raw("fuse", 750, 800, Some(3));
        // Reaches past the parent's end: clipped to it.
        t.push_raw("dedup", 1000, 1300, Some(0));
        assert_eq!(t.self_ns(0), 1000 - (300 + 100 + 200 + 100));
        assert_eq!(t.self_ns(3), 200 - 50);
        assert_eq!(t.self_ns(4), 50);
    }

    #[test]
    fn nested_spans_record_parent_and_iteration() {
        let mut t = Tracer::new();
        t.begin_iteration(3, Mode::On);
        let out = t.span("outer", |t| {
            t.span("inner", |t| t.count("groups", 2.0));
            t.count("groups", 3.0);
            7
        });
        assert_eq!(out, 7);
        t.span("sibling", |_| ());
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("sibling", None));
        assert!(spans.iter().all(|s| s.iteration == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.counted("groups"), Some(5.0));
        assert_eq!(t.durations_ms("inner").len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.begin_iteration(1, Mode::Dry);
        assert_eq!(t.span("pass", |t| t.span("agp", |_| 5)), 5);
        t.count("groups", 1.0);
        assert!(t.spans.is_empty());
        assert_eq!(t.counted("groups"), None);
    }

    #[test]
    fn a_later_iteration_replaces_a_count_and_keeps_the_others() {
        let mut t = Tracer::new();
        t.begin_iteration(1, Mode::On);
        t.count("merges", 4.0);
        t.count("repairs", 2.0);
        t.begin_iteration(2, Mode::Off);
        t.count("merges", 9.0);
        assert_eq!(t.counted("merges"), Some(4.0));
        t.begin_iteration(3, Mode::On);
        t.count("merges", 1.0);
        t.count("merges", 1.0);
        assert_eq!(t.counted("merges"), Some(2.0));
        assert_eq!(t.counted("repairs"), Some(2.0));
    }

    #[test]
    fn the_trace_file_lists_spans_with_self_time() {
        let mut t = Tracer::new();
        t.begin_iteration(2, Mode::On);
        t.span("pass", |t| t.span("agp", |_| ()));
        let json = Json::parse(&t.to_json().to_pretty()).unwrap();
        let spans = json.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("agp"));
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[0].get("iteration").and_then(Json::as_f64), Some(2.0));
        assert!(spans[0].get("self_ns").and_then(Json::as_f64).is_some());
    }
}
