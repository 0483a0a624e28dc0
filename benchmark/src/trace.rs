//! In-memory span recorder for the traced run.
//!
//! Every span is recorded from the ledger's side of a public call into one
//! layer (layer = crate name): name, layer, start, end, the span that
//! caused it and a request id (repetition / episode / window / wire id).
//! Spans stay in memory and are written out once, when the run ends.
//! With tracing off `begin`/`end` cost one branch, so the untraced run is
//! the program as a user runs it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// At most this many spans are written to the trace file; the rest are
/// counted in its trailer. A traced paper-scale simulation emits a span
/// every few microseconds.
const MAX_SPANS_WRITTEN: usize = 250_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Repetition, episode, window or wire id the span belongs to.
    pub request: u64,
    /// Calls timed inside the span (1 unless a batch of sub-microsecond
    /// calls is timed as one).
    pub calls: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer::with_origin(enabled, Instant::now())
    }

    /// A recorder sharing another's time origin (one per generator thread).
    #[must_use]
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, request: u64) -> SpanId {
        self.begin_calls(layer, name, request, 1)
    }

    /// A span timing `calls` back-to-back calls as one.
    pub fn begin_calls(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        calls: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            parent,
            request,
            calls,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(id))
    }

    /// Ends the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Appends another recorder's closed spans (a generator thread's),
    /// keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(
            other.open.is_empty(),
            "absorbing a recorder with open spans"
        );
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-call durations, in microseconds, of every span named
    /// `layer`/`name`.
    #[must_use]
    pub fn per_call_us(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3 / s.calls.max(1) as f64)
            .collect()
    }

    /// Total seconds spent in spans named `layer`/`name`.
    #[must_use]
    pub fn total_s(&self, layer: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Self time per span: its duration minus the part of that interval its
    /// child spans cover.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// `(layer, total self seconds, spans)` per layer, slowest first.
    #[must_use]
    pub fn layer_self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let selfs = self.self_times_ns();
        let mut rows: Vec<(&'static str, f64, usize)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            match rows.iter_mut().find(|r| r.0 == span.layer) {
                Some(row) => {
                    row.1 += self_ns as f64 / 1e9;
                    row.2 += 1;
                }
                None => rows.push((span.layer, self_ns as f64 / 1e9, 1)),
            }
        }
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Writes the spans as JSON Lines, one span per line plus a trailer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(MAX_SPANS_WRITTEN);
        for (id, s) in self.spans[..written].iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"request\":{},\"calls\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.name, s.request, s.calls, s.start_ns, s.end_ns
            )?;
        }
        writeln!(
            out,
            "{{\"spans\":{},\"written\":{written}}}",
            self.spans.len()
        )?;
        out.flush()
    }
}

/// See [`Tracer::self_times_ns`].
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "l",
            name: "n",
            parent,
            request: 0,
            calls: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span(None, 0, 100),      // root: children cover 10..40 and 40..70
            span(Some(0), 10, 40),   // child a, with a grandchild
            span(Some(1), 15, 25),   // grandchild: counts against a only
            span(Some(0), 40, 70),   // child b, adjacent to a
            span(None, 200, 250),    // childless
            span(Some(4), 240, 300), // child overrunning its parent: clipped
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 30, 40, 60]);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 50, 80),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_parents_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        let outer = t.begin("a", "outer", 7);
        let inner = t.begin_calls("b", "inner", 7, 10);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.per_call_us("b", "inner").len(), 1);
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());

        let mut other = Tracer::with_origin(true, t.origin());
        let o = t_begin_end(&mut other);
        t.absorb(other);
        assert_eq!(t.spans()[2 + o].parent, Some(2));

        let mut off = Tracer::new(false);
        let id = off.begin("a", "x", 0);
        off.end(id);
        assert!(off.spans().is_empty());
    }

    /// Records a parent and a child; returns the child's index.
    fn t_begin_end(t: &mut Tracer) -> usize {
        let p = t.begin("c", "p", 1);
        let c = t.begin("c", "c", 1);
        t.end(c);
        t.end(p);
        1
    }
}
