//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions — nothing inside the program is instrumented.
//! They stay in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An append-only span list with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn seconds(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64()
    }

    /// Runs `body` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.seconds(Instant::now());
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end = self.seconds(Instant::now());
        out
    }

    /// Records a span measured elsewhere (e.g. on another thread) and
    /// returns its id.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name: name.to_owned(),
            start: self.seconds(start),
            end: self.seconds(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::duration)
            .collect()
    }

    /// The first span called `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|span| span.name == name)
    }

    /// The spans as a JSON array of `{name, start, end, parent}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{}}}",
                span.name, span.start, span.end, parent
            );
        }
        out.push(']');
        out
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover.  Overlapping children (spans recorded on parallel
/// threads) count their union once; grandchildren are their parents'
/// business.
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let parent = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|span| span.parent == Some(id))
        .map(|span| (span.start.max(parent.start), span.end.min(parent.end)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in children {
        current = match current {
            Some((open, close)) if start <= close => Some((open, close.max(end))),
            Some((open, close)) => {
                covered += close - open;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((open, close)) = current {
        covered += close - open;
    }
    parent.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            // Overlaps `a` (a parallel thread): the union 1..5 counts once.
            span("b", 2.0, 5.0, Some(0)),
            span("c", 6.0, 7.0, Some(0)),
            // A grandchild does not reduce the root's self time twice.
            span("c.inner", 6.2, 6.8, Some(3)),
        ];
        assert!((self_time(&spans, 0) - 5.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 0.4).abs() < 1e-12);
        assert!((self_time(&spans, 4) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 1.0, 2.0, None), span("late", 1.5, 4.0, Some(0))];
        assert!((self_time(&spans, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_tracer_nests_spans_and_records_parents() {
        let mut tracer = Tracer::new();
        tracer.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(tracer.durations("inner").len(), 2);
        let self_outer = self_time(spans, 0);
        assert!(self_outer >= 0.0 && self_outer <= spans[0].duration());
        assert!(tracer.to_json().starts_with("[{\"name\":\"outer\""));
    }
}
