//! In-memory span recorder for the traced run.
//!
//! Every timed section of the benchmark goes through [`Tracer::open`] /
//! [`Tracer::close`], which always return the section's wall time. A
//! disabled tracer (the untraced runs) records nothing else; an enabled
//! one keeps a span per section — name, start, end, parent, cell — in
//! memory, and the whole tree is written out once the run ends, with each
//! span's self time (its duration minus the part its children cover).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open section: its span id (when recording) and its start instant.
#[must_use]
pub struct Guard {
    id: Option<usize>,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a section as a child of the innermost open span.
    pub fn open(&mut self, name: &str, cell: Option<usize>) -> Guard {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(start),
                parent: self.open.last().copied(),
                cell,
            });
            let id = self.spans.len() - 1;
            self.open.push(id);
            id
        });
        Guard { id, start }
    }

    /// Closes a section and returns its wall time in seconds. Spans a
    /// panic left open inside it are closed at the same instant.
    pub fn close(&mut self, guard: Guard) -> f64 {
        let end = Instant::now();
        if let Some(id) = guard.id {
            let end_ns = self.ns(end);
            while let Some(top) = self.open.pop() {
                self.spans[top].end_ns = end_ns;
                if top == id {
                    break;
                }
            }
        }
        end.duration_since(guard.start).as_secs_f64()
    }

    /// Id of the most recently closed or opened span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Records an already-measured interval as a closed child of `parent`,
    /// laid out back to back after the parent's earlier synthetic
    /// children. Used for the kernel profiler's lanes, which are totals,
    /// not intervals.
    pub fn lay_out(&mut self, parent: usize, name: &str, nanos: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        let cell = self.spans[parent].cell;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + nanos,
            parent: Some(parent),
            cell,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span. Never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// JSON Lines rendering: `header` first, then one object per span.
pub fn render_jsonl(header: &str, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"cell\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.name,
            opt(s.parent),
            opt(s.cell),
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            self_ns as f64 / 1e3,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("a.x", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
    }

    #[test]
    fn children_past_the_parent_are_clipped() {
        let spans = vec![span("root", 0, 10, None), span("lane", 5, 50, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 45]);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_times() {
        let mut tr = Tracer::new(false);
        let g = tr.open("x", None);
        assert!(tr.close(g) >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut tr = Tracer::new(true);
        let root = tr.open("root", None);
        let child = tr.open("child", Some(3));
        tr.close(child);
        tr.close(root);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, Some(3));
        let run = tr.last("child").unwrap();
        tr.lay_out(run, "lane", 0);
        assert_eq!(tr.spans()[2].parent, Some(1));
    }
}
