//! In-memory spans recorded around each call into a layer: name, start,
//! end, parent and operation. Spans are kept in memory while the workload
//! runs and written out once at exit, so recording costs one clock read and
//! one push per span.

use crate::json::Json;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
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
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The span file: every span, plus per-name count, total and self time.
pub fn spans_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let mut summary: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        match summary.iter_mut().find(|row| row.0 == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += s.duration_ns();
                row.3 += own;
            }
            None => summary.push((s.name, 1, s.duration_ns(), own)),
        }
    }
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("op", s.op)
        })
        .collect::<Vec<_>>();
    let summary = summary
        .into_iter()
        .map(|(name, count, total, own)| {
            Json::obj()
                .with("name", name)
                .with("count", count)
                .with("total_s", total as f64 * 1e-9)
                .with("self_s", own as f64 * 1e-9)
        })
        .collect::<Vec<_>>();
    Json::obj().with("spans", rows).with("summary", summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span(0, 100, None),
            // Overlapping children count once: [10, 40] covers 30.
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
            // A grandchild is covered by its parent, not by the root.
            span(50, 80, Some(0)),
            span(55, 60, Some(3)),
            // A child running past its parent's end is clipped.
            span(90, 120, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 30 - 10);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[3], 25);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let summary = spans_json(t.spans());
        assert_eq!(summary.get("summary").unwrap().as_arr().unwrap().len(), 2);

        let mut off = Tracer::new(false);
        let s = off.enter("x", 0);
        off.exit(s);
        assert!(off.spans().is_empty());
    }
}
