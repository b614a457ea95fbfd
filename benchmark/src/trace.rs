//! Harness-side spans for the traced pass: one record per call into a
//! layer, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the span that caused it; spans of
/// one replayed request share `request_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

/// Single-threaded span recorder; nesting follows the call stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request_id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    /// Start the next replayed request: spans recorded from here on
    /// carry a fresh id.
    pub fn next_request(&mut self) {
        self.request_id += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, a child of whichever span is
    /// open on this tracer. Returns `f`'s value and the span's
    /// duration in milliseconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(idx);
        let value = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 / 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span with its self
    /// time alongside the raw interval.
    pub fn to_json(&self) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request_id\": {}, \"self_ns\": {own}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent and
/// overlaps counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the first child by 10
            span(90, 130, Some(0)), // sticks out of the parent by 30
            span(15, 20, Some(1)),  // grandchild: only its parent pays
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 25, 30, 40, 5]);
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let mut t = Tracer::new();
        t.next_request();
        let ((), outer_ms) = t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        t.next_request();
        t.span("outer", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), None)
        );
        assert_eq!(
            (s[0].request_id, s[2].request_id, s[3].request_id),
            (1, 1, 2)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(outer_ms * 1e6 >= (s[2].end_ns - s[1].start_ns) as f64);
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }
}
