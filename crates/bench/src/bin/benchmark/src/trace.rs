//! In-memory spans for the traced run. A span is recorded around every
//! call the replay makes into a layer; nothing is written until the run
//! ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the replayed pool entry, shared by all spans of one
    /// request.
    pub request: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span. Spans opened by `f` through the tracer it
    /// receives become children; the request index is inherited.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let parent = self.open.last().copied();
        let request = request.or_else(|| parent.and_then(|p| self.spans[p].request));
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// A leaf span around a call that opens no spans of its own.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, None, |_| f())
    }

    /// Durations of every span called `name`, milliseconds, in recording
    /// order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Every span as one JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_inherit_the_request_and_nest_in_their_parent() {
        let mut t = Tracer::new();
        t.span("request", Some(7), |t| {
            t.leaf("engine.run", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.leaf("serve.render", || ());
        });
        assert_eq!(t.spans.len(), 3);
        assert!(t.spans.iter().all(|s| s.request == Some(7)));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let total = t.durations_ms("request")[0];
        let child = t.durations_ms("engine.run")[0];
        assert!(child >= 2.0 && total >= child);
        assert!(t.to_json().contains("\"name\":\"engine.run\""));
    }
}
