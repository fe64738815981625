//! The benchmark's own span recorder for the traced run: every timed
//! layer call becomes a span (name, start, end, parent) under the id of
//! the request it served. Spans stay in memory and are written out as
//! JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id`, returning its duration in nanoseconds.
    pub fn close(&mut self, id: u64) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Times `f` as a child span of `parent`; returns its result and
    /// duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, request);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: `id`, `parent`, `request`, `name`,
    /// `start_ns`, `end_ns` (nanoseconds since the recorder started).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent() {
        let mut r = Recorder::new();
        let req = r.open("request", None, 7);
        let ((), _) = r.time("child", Some(req), 7, || ());
        r.close(req);
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":1,\"request\":7,\"name\":\"child\""));
    }
}
