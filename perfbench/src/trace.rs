//! Reading the daemon's `GET /trace` drains: span events grouped by the
//! request id they carry, plus interval arithmetic for self times and
//! coverage.

use std::collections::BTreeMap;

/// One complete span event, times in microseconds.
pub struct Span {
    pub name: String,
    pub start: f64,
    pub dur: f64,
}

impl Span {
    fn end(&self) -> f64 {
        self.start + self.dur
    }
}

/// Spans of every request-scoped event in a set of drains, by request id.
#[derive(Default)]
pub struct Requests {
    pub by_req: BTreeMap<u64, Vec<Span>>,
    /// Whether any drain carried the ring-overflow marker.
    pub dropped: bool,
}

/// A cursor over one Chrome trace-event array, reading just the fields
/// the analysis needs. (A byte scanner of its own: the generic
/// `xic::obs::json::parse` re-validates the rest of the input for every
/// string character, which is quadratic on multi-megabyte drains.)
struct Scan<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Scan<'a> {
    fn peek(&mut self) -> Option<u8> {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "trace: expected {:?} at byte {}",
                c as char, self.i
            ))
        }
    }

    /// A string without escapes (span names are identifiers).
    fn string(&mut self) -> Result<&'a str, String> {
        self.eat(b'"')?;
        let start = self.i;
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => {
                    return std::str::from_utf8(&self.b[start..self.i - 1])
                        .map_err(|e| e.to_string())
                }
                b'\\' => return Err("trace: escaped string".into()),
                _ => {}
            }
        }
        Err("trace: unterminated string".into())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.peek();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse()
            .map_err(|_| format!("trace: bad number {text:?}"))
    }

    /// Skips a string or number value.
    fn skip(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'"') {
            self.string().map(|_| ())
        } else {
            self.number().map(|_| ())
        }
    }

    /// Calls `field` for every key of an object; it must consume the
    /// key's value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &'a str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            field(self, key)?;
            if self.peek() != Some(b',') {
                return self.eat(b'}');
            }
            self.i += 1;
        }
    }
}

impl Requests {
    /// Adds the events of one Chrome trace-event array.
    pub fn add_drain(&mut self, src: &str) -> Result<(), String> {
        let mut s = Scan {
            b: src.as_bytes(),
            i: 0,
        };
        s.eat(b'[')?;
        if s.peek() == Some(b']') {
            return Ok(());
        }
        loop {
            let (mut name, mut start, mut dur, mut req) = ("", 0.0, 0.0, None);
            s.object(|s, key| match key {
                "name" => s.string().map(|v| name = v),
                "ts" => s.number().map(|v| start = v),
                "dur" => s.number().map(|v| dur = v),
                "args" => s.object(|s, key| match key {
                    "req" => s.number().map(|r| req = Some(r as u64)),
                    _ => s.skip(),
                }),
                _ => s.skip(),
            })?;
            if name.starts_with("xic.trace_dropped") {
                self.dropped = true;
            } else if let Some(req) = req {
                self.by_req.entry(req).or_default().push(Span {
                    name: name.to_string(),
                    start,
                    dur,
                });
            }
            if s.peek() != Some(b',') {
                return s.eat(b']');
            }
            s.i += 1;
        }
    }

    /// The requests whose spans include one named `route`.
    pub fn with_span<'a>(&'a self, route: &'a str) -> impl Iterator<Item = &'a [Span]> + 'a {
        self.by_req
            .values()
            .filter(move |spans| spans.iter().any(|s| s.name == route))
            .map(Vec::as_slice)
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Microseconds of one request's wall time covered by any of its spans.
pub fn covered(spans: &[Span]) -> f64 {
    union_len(spans.iter().map(|s| (s.start, s.end())).collect())
}

/// Self time of the first span named `parent`: its duration minus the
/// part of its interval covered by the request's spans named in
/// `children`. `None` if the request has no such span.
pub fn self_time(spans: &[Span], parent: &str, children: &[&str]) -> Option<f64> {
    let p = spans.iter().find(|s| s.name == parent)?;
    let inside: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| children.contains(&s.name.as_str()))
        .map(|s| (s.start.max(p.start), s.end().min(p.end())))
        .filter(|(s, e)| e > s)
        .collect();
    Some(p.dur - union_len(inside))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic::obs::Collector;
    use xic::prelude::{request_scope, TraceCollector};

    fn span(name: &str, start: f64, dur: f64) -> Span {
        Span {
            name: name.into(),
            start,
            dur,
        }
    }

    #[test]
    fn reads_the_daemon_trace_format_by_request() {
        let tc = TraceCollector::with_capacity(16);
        tc.record_span("untagged", 1_000);
        {
            let _scope = request_scope(7);
            tc.record_span("http.request", 5_000);
            tc.record_span("http.route.edits", 4_000);
        }
        let mut reqs = Requests::default();
        reqs.add_drain(&tc.drain_chrome_json()).unwrap();
        reqs.add_drain(&tc.drain_chrome_json()).unwrap();
        assert!(!reqs.dropped);
        assert_eq!(reqs.by_req.len(), 1);
        let spans = &reqs.by_req[&7];
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "http.request");
        assert!((spans[0].dur - 5.0).abs() < 1e-9);
        assert_eq!(reqs.with_span("http.route.edits").count(), 1);
    }

    #[test]
    fn flags_ring_overflow() {
        let tc = TraceCollector::with_capacity(1);
        tc.record_span("a", 1);
        tc.record_span("b", 1);
        let mut reqs = Requests::default();
        reqs.add_drain(&tc.drain_chrome_json()).unwrap();
        assert!(reqs.dropped);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = [
            span("serve.shard_dispatch", 10.0, 100.0),
            span("edit.batch", 20.0, 30.0),
            span("wal.append", 40.0, 20.0),
            span("wal.append", 105.0, 20.0),
            span("http.request", 0.0, 130.0),
        ];
        let own = self_time(
            &spans,
            "serve.shard_dispatch",
            &["edit.batch", "wal.append"],
        );
        // Children cover [20, 60) and [105, 110) inside [10, 110).
        assert_eq!(own, Some(55.0));
        assert_eq!(covered(&spans), 130.0);
        assert_eq!(self_time(&spans, "missing", &[]), None);
    }
}
