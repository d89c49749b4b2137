//! Spans around the benchmark's calls into each layer.
//!
//! A span records a layer call's name, start, end and the span that
//! caused it; spans of one service request carry that request's id. The
//! spans stay in memory and are written once, at the end of a run, as
//! Chrome trace-event JSON (loadable in `chrome://tracing` or Perfetto)
//! through the analyzer's own dependency-free `serve::json`. When tracing
//! is off a span site costs one branch plus the clock reads the benchmark
//! needs for its end-to-end timings anyway.

use std::collections::BTreeMap;
use std::time::Instant;

use xtalk::sta::serve::Json;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `layout.route` or `serve.query`.
    pub name: String,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// This span's id (its index in the span list).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The service request this span belongs to, if any.
    pub request: Option<u64>,
    /// Count deltas read at the span's boundaries.
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// The layer a span name belongs to: the part before the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// An open span, returned by [`Tracer::begin`].
pub struct Open {
    name: &'static str,
    start: Instant,
    slot: Option<usize>,
}

/// The in-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; with `on == false` it records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                start: start.duration_since(self.epoch).as_secs_f64(),
                end: f64::NAN,
                id,
                parent: self.stack.last().copied(),
                request,
                counts: Vec::new(),
            });
            self.stack.push(id);
            id
        });
        Open { name, start, slot }
    }

    /// Closes `open`, attaching `counts`, and returns its duration in
    /// seconds (measured whether or not tracing is on).
    pub fn end(&mut self, open: Open, counts: &[(&str, f64)]) -> f64 {
        let now = Instant::now();
        let secs = now.duration_since(open.start).as_secs_f64();
        if let Some(id) = open.slot {
            let span = &mut self.spans[id];
            debug_assert_eq!(span.name, open.name);
            span.end = now.duration_since(self.epoch).as_secs_f64();
            span.counts = counts.iter().map(|&(k, v)| (k.to_string(), v)).collect();
            self.stack.retain(|&s| s != id);
        }
        secs
    }

    /// Runs `f` inside a span named `name`; returns its result and
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, None);
        let out = f();
        let secs = self.end(open, &[]);
        (out, secs)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// child spans cover, summed by layer.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for span in &self.spans {
            let own = (span.end - span.start - child_time[span.id]).max(0.0);
            *out.entry(span.layer().to_string()).or_default() += own;
        }
        out
    }

    /// The spans as a Chrome trace-event document; `meta` lands in
    /// `otherData`.
    pub fn to_chrome_json(&self, meta: Json) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![("span", Json::num(s.id as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::num(p as f64)));
                }
                if let Some(r) = s.request {
                    args.push(("request", Json::num(r as f64)));
                }
                let mut args = Json::obj(args);
                if let Json::Obj(pairs) = &mut args {
                    for (k, v) in &s.counts {
                        pairs.push((k.clone(), Json::num(*v)));
                    }
                }
                Json::obj(vec![
                    ("name", Json::str(s.name.clone())),
                    ("cat", Json::str(s.layer())),
                    ("ph", Json::str("X")),
                    ("ts", Json::num(s.start * 1e6)),
                    ("dur", Json::num((s.end - s.start) * 1e6)),
                    ("pid", Json::num(1.0)),
                    ("tid", Json::num(1.0)),
                    ("args", args),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("otherData", meta),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_export() {
        let mut t = Tracer::new(true);
        let root = t.begin("run", None);
        let ((), _) = t.time("layout.place", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let child = t.begin("serve.query", Some(7));
        t.end(child, &[("hits", 3.0)]);
        let total = t.end(root, &[]);
        assert!(total >= 0.005);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].request, Some(7));
        let selfs = t.self_times();
        assert!(selfs["layout"] >= 0.005);
        assert!(selfs["run"] < total);
        let doc = t.to_chrome_json(Json::obj(vec![]));
        let text = doc.write();
        let back = Json::parse(&text).expect("valid JSON");
        let events = back
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("hits"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("sta.analyze", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
