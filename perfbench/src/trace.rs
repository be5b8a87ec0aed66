//! In-memory spans recorded around calls into the library.
//!
//! A span has a name, a start and end (ns since the trace origin), an
//! optional parent, and the id of the request it belongs to. Spans are
//! recorded after the fact from `Instant`s the caller took, stay in
//! memory, and are written out once the run ends. A disabled trace
//! records nothing, so traced and untraced code paths are the same.

use aiga::util::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its trace.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one run.
#[derive(Clone, Debug)]
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Per-name aggregate of a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Trace {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Trace {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span; returns its id (`None` when tracing is off).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f`, recording a span around it.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, parent, request, start, Instant::now());
        r
    }

    /// Self time of every span, ns: its duration minus the part of its
    /// interval that the union of its children's intervals covers.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Aggregates spans by name.
    pub fn by_name(&self) -> BTreeMap<String, NameStats> {
        let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name.clone()).or_default();
            let ms = s.duration_ns() as f64 / 1e6;
            e.count += 1;
            e.total_ms += ms;
            e.self_ms += self_ns as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON rows `[name, start_ns, end_ns, parent, request]`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::str(s.name.clone()),
                        Json::num(s.start_ns as f64),
                        Json::num(s.end_ns as f64),
                        s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        Json::num(s.request as f64),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of `[start, end)` covered by the union of `intervals`
/// (each clipped to `[start, end)`).
pub fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}
