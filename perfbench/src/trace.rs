//! Spans recorded from outside the library, around each call into a
//! layer. Spans stay in memory and are summarised (and dumped) when
//! the run ends; a disabled tracer records nothing.
//!
//! Naming: `req.*` spans are benchmark requests (one per timed
//! operation); every other span is named `<layer>.<call>`, where the
//! layer is a workspace crate. Spans with no enclosing request are
//! reference measurements taken outside the request path.

use crate::util::quantile;
use olp_server::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in the tracer (or a dummy when disabled).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u32,
}

/// The layers, in pipeline order.
pub const LAYERS: [&str; 7] = [
    "parser",
    "analyze",
    "ground",
    "semantics",
    "kb",
    "store",
    "server",
];

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_req: u32,
    req: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_req: 1,
            req: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NONE),
            req: self.req,
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn close(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[id.0 as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans close in LIFO order");
        if self.stack.is_empty() {
            self.req = 0;
        }
    }

    /// Opens a request span: the spans opened until it closes share its
    /// request id.
    pub fn open_req(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        debug_assert!(self.stack.is_empty(), "requests do not nest");
        self.req = self.next_req;
        self.next_req += 1;
        self.open(name)
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    /// Records an already-measured request with one child span, for
    /// work timed elsewhere (the server answers asynchronously).
    pub fn record_req(
        &mut self,
        name: &'static str,
        start: Instant,
        child: &'static str,
        child_start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let req = self.next_req;
        self.next_req += 1;
        let id = self.spans.len() as u32;
        let (s, cs, e) = (self.ns(start), self.ns(child_start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            parent: NONE,
            req,
        });
        self.spans.push(Span {
            name: child,
            start_ns: cs,
            end_ns: e,
            parent: id,
            req,
        });
    }

    /// Moves `other`'s spans into this tracer, re-based on this
    /// tracer's clock, with their parent links and request ids kept
    /// distinct from this tracer's own.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        let base = self.spans.len() as u32;
        for s in other.spans {
            self.spans.push(Span {
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
                parent: if s.parent == NONE {
                    NONE
                } else {
                    s.parent + base
                },
                req: if s.req == 0 { 0 } else { s.req + self.next_req },
                ..s
            });
        }
        self.next_req += other.next_req;
    }

    /// Median duration of the spans called `name`, in nanoseconds (0 if
    /// there are none).
    pub fn median_ns(&self, name: &str) -> f64 {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        quantile(&v, 0.5)
    }

    /// Self time per layer (span minus its child spans), the share of
    /// request time no layer span covers, and the share of composite
    /// layer spans not covered by their parts.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let (mut req_ns, mut covered_ns) = (0u64, 0u64);
        let (mut composite_ns, mut composite_gap_ns) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[i]);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            if layer == "req" {
                req_ns += dur;
                covered_ns += child_ns[i].min(dur);
                continue;
            }
            if s.req == 0 {
                continue; // reference span, outside any request
            }
            *self_ns.entry(layer).or_default() += own;
            if child_ns[i] > 0 {
                composite_ns += dur;
                composite_gap_ns += own;
            }
        }
        Summary {
            self_ns,
            req_ns,
            unattributed: if req_ns == 0 {
                0.0
            } else {
                1.0 - covered_ns as f64 / req_ns as f64
            },
            split_gap: if composite_ns == 0 {
                0.0
            } else {
                composite_gap_ns as f64 / composite_ns as f64
            },
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NONE {
                Json::Null
            } else {
                Json::Int(i64::from(s.parent))
            };
            let line = Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Int(s.start_ns as i64)),
                ("end_ns".into(), Json::Int(s.end_ns as i64)),
                ("parent".into(), parent),
                ("req".into(), Json::Int(i64::from(s.req))),
            ]);
            writeln!(f, "{}", line.render())?;
        }
        f.flush()
    }
}

#[derive(Debug)]
pub struct Summary {
    /// Self time per layer, over spans inside requests.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total request time.
    pub req_ns: u64,
    /// Share of request time covered by no layer span.
    pub unattributed: f64,
    /// Share of composite layer spans' time not covered by their parts.
    pub split_gap: f64,
}
