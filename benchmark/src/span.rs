//! The harness-owned span recorder of the traced run.
//!
//! A span is one call from the harness into a layer's public function:
//! op id, `layer.name`, start, end, and the span that was open when it
//! started. Spans stay in memory while the workload runs and are
//! written out afterwards (Chrome trace JSON), so recording costs two
//! clock reads and one `Vec` push per span. Spans inside the crates
//! are a later change; everything here wraps calls from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The operation (request, update, task) this span belongs to.
    pub op: u64,
    /// `layer.name`; the layer is the crate the call goes into.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A recorder that records nothing: lets the decomposed path run
    /// (to preload a world) without keeping spans.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on spans opened from here on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(idx);
        // Clock read last, so the span does not cover its own bookkeeping.
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span. `f` cannot open child spans (it does not
    /// see the recorder); nest with [`Self::enter`] / [`Self::exit`].
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds a span measured elsewhere (an isolated replay) under span
    /// `parent`, at `start_ns` on this recorder's clock; returns its
    /// index so that replays can nest.
    pub fn record_at(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        duration_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Every span recorded, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, inclusive time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Chrome trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, one thread row per layer.
    pub fn chrome_trace(&self) -> String {
        let mut layers: Vec<&str> = self.spans.iter().map(|s| layer_of(s.name)).collect();
        layers.sort_unstable();
        layers.dedup();
        let mut out = String::with_capacity(self.spans.len() * 128 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for (tid, layer) in layers.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{layer}\"}}}}"
            );
        }
        for (idx, s) in self.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let tid = layers
                .binary_search(&layer_of(s.name))
                .expect("layer listed");
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{idx},\"parent\":{parent}}}}}",
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("]}");
        out
    }
}

/// The layer (crate) of a `layer.name` span name.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-name aggregate of a recorder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations (children included).
    pub total_ns: u64,
    /// Sum of their self times (children excluded).
    pub self_ns: u64,
}

impl Totals {
    /// Mean inclusive duration per call, 0 with no calls.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover. Children are clipped to
/// the parent and overlapping siblings are counted once, so the
/// covered part never exceeds the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            op: 0,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30
        let spans = [
            span("core.root", 0, 100, None),
            span("x.a", 10, 60, Some(0)),
            span("y.b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_add_up_and_overlap_counts_once() {
        // Disjoint siblings 10..20 and 30..50, plus one overlapping the
        // second (40..70).
        let spans = [
            span("core.root", 0, 100, None),
            span("x.a", 10, 20, Some(0)),
            span("x.b", 30, 50, Some(0)),
            span("x.c", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 10 - 40);
    }

    #[test]
    fn children_never_exceed_the_parent() {
        // A child reported past both ends of its parent is clipped.
        let spans = [
            span("core.root", 100, 200, None),
            span("x.a", 50, 300, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 250]);
        // Recorded spans: self ≤ duration, and self + children = duration.
        let mut rec = Recorder::new();
        rec.enter("core.op");
        rec.time("x.a", || std::hint::black_box((0..1000u64).sum::<u64>()));
        rec.time("x.b", || std::hint::black_box((0..1000u64).sum::<u64>()));
        rec.exit();
        let totals = rec.totals();
        let root = totals["core.op"];
        assert_eq!(
            root.total_ns,
            root.self_ns + totals["x.a"].total_ns + totals["x.b"].total_ns
        );
        for s in rec.spans() {
            if let Some(p) = s.parent {
                assert!(s.start_ns >= rec.spans()[p].start_ns && s.end_ns <= rec.spans()[p].end_ns);
            }
        }
    }

    #[test]
    fn chrome_trace_lists_every_span_with_its_parent() {
        let mut rec = Recorder::new();
        rec.set_op(7);
        rec.enter("core.op");
        rec.time("ledger.append", || ());
        rec.exit();
        let text = rec.chrome_trace();
        let doc = crate::json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents");
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let child = complete[1];
        assert_eq!(
            child.get("name").and_then(|n| n.as_str()),
            Some("ledger.append")
        );
        let args = child.get("args").expect("args");
        assert_eq!(args.get("op").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(args.get("parent").and_then(|v| v.as_f64()), Some(0.0));
    }
}
