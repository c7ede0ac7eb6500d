//! Causal distributed tracing.
//!
//! Every command entering the replicated pipeline carries a [`TraceCtx`]
//! — a trace id plus the span id of the stage that caused it — minted
//! deterministically at submission ([`TraceCtx::for_command`]). Protocol
//! code records [`TraceEvent`]s at named pipeline stages (see
//! [`STAGES`]): `enqueue → admit | shed` for the serving front end,
//! `queue → batch-cut → pre-prepare → prepare-quorum →
//! commit-quorum → exec → wal-flush` for ordering, and `cross-lock →
//! cross-decide → cross-outcome` for the SharPer-style cross-shard
//! path. Events are stamped with **virtual time** from the simulator,
//! never the wall clock, so a trace is a pure function of `(workload,
//! seed)` and replays bit-identically — including under the
//! shard-per-thread parallel runtime, because the export order is a
//! canonical sort over deterministic fields, not arrival order.
//!
//! The collector (off by default, [`set_trace_enabled`]) is an
//! unbounded event list drained by exporters — Chrome trace-event JSON
//! via [`export_chrome_trace`] and the critical-path latency attribution
//! of [`critical_path`]. A chaos postmortem does not read it: the
//! simulator's own bounded ring of actor steps
//! (`prever_sim::Simulation::enable_trace`) is the per-run record.
//!
//! ## Cost when off
//!
//! [`event`] costs one relaxed atomic load when the collector is off;
//! the `disabled` cargo feature compiles the whole module to no-ops (the
//! flag read becomes a constant `false`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static ON: AtomicBool = AtomicBool::new(false);

/// SplitMix64 finalizer: the deterministic trace-id mint.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Causal trace context: the trace id plus the span that caused this
/// work. Minted once at command submission and carried (by value or by
/// derivation from the command id) through batches, protocol messages,
/// and durability barriers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The trace this work belongs to (0 = untraced).
    pub trace_id: u64,
    /// Span id of the causing stage (0 = root: client submission).
    pub parent_span: u64,
}

impl TraceCtx {
    /// Mints the root context for a client command. Deterministic —
    /// the same command id always yields the same trace id, so any
    /// pipeline stage that knows only the id (e.g. the cross-shard
    /// decision path) re-derives the identical context.
    pub fn for_command(command_id: u64) -> TraceCtx {
        TraceCtx { trace_id: mix64(command_id), parent_span: 0 }
    }

    /// The deterministic span id of `stage` for this trace at `node`.
    pub fn span_id(&self, stage: &str, node: u64) -> u64 {
        let mut h = self.trace_id ^ mix64(node);
        for &b in stage.as_bytes() {
            h = mix64(h ^ b as u64);
        }
        h | 1 // never 0 (0 = root)
    }

    /// A child context whose parent is `stage` at `node`.
    pub fn child(&self, stage: &str, node: u64) -> TraceCtx {
        TraceCtx { trace_id: self.trace_id, parent_span: self.span_id(stage, node) }
    }
}

/// The named pipeline stages in causal order. The exporter uses the
/// position in this list as the canonical stage rank; unknown stage
/// names sort after all known ones (alphabetically).
///
/// The first five are serving-layer stages (DESIGN.md §14–15): a
/// session attaches with `hello` (or re-attaches on a new gateway with
/// `resume` after a failover), then each request is `enqueue`d at the
/// gateway and either `admit`ted into the consensus path or `shed`
/// (overload, deadline, or degradation ladder). Separating them from
/// `queue` (consensus-side request arrival) lets `critical_path`
/// attribute admission queueing delay apart from consensus ordering
/// delay.
pub const STAGES: [&str; 15] = [
    "hello",
    "resume",
    "enqueue",
    "admit",
    "shed",
    "queue",
    "batch-cut",
    "pre-prepare",
    "prepare-quorum",
    "commit-quorum",
    "exec",
    "wal-flush",
    "cross-lock",
    "cross-decide",
    "cross-outcome",
];

/// Rank of `stage` in the canonical pipeline order.
pub fn stage_rank(stage: &str) -> usize {
    STAGES.iter().position(|&s| s == stage).unwrap_or(STAGES.len())
}

/// One recorded protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time (µs) the stage was reached.
    pub at: u64,
    /// Node (replica) that recorded the event.
    pub node: u64,
    /// The trace this event belongs to.
    pub trace_id: u64,
    /// Span id of the causing stage (0 = root).
    pub parent_span: u64,
    /// Stage name (one of [`STAGES`] by convention).
    pub stage: &'static str,
    /// Stage-specific detail (slot / sequence / tx id).
    pub seq: u64,
}

impl TraceEvent {
    /// The canonical sort key: a pure function of deterministic fields,
    /// so the exported order is independent of thread interleaving.
    fn key(&self) -> (u64, u64, usize, u64, u64) {
        (self.at, self.trace_id, stage_rank(self.stage), self.node, self.seq)
    }
}

/// The trace collector's events.
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// True iff the collector wants events (one relaxed load).
#[cfg(not(feature = "disabled"))]
#[inline]
pub fn active() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Compiled out: never active.
#[cfg(feature = "disabled")]
#[inline]
pub const fn active() -> bool {
    false
}

/// Turns the trace collector on or off.
pub fn set_trace_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Records a pipeline stage event. Call sites should guard loops with
/// [`active`]; the call itself re-checks, so an unguarded call is
/// merely a cheap no-op when tracing is off.
#[inline]
pub fn event(node: u64, at: u64, ctx: TraceCtx, stage: &'static str, seq: u64) {
    if !active() {
        return;
    }
    let (trace_id, parent_span) = (ctx.trace_id, ctx.parent_span);
    let ev = TraceEvent { at, node, trace_id, parent_span, stage, seq };
    EVENTS.lock().expect("trace sink poisoned").push(ev);
}

/// A canonically ordered copy of everything the trace collector holds.
/// The sort key is deterministic (virtual time, trace id, stage rank,
/// node), so the result is bit-identical across replays regardless of
/// thread scheduling.
pub fn events() -> Vec<TraceEvent> {
    let mut out = EVENTS.lock().expect("trace sink poisoned").clone();
    out.sort_by_key(|e| e.key());
    out
}

// ---------------------------------------------------------------------
// Chrome trace-event export (Perfetto-loadable).
// ---------------------------------------------------------------------

/// Exports events as a Chrome trace-event JSON document
/// (`chrome://tracing` / Perfetto's legacy JSON loader).
///
/// Per trace: one async `b`/`e` pair spanning submission → final stage
/// (nested under the trace id, which gives the causal grouping), plus
/// one complete (`X`) slice per stage transition on the timeline of the
/// node that reached the stage. `ts` is virtual µs verbatim —
/// trace-event timestamps are µs, so virtual time maps 1:1.
/// `shard_of` maps a node id to its process-track (`pid`) group.
pub fn export_chrome_trace(events: &[TraceEvent], shard_of: impl Fn(u64) -> u64) -> String {
    use crate::export::json_escape;
    let mut by_trace: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace_id).or_default().push(e);
    }
    let mut lines: Vec<String> = Vec::new();
    for (trace_id, mut evs) in by_trace {
        evs.sort_by_key(|e| e.key());
        let first = evs.first().expect("non-empty trace");
        let last = evs.last().expect("non-empty trace");
        lines.push(format!(
            "{{\"ph\":\"b\",\"cat\":\"prever\",\"name\":\"trace\",\"id\":\"0x{trace_id:016x}\",\
             \"pid\":{},\"tid\":{},\"ts\":{}}}",
            shard_of(first.node),
            first.node,
            first.at
        ));
        // One slice per stage: from the previous stage's first arrival
        // to this one's, on the reaching node's track. A trace's first
        // event gets a zero-width slice (no predecessor).
        let mut firsts: Vec<&TraceEvent> = Vec::new();
        for e in &evs {
            if !firsts.iter().any(|f| f.stage == e.stage) {
                firsts.push(e);
            }
        }
        let mut prev_at = first.at;
        for e in firsts {
            lines.push(format!(
                "{{\"ph\":\"X\",\"cat\":\"prever\",\"name\":\"{}\",\"pid\":{},\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"trace\":\"0x{trace_id:016x}\",\
                 \"seq\":{},\"parent_span\":\"0x{:016x}\"}}}}",
                json_escape(e.stage),
                shard_of(e.node),
                e.node,
                prev_at,
                e.at.saturating_sub(prev_at).max(1),
                e.seq,
                e.parent_span,
            ));
            prev_at = e.at;
        }
        lines.push(format!(
            "{{\"ph\":\"e\",\"cat\":\"prever\",\"name\":\"trace\",\"id\":\"0x{trace_id:016x}\",\
             \"pid\":{},\"tid\":{},\"ts\":{}}}",
            shard_of(last.node),
            last.node,
            last.at.max(first.at + 1)
        ));
    }
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    for (i, l) in lines.iter().enumerate() {
        out.push_str(l);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Critical-path latency attribution.
// ---------------------------------------------------------------------

/// Per-stage latency statistics across all traces (virtual µs).
#[derive(Clone, Debug)]
pub struct StageStat {
    /// Stage name.
    pub stage: &'static str,
    /// Traces that passed through this stage.
    pub count: u64,
    /// Median stage delta.
    pub p50_us: u64,
    /// 99th-percentile stage delta.
    pub p99_us: u64,
    /// Mean stage delta.
    pub mean_us: f64,
}

/// The critical-path report over a set of traces.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Number of traces analyzed.
    pub traces: u64,
    /// Per-stage delta statistics, pipeline order.
    pub stages: Vec<StageStat>,
    /// p50 end-to-end latency (first event → last event), µs.
    pub p50_total_us: u64,
    /// p99 end-to-end latency, µs.
    pub p99_total_us: u64,
    /// The exact stage decomposition of the trace at the p50 rank:
    /// `(stage, delta µs)`, summing to that trace's total.
    pub p50_decomposition: Vec<(&'static str, u64)>,
    /// The exact stage decomposition of the trace at the p99 rank.
    pub p99_decomposition: Vec<(&'static str, u64)>,
}

fn pick(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Decomposes end-to-end trace latency into per-stage deltas.
///
/// For each trace, the time a stage is credited with is the gap between
/// the *first* arrival at the previous pipeline stage and the first
/// arrival at this one (global virtual time, so cross-node gaps — e.g.
/// quorum wait — are attributed to the stage that was waiting). The
/// per-trace deltas telescope: they sum exactly to that trace's
/// first-to-last latency, which is why the p50/p99 decompositions below
/// sum exactly to the picked trace's total.
pub fn critical_path(events: &[TraceEvent]) -> CriticalPath {
    let mut by_trace: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace_id).or_default().push(e);
    }
    // Per trace: (total, ordered stage deltas).
    let mut totals: Vec<(u64, Vec<(&'static str, u64)>)> = Vec::new();
    let mut per_stage: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for evs in by_trace.values() {
        // First arrival per stage, in pipeline order.
        let mut first_at: BTreeMap<usize, (&'static str, u64)> = BTreeMap::new();
        for e in evs {
            let r = stage_rank(e.stage);
            let slot = first_at.entry(r).or_insert((e.stage, e.at));
            if e.at < slot.1 {
                *slot = (e.stage, e.at);
            }
        }
        if first_at.len() < 2 {
            continue;
        }
        let mut deltas = Vec::with_capacity(first_at.len());
        let mut prev: Option<u64> = None;
        let mut start = 0u64;
        let mut end = 0u64;
        for (rank, (stage, at)) in &first_at {
            match prev {
                None => {
                    start = *at;
                    end = *at;
                }
                Some(p) => {
                    let d = at.saturating_sub(p);
                    deltas.push((*stage, d));
                    per_stage.entry(*rank).or_default().push(d);
                    end = (*at).max(end);
                }
            }
            prev = Some(*at);
        }
        totals.push((end.saturating_sub(start), deltas));
    }
    totals.sort_by_key(|(t, _)| *t);
    let sorted_totals: Vec<u64> = totals.iter().map(|(t, _)| *t).collect();
    let stages = per_stage
        .into_iter()
        .map(|(rank, mut ds)| {
            ds.sort_unstable();
            let count = ds.len() as u64;
            let sum: u64 = ds.iter().sum();
            StageStat {
                stage: STAGES.get(rank).copied().unwrap_or("other"),
                count,
                p50_us: pick(&ds, 0.50),
                p99_us: pick(&ds, 0.99),
                mean_us: sum as f64 / count as f64,
            }
        })
        .collect();
    let decomp_at = |q: f64| -> Vec<(&'static str, u64)> {
        if totals.is_empty() {
            return Vec::new();
        }
        let rank = ((q * totals.len() as f64).ceil() as usize).clamp(1, totals.len());
        totals[rank - 1].1.clone()
    };
    CriticalPath {
        traces: totals.len() as u64,
        stages,
        p50_total_us: pick(&sorted_totals, 0.50),
        p99_total_us: pick(&sorted_totals, 0.99),
        p50_decomposition: decomp_at(0.50),
        p99_decomposition: decomp_at(0.99),
    }
}

impl CriticalPath {
    /// Renders the report as a JSON object (for embedding in
    /// `BENCH_obs.json`-style documents).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("    \"traces\": {},\n", self.traces));
        out.push_str(&format!("    \"p50_total_us\": {},\n", self.p50_total_us));
        out.push_str(&format!("    \"p99_total_us\": {},\n", self.p99_total_us));
        out.push_str("    \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"stage\": \"{}\", \"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"mean_us\": {:.1}}}{}\n",
                s.stage,
                s.count,
                s.p50_us,
                s.p99_us,
                s.mean_us,
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("    ],\n");
        for (label, decomp, total) in [
            ("p50_decomposition", &self.p50_decomposition, self.p50_total_us),
            ("p99_decomposition", &self.p99_decomposition, self.p99_total_us),
        ] {
            out.push_str(&format!("    \"{label}\": {{"));
            for (i, (stage, d)) in decomp.iter().enumerate() {
                out.push_str(&format!(
                    "\"{stage}\": {d}{}",
                    if i + 1 < decomp.len() { ", " } else { "" }
                ));
            }
            let _ = total;
            out.push_str("},\n");
        }
        let sum_p99: u64 = self.p99_decomposition.iter().map(|(_, d)| d).sum();
        out.push_str(&format!("    \"p99_decomposition_sum_us\": {sum_p99}\n"));
        out.push_str("  }");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, node: u64, trace: u64, stage: &'static str, seq: u64) -> TraceEvent {
        TraceEvent { at, node, trace_id: trace, parent_span: 0, stage, seq }
    }

    #[test]
    fn trace_ctx_is_deterministic_and_distinct() {
        let a = TraceCtx::for_command(7);
        assert_eq!(a, TraceCtx::for_command(7));
        assert_ne!(a.trace_id, TraceCtx::for_command(8).trace_id);
        assert_ne!(a.trace_id, 0);
        // Span ids are deterministic, nonzero, and stage/node-specific.
        assert_eq!(a.span_id("exec", 1), a.span_id("exec", 1));
        assert_ne!(a.span_id("exec", 1), a.span_id("exec", 2));
        assert_ne!(a.span_id("exec", 1), a.span_id("queue", 1));
        assert_eq!(a.child("exec", 1).parent_span, a.span_id("exec", 1));
    }

    #[test]
    fn the_collector_keeps_canonical_order_and_records_only_when_on() {
        // This test owns a distinctive trace id; other tests may record
        // concurrently, so assertions filter by it.
        set_trace_enabled(true);
        let t = 0xf11e_0000_0000_0001u64;
        for i in (0..10u64).rev() {
            event(900, 100 + i, TraceCtx { trace_id: t, parent_span: 0 }, "exec", i);
        }
        let evs: Vec<TraceEvent> = events().into_iter().filter(|e| e.trace_id == t).collect();
        assert_eq!(evs.len(), 10);
        // Recorded newest first; the canonical order sorts by `at`.
        assert!(evs.windows(2).all(|w| w[0].at < w[1].at));
        set_trace_enabled(false);
        // Off: recording is a no-op.
        event(900, 999, TraceCtx { trace_id: t, parent_span: 0 }, "exec", 99);
        assert_eq!(events().into_iter().filter(|e| e.trace_id == t && e.at == 999).count(), 0);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let evs = vec![
            ev(10, 0, 0xabc, "queue", 1),
            ev(20, 0, 0xabc, "batch-cut", 1),
            ev(55, 1, 0xabc, "commit-quorum", 1),
            ev(60, 1, 0xabc, "exec", 1),
        ];
        let json = export_chrome_trace(&evs, |n| n / 4);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"name\":\"commit-quorum\""));
        // One X slice per stage.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }

    #[test]
    fn critical_path_decomposition_sums_exactly() {
        // Two traces with known stage times.
        let mut evs = Vec::new();
        for (t, base) in [(1u64, 100u64), (2, 200)] {
            evs.push(ev(base, 0, t, "queue", t));
            evs.push(ev(base + 10, 0, t, "batch-cut", t));
            evs.push(ev(base + 30, 1, t, "commit-quorum", t));
            evs.push(ev(base + 30 + t, 1, t, "exec", t));
        }
        let cp = critical_path(&evs);
        assert_eq!(cp.traces, 2);
        assert_eq!(cp.p99_total_us, 32); // trace 2: 10 + 20 + 2
        let sum: u64 = cp.p99_decomposition.iter().map(|(_, d)| d).sum();
        assert_eq!(sum, cp.p99_total_us, "decomposition telescopes to the total");
        assert_eq!(cp.stages.len(), 3); // batch-cut, commit-quorum, exec deltas
        let json = cp.render_json();
        assert!(json.contains("\"p99_decomposition_sum_us\": 32"));
    }

    #[test]
    fn stage_ranks_follow_pipeline_order() {
        assert!(stage_rank("enqueue") < stage_rank("admit"));
        assert!(stage_rank("admit") < stage_rank("shed"));
        assert!(stage_rank("shed") < stage_rank("queue"));
        assert!(stage_rank("queue") < stage_rank("batch-cut"));
        assert!(stage_rank("prepare-quorum") < stage_rank("commit-quorum"));
        assert!(stage_rank("exec") < stage_rank("wal-flush"));
        assert!(stage_rank("wal-flush") < stage_rank("cross-lock"));
        assert_eq!(stage_rank("nonsense"), STAGES.len());
    }
}
