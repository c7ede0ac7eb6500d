//! # prever-obs
//!
//! The zero-dependency observability layer: every PReVer subsystem
//! records *where time goes* — Paillier operations, PIR answer
//! computation, ledger appends, commit latencies — into one
//! process-global registry, so any run can print a per-phase latency
//! breakdown instead of a bare end-to-end wall clock. The paper's
//! evaluation mandate (§6) is comparative throughput/latency analysis;
//! this crate is the permanent instrumentation that analysis runs on.
//!
//! A protocol handler is not timed here: the simulator times and counts
//! every actor step once, at the one place steps run, and keeps a
//! per-kind table of them (`prever_sim`'s "Step records"). Spans are
//! for code that runs outside an actor step.
//!
//! Five layers, all `std`-only (the workspace builds hermetically):
//!
//! * [`registry`] — lock-sharded global metrics: atomic [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s with p50/p95/p99/max
//!   queries; `counter!("…")` / `gauge!("…")` / `histogram!("…")`
//!   resolve the name once per call site ([`Handle`]), so recording is
//!   atomics only;
//! * [`span`] — `span!("ledger.append")` RAII guards that time a region
//!   into the histogram of the same name, with thread-local parent
//!   tracking for nested spans;
//! * [`trace`] — causal pipeline-stage events in virtual time, for
//!   Chrome-trace export and critical-path attribution;
//! * [`logger`] — a `PREVER_LOG`-gated structured logger with the
//!   [`log!`] macro;
//! * [`work`] — per-thread counts of kernel operations (SHA-256
//!   compressions, Montgomery multiplications, key look-ups, plans
//!   built): `work::measure(|| …)` returns what a closure did on the
//!   calling thread, so tests assert work instead of timing it.
//!
//! [`export`] renders a [`Snapshot`] as an aligned text table or as
//! BENCHJSON-compatible JSON lines.
//!
//! ## Cost when off
//!
//! Recording is guarded by one relaxed atomic load; call
//! [`set_enabled`]`(false)` to make every span/counter a near-no-op at
//! runtime, or build with the `disabled` cargo feature to compile the
//! whole layer out (the guard becomes a constant `false`). Neither
//! switch touches [`work`]: its counts are one thread-local add each and
//! exist in every build.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod logger;
pub mod registry;
pub mod span;
pub mod trace;
pub mod work;

pub use export::{render_json_document, render_jsonl, render_table};
pub use logger::{log_enabled, max_level, set_max_level, Level};
pub use registry::{
    counter, enabled, gauge, global, histogram, observe_ns, set_enabled, snapshot, Counter, Gauge,
    Handle, Histogram, HistogramSnapshot, Registry, Snapshot,
};
pub use span::{parent_of, Span, SpanSite, Stopwatch};
pub use trace::TraceCtx;
