//! The five workloads and what they share: the `tasks` table, the FLSA
//! regulation, the plaintext oracles.

pub mod audit_read;
pub mod federated_tokens;
pub mod private_verify;
pub mod regulated_apply;
pub mod serve_order;

use crate::gen::{CrowdConfig, Task, BOUND, WEEK};
use crate::span::Recorder;
use crate::Report;
use bytes::Bytes;
use prever_constraints::{Constraint, ConstraintScope};
use prever_core::Update;
use prever_ledger::{Journal, LedgerDigest};
use prever_storage::{Column, ColumnType, Row, Schema, Value};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// The crowdworking stream every non-serving workload draws from: 200
/// workers at skew 0.9 completing a task every 600 s on average, so the
/// busy workers push against the 40-hour bound.
pub const CROWD: CrowdConfig = CrowdConfig {
    workers: 200,
    skew: 0.9,
    mean_interarrival: 600,
    platforms: 3,
};

/// Updates per `submit_batch` call.
pub const CHUNK: usize = 8;

/// The `tasks` table of `tests/tests/pipeline_properties.rs`.
pub fn tasks_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ColumnType::Uint),
            Column::new("worker", ColumnType::Str),
            Column::new("hours", ColumnType::Uint),
            Column::new("ts", ColumnType::Timestamp),
        ],
        &["id"],
    )
    .expect("static schema")
}

/// FLSA: at most 40 hours per worker per sliding week.
pub fn flsa() -> Constraint {
    Constraint::parse(
        "FLSA-40h",
        ConstraintScope::Regulation,
        &format!(
            "$hours <= {BOUND} AND (COUNT(tasks WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) = 0 \
             OR SUM(tasks.hours WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) + $hours <= {BOUND})"
        ),
    )
    .expect("static regulation")
}

/// The row a task becomes.
pub fn task_row(t: &Task) -> Row {
    Row::new(vec![
        Value::Uint(t.id),
        Value::Str(t.worker_name()),
        Value::Uint(u64::from(t.hours)),
        Value::Timestamp(t.ts),
    ])
}

/// The update a task becomes.
pub fn task_update(t: &Task) -> Update {
    Update::new(t.id, "tasks", task_row(t), t.ts, &t.worker_name())
}

/// Plain-Rust oracle of the sliding-week regulation: a task is accepted
/// iff the worker's accepted hours in `(ts − WEEK, ts]` plus its own
/// stay within the bound.
#[derive(Default)]
pub struct SlidingWeekOracle {
    accepted: HashMap<u32, VecDeque<(u64, u64)>>,
}

impl SlidingWeekOracle {
    /// Decides `t` and remembers it if accepted.
    pub fn decide(&mut self, t: &Task) -> bool {
        let window = self.accepted.entry(t.worker).or_default();
        while window.front().is_some_and(|&(ts, _)| ts + WEEK <= t.ts) {
            window.pop_front();
        }
        let used: u64 = window.iter().map(|&(_, h)| h).sum();
        let ok = used + u64::from(t.hours) <= BOUND;
        if ok {
            window.push_back((t.ts, u64::from(t.hours)));
        }
        ok
    }
}

/// Oracle of the tumbling-week regulation the private and federated
/// deployments enforce: accepted hours per (worker, `ts / WEEK`).
#[derive(Default)]
pub struct TumblingWeekOracle {
    /// Accepted hours per (worker, week).
    pub hours: HashMap<(u32, u64), u64>,
}

impl TumblingWeekOracle {
    /// Decides `t` and remembers it if accepted.
    pub fn decide(&mut self, t: &Task) -> bool {
        let used = self.hours.entry((t.worker, t.ts / WEEK)).or_insert(0);
        let ok = *used + u64::from(t.hours) <= BOUND;
        if ok {
            *used += u64::from(t.hours);
        }
        ok
    }
}

/// Indices where `got` and `want` differ (a length mismatch counts
/// every missing position).
pub fn mismatches(got: &[bool], want: &[bool]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// Negative control for [`mismatches`]: flipping one expected outcome
/// must be noticed.
pub fn mismatch_control_detects(want: &[bool]) -> bool {
    let mut flipped = want.to_vec();
    match flipped.first_mut() {
        Some(first) => *first = !*first,
        None => return true,
    }
    mismatches(&flipped, want) == 1
}

/// The traced side of a run of workloads 2 to 5, kept across its
/// rounds: the spans of the decomposed path and the wall time each
/// path spent in operations.
#[derive(Default)]
pub struct Tracing {
    /// Spans of the decomposed path.
    pub rec: Recorder,
    /// Wall time the untraced path's operations took.
    pub plain_ns: u64,
    /// Wall time the decomposed path's operations took.
    pub traced_ns: u64,
    /// Operations each path performed.
    pub ops: u64,
}

impl Tracing {
    /// Sets `bench.trace_overhead_frac` and hands the spans to the
    /// report.
    pub fn finish(self, report: &mut Report) {
        report.set(
            "bench.trace_overhead_frac",
            relative_excess(self.plain_ns as f64, self.traced_ns as f64),
        );
        report.spans = Some(self.rec);
    }
}

/// The traced side of one round: the decomposed world and its
/// outcomes. Its steps run right after the untraced path's, op by op,
/// so that both paths see the same machine (this host's speed drifts
/// by tens of percent within a run).
pub struct Traced<W> {
    /// The harness-owned state the decomposed path works on.
    pub world: W,
    /// Outcome per operation.
    pub got: Vec<bool>,
}

impl<W> Traced<W> {
    /// Wraps a freshly built (and preloaded) decomposed world.
    pub fn new(world: W) -> Self {
        Traced {
            world,
            got: Vec::new(),
        }
    }

    /// Times one operation of the decomposed path and records its
    /// outcome.
    pub fn step(
        &mut self,
        report: &mut Report,
        tracing: &mut Tracing,
        what: std::fmt::Arguments<'_>,
        op: impl FnOnce(&mut W, &mut Recorder) -> Result<bool, String>,
    ) {
        let began = Instant::now();
        let outcome = op(&mut self.world, &mut tracing.rec);
        tracing.traced_ns += began.elapsed().as_nanos() as u64;
        report.outcome(&mut self.got, what, outcome);
    }
}

/// Negative control: a journal copy with one payload byte flipped must
/// fail `verify_chain`.
pub fn tampered_chain_is_rejected(journal: &Journal, digest: &LedgerDigest) -> bool {
    let mut entries = journal.entries().to_vec();
    let Some(mid) = entries.len().checked_sub(1).map(|last| last / 2) else {
        return true;
    };
    let mut payload = entries[mid].payload.to_vec();
    match payload.first_mut() {
        Some(b) => *b ^= 1,
        None => payload.push(1),
    }
    entries[mid].payload = Bytes::from(payload);
    Journal::verify_chain(&entries, digest).is_err()
}

/// Audits the final journal (`verify_chain`) and hashes its payloads
/// again: `ledger.verify_chain_ns_per_entry` and
/// `crypto.sha256_ns_per_kib` on the workload's own data.
pub fn measure_journal(journal: &Journal, report: &mut Report) {
    let digest = journal.digest();
    let t = Instant::now();
    let chain_ok = Journal::verify_chain(journal.entries(), &digest).is_ok();
    let chain_ns = t.elapsed().as_nanos() as f64;
    report.require(chain_ok, "verify_chain failed on the decomposed journal");
    report.set(
        "ledger.verify_chain_ns_per_entry",
        chain_ns / journal.len().max(1) as f64,
    );

    let bytes: usize = journal.entries().iter().map(|e| e.payload.len()).sum();
    let t = Instant::now();
    for e in journal.entries() {
        std::hint::black_box(prever_crypto::sha256::sha256(std::hint::black_box(
            &e.payload,
        )));
    }
    let hash_ns = t.elapsed().as_nanos() as f64;
    report.set(
        "crypto.sha256_ns_per_kib",
        hash_ns / (bytes.max(1) as f64 / 1024.0),
    );
}

/// `(b − a) / a`.
pub fn relative_excess(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, worker: u32, hours: u8, ts: u64) -> Task {
        Task {
            id,
            worker,
            platform: 0,
            hours,
            ts,
        }
    }

    #[test]
    fn sliding_week_forgets_hours_a_week_old() {
        let mut o = SlidingWeekOracle::default();
        for i in 0..5 {
            assert!(o.decide(&task(i, 1, 8, 100 + i)));
        }
        assert!(!o.decide(&task(9, 1, 1, 200)), "41st hour");
        assert!(o.decide(&task(10, 2, 8, 200)), "other worker");
        // The window is (ts − WEEK, ts]: the hours at ts = 100 leave at
        // exactly 100 + WEEK.
        assert!(!o.decide(&task(11, 1, 8, 99 + WEEK)));
        assert!(o.decide(&task(12, 1, 8, 100 + WEEK)));
    }

    #[test]
    fn tumbling_week_resets_at_the_boundary() {
        let mut o = TumblingWeekOracle::default();
        assert!(o.decide(&task(1, 1, 8, WEEK - 1)));
        for i in 0..4 {
            assert!(o.decide(&task(2 + i, 1, 8, WEEK - 1)));
        }
        assert!(!o.decide(&task(7, 1, 1, WEEK - 1)));
        assert!(o.decide(&task(8, 1, 8, WEEK)));
    }

    #[test]
    fn mismatch_counting_and_its_control() {
        assert_eq!(mismatches(&[true, false], &[true, false]), 0);
        assert_eq!(mismatches(&[true, true], &[true, false]), 1);
        assert_eq!(mismatches(&[true], &[true, false]), 1);
        assert!(mismatch_control_detects(&[true, false, true]));
    }
}
