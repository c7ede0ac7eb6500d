//! `regulated-apply`: the Figure-2 reference pipeline under the FLSA
//! sliding-week regulation.
//!
//! A round's set-up preloads five sixths as many tasks as the round
//! measures; the round submits the rest through
//! `Pipeline::submit_batch` in chunks of [`CHUNK`], one caller, closed
//! loop. An update's latency is the
//! duration of the chunk that carried it. Constraints, storage and the
//! ledger do all the work.

use super::{
    flsa, measure_journal, mismatch_control_detects, mismatches, tampered_chain_is_rejected,
    task_update, tasks_schema, SlidingWeekOracle, Traced, Tracing, CHUNK, CROWD,
};
use crate::gen::{round_seed, Crowd};
use crate::span::Recorder;
use crate::stats::{timed_setup, Timeline};
use crate::{Report, Round, RunCfg};
use bytes::Bytes;
use prever_constraints::{evaluate, Constraint, UpdateContext};
use prever_core::{Pipeline, Update};
use prever_ledger::Journal;
use prever_storage::Database;

/// Tasks preloaded per six timed: the table grows from 5/6 to 11/6 of
/// the round's operations while it is timed.
const PRELOAD_PER_6_OPS: usize = 5;

fn pipeline(preload: &[Update]) -> (Pipeline, Vec<bool>) {
    let mut p = Pipeline::new();
    p.create_table("tasks", tasks_schema())
        .expect("fresh pipeline");
    p.register_constraint(flsa());
    let mut outcomes = Vec::with_capacity(preload.len());
    for chunk in preload.chunks(CHUNK) {
        let out = p.submit_batch(chunk).expect("preload");
        outcomes.extend(out.iter().map(|o| o.is_accepted()));
    }
    (p, outcomes)
}

/// The steps of `Pipeline::submit`, one public layer call at a time.
struct Decomposed {
    db: Database,
    constraints: Vec<Constraint>,
    journal: Journal,
    evals: u64,
    rows_scanned: u64,
}

impl Decomposed {
    fn new() -> Self {
        let mut db = Database::new();
        db.create_table("tasks", tasks_schema())
            .expect("fresh database");
        Decomposed {
            db,
            constraints: vec![flsa()],
            journal: Journal::new(),
            evals: 0,
            rows_scanned: 0,
        }
    }

    fn submit(&mut self, update: &Update, rec: &mut Recorder) -> Result<bool, String> {
        rec.set_op(update.id);
        rec.enter("core.pipeline_submit");
        let accepted = self.submit_steps(update, rec);
        rec.exit();
        accepted
    }

    fn submit_steps(&mut self, update: &Update, rec: &mut Recorder) -> Result<bool, String> {
        {
            rec.enter("storage.snapshot");
            let snapshot = self.db.snapshot();
            rec.exit();
            let table = self.db.table(&update.table).map_err(|e| e.to_string())?;
            let ctx = UpdateContext {
                table: &update.table,
                row: &update.row,
                schema: table.schema(),
                timestamp: update.timestamp,
            };
            for c in &self.constraints {
                self.evals += 1;
                self.rows_scanned += table.len() as u64;
                rec.enter("constraints.evaluate");
                let verdict = evaluate(c, &snapshot, &ctx);
                rec.exit();
                if !verdict.map_err(|e| e.to_string())? {
                    return Ok(false);
                }
            }
        }
        rec.enter("storage.upsert");
        let change = self.db.upsert(&update.table, update.row.clone());
        rec.exit();
        let change = change.map_err(|e| e.to_string())?;
        rec.enter("storage.change_encode");
        let payload = Bytes::from(change.encode());
        rec.exit();
        rec.enter("ledger.append");
        self.journal.append(update.timestamp, payload);
        rec.exit();
        Ok(true)
    }
}

/// A decomposed world with `preload` applied; its outcomes are the
/// traced side's first.
fn traced(preload: &[Update]) -> Traced<Decomposed> {
    let mut world = Decomposed::new();
    let mut off = Recorder::disabled();
    let got = preload
        .iter()
        .map(|u| world.submit(u, &mut off).unwrap_or(false))
        .collect();
    world.evals = 0;
    world.rows_scanned = 0;
    Traced { world, got }
}

/// What a traced run keeps across its rounds.
#[derive(Default)]
struct Layers {
    tracing: Tracing,
    evals: u64,
    rows_scanned: u64,
    rejected: u64,
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, ops: usize) -> Report {
    let mut report = Report::default();
    let mut layers = cfg.trace.then(Layers::default);
    let rounds: Vec<Round> = (0..cfg.rounds())
        .map(|r| round(round_seed(cfg.seed, r), ops, &mut report, layers.as_mut()))
        .collect();
    let Some(layers) = layers else {
        report.set_end_to_end(&rounds);
        return report;
    };

    let totals = layers.tracing.rec.totals();
    report.set_span_means(
        &totals,
        &[
            ("constraints.evaluate_ns", "constraints.evaluate"),
            ("storage.snapshot_ns", "storage.snapshot"),
            ("storage.upsert_ns", "storage.upsert"),
            ("storage.change_encode_ns", "storage.change_encode"),
            ("ledger.append_ns", "ledger.append"),
        ],
    );
    report.set(
        "constraints.rows_per_eval",
        layers.rows_scanned as f64 / layers.evals.max(1) as f64,
    );
    let updates = layers.tracing.ops.max(1) as f64;
    report.set("constraints.reject_frac", layers.rejected as f64 / updates);
    // Glue: what `Pipeline::submit` costs per update beyond the layer
    // calls it makes (obs spans and counters, context building).
    let children_ns: u64 = [
        "storage.snapshot",
        "constraints.evaluate",
        "storage.upsert",
        "storage.change_encode",
        "ledger.append",
    ]
    .iter()
    .filter_map(|n| totals.get(n))
    .map(|t| t.total_ns)
    .sum();
    report.set(
        "core.pipeline_glue_ns",
        (layers.tracing.plain_ns as f64 - children_ns as f64) / updates,
    );
    layers.tracing.finish(&mut report);
    report
}

/// One round: a fresh pipeline preloaded with [`PRELOAD_PER_6_OPS`]
/// sixths of `ops` tasks, then `ops` timed updates.
fn round(seed: u64, ops: usize, report: &mut Report, mut layers: Option<&mut Layers>) -> Round {
    let preload_n = ops * PRELOAD_PER_6_OPS / 6;
    let tasks = Crowd::new(CROWD, seed).take(preload_n + ops);
    let mut oracle = SlidingWeekOracle::default();
    let want: Vec<bool> = tasks.iter().map(|t| oracle.decide(t)).collect();
    let updates: Vec<Update> = tasks.iter().map(task_update).collect();
    let (preload, timed) = updates.split_at(preload_n);
    report.require(
        mismatch_control_detects(&want),
        "negative control: a flipped outcome went unnoticed",
    );

    // A traced run takes the decomposed path on the same updates, chunk
    // by chunk beside the untraced one, so that both see the same
    // machine (this host's speed drifts by tens of percent over a run).
    let mut traced = layers.is_some().then(|| traced(preload));
    let ((mut p, mut got), setup_s) = timed_setup(1, || pipeline(preload));
    let mut timeline = Timeline::start(ops);
    for chunk in timed.chunks(CHUNK) {
        let started = timeline.now_ns();
        match p.submit_batch(chunk) {
            Ok(out) => got.extend(out.iter().map(|o| o.is_accepted())),
            Err(e) => {
                report.failed += chunk.len() as u64;
                report.broke(format!("submit_batch: {e}"));
                // Keep positions aligned with the oracle.
                got.extend(std::iter::repeat_n(false, chunk.len()));
            }
        }
        let done = timeline.complete(started, chunk.len());
        if let (Some(t), Some(l)) = (&mut traced, layers.as_deref_mut()) {
            l.tracing.plain_ns += done - started;
            for u in chunk {
                t.step(
                    report,
                    &mut l.tracing,
                    format_args!("decomposed update {}", u.id),
                    |d, rec| d.submit(u, rec),
                );
            }
        }
    }
    report.attempted += ops as u64;
    report.failed += mismatches(&got, &want);
    report.require(p.audit().is_ok(), "Pipeline::audit failed");
    report.require(
        tampered_chain_is_rejected(p.journal(), &p.digest()),
        "negative control: tampered journal passed",
    );
    let accepted = got.iter().filter(|a| **a).count() as u64;
    report.require(
        p.stats() == (accepted, got.len() as u64 - accepted),
        "Pipeline::stats disagrees with outcomes",
    );

    if let (Some(tr), Some(l)) = (traced, layers) {
        let d = tr.world;
        l.tracing.ops += ops as u64;
        l.evals += d.evals;
        l.rows_scanned += d.rows_scanned;
        l.rejected += got[preload_n..].iter().filter(|a| !**a).count() as u64;
        report.attempted += ops as u64;
        report.failed += mismatches(&tr.got, &want);
        report.require(
            d.journal.digest() == p.digest(),
            "decomposed path ended at another ledger digest",
        );
        measure_journal(&d.journal, report);
    }
    Round { setup_s, timeline }
}
