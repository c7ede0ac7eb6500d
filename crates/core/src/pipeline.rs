//! The Figure-2 pipeline: the trusted reference deployment.
//!
//! One trusted data manager, plaintext data, plaintext constraints.
//! Every other deployment preserves this pipeline's *semantics* while
//! changing who may see what; benches use it as the non-private
//! baseline the paper's §6 asks to compare against.

use crate::update::{Update, UpdateOutcome};
use crate::{PreverError, Result};
use bytes::Bytes;
use prever_constraints::parse::parse;
use prever_constraints::{ensure_indexes, evaluate, evaluate_query, Constraint, UpdateContext};
use prever_ledger::{Journal, LedgerDigest};
use prever_storage::{Database, Schema};

/// The reference pipeline: storage + constraints + ledger journal.
pub struct Pipeline {
    db: Database,
    constraints: Vec<Constraint>,
    journal: Journal,
    accepted: u64,
    rejected: u64,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Pipeline {
            db: Database::new(),
            constraints: Vec::new(),
            journal: Journal::new(),
            accepted: 0,
            rejected: 0,
        }
    }

    /// Creates a table (schema definition is the owner's act), with the
    /// indexes the constraints registered so far can be checked through.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        self.db.create_table(name, schema)?;
        for c in &self.constraints {
            ensure_indexes(&c.expr, &mut self.db);
        }
        Ok(())
    }

    /// Step 0: an authority registers a constraint or regulation. The
    /// tables it reads get the secondary indexes its equality and
    /// sliding-window predicates can be pushed down onto, so checking it
    /// does not scan them (tables created later get theirs then).
    pub fn register_constraint(&mut self, constraint: Constraint) {
        ensure_indexes(&constraint.expr, &mut self.db);
        self.constraints.push(constraint);
    }

    /// The registered constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Steps 1–3 for one update: verify against every constraint on a
    /// snapshot, then incorporate and journal atomically.
    pub fn submit(&mut self, update: &Update) -> Result<UpdateOutcome> {
        let _submit = prever_obs::span!("pipeline.submit");
        // Step 2: verify.
        {
            let _span = prever_obs::span!("pipeline.verify");
            let snapshot = self.db.snapshot();
            let schema = self.db.table(&update.table)?.schema();
            let ctx = UpdateContext {
                table: &update.table,
                row: &update.row,
                schema,
                timestamp: update.timestamp,
            };
            for c in &self.constraints {
                if !evaluate(c, &snapshot, &ctx)? {
                    self.rejected += 1;
                    prever_obs::counter!("pipeline.rejected").inc();
                    prever_obs::log!(
                        Debug,
                        "update {} rejected by constraint `{}`",
                        update.id,
                        c.name
                    );
                    return Ok(UpdateOutcome::Rejected { constraint: c.name.clone() });
                }
            }
        }
        // Step 3: incorporate + journal.
        let _span = prever_obs::span!("pipeline.incorporate");
        let change = self.db.upsert(&update.table, update.row.clone())?;
        let version = change.version;
        let payload = Bytes::from(change.encode());
        let seq = self.journal.append(update.timestamp, payload).seq;
        self.accepted += 1;
        prever_obs::counter!("pipeline.accepted").inc();
        Ok(UpdateOutcome::Accepted { version, ledger_seq: seq })
    }

    /// Batched submission: steps 1–3 for a whole batch of updates under
    /// one span, mirroring the consensus layer's batched ordering — the
    /// per-dispatch overhead (span bookkeeping, metric flushes) is paid
    /// once per batch instead of once per update. Updates are verified
    /// and incorporated in order, each against the state left by its
    /// predecessors; a hard error aborts the batch at that point.
    pub fn submit_batch(&mut self, updates: &[Update]) -> Result<Vec<UpdateOutcome>> {
        let _span = prever_obs::span!("pipeline.submit_batch");
        prever_obs::histogram!("pipeline.batch.size").record(updates.len() as u64);
        let mut outcomes = Vec::with_capacity(updates.len());
        for update in updates {
            outcomes.push(self.submit(update)?);
        }
        Ok(outcomes)
    }

    /// Read access to the tables (for tests/examples; [`Pipeline::query`]
    /// is the read path).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The integrity journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The current ledger digest (published to auditors).
    pub fn digest(&self) -> LedgerDigest {
        self.journal.digest()
    }

    /// (accepted, rejected) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.accepted, self.rejected)
    }

    /// Full self-audit: replays the journal chain against the digest.
    pub fn audit(&self) -> Result<()> {
        Journal::verify_chain(self.journal.entries(), &self.digest())
            .map_err(PreverError::Ledger)
    }

    /// Answers a read-only query (aggregates, grouped aggregates,
    /// EXISTS) anchored at `as_of_ts`, returning the value together
    /// with the ledger digest it was computed under — the "freshness
    /// anchor" a client checks against the digests its auditor tracks.
    ///
    /// Reads are planned like checks: the tables get the indexes the
    /// query's equality and sliding-window predicates can be pushed down
    /// onto, so the first query of a shape builds its index from the rows
    /// already stored and later queries of that shape do not scan. Hence
    /// `&mut self`. Indexes are per (column, window column), so their
    /// number is bounded by the schema, not by how many queries arrive.
    pub fn query(
        &mut self,
        src: &str,
        as_of_ts: u64,
    ) -> Result<(prever_storage::Value, LedgerDigest)> {
        let _span = prever_obs::span!("pipeline.query");
        let expr = parse(src)?;
        ensure_indexes(&expr, &mut self.db);
        let value = evaluate_query(&expr, &self.db.snapshot(), as_of_ts)?;
        Ok((value, self.digest()))
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prever_constraints::ConstraintScope;
    use prever_storage::{Column, ColumnType, Row, Value};

    fn tasks_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", ColumnType::Uint),
                Column::new("worker", ColumnType::Str),
                Column::new("hours", ColumnType::Uint),
                Column::new("ts", ColumnType::Timestamp),
            ],
            &["id"],
        )
        .unwrap()
    }

    fn flsa() -> Constraint {
        Constraint::parse(
            "FLSA-40h",
            ConstraintScope::Regulation,
            "$hours <= 40 AND (COUNT(tasks WHERE tasks.worker = $worker WITHIN 604800 OF tasks.ts) = 0 \
             OR SUM(tasks.hours WHERE tasks.worker = $worker WITHIN 604800 OF tasks.ts) + $hours <= 40)",
        )
        .unwrap()
    }

    fn pipeline() -> Pipeline {
        let mut p = Pipeline::new();
        p.create_table("tasks", tasks_schema()).unwrap();
        p.register_constraint(flsa());
        p
    }

    fn task(id: u64, worker: &str, hours: u64, ts: u64) -> Update {
        Update::new(
            id,
            "tasks",
            Row::new(vec![id.into(), worker.into(), hours.into(), Value::Timestamp(ts)]),
            ts,
            worker,
        )
    }

    #[test]
    fn accepts_then_rejects_at_the_bound() {
        let mut p = pipeline();
        assert!(p.submit(&task(1, "w1", 30, 100)).unwrap().is_accepted());
        assert!(p.submit(&task(2, "w1", 10, 200)).unwrap().is_accepted());
        let outcome = p.submit(&task(3, "w1", 1, 300)).unwrap();
        assert_eq!(outcome, UpdateOutcome::Rejected { constraint: "FLSA-40h".into() });
        assert_eq!(p.stats(), (2, 1));
        // Rejected updates leave no trace in DB or journal.
        assert_eq!(p.database().table("tasks").unwrap().len(), 2);
        assert_eq!(p.journal().len(), 2);
    }

    #[test]
    fn constraint_tables_are_indexed_in_either_order() {
        // Rows of w1 inside (100, 200] of `ts`, through the (worker, ts)
        // index; `None` if `tasks` has no index on worker.
        let in_window = |p: &Pipeline| {
            let (w1, tasks) = (Value::Str("w1".into()), p.database().table("tasks").unwrap());
            tasks.index_scan(1, &w1, Some((3, 101..=200))).map(Iterator::count)
        };
        let table_first = pipeline();
        let mut constraint_first = Pipeline::new();
        constraint_first.register_constraint(flsa());
        constraint_first.create_table("tasks", tasks_schema()).unwrap();
        let mut unregulated = Pipeline::new();
        unregulated.create_table("tasks", tasks_schema()).unwrap();
        for mut p in [table_first, constraint_first] {
            assert_eq!(in_window(&p), Some(0));
            p.submit(&task(1, "w1", 30, 100)).unwrap();
            p.submit(&task(2, "w1", 10, 200)).unwrap();
            assert_eq!(in_window(&p), Some(1), "ordered by ts: the window is a range");
            assert!(!p.submit(&task(3, "w1", 1, 300)).unwrap().is_accepted());
        }
        assert_eq!(in_window(&unregulated), None, "no constraint, no index to maintain");
    }

    #[test]
    fn journal_covers_every_accepted_update() {
        let mut p = pipeline();
        for i in 0..5 {
            p.submit(&task(i, &format!("w{i}"), 10, 100 + i)).unwrap();
        }
        assert_eq!(p.journal().len(), 5);
        p.audit().unwrap();
        // Each entry is provable under the digest.
        let digest = p.digest();
        for seq in 0..5u64 {
            let proof = p.journal().prove_inclusion(seq, digest.size).unwrap();
            Journal::verify_inclusion(p.journal().entry(seq).unwrap(), &proof, &digest).unwrap();
        }
    }

    #[test]
    fn batched_submission_matches_sequential() {
        let mut seq = pipeline();
        let mut bat = pipeline();
        let updates: Vec<Update> =
            (0..6).map(|i| task(i, &format!("w{}", i % 2), 15, 100 + i)).collect();
        let expected: Vec<UpdateOutcome> =
            updates.iter().map(|u| seq.submit(u).unwrap()).collect();
        let outcomes = bat.submit_batch(&updates).unwrap();
        assert_eq!(outcomes, expected);
        assert_eq!(bat.digest(), seq.digest(), "batching must not change the ledger");
        assert_eq!(bat.stats(), seq.stats());
    }

    #[test]
    fn multiple_constraints_all_must_pass() {
        let mut p = pipeline();
        p.register_constraint(
            Constraint::parse("positive-hours", ConstraintScope::Internal, "$hours > 0").unwrap(),
        );
        assert!(p.submit(&task(1, "w1", 5, 100)).unwrap().is_accepted());
        let zero = p.submit(&task(2, "w1", 0, 200)).unwrap();
        assert_eq!(zero, UpdateOutcome::Rejected { constraint: "positive-hours".into() });
    }

    #[test]
    fn queries_return_values_with_freshness_anchor() {
        let mut p = pipeline();
        p.submit(&task(1, "w1", 10, 100)).unwrap();
        p.submit(&task(2, "w1", 20, 200)).unwrap();
        let (v, digest) = p.query("SUM(tasks.hours WHERE tasks.worker = 'w1')", 300).unwrap();
        assert_eq!(v, Value::Int(30));
        assert_eq!(digest, p.digest(), "anchored at the current digest");
        let (v, _) = p.query("MAXSUM(tasks.hours BY tasks.worker)", 300).unwrap();
        assert_eq!(v, Value::Int(30));
        // Update-field references are a query error.
        assert!(p.query("SUM(tasks.hours) + $hours", 300).is_err());
    }

    #[test]
    fn unknown_table_is_an_error_not_a_rejection() {
        let mut p = pipeline();
        let u = Update::new(1, "nope", Row::new(vec![Value::Uint(1)]), 1, "w");
        assert!(p.submit(&u).is_err());
    }

    #[test]
    fn constraint_errors_propagate() {
        let mut p = pipeline();
        p.register_constraint(
            Constraint::parse("bad", ConstraintScope::Internal, "$nonexistent_field = 1").unwrap(),
        );
        assert!(p.submit(&task(1, "w1", 5, 100)).is_err());
    }
}
