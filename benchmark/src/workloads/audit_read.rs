//! `audit-read`: reads and proofs beside writes on a growing journal.
//!
//! Every round preloads a `Pipeline` without a regulation with twenty
//! journaled tasks per measured op. The seeded mix is 40 % verified reads
//! (`Pipeline::query`: value + digest), 30 % inclusion proofs checked
//! by an `Auditor` and against the stored row, 10 % digest +
//! consistency proof + `Auditor::observe`, 20 % writes. One caller,
//! closed loop; an op's latency is the whole op, verification
//! included.

use super::{measure_journal, task_row, task_update, tasks_schema, Traced, Tracing, CHUNK, CROWD};
use crate::gen::{audit_mix, round_seed, worker_name, AuditOp, Crowd, Task};
use crate::span::Recorder;
use crate::stats::{timed_setup, Timeline};
use crate::{Report, Round, RunCfg};
use bytes::Bytes;
use prever_core::{Pipeline, Update};
use prever_ledger::{Auditor, Journal, LedgerDigest};
use prever_storage::{ChangeRecord, Database, Value};

/// Journaled tasks preloaded per measured op: 8 000 under a round's
/// 400 ops.
const PRELOAD_PER_OP: usize = 20;

fn sum_query(worker: u32) -> String {
    format!(
        "SUM(tasks.hours WHERE tasks.worker = '{}')",
        worker_name(worker)
    )
}

/// Plaintext oracle of the per-worker sums.
struct Sums {
    hours: Vec<u64>,
    entries: u64,
}

impl Sums {
    fn new() -> Self {
        Sums {
            hours: vec![0; CROWD.workers],
            entries: 0,
        }
    }
    fn add(&mut self, t: &Task) {
        self.hours[t.worker as usize] += u64::from(t.hours);
        self.entries += 1;
    }
    /// SQL semantics: SUM over no rows is NULL. A worker with tasks has
    /// at least one hour.
    fn value(&self, worker: u32) -> Value {
        match self.hours[worker as usize] {
            0 => Value::Null,
            h => Value::Int(h as i64),
        }
    }
}

fn first_digest(auditor: &mut Auditor, journal: &Journal) {
    let digest = journal.digest();
    let proof = journal
        .prove_consistency(digest.size, digest.size)
        .expect("trivial proof");
    auditor
        .observe(digest, &proof)
        .expect("first digest is trusted on first use");
}

fn world(preload: &[Update]) -> (Pipeline, Auditor) {
    let mut p = Pipeline::new();
    p.create_table("tasks", tasks_schema())
        .expect("fresh pipeline");
    for chunk in preload.chunks(CHUNK) {
        p.submit_batch(chunk).expect("preload");
    }
    let mut auditor = Auditor::new();
    first_digest(&mut auditor, p.journal());
    (p, auditor)
}

/// Checks an inclusion-proved entry against the stored row: the entry
/// says a row was written; the database must hold exactly it.
fn entry_matches_row(db: &Database, record: &ChangeRecord) -> bool {
    matches!(db.get(&record.table, &record.key), Ok(Some(row)) if Some(row) == record.after.as_ref())
}

/// One op on the untraced path. `Err` is a failed op.
fn plain_op(
    op: &AuditOp,
    p: &mut Pipeline,
    auditor: &mut Auditor,
    sums: &mut Sums,
    values: &mut Vec<Value>,
) -> Result<(), String> {
    match op {
        AuditOp::Query { worker } => {
            let (value, digest) = p
                .query(&sum_query(*worker), u64::MAX)
                .map_err(|e| e.to_string())?;
            let fresh = digest.size == sums.entries;
            let right = value == sums.value(*worker);
            values.push(value);
            if !right || !fresh {
                return Err(format!(
                    "query for worker {worker}: value or digest disagrees with the oracle"
                ));
            }
        }
        AuditOp::Inclusion { pick } => {
            let size = auditor.trusted_digest().map_or(0, |d| d.size);
            let seq = pick % size.max(1);
            let proof = p
                .journal()
                .prove_inclusion(seq, size)
                .map_err(|e| e.to_string())?;
            let entry = p.journal().entry(seq).map_err(|e| e.to_string())?;
            auditor
                .check_entry(entry, &proof)
                .map_err(|e| e.to_string())?;
            let record = ChangeRecord::decode(&entry.payload).map_err(|e| e.to_string())?;
            if !entry_matches_row(p.database(), &record) {
                return Err(format!("entry {seq} does not match the stored row"));
            }
        }
        AuditOp::Consistency => {
            let old = auditor.trusted_digest().map_or(0, |d| d.size);
            let new = p.digest();
            let proof = p
                .journal()
                .prove_consistency(old, new.size)
                .map_err(|e| e.to_string())?;
            auditor.observe(new, &proof).map_err(|e| e.to_string())?;
        }
        AuditOp::Write(t) => {
            let outcome = p.submit(&task_update(t)).map_err(|e| e.to_string())?;
            if !outcome.is_accepted() {
                return Err(format!("write {} rejected without a regulation", t.id));
            }
            sums.add(t);
        }
    }
    Ok(())
}

/// The same ops, one public layer call at a time, on harness-owned
/// storage and journal.
struct Decomposed {
    db: Database,
    journal: Journal,
    auditor: Auditor,
    /// What the queries returned, in op order.
    values: Vec<Value>,
    proof_nodes: u64,
    proofs: u64,
    digest_leaves: u64,
}

impl Decomposed {
    fn new(preload: &[Task]) -> Self {
        let mut db = Database::new();
        db.create_table("tasks", tasks_schema())
            .expect("fresh database");
        let mut d = Decomposed {
            db,
            journal: Journal::new(),
            auditor: Auditor::new(),
            values: Vec::new(),
            proof_nodes: 0,
            proofs: 0,
            digest_leaves: 0,
        };
        let mut off = Recorder::disabled();
        for t in preload {
            d.write(t, &mut off).expect("preload");
        }
        first_digest(&mut d.auditor, &d.journal);
        d
    }

    fn write(&mut self, t: &Task, rec: &mut Recorder) -> Result<(), String> {
        // No constraint is registered: the snapshot has nothing to feed.
        rec.enter("storage.snapshot");
        std::hint::black_box(self.db.snapshot());
        rec.exit();
        rec.enter("storage.upsert");
        let change = self.db.upsert("tasks", task_row(t));
        rec.exit();
        let change = change.map_err(|e| e.to_string())?;
        rec.enter("storage.change_encode");
        let payload = Bytes::from(change.encode());
        rec.exit();
        rec.enter("ledger.append");
        self.journal.append(t.ts, payload);
        rec.exit();
        Ok(())
    }

    fn digest(&mut self, rec: &mut Recorder) -> LedgerDigest {
        self.digest_leaves += self.journal.len() as u64;
        rec.enter("ledger.digest");
        let digest = self.journal.digest();
        rec.exit();
        digest
    }

    fn op(&mut self, id: u64, op: &AuditOp, rec: &mut Recorder) -> Result<bool, String> {
        rec.set_op(id);
        match op {
            AuditOp::Query { worker } => {
                rec.enter("core.pipeline_query");
                rec.enter("storage.snapshot");
                let snapshot = self.db.snapshot();
                rec.exit();
                rec.enter("constraints.query");
                let value = prever_constraints::query(&sum_query(*worker), &snapshot, u64::MAX);
                rec.exit();
                self.digest(rec);
                rec.exit();
                self.values.push(value.map_err(|e| e.to_string())?);
            }
            AuditOp::Inclusion { pick } => {
                rec.enter("bench.op_inclusion");
                let out = self.inclusion(*pick, rec);
                rec.exit();
                out?;
            }
            AuditOp::Consistency => {
                rec.enter("bench.op_consistency");
                let old = self.auditor.trusted_digest().map_or(0, |d| d.size);
                let new = self.digest(rec);
                rec.enter("ledger.prove_consistency");
                let proof = self.journal.prove_consistency(old, new.size);
                rec.exit();
                let proof = proof.map_err(|e| e.to_string());
                let seen = proof.and_then(|proof| {
                    rec.enter("ledger.verify_consistency");
                    let seen = self.auditor.observe(new, &proof);
                    rec.exit();
                    seen.map_err(|e| e.to_string())
                });
                rec.exit();
                seen?;
            }
            AuditOp::Write(t) => {
                rec.enter("core.pipeline_submit");
                let out = self.write(t, rec);
                rec.exit();
                out?;
            }
        }
        Ok(true)
    }

    fn inclusion(&mut self, pick: u64, rec: &mut Recorder) -> Result<(), String> {
        let size = self.auditor.trusted_digest().map_or(0, |d| d.size);
        let seq = pick % size.max(1);
        rec.enter("ledger.prove_inclusion");
        let proof = self.journal.prove_inclusion(seq, size);
        rec.exit();
        let proof = proof.map_err(|e| e.to_string())?;
        self.proof_nodes += proof.path.len() as u64;
        self.proofs += 1;
        let entry = self.journal.entry(seq).map_err(|e| e.to_string())?;
        rec.enter("ledger.verify_inclusion");
        let checked = self.auditor.check_entry(entry, &proof);
        rec.exit();
        checked.map_err(|e| e.to_string())?;
        rec.enter("storage.change_decode");
        let record = ChangeRecord::decode(&entry.payload);
        rec.exit();
        let record = record.map_err(|e| e.to_string())?;
        rec.enter("storage.get");
        let matches = entry_matches_row(&self.db, &record);
        rec.exit();
        if matches {
            Ok(())
        } else {
            Err(format!("entry {seq} does not match the stored row"))
        }
    }
}

/// Negative controls on a copy of the auditor: a tampered entry and a
/// stale digest must both be rejected, and counted.
fn controls_detect(journal: &Journal, auditor: &Auditor) -> bool {
    let mut probe = auditor.clone();
    let Some(trusted) = probe.trusted_digest().cloned() else {
        return false;
    };
    if trusted.size < 2 {
        return false;
    }
    let seq = trusted.size / 2;
    let (Ok(proof), Ok(entry)) = (
        journal.prove_inclusion(seq, trusted.size),
        journal.entry(seq),
    ) else {
        return false;
    };
    let mut tampered = entry.clone();
    let mut payload = tampered.payload.to_vec();
    match payload.last_mut() {
        Some(b) => *b ^= 1,
        None => payload.push(1),
    }
    tampered.payload = Bytes::from(payload);
    let tamper_rejected = probe.check_entry(&tampered, &proof).is_err();
    // Stale digest: the ledger as it was one entry ago, offered as news.
    let (Ok(stale), Ok(stale_proof)) = (
        journal.digest_at(trusted.size - 1),
        journal.prove_consistency(trusted.size - 1, trusted.size),
    ) else {
        return false;
    };
    let stale_rejected = probe.observe(stale, &stale_proof).is_err();
    tamper_rejected && stale_rejected && probe.tampers_detected() == auditor.tampers_detected() + 2
}

/// What a traced run keeps across its rounds.
#[derive(Default)]
struct Layers {
    tracing: Tracing,
    proof_nodes: u64,
    proofs: u64,
    digest_leaves: u64,
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
            ("ledger.digest_ns", "ledger.digest"),
            ("ledger.prove_inclusion_ns", "ledger.prove_inclusion"),
            ("ledger.verify_inclusion_ns", "ledger.verify_inclusion"),
            ("ledger.prove_consistency_ns", "ledger.prove_consistency"),
            ("ledger.verify_consistency_ns", "ledger.verify_consistency"),
            ("ledger.append_ns", "ledger.append"),
            ("constraints.query_ns", "constraints.query"),
            ("storage.get_ns", "storage.get"),
            ("storage.snapshot_ns", "storage.snapshot"),
            ("storage.upsert_ns", "storage.upsert"),
            ("storage.change_encode_ns", "storage.change_encode"),
        ],
    );
    report.set(
        "ledger.proof_nodes",
        layers.proof_nodes as f64 / layers.proofs.max(1) as f64,
    );
    let digest_ns = totals.get("ledger.digest").map_or(0, |t| t.total_ns);
    report.set(
        "crypto.merkle_root_ns_per_leaf",
        digest_ns as f64 / layers.digest_leaves.max(1) as f64,
    );
    layers.tracing.finish(&mut report);
    report
}

/// One round: a fresh pipeline preloaded with [`PRELOAD_PER_OP`]
/// journaled tasks per op, then `ops` ops of the mix.
fn round(seed: u64, ops: usize, report: &mut Report, mut layers: Option<&mut Layers>) -> Round {
    let preload_n = ops * PRELOAD_PER_OP;
    let mut crowd = Crowd::new(CROWD, seed);
    let preload_tasks = crowd.take(preload_n);
    let mix = audit_mix(&mut crowd, ops, seed);
    let preload: Vec<Update> = preload_tasks.iter().map(task_update).collect();

    // A traced run performs each op on the decomposed path right after
    // the untraced one, so that both see the same machine.
    let mut traced = layers
        .is_some()
        .then(|| Traced::new(Decomposed::new(&preload_tasks)));
    let ((mut p, mut auditor), setup_s) = timed_setup(1, || world(&preload));
    let mut sums = Sums::new();
    preload_tasks.iter().for_each(|t| sums.add(t));
    let mut values = Vec::new();
    let mut timeline = Timeline::start(ops);
    for (i, op) in mix.iter().enumerate() {
        let started = timeline.now_ns();
        let outcome = plain_op(op, &mut p, &mut auditor, &mut sums, &mut values);
        let done = timeline.complete(started, 1);
        if let Err(e) = outcome {
            report.failed += 1;
            report.broke(e);
        }
        if let (Some(tr), Some(l)) = (&mut traced, layers.as_deref_mut()) {
            l.tracing.plain_ns += done - started;
            tr.step(
                report,
                &mut l.tracing,
                format_args!("decomposed op {i}"),
                |d, rec| d.op(i as u64, op, rec),
            );
        }
    }
    report.attempted += ops as u64;
    report.require(
        auditor.tampers_detected() == 0,
        "the auditor saw a tamper on an honest ledger",
    );
    report.require(p.audit().is_ok(), "Pipeline::audit failed");
    report.require(
        p.journal().len() as u64 == sums.entries,
        "journal length differs from the oracle",
    );
    report.require(
        controls_detect(p.journal(), &auditor),
        "negative control: tampered entry or stale digest accepted",
    );

    if let (Some(tr), Some(l)) = (traced, layers) {
        let d = tr.world;
        l.tracing.ops += ops as u64;
        l.proof_nodes += d.proof_nodes;
        l.proofs += d.proofs;
        l.digest_leaves += d.digest_leaves;
        report.attempted += ops as u64;
        report.require(d.values == values, "decomposed path read other values");
        report.require(
            d.journal.digest() == p.digest(),
            "decomposed path ended at another ledger digest",
        );
        report.require(
            d.auditor.tampers_detected() == 0,
            "the decomposed auditor saw a tamper",
        );
        report.require(
            d.auditor.digests_accepted() == auditor.digests_accepted(),
            "decomposed path accepted another number of digests",
        );
        measure_journal(&d.journal, report);
    }
    Round { setup_s, timeline }
}
