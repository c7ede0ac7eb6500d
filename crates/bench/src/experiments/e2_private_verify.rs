//! E2 — RC1: the cost of verifying one bound regulation, per mechanism.
//!
//! The paper: cryptographic techniques "have considerable overhead",
//! secure hardware is faster but "has scalability issues". This
//! experiment puts numbers on the spectrum, for the same decision
//! ("may this update be admitted under the 40-hour bound?"):
//!
//! * `plaintext-scan`    — the evaluator on a table without indexes;
//! * `plaintext-indexed` — the same evaluator, same constraint, on a
//!   table with the `(worker, ts)` index `Pipeline` creates: equality and
//!   window pushed down, O(log n + rows in window);
//! * `enclave-sim`       — hardware-protected plaintext + transition toll;
//! * `mpc-3p`            — the federated secure comparison;
//! * `paillier`          — homomorphic accumulate + owner decrypt;
//! * `zk-range`          — producer-side range proof (prove + verify).

use crate::experiments::time_per_op;
use crate::Table;
use prever_constraints::{ensure_indexes, evaluate, Constraint, ConstraintScope, UpdateContext};
use prever_crypto::bignum::BigUint;
use prever_crypto::schnorr::{self, RangeProof, SchnorrGroup};
use prever_enclave::Enclave;
use prever_mpc::FederatedBoundCheck;
use prever_storage::{Column, ColumnType, Database, Row, Schema, Value};
use rand::{rngs::StdRng, SeedableRng};

const WEEK: u64 = 604_800;

fn tasks_db(rows: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        "tasks",
        Schema::new(
            vec![
                Column::new("id", ColumnType::Uint),
                Column::new("worker", ColumnType::Str),
                Column::new("hours", ColumnType::Uint),
                Column::new("ts", ColumnType::Timestamp),
            ],
            &["id"],
        )
        .expect("static schema"),
    )
    .expect("fresh db");
    for i in 0..rows {
        db.insert(
            "tasks",
            Row::new(vec![
                Value::Uint(i as u64),
                Value::Str(format!("w{}", i % 50)),
                Value::Uint(1),
                Value::Timestamp(i as u64 * 60),
            ]),
        )
        .expect("insert");
    }
    db
}

/// Runs E2.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E2 — private constraint verification cost per mechanism (µs/decision)",
        &["mechanism", "table rows", "µs/decision"],
    );
    let rows = if quick { 500 } else { 5_000 };
    let iters = if quick { 20 } else { 200 };

    // Plaintext: the one evaluator, without and with the index it can
    // push the equality and the window down onto.
    for (mechanism, indexed) in [("plaintext-scan", false), ("plaintext-indexed", true)] {
        let mut db = tasks_db(rows);
        let constraint = Constraint::parse(
            "flsa",
            ConstraintScope::Regulation,
            &format!(
                "COUNT(tasks WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) = 0 \
                 OR SUM(tasks.hours WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) + $hours <= 40"
            ),
        )
        .expect("parses");
        if indexed {
            ensure_indexes(&constraint.expr, &mut db);
        }
        let row = Row::new(vec![
            Value::Uint(9_999_999),
            Value::Str("w7".into()),
            Value::Uint(3),
            Value::Timestamp(rows as u64 * 60),
        ]);
        let schema = db.table("tasks").expect("table").schema();
        let snapshot = db.snapshot();
        let ctx = UpdateContext { table: "tasks", row: &row, schema, timestamp: rows as u64 * 60 };
        let us = time_per_op(&format!("bench.e2.{}", mechanism.replace('-', "_")), iters, || {
            let _ = evaluate(&constraint, &snapshot, &ctx).expect("eval");
        });
        table.row(vec![mechanism.into(), rows.to_string(), format!("{us:.1}")]);
    }

    // Enclave simulation (plaintext inside + transition toll is virtual;
    // measured cost is the software path).
    {
        let mut enclave = Enclave::load(b"bound", b"secret");
        let us = time_per_op("bench.e2.enclave_sim", iters * 10, || {
            let _ = enclave.check_bound("w7", 0, 1 << 40);
        });
        table.row(vec!["enclave-sim".into(), "-".into(), format!("{us:.3}")]);
    }

    // MPC (3 parties).
    {
        let mut rng = StdRng::seed_from_u64(3);
        let mut check = FederatedBoundCheck::new();
        let us = time_per_op("bench.e2.mpc_3p", iters, || {
            let _ = check.check_upper_bound(&[10, 12, 8], 3, 40, &mut rng).expect("mpc");
        });
        table.row(vec!["mpc-3p".into(), "-".into(), format!("{us:.1}")]);
    }

    // Paillier: homomorphic add + owner decrypt-and-compare.
    {
        let mut rng = StdRng::seed_from_u64(4);
        let key = prever_crypto::paillier::keygen(96, &mut rng);
        let acc = key.public.encrypt_u64(30, &mut rng).expect("enc");
        let update = key.public.encrypt_u64(3, &mut rng).expect("enc");
        let us = time_per_op("bench.e2.paillier", iters, || {
            let candidate = key.public.add(&acc, &update).expect("add");
            let total = key.decrypt(&candidate).expect("dec");
            let _ = total <= BigUint::from_u64(40);
        });
        table.row(vec!["paillier".into(), "-".into(), format!("{us:.1}")]);
    }

    // ZK range proof (prove + verify one 6-bit amount).
    {
        let mut rng = StdRng::seed_from_u64(5);
        let group = SchnorrGroup::test_group_256();
        let m = BigUint::from_u64(37);
        let us = time_per_op("bench.e2.zk_range", iters.min(50), || {
            let (c, r) = schnorr::commit(&group, &m, &mut rng).expect("commit");
            let proof = RangeProof::prove(&group, &c, &m, &r, 6, b"e2", &mut rng).expect("prove");
            proof.verify(&group, &c, 6, b"e2").expect("verify");
        });
        table.row(vec!["zk-range(6bit)".into(), "-".into(), format!("{us:.1}")]);
    }

    table
}
