//! The cost of checking a registered constraint does not grow with the
//! table. Counted in rows the evaluator visits (the
//! `constraints.eval.rows` histogram), not in time.
//!
//! One test in a file of its own: the metrics registry is per process.

use prever_constraints::{Constraint, ConstraintScope};
use prever_core::{Pipeline, Update};
use prever_storage::{Column, ColumnType, Row, Schema, Value};

const WEEK: u64 = 604_800;
const WORKERS: u64 = 100;
/// One task every ten minutes, an hour each, round-robin: 1 008 tasks a
/// week, so a worker logs about 10 hours against a bound of 40, every
/// task is accepted and every window holds about 10 of that worker's rows.
const GAP: u64 = 600;

fn submit(p: &mut Pipeline, i: u64) {
    let ts = i * GAP;
    let row = Row::new(vec![
        Value::Uint(i),
        Value::Str(format!("w{}", i % WORKERS)),
        Value::Uint(1),
        Value::Timestamp(ts),
    ]);
    assert!(
        p.submit(&Update::new(i, "tasks", row, ts, "p"))
            .unwrap()
            .is_accepted(),
        "task {i}"
    );
}

#[test]
fn flsa_check_visits_no_more_rows_at_50k_than_at_5k() {
    let mut p = Pipeline::new();
    p.create_table(
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
        .unwrap(),
    )
    .unwrap();
    p.register_constraint(
        Constraint::parse(
            "FLSA-40h",
            ConstraintScope::Regulation,
            &format!(
                "COUNT(tasks WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) = 0 \
                 OR SUM(tasks.hours WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) + $hours <= 40"
            ),
        )
        .unwrap(),
    );

    // Rows visited per aggregate over the next 100 checks.
    let rows = prever_obs::histogram("constraints.eval.rows");
    let mut next = 0u64;
    let mut rows_per_aggregate_after = |p: &mut Pipeline, accepted: u64| {
        while next < accepted {
            submit(p, next);
            next += 1;
        }
        assert_eq!(p.database().table("tasks").unwrap().len() as u64, accepted);
        let (sum, count) = (rows.sum(), rows.count());
        for _ in 0..100 {
            submit(p, next);
            next += 1;
        }
        assert_eq!(rows.count() - count, 200, "two aggregates per check");
        (rows.sum() - sum) as f64 / 200.0
    };
    // 5 000 tasks already span five weeks, 50 000 fifty: the table grows
    // tenfold, a worker's week does not.
    let at_5k = rows_per_aggregate_after(&mut p, 5_000);
    let at_50k = rows_per_aggregate_after(&mut p, 50_000);
    assert!(
        (9.0..=11.0).contains(&at_5k),
        "a worker's week is about 10 rows, got {at_5k}"
    );
    assert!(
        at_50k <= at_5k,
        "{at_50k} rows per aggregate at 50 000, {at_5k} at 5 000"
    );
    assert!(
        rows.max() <= 11,
        "no aggregate ever read more than one worker's week"
    );
    assert_eq!(
        prever_obs::counter("constraints.eval.scanned").get(),
        0,
        "no check scanned"
    );
    assert_eq!(
        prever_obs::counter("constraints.eval.indexed").get(),
        rows.count()
    );
}
