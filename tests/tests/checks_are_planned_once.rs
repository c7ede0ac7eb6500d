//! What a regulation check and a verified read cost in work the code
//! counts, not in time: plans built and primary-key look-ups
//! (`prever_obs::work`'s `PlanBuilt` and `KeyLookup`) and rows the
//! evaluator visits (the `constraints.eval.rows` histogram). Index entries
//! carry their rows, so a read through an index never goes back to the
//! primary map; a registered constraint is planned once per database
//! layout, not per update.
//!
//! One test in a file of its own: the metrics registry is per process.

use prever_constraints::{evaluate, Constraint, ConstraintScope, UpdateContext};
use prever_core::{Pipeline, Update};
use prever_obs::work::{measure, Unit::*};
use prever_storage::{Column, ColumnType, Row, Schema, Value};

const ROWS: u64 = 5_000;
const WORKERS: u64 = 50;
const WEEK: u64 = 604_800;
/// One task every ten minutes, an hour each, round-robin: about 20 hours
/// a week per worker against a bound of 40, so every task is accepted.
const GAP: u64 = 600;

fn task(i: u64) -> Row {
    Row::new(vec![
        Value::Uint(i),
        Value::Str(format!("w{}", i % WORKERS)),
        Value::Uint(1),
        Value::Timestamp(i * GAP),
    ])
}

fn submit(p: &mut Pipeline, i: u64) {
    let outcome = p
        .submit(&Update::new(i, "tasks", task(i), i * GAP, "p"))
        .unwrap();
    assert!(outcome.is_accepted(), "task {i}");
}

/// Rows the evaluator has visited so far in this process.
fn rows_visited() -> u64 {
    prever_obs::histogram("constraints.eval.rows").sum()
}

#[test]
fn a_check_and_a_read_touch_index_entries_only_and_plan_once() {
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
    let mut next = 0..;
    let mut load = |p: &mut Pipeline, n: u64| {
        measure(|| (&mut next).take(n as usize).for_each(|i| submit(p, i))).1[PlanBuilt]
    };
    assert_eq!(
        load(&mut p, ROWS),
        1,
        "5 000 submits under one regulation: one plan"
    );

    // The check of task 5 000: the worker's tasks of the last week, each
    // read once by COUNT and once by SUM, straight from the index.
    let in_week = |i: u64| {
        let anchor = i * GAP;
        (0..i)
            .filter(|j| j % WORKERS == i % WORKERS && j * GAP + WEEK > anchor)
            .count() as u64
    };
    let check = |p: &Pipeline, i: u64| {
        let (db, row) = (p.database(), task(i));
        let schema = db.table("tasks").unwrap().schema();
        let update = UpdateContext {
            table: "tasks",
            row: &row,
            schema,
            timestamp: i * GAP,
        };
        let rows = rows_visited();
        let (ok, work) =
            measure(|| evaluate(&p.constraints()[0], &db.snapshot(), &update).unwrap());
        (ok, [work[PlanBuilt], work[KeyLookup], rows_visited() - rows])
    };
    assert!(in_week(ROWS) > 10);
    assert_eq!(check(&p, ROWS), (true, [0, 0, 2 * in_week(ROWS)]));

    // `audit-read`'s query shape reads the regulation's (worker, ts) index
    // whole: each query plans itself and nothing else, and looks nothing
    // up by key.
    let group = |w: u64, upto: u64| (0..upto).filter(|j| j % WORKERS == w).count() as u64;
    let read = |p: &mut Pipeline, src: &str| {
        let rows = rows_visited();
        let (value, work) = measure(|| p.query(src, u64::MAX).unwrap().0);
        (value, [work[PlanBuilt], work[KeyLookup], rows_visited() - rows])
    };
    let by_worker = |w: u64| format!("SUM(tasks.hours WHERE tasks.worker = 'w{w}')");
    for w in [3, 0, 49] {
        let sum = Value::Int(group(w, ROWS) as i64);
        assert_eq!(read(&mut p, &by_worker(w)), (sum, [1, 0, group(w, ROWS)]));
    }
    assert_eq!(load(&mut p, 1_000), 0, "1 000 more submits: no re-plan");
    let upto = ROWS + 1_000;
    assert_eq!(check(&p, upto), (true, [0, 0, 2 * in_week(upto)]));

    // A query of a new shape creates its index, in one pass over the rows
    // and again without a look-up; the regulation re-plans once, on the
    // next update, and then holds.
    let all = Value::Int(upto as i64);
    assert_eq!(
        read(&mut p, "COUNT(tasks WHERE tasks.hours = 1)"),
        (all, [1, 0, upto])
    );
    assert_eq!(load(&mut p, 1), 1, "the new index re-plans the regulation");
    assert_eq!(load(&mut p, 999), 0, "once");
    let upto = upto + 1_000;
    assert_eq!(check(&p, upto), (true, [0, 0, 2 * in_week(upto)]));
}
