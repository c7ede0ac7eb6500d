//! Differential tests of predicate pushdown: a constraint checked, or a
//! query answered, through the indexes `Pipeline` creates must decide —
//! and fail — exactly as the same evaluator does on a database without
//! indexes, where every aggregate is a full scan. That index-free
//! `evaluate` / `query` is the oracle.

use bytes::Bytes;
use prever_constraints::parse::parse;
use prever_constraints::{
    ensure_indexes, evaluate, evaluate_query, Constraint, ConstraintScope, UpdateContext,
};
use prever_core::{Pipeline, PreverError, Update};
use prever_ledger::{Journal, LedgerDigest};
use prever_storage::{Column, ColumnType, Database, Key, Row, Schema, Value};
use proptest::prelude::*;

const WEEK: u64 = 604_800;

/// `hours`, the aggregated column, is nullable; `grp` is a numeric group
/// column, so an `Int` literal probes a `Uint` column; `seen` is a
/// timestamp a window cannot rely on, being nullable.
fn tasks_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ColumnType::Uint),
            Column::new("worker", ColumnType::Str),
            Column::new("grp", ColumnType::Uint),
            Column::nullable("hours", ColumnType::Uint),
            Column::new("ts", ColumnType::Timestamp),
            Column::nullable("seen", ColumnType::Timestamp),
        ],
        &["id"],
    )
    .unwrap()
}

#[derive(Debug, Clone)]
struct Task {
    id: u64,
    worker: u8,
    grp: u64,
    hours: Option<u64>,
    ts: u64,
    seen: Option<u64>,
}

impl Task {
    fn row(&self) -> Row {
        Row::new(vec![
            self.id.into(),
            format!("w{}", self.worker).into(),
            self.grp.into(),
            self.hours.map_or(Value::Null, Value::Uint),
            Value::Timestamp(self.ts),
            self.seen.map_or(Value::Null, Value::Timestamp),
        ])
    }
}

/// Timestamps in no order, on a grid of 50 (the window lengths are
/// multiples of it) or one past it, so that rows land on both edges of a
/// window — `anchor − d` is outside, `anchor − d + 1` inside — and on 0.
fn arb_ts() -> impl Strategy<Value = u64> {
    (0u64..20, 0u64..3).prop_map(|(k, jitter)| 50 * k + jitter / 2)
}

/// Few ids, so a later task often replaces an earlier one under another
/// worker or group. A fifth of the hours and of the sightings are NULL.
fn arb_task() -> impl Strategy<Value = Task> {
    let fifth_null = |v: u64| v.checked_sub(4);
    (
        0u64..10,
        0u8..3,
        0u64..3,
        (0u64..19).prop_map(fifth_null),
        arb_ts(),
        (0u64..20).prop_map(move |v| fifth_null(v).map(|k| 50 * k)),
    )
        .prop_map(|(id, worker, grp, hours, ts, seen)| Task {
            id,
            worker,
            grp,
            hours,
            ts,
            seen,
        })
}

/// Equality conjuncts: absent, pushable (operands in either order), a
/// literal that equals stored values under `=` but is of another variant
/// (`2` is an `Int`, `grp` holds `Uint`: the index is probed with
/// `Uint(2)`), never true, an error on every row reached, and two that
/// hide the equality under `OR` / `NOT`.
const EQUALITY: &[&str] = &[
    "",
    "tasks.worker = $worker",
    "$worker = tasks.worker",
    "tasks.grp = $grp",
    "tasks.grp = 2",
    "tasks.grp = NULL",
    "tasks.worker = 2",
    "(tasks.worker = $worker OR tasks.hours > 12)",
    "NOT (tasks.grp = $grp)",
];

/// Other conjuncts. The last two can raise an error on a row the index
/// would skip (`grp = 0`; any row at all), so they must force a scan.
const EXTRA: &[&str] = &[
    "",
    "",
    "",
    "tasks.hours > 2",
    "tasks.hours IS NOT NULL",
    "tasks.ts <= $ts",
    "tasks.id != $id",
    "tasks.hours / tasks.grp >= 0",
    "$nope = 1",
];

const AGGREGATE: &[&str] = &[
    "COUNT", "SUM", "AVG", "MIN", "MAX", "EXISTS", "MAXSUM", "MINCOUNT",
];

/// No window, three lengths on the timestamp grid, and one over a
/// nullable column, which no index may narrow.
const WINDOW: &[&str] = &[
    "",
    "",
    " WITHIN 50 OF tasks.ts",
    " WITHIN 300 OF tasks.ts",
    " WITHIN 5000 OF tasks.ts",
    " WITHIN 300 OF tasks.seen",
];

fn pick<T: Copy + 'static>(from: &'static [T]) -> impl Strategy<Value = T> {
    (0..from.len()).prop_map(move |i| from[i])
}

/// ` WHERE a AND b AND c` over the non-empty conjuncts, the equality
/// first or last; empty without any.
fn where_clause(equality: &str, equality_first: bool, extras: [&str; 2]) -> String {
    let mut conjuncts: Vec<&str> = extras.into_iter().filter(|c| !c.is_empty()).collect();
    if !equality.is_empty() {
        let at = if equality_first { 0 } else { conjuncts.len() };
        conjuncts.insert(at, equality);
    }
    match conjuncts.is_empty() {
        true => String::new(),
        false => format!(" WHERE {}", conjuncts.join(" AND ")),
    }
}

/// One aggregate over `tasks` compared with a constant, optionally
/// guarded against NULL.
fn arb_constraint() -> impl Strategy<Value = String> {
    (
        (pick(AGGREGATE), pick(EQUALITY), pick(EXTRA), pick(EXTRA)),
        any::<bool>(),
        pick(WINDOW),
        any::<bool>(),
        0u64..40,
    )
        .prop_map(
            |((agg, equality, extra1, extra2), equality_first, window, guarded, k)| {
                let filter = where_clause(equality, equality_first, [extra1, extra2]);
                let scan = match agg {
                    "EXISTS" => return format!("NOT EXISTS(tasks{filter}) OR $hours < {k}"),
                    "COUNT" => format!("COUNT(tasks{filter}{window})"),
                    "MAXSUM" => format!("MAXSUM(tasks.hours BY tasks.worker{filter}{window})"),
                    "MINCOUNT" => format!("MINCOUNT(tasks BY tasks.grp{filter}{window})"),
                    f => format!("{f}(tasks.hours{filter}{window})"),
                };
                match guarded {
                    true => format!("{scan} IS NULL OR {scan} + $hours <= {k}"),
                    false => format!("{scan} <= {k}"),
                }
            },
        )
}

/// Equality conjuncts of a query. A query has no `$fields`, so every
/// numeric probe is an `Int` literal against a `Uint` or `Timestamp`
/// column: in range (`1`, `100`, `i64::MAX`), out of it (`-1`, which is a
/// negation, not a literal), a boolean (`=` compares it as a number);
/// against nullable columns and the primary key; never true; an error on
/// every row reached; hidden under `OR` / `NOT`.
const QUERY_EQUALITY: &[&str] = &[
    "",
    "tasks.worker = 'w1'",
    "'w2' = tasks.worker",
    "tasks.worker = 'nobody'",
    "tasks.grp = 1",
    "2 = tasks.grp",
    "tasks.grp = 9223372036854775807",
    "tasks.grp = -1",
    "tasks.grp = TRUE",
    "tasks.ts = 100",
    "tasks.ts = -50",
    "tasks.seen = 100",
    "tasks.hours = 5",
    "tasks.id = 3",
    "tasks.grp = NULL",
    "tasks.grp = 'one'",
    "tasks.worker = 2",
    "(tasks.grp = 1 OR tasks.hours > 12)",
    "NOT (tasks.worker = 'w1')",
];

/// Other conjuncts of a query. The last four can raise an error on a row
/// an index would skip, hold a scan of their own, or make the whole
/// query an error (`$hours`: there is no update).
const QUERY_EXTRA: &[&str] = &[
    "",
    "",
    "",
    "tasks.hours > 2",
    "tasks.hours IS NOT NULL",
    "tasks.ts <= 500",
    "tasks.id != 3",
    "tasks.hours / tasks.grp >= 0",
    "tasks.nope = 1",
    "EXISTS(tasks WHERE tasks.worker = 'w0')",
    "$hours = 1",
];

/// One update-free aggregate, grouped aggregate or `EXISTS` over `tasks`,
/// bare or inside arithmetic and a NULL test.
fn arb_query() -> impl Strategy<Value = String> {
    (
        (
            pick(AGGREGATE),
            pick(QUERY_EQUALITY),
            pick(QUERY_EXTRA),
            pick(QUERY_EXTRA),
        ),
        any::<bool>(),
        pick(WINDOW),
        any::<bool>(),
    )
        .prop_map(
            |((agg, equality, extra1, extra2), equality_first, window, bare)| {
                let filter = where_clause(equality, equality_first, [extra1, extra2]);
                let scan = match agg {
                    "EXISTS" => return format!("EXISTS(tasks{filter})"),
                    "COUNT" => format!("COUNT(tasks{filter}{window})"),
                    "MAXSUM" => format!("MAXSUM(tasks.hours BY tasks.worker{filter}{window})"),
                    "MINCOUNT" => format!("MINCOUNT(tasks BY tasks.grp{filter}{window})"),
                    f => format!("{f}(tasks.hours{filter}{window})"),
                };
                match bare {
                    true => scan,
                    false => format!("{scan} IS NULL OR {scan} + 1 <= 20"),
                }
            },
        )
}

fn constraint(src: &str) -> Constraint {
    Constraint::parse("c", ConstraintScope::Regulation, src)
        .unwrap_or_else(|e| panic!("{src}: {e}"))
}

/// `Pipeline::submit` step by step on a database that never gets an
/// index: the full-scan oracle.
struct Reference {
    db: Database,
    constraint: Constraint,
    journal: Journal,
}

impl Reference {
    fn new(constraint: Constraint) -> Self {
        let mut db = Database::new();
        db.create_table("tasks", tasks_schema()).unwrap();
        Reference {
            db,
            constraint,
            journal: Journal::new(),
        }
    }

    fn submit(&mut self, u: &Update) -> Result<bool, PreverError> {
        let schema = self.db.table(&u.table)?.schema();
        let ctx = UpdateContext {
            table: &u.table,
            row: &u.row,
            schema,
            timestamp: u.timestamp,
        };
        if !evaluate(&self.constraint, &self.db.snapshot(), &ctx)? {
            return Ok(false);
        }
        let change = self.db.upsert(&u.table, u.row.clone())?;
        self.journal
            .append(u.timestamp, Bytes::from(change.encode()));
        Ok(true)
    }
}

/// Submits `tasks` to an indexed `Pipeline` and to the oracle; panics
/// unless every outcome — accepted, rejected or the same error — and the
/// final ledger digest agree. Returns the outcomes and the digest.
fn differential(
    src: &str,
    tasks: &[Task],
    constraint_first: bool,
) -> (Vec<Result<bool, String>>, LedgerDigest) {
    let mut p = Pipeline::new();
    if constraint_first {
        p.register_constraint(constraint(src));
        p.create_table("tasks", tasks_schema()).unwrap();
    } else {
        p.create_table("tasks", tasks_schema()).unwrap();
        p.register_constraint(constraint(src));
    }
    let mut oracle = Reference::new(constraint(src));
    let mut outcomes = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let u = Update::new(i as u64, "tasks", t.row(), t.ts, "p");
        let got = p
            .submit(&u)
            .map(|o| o.is_accepted())
            .map_err(|e| e.to_string());
        let want = oracle.submit(&u).map_err(|e| e.to_string());
        assert_eq!(got, want, "update {i} ({t:?}) under `{src}`");
        outcomes.push(got);
    }
    assert_eq!(
        p.digest(),
        oracle.journal.digest(),
        "ledger digest under `{src}`"
    );
    p.audit().unwrap();
    (outcomes, p.digest())
}

/// The update a constraint is checked for: any variant in any field, as
/// `evaluate` accepts rows no schema has validated.
fn arb_probe() -> impl Strategy<Value = (Row, u64)> {
    let worker = (0u8..8).prop_map(|w| match w {
        6 => Value::Null,
        7 => Value::Int(1),
        w => Value::Str(format!("w{}", w % 4)),
    });
    // `Int(1)` and `Timestamp(1)` equal a stored `Uint(1)` under `=` but
    // not under the index's order, so the index is probed with `Uint(1)`;
    // `Int(-1)` equals nothing a `Uint` column stores.
    let grp = prop_oneof![
        (0u64..4).prop_map(Value::Uint),
        (0u64..4).prop_map(Value::Uint),
        (0i64..5).prop_map(|v| Value::Int(v - 1)),
        (0u64..4).prop_map(Value::Timestamp),
        pick(&[0u8, 1, 2]).prop_map(|v| match v {
            0 => Value::Null,
            1 => Value::Str("1".into()),
            _ => Value::Bool(true),
        }),
    ];
    let hours = (0u64..19).prop_map(|h| h.checked_sub(4).map_or(Value::Null, Value::Uint));
    (0u64..12, worker, grp, hours, arb_ts()).prop_map(|(id, worker, grp, hours, ts)| {
        (
            Row::new(vec![
                id.into(),
                worker,
                grp,
                hours,
                Value::Timestamp(ts),
                Value::Null,
            ]),
            ts,
        )
    })
}

#[derive(Debug, Clone)]
enum Op {
    Upsert(Task),
    Delete(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (arb_task(), 0u8..5).prop_map(|(t, kind)| match kind {
        0 => Op::Delete(t.id),
        _ => Op::Upsert(t),
    })
}

proptest! {
    /// Storage level, so that deletes and unvalidated probe rows are in
    /// play (`Pipeline` has no delete): the same inserts, upserts and
    /// deletes go to a database with the constraint's and the query's
    /// indexes and to one without; before each, and on a historical
    /// snapshot at the end, both evaluate both alike. The indexes arrive
    /// the way `Pipeline::query` brings them — `ensure_indexes`, then
    /// `evaluate_query` on the live snapshot — half of the time halfway,
    /// over version chains and tombstones.
    #[test]
    fn indexed_database_agrees_with_scan(
        src in arb_constraint(),
        query_src in arb_query(),
        steps in proptest::collection::vec((arb_op(), arb_probe()), 1..40),
        indexed_from_the_start in any::<bool>(),
    ) {
        let c = constraint(&src);
        let q = parse(&query_src).unwrap_or_else(|e| panic!("{query_src}: {e}"));
        let mut plain = Database::new();
        plain.create_table("tasks", tasks_schema()).unwrap();
        let mut indexed = plain.clone();
        let index = |db: &mut Database| {
            for e in [&c.expr, &q] {
                ensure_indexes(e, db);
            }
        };
        if indexed_from_the_start {
            index(&mut indexed);
        }
        let schema = tasks_schema();
        let check = |indexed: &Database, plain: &Database, row: &Row, ts: u64, at: Option<u64>| {
            let ctx = UpdateContext { table: "tasks", row, schema: &schema, timestamp: ts };
            [indexed, plain].map(|db| {
                let snapshot = at.map_or(db.snapshot(), |version| db.snapshot_at(version).unwrap());
                (evaluate(&c, &snapshot, &ctx), evaluate_query(&q, &snapshot, ts))
            })
        };
        let half = steps.len() / 2;
        let mut version_at_half = 0;
        for (i, (op, (probe, ts))) in steps.iter().enumerate() {
            if i == half {
                // Indexing a populated table must find what is in it.
                index(&mut indexed);
                version_at_half = plain.version();
            }
            let [got, want] = check(&indexed, &plain, probe, *ts, None);
            prop_assert_eq!(got, want, "step {} under `{}` / `{}`", i, &src, &query_src);
            for db in [&mut indexed, &mut plain] {
                // A delete of an absent id fails, on both alike.
                let _ = match op {
                    Op::Upsert(t) => db.upsert("tasks", t.row()).map(|_| ()),
                    Op::Delete(id) => db.delete("tasks", &Key(vec![(*id).into()])).map(|_| ()),
                };
            }
            prop_assert_eq!(indexed.version(), plain.version());
        }
        let (probe, ts) = &steps[0].1;
        let [got, want] = check(&indexed, &plain, probe, *ts, Some(version_at_half));
        prop_assert_eq!(got, want, "historical snapshot under `{}` / `{}`", &src, &query_src);
    }

    /// `Pipeline` level: outcomes and ledger digest.
    #[test]
    fn indexed_pipeline_agrees_with_reference(
        src in arb_constraint(),
        tasks in proptest::collection::vec(arb_task(), 1..40),
        constraint_first in any::<bool>(),
    ) {
        differential(&src, &tasks, constraint_first);
    }

    /// `Pipeline::query` against `query` on a database no one indexes,
    /// fed the same inserts and updates: equal values, equal errors, and
    /// the digest of the journal as it stands. Writes come before the
    /// first query (its indexes are built over version chains) and
    /// between the later ones (they are maintained); with `regulated`, a
    /// constraint has already put an ordered index on `worker`.
    #[test]
    fn planned_query_agrees_with_scan(
        queries in proptest::collection::vec(arb_query(), 1..4),
        steps in proptest::collection::vec((arb_task(), arb_ts()), 1..30),
        first_query_at in 0usize..30,
        regulated in any::<bool>(),
    ) {
        let mut p = Pipeline::new();
        p.create_table("tasks", tasks_schema()).unwrap();
        if regulated {
            p.register_constraint(constraint(
                "COUNT(tasks WHERE tasks.worker = $worker WITHIN 300 OF tasks.ts) < 100",
            ));
        }
        let mut plain = Database::new();
        plain.create_table("tasks", tasks_schema()).unwrap();
        for (i, (t, anchor)) in steps.iter().enumerate() {
            let accepted = p.submit(&Update::new(i as u64, "tasks", t.row(), t.ts, "p")).unwrap();
            prop_assert!(accepted.is_accepted());
            plain.upsert("tasks", t.row()).unwrap();
            if i < first_query_at.min(steps.len() - 1) {
                continue;
            }
            for src in &queries {
                let got = p.query(src, *anchor).map_err(|e| e.to_string());
                let want = prever_constraints::query(src, &plain.snapshot(), *anchor)
                    .map_err(|e| PreverError::from(e).to_string());
                let digest = p.digest();
                prop_assert_eq!(digest.size, i as u64 + 1);
                prop_assert_eq!(got, want.map(|v| (v, digest)), "`{}` after write {}", src, i);
            }
        }
    }
}

fn task(id: u64, worker: u8, hours: Option<u64>, ts: u64) -> Task {
    Task {
        id,
        worker,
        grp: 0,
        hours,
        ts,
        seen: None,
    }
}

fn flsa(bound: u64) -> String {
    format!(
        "COUNT(tasks WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) = 0 \
         OR SUM(tasks.hours WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) + $hours <= {bound}"
    )
}

// The three ways the deleted `MaintainedAggregate` disagreed with the
// evaluator. The indexed path must not bring any of them back.

/// It computed the window's lower edge with `saturating_sub`, so with
/// `anchor < duration` the edge was 0 and a row at `ts = 0` fell out. The
/// window is `(anchor − d, anchor]` in signed arithmetic: −604 700 < 0.
#[test]
fn regression_window_lower_edge_is_signed() {
    let tasks = [
        task(1, 1, Some(30), 0),
        task(2, 1, Some(15), 100),
        task(3, 1, Some(10), 100),
    ];
    let (got, _) = differential(&flsa(40), &tasks, false);
    assert_eq!(
        got,
        [Ok(true), Ok(false), Ok(true)],
        "the 30 h at ts = 0 count against ts = 100"
    );
}

/// It answered 0 for a group without rows. `SUM` over zero rows is NULL,
/// NULL + hours <= 40 is NULL, and NULL rejects.
#[test]
fn regression_sum_over_zero_rows_is_null() {
    let unguarded = format!(
        "SUM(tasks.hours WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) + $hours <= 40"
    );
    let tasks = [task(1, 1, Some(5), 100), task(2, 2, Some(5), 200)];
    let (got, _) = differential(&unguarded, &tasks, false);
    assert_eq!(
        got,
        [Ok(false), Ok(false)],
        "an empty window is unknown, not zero"
    );
}

/// It failed with `TypeMismatch` on a NULL in the summed column.
/// Aggregates skip NULLs.
#[test]
fn regression_null_summed_value_is_skipped() {
    let sum = format!("SUM(tasks.hours WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts)");
    let null_guarded = format!("{sum} IS NULL OR {sum} + $hours <= 40");
    let tasks = [
        task(1, 1, None, 100),
        task(2, 1, Some(30), 200),
        task(3, 1, Some(11), 300),
        task(4, 1, Some(10), 400),
    ];
    let (got, _) = differential(&null_guarded, &tasks, true);
    assert_eq!(
        got,
        [Ok(true), Ok(true), Ok(false), Ok(true)],
        "NULL hours add nothing"
    );
    // A window holding nothing but NULLs sums to NULL, which FLSA's COUNT
    // guard does not cover: rejected, as by the oracle.
    let (got, _) = differential(
        &flsa(40),
        &[task(1, 1, None, 100), task(2, 1, Some(1), 200)],
        true,
    );
    assert_eq!(got, [Ok(true), Ok(false)]);
}

/// The index range is `[anchor − d + 1, anchor]`, the window `(anchor − d, anchor]`.
#[test]
fn window_edges_are_exact() {
    let none_in_window = "COUNT(tasks WHERE tasks.worker = $worker WITHIN 100 OF tasks.ts) < 1";
    let tasks = [
        task(1, 1, Some(1), 100),
        task(2, 1, Some(1), 200), // (100, 200]: the row at 100 is just outside
        task(3, 1, Some(1), 299), // (199, 299]: the row at 200 is just inside
        task(4, 1, Some(1), 300), // (200, 300]: and outside again
        task(5, 1, Some(1), 300), // the row at the anchor itself is inside
        task(6, 2, Some(1), 500),
        task(7, 2, Some(1), 450), // (350, 450]: a row after the anchor is outside
    ];
    let (got, _) = differential(none_in_window, &tasks, false);
    assert_eq!(
        got,
        [
            Ok(true),
            Ok(true),
            Ok(false),
            Ok(true),
            Ok(false),
            Ok(true),
            Ok(true)
        ]
    );
}

/// A row upserted under another worker leaves the first worker's group.
#[test]
fn a_row_that_changes_group_moves_in_the_index() {
    let tasks = [
        task(1, 1, Some(30), 100),
        task(2, 1, Some(20), 200), // rejected: 50 > 40
        task(1, 2, Some(30), 100), // id 1 moves to worker 2
        task(2, 1, Some(20), 200), // accepted: worker 1 has nothing left
        task(3, 2, Some(20), 300), // rejected: worker 2 now carries the 30
    ];
    let (got, _) = differential(&flsa(40), &tasks, false);
    assert_eq!(got, [Ok(true), Ok(false), Ok(true), Ok(true), Ok(false)]);
}

/// `-<integer>` is one literal: the parser folds the sign in, so
/// `t.delta = -1` probes a signed column's index like `t.delta = 1` does.
/// A negation of anything else — a parenthesised sum, a column, a string —
/// is still evaluated, on the rows it reaches, and `-9223372036854775808`
/// is still an overflow. `Pipeline::query` on an indexed table against
/// the scan.
#[test]
fn negative_literals_agree_with_scan() {
    let schema = Schema::new(
        vec![
            Column::new("id", ColumnType::Uint),
            Column::new("delta", ColumnType::Int),
            Column::new("hours", ColumnType::Uint),
        ],
        &["id"],
    )
    .unwrap();
    let mut p = Pipeline::new();
    p.create_table("moves", schema.clone()).unwrap();
    let mut plain = Database::new();
    plain.create_table("moves", schema).unwrap();
    for id in 0..40u64 {
        let row = Row::new(vec![id.into(), Value::Int((id % 7) as i64 - 3), (id % 5).into()]);
        assert!(p.submit(&Update::new(id, "moves", row.clone(), id, "p")).unwrap().is_accepted());
        plain.upsert("moves", row).unwrap();
    }
    for src in [
        "COUNT(moves WHERE moves.delta = -1)",
        "SUM(moves.hours WHERE -3 = moves.delta)",
        "COUNT(moves WHERE moves.delta = - 2 AND moves.hours > 1)",
        "COUNT(moves WHERE moves.delta = --2)",
        "COUNT(moves WHERE moves.delta = -9223372036854775807)",
        "COUNT(moves WHERE moves.delta = -(0 + 1))",
        "COUNT(moves WHERE moves.delta = -moves.hours)",
        "COUNT(moves WHERE moves.delta = -'x')",
        "COUNT(moves WHERE moves.delta = -9223372036854775808)",
        "COUNT(moves WHERE moves.hours = -1)",
    ] {
        let got = p.query(src, u64::MAX).map(|(v, _)| v).map_err(|e| e.to_string());
        let want = prever_constraints::query(src, &plain.snapshot(), u64::MAX)
            .map_err(|e| PreverError::from(e).to_string());
        assert_eq!(got, want, "{src}");
    }
}
