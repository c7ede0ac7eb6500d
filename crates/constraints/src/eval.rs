//! The evaluator: expressions over (snapshot, update).
//!
//! Semantics follow SQL where SQL has an answer: arithmetic and
//! comparisons propagate NULL, `AND`/`OR` are three-valued, and a
//! constraint whose top-level result is NULL **rejects** the update
//! (unknown is not permission). Aggregates over zero rows follow SQL:
//! `COUNT` is 0, `SUM`/`MIN`/`MAX`/`AVG` are NULL.
//!
//! There is one evaluator, and it runs over [`Plan`]s: the expression
//! with its names resolved ([`crate::plan`]). Every aggregate, grouped
//! aggregate and `EXISTS` runs the same loop ([`for_each_match`]) over a
//! *row source*: the whole table, or the candidates of an index
//! [`crate::pushdown`] found for an equality conjunct. The window test,
//! the filter and NULL handling run unchanged over whichever rows arrive,
//! so on a database without indexes this is the full-scan oracle.

use crate::ast::{AggFunc, BinOp, GroupReduce};
use crate::plan::{Node, Plan, Scan, ScanKind, Source};
use crate::{pushdown, Constraint, ConstraintError, Expr, Result};
use prever_storage::{Row, Schema, Snapshot, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// The incoming update, as seen by constraint evaluation.
///
/// `$field` references resolve against `row` via `schema`; the sliding
/// windows of temporal regulations anchor at `timestamp`.
#[derive(Clone, Copy, Debug)]
pub struct UpdateContext<'a> {
    /// Table the update targets.
    pub table: &'a str,
    /// The proposed new row.
    pub row: &'a Row,
    /// Schema of the targeted table.
    pub schema: &'a Schema,
    /// The update's logical timestamp.
    pub timestamp: u64,
}

impl<'a> UpdateContext<'a> {
    /// Resolves `$name` against the update row.
    pub fn field(&self, name: &str) -> Result<&'a Value> {
        let idx = self
            .schema
            .column_index(name)
            .map_err(|_| ConstraintError::UnknownField(name.to_string()))?;
        Ok(&self.row.values[idx])
    }
}

/// Evaluates a constraint: `Ok(true)` accepts the update.
///
/// NULL at the top level rejects (returns `Ok(false)`). The constraint's
/// plan is made on its first evaluation and reused until the database's
/// layout ([`Snapshot::generation`]) or the update's schema changes.
pub fn evaluate(
    constraint: &Constraint,
    snapshot: &Snapshot<'_>,
    update: &UpdateContext<'_>,
) -> Result<bool> {
    let plan = constraint.plan.get(&constraint.expr, snapshot, update.schema);
    match evaluate_plan(&plan, snapshot, update)? {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(ConstraintError::TypeMismatch {
            op: "constraint",
            detail: format!("constraint must be boolean, got {}", other.type_name()),
        }),
    }
}

/// Evaluates an expression with no row bound (aggregates read the
/// snapshot; bare `table.column` references are an error here). The
/// expression is planned for this evaluation alone.
pub fn evaluate_expr(
    expr: &Expr,
    snapshot: &Snapshot<'_>,
    update: &UpdateContext<'_>,
) -> Result<Value> {
    evaluate_plan(&Plan::new(expr, snapshot, update.schema), snapshot, update)
}

fn evaluate_plan(plan: &Plan, snapshot: &Snapshot<'_>, update: &UpdateContext<'_>) -> Result<Value> {
    let env = Env { snapshot, update };
    eval(&plan.root, &env, &mut Vec::new()).map(Cow::into_owned)
}

/// What every node of one evaluation reads: the snapshot and the update.
pub(crate) struct Env<'e, 'a> {
    pub(crate) snapshot: &'e Snapshot<'a>,
    pub(crate) update: &'e UpdateContext<'a>,
}

/// Values are borrowed from the plan, the update or a bound row wherever
/// they already exist, so comparing a column with a `$field` clones
/// neither string. `bound` is the row stack: the row each enclosing scan
/// is testing, outermost first, where a planned `table.column` finds its
/// row by depth — pushed and popped per row, never copied — which is what
/// makes correlated `EXISTS` (semi-joins) work.
fn eval<'a>(node: &'a Node, env: &Env<'_, 'a>, bound: &mut Vec<&'a Row>) -> Result<Cow<'a, Value>> {
    let owned = match node {
        Node::Literal(v) => return Ok(Cow::Borrowed(v)),
        Node::Field(field) => {
            let i = field.as_ref().map_err(Clone::clone)?;
            return Ok(Cow::Borrowed(&env.update.row.values[*i]));
        }
        Node::Column(column) => {
            let slot = column.as_ref().map_err(Clone::clone)?;
            return Ok(Cow::Borrowed(&bound[slot.depth].values[slot.column]));
        }
        Node::Binary { op, lhs, rhs } => {
            // Both sides are always evaluated: three-valued AND/OR need
            // the other operand even when one is NULL.
            let l = eval(lhs, env, bound)?;
            let r = eval(rhs, env, bound)?;
            match op {
                BinOp::And | BinOp::Or => eval_logic(*op, &l, &r)?,
                _ => eval_binary(*op, &l, &r)?,
            }
        }
        Node::Not(e) => match &*eval(e, env, bound)? {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null => Value::Null,
            other => {
                return Err(ConstraintError::TypeMismatch {
                    op: "NOT",
                    detail: format!("expected boolean, got {}", other.type_name()),
                })
            }
        },
        Node::Neg(e) => match &*eval(e, env, bound)? {
            Value::Null => Value::Null,
            v => {
                let n = v.as_i128().ok_or_else(|| ConstraintError::TypeMismatch {
                    op: "negation",
                    detail: format!("expected numeric, got {}", v.type_name()),
                })?;
                int_value(-n)?
            }
        },
        Node::IsNull { expr, negated } => {
            Value::Bool(eval(expr, env, bound)?.is_null() != *negated)
        }
        Node::Scan(scan) => {
            let source = scan.source.as_ref().map_err(Clone::clone)?;
            match scan.kind {
                ScanKind::Aggregate(func) => return eval_aggregate(func, scan, source, env, bound),
                ScanKind::Grouped(func, reduce) => {
                    eval_grouped(func, reduce, scan, source, env, bound)?
                }
                ScanKind::Exists => {
                    let mut found = false;
                    for_each_match(scan, source, env, bound, |_| {
                        found = true;
                        Ok(ControlFlow::Break(()))
                    })?;
                    Value::Bool(found)
                }
            }
        }
    };
    Ok(Cow::Owned(owned))
}

/// The one scan loop. Calls `each` with every row of `scan.table` that
/// lies inside the sliding window `(update_ts − duration, update_ts]` and
/// passes the filter, until `each` breaks.
///
/// The rows come from an index when [`pushdown::index_rows`] finds one
/// that provably yields every matching row, from the whole table
/// otherwise; the tests below run on whichever rows arrive.
fn for_each_match<'a>(
    scan: &'a Scan,
    source: &'a Source,
    env: &Env<'_, 'a>,
    bound: &mut Vec<&'a Row>,
    mut each: impl FnMut(&'a Row) -> Result<ControlFlow<()>>,
) -> Result<()> {
    // (window, the instant just before it opens).
    let anchor = env.update.timestamp as i128;
    let window = source.window.as_ref().map(|w| (w, anchor - w.duration as i128));

    let window_range = window.map(|(w, after)| (w.column, after + 1..=anchor));
    let mut indexed = pushdown::index_rows(&scan.table, source, window_range, env, bound);
    let mut scanned;
    let rows: &mut dyn Iterator<Item = &'a Row> = match &mut indexed {
        Some(rows) => {
            prever_obs::counter!("constraints.eval.indexed").inc();
            rows
        }
        None => {
            prever_obs::counter!("constraints.eval.scanned").inc();
            scanned = env.snapshot.scan(&scan.table)?.map(|(_, row)| row);
            &mut scanned
        }
    };

    let mut visited = 0u64;
    let outcome = (|| {
        for row in rows {
            visited += 1;
            if let Some((w, after)) = window {
                let ts = row.values[w.column].as_i128().ok_or_else(|| ConstraintError::TypeMismatch {
                    op: "window",
                    detail: format!("window column {} is not numeric", w.name),
                })?;
                if ts <= after || ts > anchor {
                    continue;
                }
            }
            if let Some(f) = &source.filter {
                bound.push(row);
                let verdict = eval(f, env, bound);
                bound.pop();
                match &*verdict? {
                    Value::Bool(true) => {}
                    Value::Bool(false) | Value::Null => continue,
                    other => {
                        return Err(ConstraintError::TypeMismatch {
                            op: "WHERE",
                            detail: format!("filter must be boolean, got {}", other.type_name()),
                        })
                    }
                }
            }
            if each(row)?.is_break() {
                break;
            }
        }
        Ok(())
    })();
    prever_obs::histogram!("constraints.eval.rows").record(visited);
    outcome
}

fn eval_grouped<'a>(
    func: AggFunc,
    reduce: GroupReduce,
    scan: &'a Scan,
    source: &'a Source,
    env: &Env<'_, 'a>,
    bound: &mut Vec<&'a Row>,
) -> Result<Value> {
    let group_idx = source.group_by.expect("a grouped aggregate plans its grouping column");
    let mut groups: BTreeMap<&Value, i128> = BTreeMap::new();
    for_each_match(scan, source, env, bound, |row| {
        let contribution = match func {
            AggFunc::Count => 1,
            AggFunc::Sum => {
                let v = &row.values[source.column.expect("parser enforces a column for SUM")];
                if v.is_null() {
                    return Ok(ControlFlow::Continue(()));
                }
                v.as_i128().ok_or_else(|| ConstraintError::TypeMismatch {
                    op: "MAXSUM/MINSUM",
                    detail: format!("cannot sum {} values", v.type_name()),
                })?
            }
            other => {
                return Err(ConstraintError::TypeMismatch {
                    op: "grouped aggregate",
                    detail: format!("{} cannot be grouped", other.name()),
                })
            }
        };
        let entry = groups.entry(&row.values[group_idx]).or_insert(0);
        *entry = entry.checked_add(contribution).ok_or(ConstraintError::Overflow)?;
        Ok(ControlFlow::Continue(()))
    })?;
    let reduced = match reduce {
        GroupReduce::Max => groups.values().max(),
        GroupReduce::Min => groups.values().min(),
    };
    match reduced {
        None => Ok(Value::Null),
        Some(v) => int_value(*v),
    }
}

fn eval_aggregate<'a>(
    func: AggFunc,
    scan: &'a Scan,
    source: &'a Source,
    env: &Env<'_, 'a>,
    bound: &mut Vec<&'a Row>,
) -> Result<Cow<'a, Value>> {
    let mut count: i128 = 0;
    let mut sum: i128 = 0;
    let mut min: Option<&'a Value> = None;
    let mut max: Option<&'a Value> = None;

    for_each_match(scan, source, env, bound, |row| {
        let Some(idx) = source.column else {
            count += 1;
            return Ok(ControlFlow::Continue(()));
        };
        let v = &row.values[idx];
        if v.is_null() {
            // SQL semantics: NULLs are ignored by aggregates.
            return Ok(ControlFlow::Continue(()));
        }
        count += 1;
        match func {
            AggFunc::Sum | AggFunc::Avg => {
                let n = v.as_i128().ok_or_else(|| ConstraintError::TypeMismatch {
                    op: "SUM",
                    detail: format!("cannot sum {} values", v.type_name()),
                })?;
                sum = sum.checked_add(n).ok_or(ConstraintError::Overflow)?;
            }
            AggFunc::Min => {
                if min.is_none_or(|m| v < m) {
                    min = Some(v);
                }
            }
            AggFunc::Max => {
                if max.is_none_or(|m| v > m) {
                    max = Some(v);
                }
            }
            AggFunc::Count => {}
        }
        Ok(ControlFlow::Continue(()))
    })?;

    let borrowed = |v: Option<&'a Value>| v.map_or(Cow::Owned(Value::Null), Cow::Borrowed);
    Ok(match func {
        AggFunc::Count => Cow::Owned(int_value(count)?),
        AggFunc::Sum | AggFunc::Avg if count == 0 => Cow::Owned(Value::Null),
        AggFunc::Sum => Cow::Owned(int_value(sum)?),
        AggFunc::Avg => Cow::Owned(int_value(sum / count)?),
        AggFunc::Min => borrowed(min),
        AggFunc::Max => borrowed(max),
    })
}

fn eval_logic(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    let lb = logic_operand(l)?;
    let rb = logic_operand(r)?;
    // Kleene three-valued logic.
    let out = match op {
        BinOp::And => match (lb, rb) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("eval_logic called with non-logic op"),
    };
    Ok(out.map(Value::Bool).unwrap_or(Value::Null))
}

fn logic_operand(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(ConstraintError::TypeMismatch {
            op: "AND/OR",
            detail: format!("expected boolean, got {}", other.type_name()),
        }),
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let (a, b) = numeric_pair(op, l, r)?;
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(ConstraintError::DivisionByZero);
                    }
                    a.checked_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(ConstraintError::DivisionByZero);
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            }
            .ok_or(ConstraintError::Overflow)?;
            int_value(out)
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = l.compare(r).ok_or_else(|| ConstraintError::TypeMismatch {
                op: "comparison",
                detail: format!("cannot compare {} with {}", l.type_name(), r.type_name()),
            })?;
            let out = match op {
                BinOp::Eq => ord.is_eq(),
                BinOp::Ne => ord.is_ne(),
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(out))
        }
        BinOp::And | BinOp::Or => unreachable!("handled by eval_logic"),
    }
}

fn numeric_pair(op: BinOp, l: &Value, r: &Value) -> Result<(i128, i128)> {
    match (l.as_i128(), r.as_i128()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(ConstraintError::TypeMismatch {
            op: op.symbol(),
            detail: format!("expected numeric operands, got {} and {}", l.type_name(), r.type_name()),
        }),
    }
}

fn int_value(v: i128) -> Result<Value> {
    i64::try_from(v)
        .map(Value::Int)
        .map_err(|_| ConstraintError::Overflow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint, ConstraintScope};
    use prever_storage::{Column, ColumnType, Database, Row, Schema, StorageError};

    /// A crowdworking task-completion database (paper §2.3 / §5).
    fn tasks_db() -> Database {
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
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn task(id: u64, worker: &str, hours: u64, ts: u64) -> Row {
        Row::new(vec![id.into(), worker.into(), hours.into(), Value::Timestamp(ts)])
    }

    /// The COUNT-guarded FLSA form: SUM over zero rows is NULL (SQL), so
    /// production regulations guard the empty-window case explicitly.
    fn flsa() -> Constraint {
        Constraint::parse(
            "FLSA-40h",
            ConstraintScope::Regulation,
            "$hours <= 40 AND (COUNT(tasks WHERE tasks.worker = $worker WITHIN 604800 OF tasks.ts) = 0 \
             OR SUM(tasks.hours WHERE tasks.worker = $worker WITHIN 604800 OF tasks.ts) + $hours <= 40)",
        )
        .unwrap()
    }

    /// The naive (unguarded) form, used to document NULL semantics.
    fn flsa_unguarded() -> Constraint {
        Constraint::parse(
            "FLSA-40h-naive",
            ConstraintScope::Regulation,
            "SUM(tasks.hours WHERE tasks.worker = $worker WITHIN 604800 OF tasks.ts) + $hours <= 40",
        )
        .unwrap()
    }

    fn check(db: &Database, c: &Constraint, row: &Row, ts: u64) -> bool {
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let update = UpdateContext { table: "tasks", row, schema, timestamp: ts };
        evaluate(c, &snapshot, &update).unwrap()
    }

    #[test]
    fn flsa_accepts_under_limit() {
        let mut db = tasks_db();
        db.insert("tasks", task(1, "w1", 20, 100)).unwrap();
        db.insert("tasks", task(2, "w1", 10, 200)).unwrap();
        // 30 existing + 10 new = 40 <= 40: accept.
        assert!(check(&db, &flsa(), &task(3, "w1", 10, 300), 300));
    }

    #[test]
    fn flsa_rejects_over_limit() {
        let mut db = tasks_db();
        db.insert("tasks", task(1, "w1", 20, 100)).unwrap();
        db.insert("tasks", task(2, "w1", 15, 200)).unwrap();
        // 35 existing + 6 new = 41 > 40: reject.
        assert!(!check(&db, &flsa(), &task(3, "w1", 6, 300), 300));
    }

    #[test]
    fn flsa_counts_only_this_worker() {
        let mut db = tasks_db();
        db.insert("tasks", task(1, "other", 40, 100)).unwrap();
        assert!(check(&db, &flsa(), &task(2, "w1", 40, 200), 200));
    }

    #[test]
    fn flsa_window_excludes_old_hours() {
        let mut db = tasks_db();
        let week = 604_800u64;
        // Worked 40h last week (outside the window of the new update).
        db.insert("tasks", task(1, "w1", 40, 100)).unwrap();
        let now = 100 + week + 1;
        assert!(check(&db, &flsa(), &task(2, "w1", 40, now), now));
        // The window is (anchor − duration, anchor]: at anchor = 100 + week
        // the old entry sits exactly on the open lower bound and drops out.
        assert!(check(&db, &flsa(), &task(3, "w1", 40, 100 + week), 100 + week));
        // One tick earlier it is still inside and the update is rejected.
        assert!(!check(&db, &flsa(), &task(4, "w1", 1, 99 + week), 99 + week));
    }

    #[test]
    fn empty_table_sum_is_null_and_rejected_safely() {
        let db = tasks_db();
        // SUM over empty set is NULL; NULL + hours is NULL; NULL <= 40 is
        // NULL; top-level NULL rejects. Unknown is not permission.
        assert!(!check(&db, &flsa_unguarded(), &task(1, "w1", 1, 100), 100));
        // The robust form guards with COUNT and accepts.
        assert!(check(&db, &flsa(), &task(1, "w1", 1, 100), 100));
    }

    #[test]
    fn count_aggregate() {
        let mut db = tasks_db();
        for i in 0..5 {
            db.insert("tasks", task(i, "w1", 1, 100 + i)).unwrap();
        }
        let c = Constraint::parse(
            "cap",
            ConstraintScope::Internal,
            "COUNT(tasks WHERE tasks.worker = $worker) < 5",
        )
        .unwrap();
        assert!(!check(&db, &c, &task(9, "w1", 1, 999), 999));
        assert!(check(&db, &c, &task(9, "w2", 1, 999), 999));
    }

    #[test]
    fn min_max_avg() {
        let mut db = tasks_db();
        for (i, h) in [2u64, 4, 6].iter().enumerate() {
            db.insert("tasks", task(i as u64, "w1", *h, 100)).unwrap();
        }
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(9, "w1", 1, 200);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 200 };
        let cases = [
            ("MIN(tasks.hours)", Value::Uint(2)),
            ("MAX(tasks.hours)", Value::Uint(6)),
            ("AVG(tasks.hours)", Value::Int(4)),
            ("SUM(tasks.hours)", Value::Int(12)),
            ("COUNT(tasks)", Value::Int(3)),
        ];
        for (src, expected) in cases {
            let e = crate::parse::parse(src).unwrap();
            assert_eq!(evaluate_expr(&e, &snapshot, &update).unwrap(), expected, "{src}");
        }
    }

    #[test]
    fn three_valued_logic() {
        let db = tasks_db();
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(1, "w", 1, 1);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 1 };
        let cases = [
            ("NULL AND TRUE", Value::Null),
            ("NULL AND FALSE", Value::Bool(false)),
            ("NULL OR TRUE", Value::Bool(true)),
            ("NULL OR FALSE", Value::Null),
            ("NOT NULL", Value::Null),
            ("NULL = 1", Value::Null),
            ("NULL IS NULL", Value::Bool(true)),
            ("1 IS NOT NULL", Value::Bool(true)),
        ];
        for (src, expected) in cases {
            let e = crate::parse::parse(src).unwrap();
            assert_eq!(evaluate_expr(&e, &snapshot, &update).unwrap(), expected, "{src}");
        }
    }

    #[test]
    fn arithmetic_errors() {
        let db = tasks_db();
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(1, "w", 1, 1);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 1 };
        let div = crate::parse::parse("1 / 0").unwrap();
        assert_eq!(
            evaluate_expr(&div, &snapshot, &update).unwrap_err(),
            ConstraintError::DivisionByZero
        );
        let ty = crate::parse::parse("'a' + 1").unwrap();
        assert!(matches!(
            evaluate_expr(&ty, &snapshot, &update),
            Err(ConstraintError::TypeMismatch { .. })
        ));
        let cmp = crate::parse::parse("'a' < 1").unwrap();
        assert!(matches!(
            evaluate_expr(&cmp, &snapshot, &update),
            Err(ConstraintError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_field_is_an_error() {
        let db = tasks_db();
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(1, "w", 1, 1);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 1 };
        let e = crate::parse::parse("$nope = 1").unwrap();
        assert_eq!(
            evaluate_expr(&e, &snapshot, &update).unwrap_err(),
            ConstraintError::UnknownField("nope".into())
        );
    }

    #[test]
    fn column_outside_aggregate_is_an_error() {
        let db = tasks_db();
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(1, "w", 1, 1);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 1 };
        let e = crate::parse::parse("tasks.hours = 1").unwrap();
        assert!(matches!(
            evaluate_expr(&e, &snapshot, &update),
            Err(ConstraintError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn non_boolean_constraint_is_an_error() {
        let mut db = tasks_db();
        db.insert("tasks", task(1, "w1", 3, 1)).unwrap();
        let c = Constraint::parse("bad", ConstraintScope::Internal, "1 + 1").unwrap();
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(9, "w1", 1, 2);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 2 };
        assert!(matches!(
            evaluate(&c, &snapshot, &update),
            Err(ConstraintError::TypeMismatch { .. })
        ));
    }

    /// Adds a `certs` table (worker certification) for join-style tests.
    fn add_certs(db: &mut Database, certified: &[&str]) {
        db.create_table(
            "certs",
            Schema::new(
                vec![
                    Column::new("worker", ColumnType::Str),
                    Column::new("level", ColumnType::Uint),
                ],
                &["worker"],
            )
            .unwrap(),
        )
        .unwrap();
        for (i, w) in certified.iter().enumerate() {
            db.insert("certs", Row::new(vec![(*w).into(), (i as u64).into()]))
                .unwrap();
        }
    }

    #[test]
    fn exists_semi_join_against_second_table() {
        // Paper §5 future work: constraints with JOIN expressions. A
        // task is only admissible if the worker holds a certification —
        // an EXISTS semi-join between the update and the certs table.
        let mut db = tasks_db();
        add_certs(&mut db, &["w1", "w2"]);
        let c = Constraint::parse(
            "certified-only",
            ConstraintScope::Internal,
            "EXISTS(certs WHERE certs.worker = $worker)",
        )
        .unwrap();
        assert!(check(&db, &c, &task(1, "w1", 5, 100), 100));
        assert!(!check(&db, &c, &task(2, "w9", 5, 100), 100));
    }

    #[test]
    fn correlated_exists_joins_scanned_row() {
        // Correlated form: count only tasks whose worker is certified.
        // The inner EXISTS references the *outer* scan's row.
        let mut db = tasks_db();
        add_certs(&mut db, &["w1"]);
        db.insert("tasks", task(1, "w1", 5, 100)).unwrap();
        db.insert("tasks", task(2, "w2", 5, 100)).unwrap();
        db.insert("tasks", task(3, "w1", 5, 100)).unwrap();
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(9, "w1", 1, 200);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 200 };
        let e = crate::parse::parse(
            "COUNT(tasks WHERE EXISTS(certs WHERE certs.worker = tasks.worker))",
        )
        .unwrap();
        assert_eq!(evaluate_expr(&e, &snapshot, &update).unwrap(), Value::Int(2));
    }

    #[test]
    fn exists_without_filter_is_nonempty_check() {
        let mut db = tasks_db();
        let e = crate::parse::parse("EXISTS(tasks)").unwrap();
        {
            let snapshot = db.snapshot();
            let schema = db.table("tasks").unwrap().schema();
            let row = task(1, "w", 1, 1);
            let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 1 };
            assert_eq!(evaluate_expr(&e, &snapshot, &update).unwrap(), Value::Bool(false));
        }
        db.insert("tasks", task(1, "w", 1, 1)).unwrap();
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(2, "w", 1, 1);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 1 };
        assert_eq!(evaluate_expr(&e, &snapshot, &update).unwrap(), Value::Bool(true));
    }

    #[test]
    fn grouped_aggregate_states_per_group_invariant() {
        // MAXSUM: "no worker's total exceeds the bound" as a single
        // state invariant (paper §5: GROUP BY regulations).
        let mut db = tasks_db();
        db.insert("tasks", task(1, "w1", 30, 100)).unwrap();
        db.insert("tasks", task(2, "w1", 8, 200)).unwrap();
        db.insert("tasks", task(3, "w2", 12, 300)).unwrap();
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(9, "w1", 1, 400);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 400 };
        let cases = [
            ("MAXSUM(tasks.hours BY tasks.worker)", Value::Int(38)),
            ("MINSUM(tasks.hours BY tasks.worker)", Value::Int(12)),
            ("MAXCOUNT(tasks BY tasks.worker)", Value::Int(2)),
            ("MINCOUNT(tasks BY tasks.worker)", Value::Int(1)),
            (
                "MAXSUM(tasks.hours BY tasks.worker WITHIN 150 OF tasks.ts)",
                Value::Int(12), // anchor 400: only ts=300 qualifies
            ),
            (
                "MAXSUM(tasks.hours BY tasks.worker WHERE tasks.worker = 'w2')",
                Value::Int(12),
            ),
        ];
        for (src, expected) in cases {
            let e = crate::parse::parse(src).unwrap();
            assert_eq!(evaluate_expr(&e, &snapshot, &update).unwrap(), expected, "{src}");
        }
        // As a constraint: the invariant gates further w1 work.
        let c = Constraint::parse(
            "flsa-invariant",
            ConstraintScope::Regulation,
            "MAXSUM(tasks.hours BY tasks.worker) + $hours <= 40",
        )
        .unwrap();
        assert!(check(&db, &c, &task(9, "w1", 2, 400), 400));
        assert!(!check(&db, &c, &task(9, "w1", 3, 400), 400));
    }

    #[test]
    fn grouped_aggregate_over_empty_table_is_null() {
        let db = tasks_db();
        let snapshot = db.snapshot();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(1, "w", 1, 1);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 1 };
        let e = crate::parse::parse("MAXSUM(tasks.hours BY tasks.worker)").unwrap();
        assert_eq!(evaluate_expr(&e, &snapshot, &update).unwrap(), Value::Null);
    }

    #[test]
    fn constraint_over_snapshot_not_live_state() {
        // Evaluation against an older snapshot ignores newer rows.
        let mut db = tasks_db();
        db.insert("tasks", task(1, "w1", 30, 100)).unwrap();
        let v1 = db.version();
        db.insert("tasks", task(2, "w1", 30, 200)).unwrap();
        let old_snapshot = db.snapshot_at(v1).unwrap();
        let schema = db.table("tasks").unwrap().schema();
        let row = task(3, "w1", 10, 300);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 300 };
        // Against v1 (30h existing): accept. Against live (60h): reject.
        assert!(evaluate(&flsa(), &old_snapshot, &update).unwrap());
        assert!(!evaluate(&flsa(), &db.snapshot(), &update).unwrap());
    }

    #[test]
    fn a_constraint_is_planned_once_per_layout_and_update_schema() {
        use prever_obs::work::{measure, Unit::PlanBuilt};
        let plans = |f: &dyn Fn()| measure(f).1[PlanBuilt];
        let mut db = tasks_db();
        db.insert("tasks", task(1, "w1", 20, 100)).unwrap();
        let c = flsa();
        let n = plans(&|| {
            for ts in [200, 300, 400] {
                assert!(check(&db, &c, &task(9, "w1", 1, ts), ts));
            }
        });
        assert_eq!(n, 1, "one layout, one plan");
        db.insert("tasks", task(2, "w1", 15, 150)).unwrap();
        assert_eq!(plans(&|| assert!(!check(&db, &c, &task(9, "w1", 6, 200), 200))), 0, "rows are not layout");
        db.create_index("tasks", "worker", Some("ts")).unwrap();
        assert_eq!(plans(&|| assert!(!check(&db, &c, &task(9, "w1", 6, 200), 200))), 1, "a new index re-plans");
        assert_eq!(plans(&|| assert!(check(&db, &c, &task(9, "w1", 5, 200), 200))), 0);
        // A historical snapshot has the live layout: the plan holds, and the
        // index is not read (`constraint_over_snapshot_not_live_state`).
        let schema = db.table("tasks").unwrap().schema();
        let row = task(9, "w1", 6, 200);
        let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 200 };
        let old = db.snapshot_at(1).unwrap();
        assert_eq!(plans(&|| assert!(evaluate(&c, &old, &update).unwrap())), 0);
        // Another update schema resolves `$fields` elsewhere.
        let other = Schema::new(
            vec![Column::new("worker", ColumnType::Str), Column::new("hours", ColumnType::Uint)],
            &["worker"],
        )
        .unwrap();
        let row = Row::new(vec!["w1".into(), 6u64.into()]);
        let update = UpdateContext { table: "shifts", row: &row, schema: &other, timestamp: 200 };
        assert_eq!(plans(&|| assert!(!evaluate(&c, &db.snapshot(), &update).unwrap())), 1);
        // A clone starts without a plan.
        let d = c.clone();
        assert_eq!(d, c, "the plan is no part of the value");
        assert_eq!(plans(&|| assert!(check(&db, &d, &task(9, "w1", 5, 200), 200))), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "changed after it was planned")]
    fn an_expression_changed_after_planning_is_caught() {
        let db = tasks_db();
        let mut c = flsa();
        check(&db, &c, &task(1, "w1", 1, 100), 100);
        c.expr = flsa_unguarded().expr;
        check(&db, &c, &task(1, "w1", 1, 100), 100);
    }

    /// Names resolve once per plan, yet fail as they did when each was
    /// looked up on use: the same error, the first in evaluation order,
    /// and only once a row or scan reaches the name.
    #[test]
    fn planned_names_fail_where_and_when_they_are_used() {
        let column_reference = |name: &str| ConstraintError::TypeMismatch {
            op: "column reference",
            detail: format!("{name} does not match any enclosing scan"),
        };
        let no_column = |c: &str| ConstraintError::Storage(StorageError::NoSuchColumn(c.into()));
        let no_table = |t: &str| ConstraintError::Storage(StorageError::NoSuchTable(t.into()));
        let cases = [
            // (expression, on an empty table, with a row)
            ("COUNT(tasks WHERE tasks.nope = 1)", Ok(Value::Int(0)), Err(no_column("nope"))),
            ("COUNT(tasks WHERE $nope = 1)", Ok(Value::Int(0)), Err(ConstraintError::UnknownField("nope".into()))),
            (
                "COUNT(tasks WHERE certs.worker = tasks.worker)",
                Ok(Value::Int(0)),
                Err(column_reference("certs.worker")),
            ),
            ("COUNT(nope)", Err(no_table("nope")), Err(no_table("nope"))),
            ("SUM(tasks.nope WITHIN 5 OF tasks.nah)", Err(no_column("nope")), Err(no_column("nope"))),
            (
                "MAXSUM(tasks.hours BY tasks.nah WITHIN 5 OF tasks.zz)",
                Err(no_column("nah")),
                Err(no_column("nah")),
            ),
            ("COUNT(tasks WITHIN 5 OF tasks.nah)", Err(no_column("nah")), Err(no_column("nah"))),
            ("tasks.hours = 1", Err(column_reference("tasks.hours")), Err(column_reference("tasks.hours"))),
        ];
        let mut db = tasks_db();
        let row = task(9, "w1", 1, 1);
        for filled in [false, true] {
            if filled {
                db.insert("tasks", task(1, "w1", 3, 1)).unwrap();
            }
            let snapshot = db.snapshot();
            let schema = db.table("tasks").unwrap().schema();
            let update = UpdateContext { table: "tasks", row: &row, schema, timestamp: 1 };
            for (src, empty, full) in &cases {
                let e = crate::parse::parse(src).unwrap();
                let want = if filled { full } else { empty };
                assert_eq!(&evaluate_expr(&e, &snapshot, &update), want, "{src}, filled: {filled}");
            }
        }
    }
}
