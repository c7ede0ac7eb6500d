//! Predicate pushdown: choosing a narrower row source for a scan.
//!
//! A filter whose top-level `AND` has a conjunct `t.col = e`, where `e`
//! does not depend on the row being scanned (a literal, a `$field`, a
//! column of an *enclosing* scan), can only be satisfied by rows whose
//! `col` equals `e`. If the table keeps a secondary index on `col`
//! ([`prever_storage::Table::create_index`]) those rows are all the
//! evaluator has to look at; if the index is ordered by the column of the
//! scan's `WITHIN d OF t.ts` window, only those inside
//! `(anchor − d, anchor]`. The evaluator still runs its window test and
//! the whole filter on every candidate, so the index never decides what
//! matches — only what is not worth looking at.
//!
//! [`index_rows`] answers `None` — scan the table — unless skipping the
//! other rows provably changes nothing, *including which error is
//! raised*. That rules out:
//!
//! * no such conjunct (none at all, or only under `OR`/`NOT`), or no
//!   index on its column;
//! * a historical snapshot (`snapshot_at`): indexes describe the live
//!   table;
//! * a probe that fails to evaluate (unknown `$field`), is NULL, or has
//!   no equal of the variant the column declares ([`probe_as`]): the
//!   index keys on `Value`'s total order, where `Int(5) ≠ Uint(5)`, while
//!   `=` compares numerically, so a numeric probe is looked up as the
//!   column's own variant — `t.hours = 5`, an `Int` literal, probes a
//!   `Uint` column as `Uint(5)`; every numeric literal of a query is an
//!   `Int`, `-1` included, since the parser folds the sign into the
//!   literal — and one no stored value can equal (`-1` or a negative
//!   `$field` against `Uint`, `'x'` against a number) scans;
//! * a filter that could raise an error on a row the index would skip:
//!   only comparisons between operands of comparable declared types,
//!   `IS [NOT] NULL`, and `AND`/`OR`/`NOT` over those are known not to
//!   ([`static_type`]); arithmetic or a nested scan in the filter scans;
//! * a window over a nullable or non-numeric column, where the window
//!   test itself can fail on a skipped row.
//!
//! There is no switch: the choice follows from the expression's shape and
//! the table's indexes. The parts that depend on nothing else — which
//! conjuncts have an indexed column, whether the window can be narrowed —
//! are decided once per plan ([`probes`], run by [`crate::plan`]); the
//! rest — the probe's value and variant, whether the filter's operands
//! are of types that cannot fail, whether the snapshot is live — per
//! evaluation. [`ensure_indexes`] creates the indexes an expression can
//! use; `Pipeline` calls it for every constraint it registers and every
//! query it answers, so the first read of a shape builds its index in one
//! pass over the rows already stored, and every later read and write uses
//! and maintains it. A new index re-plans each registered constraint
//! once, on its next check.
//!
//! The index set is bounded by the schema, not by how many constraints or
//! queries arrive: at most one index per (column, orderable column or
//! none) of a table, and only for pairs some expression asked for. An
//! entry is `(ordering value, primary key) → row`, the row shared with the
//! table, so a read through the index touches its entries only and never
//! goes back to the primary map. Each index costs a write one `BTreeMap`
//! lookup plus one ordered-map insert — the key is cloned, the row's `Arc`
//! too, the group value only when the group is new — and as much again on
//! an update or delete for the old row; in memory, one key and one `Arc`
//! per live row.

use crate::ast::{BinOp, Expr};
use crate::eval::Env;
use crate::plan::{Node, Probe, Source, Window};
use prever_storage::{ColumnType, Database, Row, Schema, Snapshot, Value};
use std::borrow::Cow;
use std::ops::RangeInclusive;

/// The conjuncts of `filter`'s top-level `AND`, left to right.
fn conjuncts(filter: &Expr) -> Vec<&Expr> {
    match filter {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            let mut all = conjuncts(lhs);
            all.extend(conjuncts(rhs));
            all
        }
        conjunct => vec![conjunct],
    }
}

/// `table.col = e` or `e = table.col` with `e` independent of `table`'s
/// row: the column name and `e`.
fn equality_probe<'a>(conjunct: &'a Expr, table: &str) -> Option<(&'a str, &'a Expr)> {
    let Expr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = conjunct
    else {
        return None;
    };
    let own_column = |e: &'a Expr| match e {
        Expr::Column { table: t, column } if t == table => Some(column.as_str()),
        _ => None,
    };
    // Innermost binding wins, so a column of the scanned table's own name
    // is always the row being scanned.
    let row_independent = |e: &Expr| match e {
        Expr::Literal(_) | Expr::Field(_) => true,
        Expr::Column { table: t, .. } => t != table,
        _ => false,
    };
    match (own_column(lhs), own_column(rhs)) {
        (Some(col), None) if row_independent(rhs) => Some((col, rhs)),
        (None, Some(col)) if row_independent(lhs) => Some((col, lhs)),
        _ => None,
    }
}

/// The part of the pushdown decision a [`Plan`](crate::plan::Plan) makes
/// once: the equality conjuncts of the scan of `table` (of `schema`) with
/// `filter` and `window` whose column has an index, left to right, their
/// row-independent side planned by `plan`. Empty when the window test
/// itself could fail on a skipped row — a nullable or non-numeric window
/// column.
pub(crate) fn probes<'e>(
    snapshot: &Snapshot<'_>,
    table: &str,
    schema: &Schema,
    filter: &'e Expr,
    window: Option<&Window>,
    mut plan: impl FnMut(&'e Expr) -> Node,
) -> Vec<Probe> {
    if let Some(w) = window {
        let column = &schema.columns()[w.column];
        if column.nullable || !column.ty.is_numeric() {
            return Vec::new();
        }
    }
    conjuncts(filter)
        .into_iter()
        .filter_map(|conjunct| equality_probe(conjunct, table))
        .filter_map(|(column, value)| {
            let column = schema.column_index(column).ok()?;
            snapshot.has_index(table, column).ok()?.then(|| Probe {
                column,
                ty: schema.columns()[column].ty,
                value: plan(value),
            })
        })
        .collect()
}

/// The value of a row-independent operand, if it resolved.
fn fixed_value<'a>(node: &'a Node, env: &Env<'_, 'a>, bound: &[&'a Row]) -> Option<&'a Value> {
    match node {
        Node::Literal(v) => Some(v),
        Node::Field(Ok(i)) => Some(&env.update.row.values[*i]),
        Node::Column(Ok(slot)) => Some(&bound[slot.depth].values[slot.column]),
        _ => None,
    }
}

/// The value a column of type `ty` must hold to equal `probe` under `=`:
/// `probe` itself if it is of that variant, a numeric probe converted
/// through its numeric view otherwise (`=` compares `Int`, `Uint`,
/// `Timestamp` and `Bool` as numbers; the index does not). `None` when no
/// value of the variant equals it — NULL, another type, or out of the
/// variant's range.
fn probe_as(probe: &Value, ty: ColumnType) -> Option<Cow<'_, Value>> {
    if ty.matches(probe) {
        return Some(Cow::Borrowed(probe));
    }
    let n = probe.as_i128()?;
    Some(Cow::Owned(match ty {
        ColumnType::Int => Value::Int(i64::try_from(n).ok()?),
        ColumnType::Uint => Value::Uint(u64::try_from(n).ok()?),
        ColumnType::Timestamp => Value::Timestamp(u64::try_from(n).ok()?),
        ColumnType::Bool if n == 0 || n == 1 => Value::Bool(n == 1),
        _ => return None,
    }))
}

/// What a filter operand can be at run time, as far as errors go.
#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Null,
    Bool,
    Num,
    Str,
    Bytes,
}

impl Ty {
    fn of_value(v: &Value) -> Ty {
        match v {
            Value::Null => Ty::Null,
            Value::Bool(_) => Ty::Bool,
            Value::Int(_) | Value::Uint(_) | Value::Timestamp(_) => Ty::Num,
            Value::Str(_) => Ty::Str,
            Value::Bytes(_) => Ty::Bytes,
        }
    }

    fn of_column(ty: ColumnType) -> Ty {
        match ty {
            ColumnType::Bool => Ty::Bool,
            ColumnType::Int | ColumnType::Uint | ColumnType::Timestamp => Ty::Num,
            ColumnType::Str => Ty::Str,
            ColumnType::Bytes => Ty::Bytes,
        }
    }

    /// `Value::compare` is defined: NULL against anything (the comparison
    /// is NULL), like with like, and booleans with numbers.
    fn comparable(self, other: Ty) -> bool {
        let class = |t| if t == Ty::Bool { Ty::Num } else { t };
        self == Ty::Null || other == Ty::Null || class(self) == class(other)
    }

    fn is_truth_value(self) -> bool {
        matches!(self, Ty::Bool | Ty::Null)
    }
}

/// The type `node` has on **every** row of the scan at `depth` — a
/// declared column type also covers that column's NULLs — or `None` if
/// evaluating it could raise an error on some row, or it lies outside the
/// fragment this check understands. Not an evaluator: it computes no
/// value. It runs per evaluation, because a `$field` is the update's value
/// and need not be of the type its column declares.
fn static_type<'a>(node: &'a Node, depth: usize, env: &Env<'_, 'a>, bound: &[&'a Row]) -> Option<Ty> {
    let ty = |n| static_type(n, depth, env, bound);
    match node {
        Node::Column(Ok(slot)) if slot.depth == depth => Some(Ty::of_column(slot.ty)),
        Node::Literal(_) | Node::Field(_) | Node::Column(_) => {
            fixed_value(node, env, bound).map(Ty::of_value)
        }
        Node::Binary {
            op: BinOp::And | BinOp::Or,
            lhs,
            rhs,
        } => (ty(lhs)?.is_truth_value() && ty(rhs)?.is_truth_value()).then_some(Ty::Bool),
        Node::Binary {
            op: BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            lhs,
            rhs,
        } => ty(lhs)?.comparable(ty(rhs)?).then_some(Ty::Bool),
        Node::Not(inner) => ty(inner)?.is_truth_value().then_some(Ty::Bool),
        Node::IsNull { expr, .. } => ty(expr).map(|_| Ty::Bool),
        _ => None,
    }
}

/// The candidate rows of the scan of `table` planned as `source` from a
/// secondary index, or `None` when the table must be scanned (module docs
/// list why). `window` is the scan's window as (column, inclusive range of
/// its numeric view); `bound` holds the rows of the enclosing scans.
pub(crate) fn index_rows<'a>(
    table: &str,
    source: &'a Source,
    window: Option<(usize, RangeInclusive<i128>)>,
    env: &Env<'_, 'a>,
    bound: &[&'a Row],
) -> Option<impl Iterator<Item = &'a Row> + 'a> {
    if source.probes.is_empty() {
        return None;
    }
    // The filter may not be able to fail on a row that is skipped.
    if !static_type(source.filter.as_ref()?, source.depth, env, bound)?.is_truth_value() {
        return None;
    }
    source.probes.iter().find_map(|p| {
        let probe = probe_as(fixed_value(&p.value, env, bound)?, p.ty)?;
        let rows = env
            .snapshot
            .index_scan(table, p.column, &probe, window.clone())
            .ok()??;
        Some(rows.map(|(_, row)| row))
    })
}

/// Creates, on the tables of `db` that exist, the indexes `expr` can be
/// evaluated through: for every aggregate, grouped aggregate and `EXISTS`
/// whose filter has an equality conjunct [`index_rows`] could push down,
/// an index on that column, ordered by the scan's window column where
/// there is one. Idempotent, so callers run it whenever a constraint or a
/// table arrives; indexes live in the table and need no other state, and
/// an index that exists already leaves [`Database::generation`] as is.
pub fn ensure_indexes(expr: &Expr, db: &mut Database) {
    expr.visit(&mut |e| {
        let (table, filter, window) = match e {
            Expr::Aggregate {
                table,
                filter: Some(f),
                window,
                ..
            }
            | Expr::GroupedAggregate {
                table,
                filter: Some(f),
                window,
                ..
            } => (table, f, window.as_ref()),
            Expr::Exists {
                table,
                filter: Some(f),
            } => (table, f, None),
            _ => return,
        };
        let Some((column, _)) = conjuncts(filter).into_iter().find_map(|c| equality_probe(c, table))
        else {
            return;
        };
        // A window column that cannot order an index (nullable, not
        // numeric) still leaves the equality; an unknown table or column
        // is the evaluator's error to report.
        let ordered = window.is_some_and(|w| db.create_index(table, column, Some(&w.column)).is_ok());
        if !ordered {
            let _ = db.create_index(table, column, None);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::UpdateContext;
    use crate::parse::parse;
    use crate::plan::Plan;
    use prever_storage::Column;

    fn schema() -> Schema {
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

    fn task(id: u64, worker: &str, grp: u64, ts: u64) -> Row {
        Row::new(vec![
            id.into(),
            worker.into(),
            grp.into(),
            Value::Uint(1),
            Value::Timestamp(ts),
            Value::Null,
        ])
    }

    /// `tasks` indexed by (worker, ts) and by grp, five rows.
    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("tasks", schema()).unwrap();
        let t = db.table_mut("tasks").unwrap();
        t.create_index("worker", Some("ts")).unwrap();
        t.create_index("grp", None).unwrap();
        for i in 0..5 {
            db.insert(
                "tasks",
                task(i, if i < 3 { "w1" } else { "w2" }, i % 2, 100 * i),
            )
            .unwrap();
        }
        db
    }

    /// How many rows the index hands the evaluator for the aggregate
    /// `src`, checked for update (9, "w1", grp 1) at ts 250; `None` when
    /// the table is scanned.
    fn candidates(snapshot: &Snapshot<'_>, src: &str) -> Option<usize> {
        let schema = snapshot.schema("tasks").unwrap();
        let row = task(9, "w1", 1, 250);
        let update = UpdateContext {
            table: "tasks",
            row: &row,
            schema,
            timestamp: 250,
        };
        let env = Env {
            snapshot,
            update: &update,
        };
        let plan = Plan::new(&parse(src).unwrap(), snapshot, schema);
        let Node::Scan(scan) = &plan.root else {
            panic!("{src}: not an aggregate")
        };
        let source = scan.source.as_ref().unwrap();
        let window = source
            .window
            .as_ref()
            .map(|w| (w.column, 250 - w.duration as i128 + 1..=250));
        index_rows(&scan.table, source, window, &env, &[]).map(Iterator::count)
    }

    #[test]
    fn equality_conjuncts_are_pushed_down() {
        let db = db();
        let s = db.snapshot();
        for (src, rows) in [
            ("COUNT(tasks WHERE tasks.worker = $worker)", 3),
            ("COUNT(tasks WHERE $worker = tasks.worker)", 3),
            ("COUNT(tasks WHERE tasks.worker = 'w2')", 2),
            ("COUNT(tasks WHERE tasks.worker = 'nobody')", 0),
            // Other conjuncts that cannot fail ride along, on either side.
            ("COUNT(tasks WHERE tasks.hours > 2 AND tasks.worker = $worker)", 3),
            ("COUNT(tasks WHERE tasks.worker = $worker AND (tasks.hours IS NULL OR NOT (tasks.grp = 1)))", 3),
            // The window narrows the group when the index is ordered by it:
            // (150, 250] holds w1's row at ts 200 only.
            ("COUNT(tasks WHERE tasks.worker = $worker WITHIN 100 OF tasks.ts)", 1),
            // (−750, 250]: the lower bound is negative, ts = 0 is inside.
            ("COUNT(tasks WHERE tasks.worker = $worker WITHIN 1000 OF tasks.ts)", 3),
            // grp's index is not ordered: the whole group, window or not.
            ("COUNT(tasks WHERE tasks.grp = $grp WITHIN 100 OF tasks.ts)", 2),
            ("COUNT(tasks WHERE tasks.grp = $grp)", 2),
            // The first equality has no index, the second does.
            ("COUNT(tasks WHERE tasks.hours = 1 AND tasks.worker = $worker)", 3),
            // A numeric probe of another variant is looked up as the
            // column's: `1` parses as Int, `$ts` is a Timestamp, TRUE = 1
            // under `=`; grp holds Uint.
            ("COUNT(tasks WHERE tasks.grp = 1)", 2),
            ("COUNT(tasks WHERE tasks.grp = TRUE)", 2),
            ("COUNT(tasks WHERE tasks.grp = $ts)", 0),
        ] {
            assert_eq!(candidates(&s, src), Some(rows), "{src}");
        }
    }

    #[test]
    fn everything_else_scans() {
        let db = db();
        let s = db.snapshot();
        for src in [
            "COUNT(tasks)",
            "COUNT(tasks WHERE tasks.hours > 2)",
            // Not a top-level conjunct.
            "COUNT(tasks WHERE tasks.worker = $worker OR tasks.hours > 2)",
            "COUNT(tasks WHERE NOT (tasks.worker = $worker))",
            "COUNT(tasks WHERE (tasks.worker = $worker) = TRUE)",
            // Not an equality, or not against a row-independent operand.
            "COUNT(tasks WHERE tasks.worker != $worker)",
            "COUNT(tasks WHERE tasks.worker = tasks.worker)",
            "COUNT(tasks WHERE tasks.grp = $grp + 0)",
            // No index on the column.
            "COUNT(tasks WHERE tasks.hours = 1)",
            // The probe fails, is NULL, or nothing the column can hold
            // equals it (`-1` is a literal, but `grp` holds `Uint`).
            "COUNT(tasks WHERE tasks.worker = $nope)",
            "COUNT(tasks WHERE tasks.worker = other.worker)",
            "COUNT(tasks WHERE tasks.worker = NULL)",
            "COUNT(tasks WHERE tasks.worker = 5)",
            "COUNT(tasks WHERE tasks.grp = -1)",
            "COUNT(tasks WHERE tasks.grp = 'one')",
            // Another conjunct could raise an error on a skipped row.
            "COUNT(tasks WHERE tasks.worker = $worker AND tasks.hours / tasks.grp > 0)",
            "COUNT(tasks WHERE tasks.worker = $worker AND tasks.hours < 'x')",
            "COUNT(tasks WHERE tasks.worker = $worker AND tasks.nope = 1)",
            "COUNT(tasks WHERE tasks.worker = $worker AND $nope = 1)",
            "COUNT(tasks WHERE tasks.worker = $worker AND tasks.hours)",
            "COUNT(tasks WHERE tasks.worker = $worker AND EXISTS(tasks))",
            // The window test could: `seen` is nullable.
            "COUNT(tasks WHERE tasks.worker = $worker WITHIN 100 OF tasks.seen)",
        ] {
            assert_eq!(candidates(&s, src), None, "{src}");
        }
        // A historical snapshot never reads the live index.
        let old = db.snapshot_at(db.version() - 1).unwrap();
        assert_eq!(
            candidates(&old, "COUNT(tasks WHERE tasks.worker = $worker)"),
            None
        );
    }

    #[test]
    fn a_probe_converts_only_to_a_value_that_equals_it() {
        use ColumnType::*;
        let max = u64::MAX;
        for (probe, ty, want) in [
            (Value::Int(5), Uint, Some(Value::Uint(5))),
            (Value::Int(5), Timestamp, Some(Value::Timestamp(5))),
            (Value::Timestamp(5), Int, Some(Value::Int(5))),
            (Value::Uint(5), Uint, Some(Value::Uint(5))),
            (Value::Bool(true), Uint, Some(Value::Uint(1))),
            (Value::Int(1), Bool, Some(Value::Bool(true))),
            (Value::Int(i64::MAX), Uint, Some(Value::Uint(i64::MAX as u64))),
            // Out of the variant's range: nothing stored equals it.
            (Value::Int(-1), Uint, None),
            (Value::Int(-1), Timestamp, None),
            (Value::Uint(max), Int, None),
            (Value::Int(2), Bool, None),
            // Not comparable as numbers at all.
            (Value::Null, Uint, None),
            (Value::Str("5".into()), Uint, None),
            (Value::Int(5), Str, None),
            (Value::Str("w".into()), Str, Some(Value::Str("w".into()))),
        ] {
            let got = probe_as(&probe, ty).map(Cow::into_owned);
            assert_eq!(got, want, "{probe} as {ty:?}");
            if let Some(v) = got {
                assert!(ty.matches(&v) && v.compare(&probe).is_some_and(|o| o.is_eq()));
            }
        }
    }

    #[test]
    fn ensure_indexes_creates_what_a_constraint_can_use() {
        let mut db = Database::new();
        db.create_table("tasks", schema()).unwrap();
        db.create_table(
            "certs",
            Schema::new(vec![Column::new("worker", ColumnType::Str)], &["worker"]).unwrap(),
        )
        .unwrap();
        let expr = parse(
            "SUM(tasks.hours WHERE tasks.hours > 0 AND tasks.worker = $worker WITHIN 100 OF tasks.ts) < 40 \
             AND COUNT(tasks WHERE tasks.grp = $grp WITHIN 100 OF tasks.seen) < 9 \
             AND COUNT(tasks WHERE EXISTS(certs WHERE certs.worker = tasks.worker)) < 9 \
             AND COUNT(absent WHERE absent.a = 1) = 0 AND COUNT(tasks WHERE tasks.nope = 1) = 0",
        )
        .unwrap();
        ensure_indexes(&expr, &mut db);
        ensure_indexes(&expr, &mut db);
        for i in 0..5 {
            db.insert("tasks", task(i, "w1", 1, 100 * i)).unwrap();
        }
        db.insert("certs", Row::new(vec!["w1".into()])).unwrap();
        let s = db.snapshot();
        // (worker, ts): the window narrows. (grp) alone: `seen` cannot
        // order an index. certs.worker: the correlated probe.
        let w1 = Value::Str("w1".into());
        assert_eq!(
            s.index_scan("tasks", 1, &w1, Some((4, 101..=200)))
                .unwrap()
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            s.index_scan("tasks", 2, &Value::Uint(1), Some((5, 0..=1)))
                .unwrap()
                .unwrap()
                .count(),
            5
        );
        assert_eq!(
            s.index_scan("certs", 0, &w1, None)
                .unwrap()
                .unwrap()
                .count(),
            1
        );
        assert!(s
            .index_scan("tasks", 3, &Value::Uint(1), None)
            .unwrap()
            .is_none());
    }
}
