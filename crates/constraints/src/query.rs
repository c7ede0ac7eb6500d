//! Read-only queries: the same expression language, evaluated without
//! an incoming update.
//!
//! §3.1 notes data managers are "responsible for … responding to
//! queries" even though the paper's focus is updates. This module
//! evaluates any update-free expression (aggregates, grouped
//! aggregates, EXISTS) against a snapshot — the query path that
//! `Pipeline::query` exposes with ledger-anchored freshness.

use crate::ast::Expr;
use crate::eval::{evaluate_expr, UpdateContext};
use crate::{ConstraintError, Result};
use prever_storage::{Column, ColumnType, Row, Schema, Snapshot, Value};
use std::sync::OnceLock;

/// Evaluates a read-only expression at `anchor_ts` (the timestamp
/// sliding windows anchor to — "as of now").
///
/// Expressions referencing update fields (`$name`) are rejected: there
/// is no update in a query.
pub fn evaluate_query(expr: &Expr, snapshot: &Snapshot<'_>, anchor_ts: u64) -> Result<Value> {
    if let Some(field) = expr.referenced_fields().first() {
        return Err(ConstraintError::UnknownField(format!(
            "{field} (queries cannot reference update fields)"
        )));
    }
    // A dummy one-column update, built once: $fields are already ruled
    // out, so its schema and row are never consulted.
    static NO_UPDATE: OnceLock<(Schema, Row)> = OnceLock::new();
    let (schema, row) = NO_UPDATE.get_or_init(|| {
        let schema = Schema::new(vec![Column::new("_q", ColumnType::Uint)], &["_q"]);
        (schema.expect("static schema"), Row::new(vec![Value::Uint(0)]))
    });
    let ctx = UpdateContext { table: "_query", row, schema, timestamp: anchor_ts };
    evaluate_expr(expr, snapshot, &ctx)
}

/// Parses and evaluates query text in one step.
pub fn query(src: &str, snapshot: &Snapshot<'_>, anchor_ts: u64) -> Result<Value> {
    evaluate_query(&crate::parse::parse(src)?, snapshot, anchor_ts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prever_storage::Database;

    fn db() -> Database {
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
        for (id, worker, hours, ts) in
            [(1u64, "a", 10u64, 100u64), (2, "a", 20, 200), (3, "b", 5, 300)]
        {
            db.insert(
                "tasks",
                Row::new(vec![id.into(), worker.into(), hours.into(), Value::Timestamp(ts)]),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn aggregates_and_grouped_queries() {
        let db = db();
        let snapshot = db.snapshot();
        assert_eq!(query("SUM(tasks.hours)", &snapshot, 1000).unwrap(), Value::Int(35));
        assert_eq!(query("COUNT(tasks)", &snapshot, 1000).unwrap(), Value::Int(3));
        assert_eq!(
            query("MAXSUM(tasks.hours BY tasks.worker)", &snapshot, 1000).unwrap(),
            Value::Int(30)
        );
        assert_eq!(
            query("EXISTS(tasks WHERE tasks.hours > 15)", &snapshot, 1000).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn windows_anchor_at_the_query_timestamp() {
        let db = db();
        let snapshot = db.snapshot();
        // Window of 150 at anchor 300: rows with ts in (150, 300].
        assert_eq!(
            query("SUM(tasks.hours WITHIN 150 OF tasks.ts)", &snapshot, 300).unwrap(),
            Value::Int(25)
        );
        assert_eq!(
            query("SUM(tasks.hours WITHIN 150 OF tasks.ts)", &snapshot, 1000).unwrap(),
            Value::Null,
            "everything aged out"
        );
    }

    #[test]
    fn update_fields_rejected() {
        let db = db();
        let snapshot = db.snapshot();
        assert!(matches!(
            query("SUM(tasks.hours WHERE tasks.worker = $worker)", &snapshot, 100),
            Err(ConstraintError::UnknownField(_))
        ));
    }
}
