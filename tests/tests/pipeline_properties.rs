//! Property-based integration tests: the reference pipeline's safety
//! invariants hold for arbitrary update streams.

use prever_constraints::{Constraint, ConstraintScope};
use prever_core::{Pipeline, Update};
use prever_storage::{Column, ColumnType, Row, Schema, Value};
use proptest::prelude::*;

const WEEK: u64 = 604_800;

fn pipeline(bound: u64) -> Pipeline {
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
            "bound",
            ConstraintScope::Regulation,
            &format!(
                "$hours <= {bound} AND (COUNT(tasks WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) = 0 \
                 OR SUM(tasks.hours WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) + $hours <= {bound})"
            ),
        )
        .unwrap(),
    );
    p
}

#[derive(Debug, Clone)]
struct Task {
    worker: u8,
    hours: u64,
    gap: u64,
}

fn arb_tasks() -> impl Strategy<Value = Vec<Task>> {
    proptest::collection::vec(
        (0u8..4, 1u64..20, 0u64..(WEEK / 2)).prop_map(|(worker, hours, gap)| Task {
            worker,
            hours,
            gap,
        }),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The regulated aggregate never exceeds the bound in the accepted
    /// state, for any stream.
    #[test]
    fn accepted_state_always_satisfies_regulation(tasks in arb_tasks()) {
        let bound = 40u64;
        let mut p = pipeline(bound);
        let mut ts = 0u64;
        let mut accepted: Vec<(u8, u64, u64)> = Vec::new(); // (worker, hours, ts)
        for (i, t) in tasks.iter().enumerate() {
            ts += t.gap;
            let row = Row::new(vec![
                Value::Uint(i as u64),
                Value::Str(format!("w{}", t.worker)),
                Value::Uint(t.hours),
                Value::Timestamp(ts),
            ]);
            let u = Update::new(i as u64, "tasks", row, ts, "p");
            if p.submit(&u).unwrap().is_accepted() {
                accepted.push((t.worker, t.hours, ts));
            }
            // Invariant: for every worker, the sliding-window sum of
            // accepted hours anchored at *this* timestamp is ≤ bound.
            for w in 0u8..4 {
                let sum: u64 = accepted
                    .iter()
                    .filter(|(aw, _, ats)| *aw == w && *ats > ts.saturating_sub(WEEK) && *ats <= ts)
                    .map(|(_, h, _)| h)
                    .sum();
                prop_assert!(sum <= bound, "worker {w} at {sum} > {bound}");
            }
        }
    }

    /// Journal length equals the number of accepted updates, and the
    /// journal always passes a full audit.
    #[test]
    fn journal_matches_accept_count(tasks in arb_tasks()) {
        let mut p = pipeline(40);
        let mut ts = 0u64;
        let mut accepted = 0u64;
        for (i, t) in tasks.iter().enumerate() {
            ts += t.gap;
            let row = Row::new(vec![
                Value::Uint(i as u64),
                Value::Str(format!("w{}", t.worker)),
                Value::Uint(t.hours),
                Value::Timestamp(ts),
            ]);
            let u = Update::new(i as u64, "tasks", row, ts, "p");
            if p.submit(&u).unwrap().is_accepted() {
                accepted += 1;
            }
        }
        prop_assert_eq!(p.journal().len() as u64, accepted);
        prop_assert_eq!(p.database().table("tasks").unwrap().len() as u64, accepted);
        p.audit().unwrap();
    }
}
