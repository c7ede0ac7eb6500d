//! E10 — §6 "TPC": TPC-C-lite new-order throughput, unregulated vs
//! regulated.
//!
//! The regulation: a per-customer sliding-window quantity cap (a credit
//! limit):
//! * `unregulated` — plain inserts (the non-private baseline);
//! * `regulated`   — `Pipeline` with the cap registered. Registering it
//!   indexes `orders` by `(customer, ts)`, so each check reads the
//!   customer's orders inside the window, not the table.

use crate::experiments::{ops_per_sec, time_once};
use crate::Table;
use prever_constraints::{Constraint, ConstraintScope};
use prever_core::{Pipeline, Update};
use prever_storage::{Column, ColumnType, Row, Schema, Value};
use prever_workloads::tpcc::{TpccConfig, TpccWorkload};
use rand::{rngs::StdRng, SeedableRng};

const WINDOW: u64 = 100_000;
const CREDIT_CAP: u64 = 120;

fn orders_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ColumnType::Uint),
            Column::new("customer", ColumnType::Uint),
            Column::new("quantity", ColumnType::Uint),
            Column::new("ts", ColumnType::Timestamp),
        ],
        &["id"],
    )
    .expect("static schema")
}

fn order_row(id: u64, customer: u64, quantity: u64, ts: u64) -> Row {
    Row::new(vec![
        Value::Uint(id),
        Value::Uint(customer),
        Value::Uint(quantity),
        Value::Timestamp(ts),
    ])
}

/// Runs E10.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E10 — TPC-C-lite new-order throughput (tx/s), credit-cap regulation",
        &["mode", "warehouses", "orders", "tx/s", "accepted", "rejected"],
    );
    let n_orders = if quick { 150 } else { 1_500 };
    let warehouses = if quick { 2 } else { 4 };
    let config = TpccConfig { warehouses, customers: 40, ..Default::default() };

    // Shared order stream.
    let mut wrng = StdRng::seed_from_u64(10);
    let orders = TpccWorkload::new(config).batch(n_orders, &mut wrng);

    // Unregulated baseline.
    {
        let mut p = Pipeline::new();
        p.create_table("orders", orders_schema()).expect("table");
        let secs = time_once("bench.e10.unregulated", || {
            for o in &orders {
                let u = Update::new(
                    o.id,
                    "orders",
                    order_row(o.id, o.customer, o.total_quantity(), o.ts),
                    o.ts,
                    "tpcc",
                );
                p.submit(&u).expect("submit");
            }
        });
        let (a, r) = p.stats();
        table.row(vec![
            "unregulated".into(),
            warehouses.to_string(),
            n_orders.to_string(),
            ops_per_sec(n_orders, secs),
            a.to_string(),
            r.to_string(),
        ]);
    }

    // Regulated: the registered constraint is checked through the index.
    {
        let mut p = Pipeline::new();
        p.create_table("orders", orders_schema()).expect("table");
        p.register_constraint(
            Constraint::parse(
                "credit-cap",
                ConstraintScope::Internal,
                &format!(
                    "COUNT(orders WHERE orders.customer = $customer WITHIN {WINDOW} OF orders.ts) = 0 \
                     OR SUM(orders.quantity WHERE orders.customer = $customer WITHIN {WINDOW} OF orders.ts) \
                     + $quantity <= {CREDIT_CAP}"
                ),
            )
            .expect("parses"),
        );
        let secs = time_once("bench.e10.regulated", || {
            for o in &orders {
                let u = Update::new(
                    o.id,
                    "orders",
                    order_row(o.id, o.customer, o.total_quantity(), o.ts),
                    o.ts,
                    "tpcc",
                );
                p.submit(&u).expect("submit");
            }
        });
        let (a, r) = p.stats();
        table.row(vec![
            "regulated".into(),
            warehouses.to_string(),
            n_orders.to_string(),
            ops_per_sec(n_orders, secs),
            a.to_string(),
            r.to_string(),
        ]);
    }

    table
}
