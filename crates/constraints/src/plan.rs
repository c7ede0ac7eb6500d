//! Plans: an expression with every name resolved, made once per database
//! layout and update schema and reused by every evaluation.
//!
//! To evaluate an aggregate, grouped aggregate or `EXISTS` the evaluator
//! needs its table's schema, the positions of its window, aggregated and
//! grouping columns, the position of every `table.column` and `$field` its
//! filter reads, and the equality conjuncts an index could answer
//! ([`crate::pushdown`]). None of that depends on the rows or on the
//! update's values — only on the expression, on the tables' schemas and
//! indexes ([`Snapshot::generation`]) and on the update's schema. A
//! [`Plan`] is that resolution, and [`crate::eval`] runs over plans only.
//! What does depend on the update is still worked out per evaluation: the
//! window bounds, the probe value, whether the filter's operands can fail
//! on a skipped row (an update's `$field` may hold a value of another type
//! than its column declares), and whether the snapshot is live.
//!
//! Planning never fails: a name that does not resolve becomes the error
//! the evaluator raises when, and only if, it reaches that node, so an
//! unknown column in the filter of a scan over an empty table is still no
//! error, exactly as when names were looked up row by row.
//!
//! A [`crate::Constraint`] keeps the plan of its last evaluation
//! ([`PlanCache`]) and reuses it while the layout stamp and the update
//! schema are unchanged: a table or an index created since re-plans it
//! once. Any other expression is planned for each evaluation.

use crate::ast::{AggFunc, BinOp, Expr, GroupReduce, TimeWindow};
use crate::{pushdown, ConstraintError, Result};
use prever_obs::work::{self, Unit};
use prever_storage::{ColumnType, Schema, Snapshot, Value};
use std::sync::{Arc, Mutex, PoisonError};

/// An expression resolved against one database layout and update schema.
pub(crate) struct Plan {
    generation: u64,
    update_schema: Schema,
    pub(crate) root: Node,
    /// What was planned, to catch a `Constraint::expr` changed in place.
    #[cfg(debug_assertions)]
    expr: Expr,
}

/// A resolved expression node, one per [`Expr`] node.
pub(crate) enum Node {
    Literal(Value),
    /// `$name`: its position in the update's row.
    Field(Result<usize>),
    /// `table.column`: where the evaluator finds it.
    Column(Result<Slot>),
    Binary {
        op: BinOp,
        lhs: Box<Node>,
        rhs: Box<Node>,
    },
    Not(Box<Node>),
    Neg(Box<Node>),
    IsNull {
        expr: Box<Node>,
        negated: bool,
    },
    Scan(Box<Scan>),
}

/// A column of the row some enclosing scan has bound.
#[derive(Clone, Copy)]
pub(crate) struct Slot {
    /// The binding scan's place on the evaluator's row stack: how many
    /// scans enclose it.
    pub(crate) depth: usize,
    pub(crate) column: usize,
    pub(crate) ty: ColumnType,
}

/// What a scan computes over the rows it matches.
#[derive(Clone, Copy)]
pub(crate) enum ScanKind {
    Aggregate(AggFunc),
    Grouped(AggFunc, GroupReduce),
    Exists,
}

/// One aggregate, grouped aggregate or `EXISTS`.
pub(crate) struct Scan {
    pub(crate) table: String,
    pub(crate) kind: ScanKind,
    /// The resolved scan, or the error it raises before reading a row.
    pub(crate) source: Result<Source>,
}

/// A scan with its names resolved.
pub(crate) struct Source {
    /// This scan's place on the row stack ([`Slot::depth`]).
    pub(crate) depth: usize,
    /// The aggregated column.
    pub(crate) column: Option<usize>,
    /// A grouped aggregate's grouping column.
    pub(crate) group_by: Option<usize>,
    pub(crate) window: Option<Window>,
    pub(crate) filter: Option<Node>,
    /// The filter's equality conjuncts an index could answer, left to
    /// right; empty when nothing but the whole table can be read.
    pub(crate) probes: Vec<Probe>,
}

/// `WITHIN duration OF table.name`, `name` at position `column`.
pub(crate) struct Window {
    pub(crate) column: usize,
    pub(crate) name: String,
    pub(crate) duration: u64,
}

/// A conjunct `table.col = value` of a filter, `col` at position `column`
/// of type `ty` and indexed, `value` independent of the scanned row.
pub(crate) struct Probe {
    pub(crate) column: usize,
    pub(crate) ty: ColumnType,
    pub(crate) value: Node,
}

impl Plan {
    /// Resolves `expr` against `snapshot`'s layout, `$fields` against
    /// `update_schema`. Counts one [`Unit::PlanBuilt`].
    pub(crate) fn new(expr: &Expr, snapshot: &Snapshot<'_>, update_schema: &Schema) -> Plan {
        work::add(Unit::PlanBuilt, 1);
        let mut planner = Planner {
            snapshot: *snapshot,
            update: update_schema,
            scans: Vec::new(),
        };
        Plan {
            generation: snapshot.generation(),
            update_schema: update_schema.clone(),
            root: planner.node(expr),
            #[cfg(debug_assertions)]
            expr: expr.clone(),
        }
    }

    fn fits(&self, snapshot: &Snapshot<'_>, update_schema: &Schema) -> bool {
        self.generation == snapshot.generation() && self.update_schema == *update_schema
    }
}

struct Planner<'p> {
    snapshot: Snapshot<'p>,
    update: &'p Schema,
    /// The scans enclosing the node being planned, outermost first, as
    /// their rows will sit on the evaluator's row stack.
    scans: Vec<(&'p str, &'p Schema)>,
}

impl<'p> Planner<'p> {
    fn node(&mut self, e: &'p Expr) -> Node {
        match e {
            Expr::Literal(v) => Node::Literal(v.clone()),
            Expr::Field(name) => Node::Field(
                self.update
                    .column_index(name)
                    .map_err(|_| ConstraintError::UnknownField(name.clone())),
            ),
            Expr::Column { table, column } => Node::Column(self.column(table, column)),
            Expr::Binary { op, lhs, rhs } => Node::Binary {
                op: *op,
                lhs: Box::new(self.node(lhs)),
                rhs: Box::new(self.node(rhs)),
            },
            Expr::Not(e) => Node::Not(Box::new(self.node(e))),
            Expr::Neg(e) => Node::Neg(Box::new(self.node(e))),
            Expr::IsNull { expr, negated } => Node::IsNull {
                expr: Box::new(self.node(expr)),
                negated: *negated,
            },
            Expr::Aggregate {
                func,
                table,
                column,
                filter,
                window,
            } => self.scan(
                ScanKind::Aggregate(*func),
                table,
                [column.as_deref(), None],
                filter.as_deref(),
                window.as_ref(),
            ),
            Expr::Exists { table, filter } => self.scan(
                ScanKind::Exists,
                table,
                [None, None],
                filter.as_deref(),
                None,
            ),
            Expr::GroupedAggregate {
                func,
                table,
                column,
                group_by,
                filter,
                window,
                reduce,
            } => self.scan(
                ScanKind::Grouped(*func, *reduce),
                table,
                [column.as_deref(), Some(group_by)],
                filter.as_deref(),
                window.as_ref(),
            ),
        }
    }

    /// `table.column` in the innermost enclosing scan of `table`: a column
    /// of the scanned table's own name is always the row being scanned.
    fn column(&self, table: &str, column: &str) -> Result<Slot> {
        let depth = self
            .scans
            .iter()
            .rposition(|(t, _)| *t == table)
            .ok_or_else(|| ConstraintError::TypeMismatch {
                op: "column reference",
                detail: format!("{table}.{column} does not match any enclosing scan"),
            })?;
        let schema = self.scans[depth].1;
        let column = schema.column_index(column)?;
        Ok(Slot {
            depth,
            column,
            ty: schema.columns()[column].ty,
        })
    }

    /// `columns` are the aggregated and the grouping column.
    fn scan(
        &mut self,
        kind: ScanKind,
        table: &'p str,
        columns: [Option<&str>; 2],
        filter: Option<&'p Expr>,
        window: Option<&TimeWindow>,
    ) -> Node {
        Node::Scan(Box::new(Scan {
            table: table.to_string(),
            kind,
            source: self.source(table, columns, filter, window),
        }))
    }

    /// Names resolve in the order evaluation used to look them up, so the
    /// first that fails is the error the scan raises: the table, the
    /// aggregated column, the grouping column, the window column.
    fn source(
        &mut self,
        table: &'p str,
        [column, group_by]: [Option<&str>; 2],
        filter: Option<&'p Expr>,
        window: Option<&TimeWindow>,
    ) -> Result<Source> {
        let snapshot = self.snapshot;
        let schema = snapshot.schema(table)?;
        let column = column.map(|c| schema.column_index(c)).transpose()?;
        let group_by = group_by.map(|g| schema.column_index(g)).transpose()?;
        let window = match window {
            Some(w) => Some(Window {
                column: schema.column_index(&w.column)?,
                name: w.column.clone(),
                duration: w.duration,
            }),
            None => None,
        };
        let depth = self.scans.len();
        self.scans.push((table, schema));
        let (filter, probes) = match filter {
            Some(f) => {
                let probes = pushdown::probes(&snapshot, table, schema, f, window.as_ref(), |e| {
                    self.node(e)
                });
                (Some(self.node(f)), probes)
            }
            None => (None, Vec::new()),
        };
        self.scans.pop();
        Ok(Source {
            depth,
            column,
            group_by,
            window,
            filter,
            probes,
        })
    }
}

/// The plan of a constraint's last evaluation, valid for as long as the
/// layout and update schema it was made for and the expression, which
/// `Constraint::expr`'s contract keeps unchanged once evaluated.
#[derive(Default)]
pub(crate) struct PlanCache(Mutex<Option<Arc<Plan>>>);

impl PlanCache {
    /// The plan of `expr` for `snapshot`'s layout and `update_schema`: the
    /// cached one if it was made for them, else a new one, cached.
    pub(crate) fn get(
        &self,
        expr: &Expr,
        snapshot: &Snapshot<'_>,
        update_schema: &Schema,
    ) -> Arc<Plan> {
        // The slot is only ever assigned a whole plan, so a panic while it
        // was held cannot have left it half-written.
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(plan) = slot.as_ref().filter(|p| p.fits(snapshot, update_schema)) {
            #[cfg(debug_assertions)]
            assert!(
                plan.expr == *expr,
                "a constraint's expression changed after it was planned"
            );
            return Arc::clone(plan);
        }
        let plan = Arc::new(Plan::new(expr, snapshot, update_schema));
        *slot = Some(Arc::clone(&plan));
        plan
    }
}

/// A clone starts empty, so changing a cloned constraint's expression
/// before its first evaluation is safe.
impl Clone for PlanCache {
    fn clone(&self) -> Self {
        PlanCache::default()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache").finish_non_exhaustive()
    }
}

/// A cache is no part of a constraint's value: two constraints are equal
/// whatever either has planned.
impl PartialEq for PlanCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
