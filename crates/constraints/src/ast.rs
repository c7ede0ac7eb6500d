//! Expression AST for constraints and regulations.

use prever_storage::Value;

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Minimum of a column.
    Min,
    /// Maximum of a column.
    Max,
    /// Average (integer division of SUM by COUNT).
    Avg,
}

impl AggFunc {
    /// The surface-syntax keyword.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// A sliding time window anchored at the update's timestamp: rows whose
/// `column` lies in `(update_ts − duration, update_ts]` qualify.
///
/// This is the paper's "temporal constraints on sliding time windows,
/// e.g., workers cannot work more than 40 hours a week".
#[derive(Clone, Debug, PartialEq)]
pub struct TimeWindow {
    /// The timestamp column the window filters on.
    pub column: String,
    /// Window length in timestamp units (e.g. 604800 s = 1 week).
    pub duration: u64,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer)
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND` (three-valued)
    And,
    /// `OR` (three-valued)
    Or,
}

impl BinOp {
    /// The surface-syntax token.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// A constraint expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// `$name` — a field of the incoming update.
    Field(String),
    /// `table.column` — a column of the row currently bound by the
    /// enclosing aggregate's scan.
    Column {
        /// Table name (must match the aggregate's table).
        table: String,
        /// Column name.
        column: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation (three-valued).
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Aggregate over a table scan.
    Aggregate {
        /// Function.
        func: AggFunc,
        /// Table scanned.
        table: String,
        /// Column aggregated (`None` only for COUNT).
        column: Option<String>,
        /// Optional row filter (may reference `$fields` and
        /// `table.column`s).
        filter: Option<Box<Expr>>,
        /// Optional sliding window anchored at the update timestamp.
        window: Option<TimeWindow>,
    },
    /// `EXISTS(table WHERE pred)` — true iff any row matches. The
    /// filter may reference columns of *enclosing* scans (correlated),
    /// which is how SQL semi-joins are expressed here — the "JOIN …
    /// expressions" extension the paper's §5 calls for.
    Exists {
        /// Table scanned.
        table: String,
        /// Optional row filter.
        filter: Option<Box<Expr>>,
    },
    /// A GROUP BY bound: aggregate per group, then reduce across groups
    /// — e.g. `MAXSUM(tasks.hours BY tasks.worker) <= 40` states the
    /// invariant "no worker's total exceeds 40" in one expression (the
    /// "GROUP BY … aggregate expressions" extension of §5).
    GroupedAggregate {
        /// Per-group function (`Sum` or `Count`).
        func: AggFunc,
        /// Table scanned.
        table: String,
        /// Aggregated column (`None` only for COUNT).
        column: Option<String>,
        /// Grouping column.
        group_by: String,
        /// Optional row filter.
        filter: Option<Box<Expr>>,
        /// Optional sliding window anchored at the update timestamp.
        window: Option<TimeWindow>,
        /// Cross-group reduction.
        reduce: GroupReduce,
    },
}

/// How per-group aggregates are reduced across groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupReduce {
    /// The maximum group value (for upper-bound invariants).
    Max,
    /// The minimum group value (for lower-bound invariants).
    Min,
}

impl Expr {
    /// Convenience: integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Convenience: update-field reference.
    pub fn field(name: &str) -> Expr {
        Expr::Field(name.to_string())
    }

    /// Convenience: binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Tables referenced by aggregates anywhere in the expression — the
    /// constraint's read set, used by the federated planner to decide
    /// which data managers must participate in verification.
    pub fn referenced_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Aggregate { table, .. }
            | Expr::Exists { table, .. }
            | Expr::GroupedAggregate { table, .. } = e
            {
                if !out.contains(&table.as_str()) {
                    out.push(table.as_str());
                }
            }
        });
        out
    }

    /// Update fields (`$name`) referenced anywhere in the expression.
    pub fn referenced_fields(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Field(name) = e {
                if !out.contains(&name.as_str()) {
                    out.push(name.as_str());
                }
            }
        });
        out
    }

    /// Calls `f` on this node and every node below it, filters included.
    pub(crate) fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Not(e) | Expr::Neg(e) => e.visit(f),
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::Aggregate { filter, .. }
            | Expr::Exists { filter, .. }
            | Expr::GroupedAggregate { filter, .. } => {
                if let Some(filter) = filter {
                    filter.visit(f);
                }
            }
            Expr::Literal(_) | Expr::Field(_) | Expr::Column { .. } => {}
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Field(name) => write!(f, "${name}"),
            Expr::Column { table, column } => write!(f, "{table}.{column}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Aggregate { func, table, column, filter, window } => {
                write!(f, "{}({table}", func.name())?;
                if let Some(c) = column {
                    write!(f, ".{c}")?;
                }
                if let Some(p) = filter {
                    write!(f, " WHERE {p}")?;
                }
                if let Some(w) = window {
                    write!(f, " WITHIN {} OF {table}.{}", w.duration, w.column)?;
                }
                write!(f, ")")
            }
            Expr::Exists { table, filter } => {
                write!(f, "EXISTS({table}")?;
                if let Some(p) = filter {
                    write!(f, " WHERE {p}")?;
                }
                write!(f, ")")
            }
            Expr::GroupedAggregate { func, table, column, group_by, filter, window, reduce } => {
                let prefix = match reduce {
                    GroupReduce::Max => "MAX",
                    GroupReduce::Min => "MIN",
                };
                write!(f, "{prefix}{}({table}", func.name())?;
                if let Some(c) = column {
                    write!(f, ".{c}")?;
                }
                write!(f, " BY {table}.{group_by}")?;
                if let Some(p) = filter {
                    write!(f, " WHERE {p}")?;
                }
                if let Some(w) = window {
                    write!(f, " WITHIN {} OF {table}.{}", w.duration, w.column)?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flsa() -> Expr {
        // SUM(tasks.hours WHERE tasks.worker = $worker WITHIN 604800 OF tasks.ts) + $hours <= 40
        Expr::bin(
            BinOp::Le,
            Expr::bin(
                BinOp::Add,
                Expr::Aggregate {
                    func: AggFunc::Sum,
                    table: "tasks".into(),
                    column: Some("hours".into()),
                    filter: Some(Box::new(Expr::bin(
                        BinOp::Eq,
                        Expr::Column { table: "tasks".into(), column: "worker".into() },
                        Expr::field("worker"),
                    ))),
                    window: Some(TimeWindow { column: "ts".into(), duration: 604_800 }),
                },
                Expr::field("hours"),
            ),
            Expr::int(40),
        )
    }

    #[test]
    fn referenced_tables_and_fields() {
        let e = flsa();
        assert_eq!(e.referenced_tables(), vec!["tasks"]);
        let mut fields = e.referenced_fields();
        fields.sort();
        assert_eq!(fields, vec!["hours", "worker"]);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let e = flsa();
        let text = e.to_string();
        let reparsed = crate::parse::parse(&text).unwrap();
        assert_eq!(reparsed, e);
    }
}
