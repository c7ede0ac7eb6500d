//! # prever-constraints
//!
//! The constraint and regulation language of PReVer.
//!
//! Section 3.2 of the paper defines a constraint as "a Boolean function
//! computed over the database and an incoming update" that "expresses a
//! policy for accepting or rejecting incoming updates", names declarative
//! query languages as the natural expression vehicle, and singles out
//! *temporal* constraints on sliding windows ("workers cannot work more
//! than 40 hours a week") as the regulation shape that matters.
//!
//! This crate provides exactly that:
//!
//! * [`ast`] — expressions over (database snapshot, incoming update):
//!   arithmetic, three-valued boolean logic, comparisons, and aggregates
//!   (`COUNT`/`SUM`/`MIN`/`MAX`/`AVG`) with `WHERE` filters and sliding
//!   time windows;
//! * [`parse`] — a small text syntax, so regulations read like the paper
//!   writes them (plus the §5 future-work extensions: `EXISTS`
//!   semi-joins — including correlated ones — and `MAXSUM`/`MINSUM`
//!   GROUP-BY bounds):
//!
//!   ```text
//!   SUM(tasks.hours WHERE tasks.worker = $worker
//!       WITHIN 604800 OF tasks.ts) + $hours <= 40
//!   ```
//!
//! * [`eval`] — the evaluator against a storage [`Snapshot`]; on a
//!   database without indexes it is the full-scan oracle of the tests. It
//!   runs over a *plan*: the expression with its tables, columns and
//!   `$fields` resolved and its index probes chosen, which a
//!   [`Constraint`] makes once per database layout instead of per update;
//! * [`pushdown`] — the paper's "efficient incremental techniques" without
//!   a second evaluator: an equality conjunct (`t.worker = $worker`) and a
//!   sliding window are pushed down onto a storage-maintained
//!   `(column, timestamp)` index, so a check reads O(log n + rows in the
//!   window), and scans whenever the result *or the error* could differ
//!   (the module lists when); [`ensure_indexes`] creates the indexes;
//! * [`Constraint`] — a named, scoped (internal constraint vs. external
//!   regulation) boolean policy.
//!
//! [`Snapshot`]: prever_storage::Snapshot

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod parse;
mod plan;
pub mod pushdown;
pub mod query;

pub use ast::{AggFunc, Expr, GroupReduce, TimeWindow};
pub use eval::{evaluate, evaluate_expr, UpdateContext};
pub use pushdown::ensure_indexes;
pub use query::{evaluate_query, query};

use prever_storage::StorageError;

/// Who authored a constraint (paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConstraintScope {
    /// Internal constraint, written by the data owner; scope limited to
    /// that owner's database(s).
    Internal,
    /// Regulation, issued by an external authority; may span the
    /// databases of multiple data owners.
    Regulation,
}

/// A named boolean policy over (database, update).
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// Human-readable name ("FLSA-40h").
    pub name: String,
    /// Internal constraint or external regulation.
    pub scope: ConstraintScope,
    /// The boolean expression; the update is accepted iff it evaluates
    /// to TRUE (NULL rejects, matching SQL CHECK-constraint semantics
    /// inverted for safety: unknown means *not allowed*). Read it freely,
    /// but do not change it once the constraint has been evaluated: the
    /// constraint keeps a plan made from it (parse a new constraint
    /// instead; a clone starts with no plan).
    pub expr: Expr,
    plan: plan::PlanCache,
}

impl Constraint {
    /// Builds a constraint from source text.
    pub fn parse(name: &str, scope: ConstraintScope, src: &str) -> Result<Self> {
        Ok(Constraint {
            name: name.to_string(),
            scope,
            expr: parse::parse(src)?,
            plan: plan::PlanCache::default(),
        })
    }
}

/// Errors produced by parsing or evaluating constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// Syntax error with position and message.
    Parse {
        /// Byte offset in the source.
        at: usize,
        /// Description.
        msg: String,
    },
    /// An update field (`$name`) not present in the update's schema.
    UnknownField(String),
    /// Operands had incompatible types.
    TypeMismatch {
        /// What was being computed.
        op: &'static str,
        /// Description of the operands.
        detail: String,
    },
    /// Integer division by zero.
    DivisionByZero,
    /// Arithmetic overflow.
    Overflow,
    /// Underlying storage failure (unknown table/column).
    Storage(StorageError),
}

impl From<StorageError> for ConstraintError {
    fn from(e: StorageError) -> Self {
        ConstraintError::Storage(e)
    }
}

impl std::fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintError::Parse { at, msg } => write!(f, "parse error at byte {at}: {msg}"),
            ConstraintError::UnknownField(name) => write!(f, "unknown update field ${name}"),
            ConstraintError::TypeMismatch { op, detail } => {
                write!(f, "type mismatch in {op}: {detail}")
            }
            ConstraintError::DivisionByZero => write!(f, "division by zero"),
            ConstraintError::Overflow => write!(f, "arithmetic overflow"),
            ConstraintError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ConstraintError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, ConstraintError>;
