//! # prever-storage
//!
//! Embedded, versioned, in-memory table storage — the mutable database
//! that PReVer's data managers operate on.
//!
//! The paper's model (§3) is a database receiving a stream of updates that
//! must be validated against constraints *before* being incorporated. That
//! requires storage with:
//!
//! * **typed tables** with schemas and primary keys ([`Schema`], [`Table`]);
//! * **multi-version concurrency**: every mutation gets a monotonically
//!   increasing version, and any past version remains readable through a
//!   [`Snapshot`] — constraint evaluation runs against a stable snapshot
//!   while new updates queue;
//! * **a change log** ([`ChangeRecord`]) from which the ledger layer
//!   derives its append-only journal (RC4);
//! * **secondary indexes** ([`Table::create_index`]), kept exact on every
//!   insert, update and delete, for the equality and sliding-window
//!   lookups constraint evaluation pushes down ([`Snapshot::index_scan`]);
//!   an entry carries its live row, shared with the table, so a read
//!   through an index never goes back to the primary map. Creating a table
//!   or an index moves the database's layout stamp
//!   ([`Database::generation`]), which constraint plans are keyed on.
//!
//! Everything is deliberately in-memory: PReVer's experiments measure
//! protocol and cryptography overheads, and an in-memory engine keeps the
//! storage term out of the noise floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod index;
pub mod medium;
pub mod table;
pub mod value;
pub mod wal;

pub use database::{ChangeKind, ChangeRecord, Database, Snapshot};
pub use medium::{DiskStats, SharedDisk, SimDisk, StorageMedium, DEFAULT_SECTOR};
pub use table::{Column, ColumnType, Key, Row, Schema, Table};
pub use value::Value;
pub use wal::{crc32, crc32_update, Frame, RecoveryReport, Wal, FRAME_HEADER};

/// Errors produced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name exists.
    NoSuchTable(String),
    /// No column with this name exists in the table.
    NoSuchColumn(String),
    /// A row did not match the table schema.
    SchemaViolation(String),
    /// Insert with a primary key that is already present.
    DuplicateKey(String),
    /// Update/delete of a primary key that is not present.
    NoSuchKey(String),
    /// A requested version is newer than the database.
    VersionOutOfRange {
        /// The version asked for.
        requested: u64,
        /// The database's current version.
        current: u64,
    },
    /// A storage-medium operation failed (e.g. read past end).
    Medium(&'static str),
    /// Durable bytes failed integrity checks — corruption, not a torn
    /// tail; recovery must not paper over it.
    Corruption(&'static str),
    /// A durable record could not be decoded back into its typed form.
    Decode(&'static str),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::TableExists(t) => write!(f, "table already exists: {t}"),
            StorageError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StorageError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            StorageError::SchemaViolation(why) => write!(f, "schema violation: {why}"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            StorageError::NoSuchKey(k) => write!(f, "no such primary key: {k}"),
            StorageError::VersionOutOfRange { requested, current } => {
                write!(f, "version {requested} out of range (current {current})")
            }
            StorageError::Medium(why) => write!(f, "storage medium error: {why}"),
            StorageError::Corruption(why) => write!(f, "durable data corrupted: {why}"),
            StorageError::Decode(why) => write!(f, "record decode failed: {why}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
