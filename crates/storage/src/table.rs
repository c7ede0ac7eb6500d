//! Schemas, rows and multi-versioned tables.

use crate::index::SecondaryIndex;
use crate::value::Value;
use crate::{Result, StorageError};
use prever_obs::work::{self, Unit};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Column type tags, used for schema validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// Signed integer.
    Int,
    /// Unsigned integer.
    Uint,
    /// UTF-8 string.
    Str,
    /// Opaque bytes.
    Bytes,
    /// Boolean.
    Bool,
    /// Event timestamp.
    Timestamp,
}

impl ColumnType {
    /// True for the types whose values order numerically
    /// ([`Value::as_i128`] is `Some` for every non-NULL value).
    pub fn is_numeric(self) -> bool {
        use ColumnType::*;
        matches!(self, Int | Uint | Timestamp | Bool)
    }

    /// True iff `v` is a (non-NULL) value of this type.
    pub fn matches(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnType::Int, Value::Int(_))
                | (ColumnType::Uint, Value::Uint(_))
                | (ColumnType::Str, Value::Str(_))
                | (ColumnType::Bytes, Value::Bytes(_))
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Timestamp, Value::Timestamp(_))
        )
    }
}

/// One column definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
    /// Whether NULL is accepted.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: &str, ty: ColumnType) -> Self {
        Column { name: name.to_string(), ty, nullable: false }
    }

    /// A nullable column.
    pub fn nullable(name: &str, ty: ColumnType) -> Self {
        Column { name: name.to_string(), ty, nullable: true }
    }
}

/// A table schema: ordered columns plus the primary-key column set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    key_indices: Vec<usize>,
}

impl Schema {
    /// Builds a schema; `key_columns` name the primary-key columns (must
    /// be non-nullable and exist).
    pub fn new(columns: Vec<Column>, key_columns: &[&str]) -> Result<Self> {
        if key_columns.is_empty() {
            return Err(StorageError::SchemaViolation("empty primary key".into()));
        }
        let mut key_indices = Vec::with_capacity(key_columns.len());
        for k in key_columns {
            let idx = columns
                .iter()
                .position(|c| c.name == *k)
                .ok_or_else(|| StorageError::NoSuchColumn(k.to_string()))?;
            if columns[idx].nullable {
                return Err(StorageError::SchemaViolation(format!(
                    "primary key column {k} is nullable"
                )));
            }
            if key_indices.contains(&idx) {
                return Err(StorageError::SchemaViolation(format!("duplicate key column {k}")));
            }
            key_indices.push(idx);
        }
        // Reject duplicate column names.
        for (i, a) in columns.iter().enumerate() {
            if columns[i + 1..].iter().any(|b| b.name == a.name) {
                return Err(StorageError::SchemaViolation(format!(
                    "duplicate column name {}",
                    a.name
                )));
            }
        }
        Ok(Schema { columns, key_indices })
    }

    /// The ordered columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::NoSuchColumn(name.to_string()))
    }

    /// Indices of the primary-key columns.
    pub fn key_indices(&self) -> &[usize] {
        &self.key_indices
    }

    /// Validates a row against this schema.
    pub fn validate(&self, row: &Row) -> Result<()> {
        if row.values.len() != self.columns.len() {
            return Err(StorageError::SchemaViolation(format!(
                "expected {} columns, got {}",
                self.columns.len(),
                row.values.len()
            )));
        }
        for (col, v) in self.columns.iter().zip(&row.values) {
            if v.is_null() {
                if !col.nullable {
                    return Err(StorageError::SchemaViolation(format!(
                        "NULL in non-nullable column {}",
                        col.name
                    )));
                }
            } else if !col.ty.matches(v) {
                return Err(StorageError::SchemaViolation(format!(
                    "column {} expects {:?}, got {}",
                    col.name,
                    col.ty,
                    v.type_name()
                )));
            }
        }
        Ok(())
    }

    /// Extracts the primary key values from a row.
    pub fn key_of(&self, row: &Row) -> Key {
        Key(self.key_indices.iter().map(|&i| row.values[i].clone()).collect())
    }
}

/// A row: one value per schema column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Cell values, in schema column order.
    pub values: Vec<Value>,
}

impl Row {
    /// Builds a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Stable binary encoding (for ledger hashing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.values.len() as u64).to_be_bytes());
        for v in &self.values {
            v.encode_into(&mut out);
        }
        out
    }

    /// Decodes one row from `buf` starting at `*pos`, advancing `*pos`
    /// past it — the exact inverse of [`Row::encode`].
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Row> {
        let count = crate::value::take_u64(buf, pos, "row value count")?;
        // Every encoded value is at least one tag byte, so a count larger
        // than the remaining buffer is corrupt — reject before allocating.
        if count > (buf.len() - *pos) as u64 {
            return Err(StorageError::Decode("row value count exceeds buffer"));
        }
        let mut values = Vec::with_capacity(count as usize);
        for _ in 0..count {
            values.push(Value::decode_from(buf, pos)?);
        }
        Ok(Row::new(values))
    }

    /// Decodes a row that must occupy the whole buffer.
    pub fn decode(buf: &[u8]) -> Result<Row> {
        let mut pos = 0;
        let row = Row::decode_from(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(StorageError::Decode("trailing bytes after row"));
        }
        Ok(row)
    }
}

/// A primary key (ordered key-column values).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub Vec<Value>);

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// One version of a row: `None` payload means deleted at that version.
/// The live version's row is shared with every index entry for it.
#[derive(Clone, Debug)]
struct RowVersion {
    version: u64,
    row: Option<Arc<Row>>,
}

/// A key's version chain, ascending. The newest version is held inline,
/// so a key never updated or deleted — most keys — allocates nothing but
/// its row, and a scan reaches the row in one step.
#[derive(Clone, Debug)]
struct Versions {
    /// Every version but the newest, ascending.
    older: Vec<RowVersion>,
    newest: RowVersion,
}

impl Versions {
    fn latest(&self) -> Option<&Arc<Row>> {
        self.newest.row.as_ref()
    }

    /// The row as of `version`: the newest version `≤ version`.
    fn at(&self, version: u64) -> Option<&Row> {
        std::iter::once(&self.newest)
            .chain(self.older.iter().rev())
            .find(|rv| rv.version <= version)
            .and_then(|rv| rv.row.as_deref())
    }

    fn push(&mut self, next: RowVersion) {
        self.older.push(std::mem::replace(&mut self.newest, next));
    }

    fn len(&self) -> usize {
        self.older.len() + 1
    }
}

/// A multi-versioned table.
///
/// Each key maps to its version chain (ascending). Reads at version `v`
/// see the newest version `≤ v`. Each descent of the key-ordered map by
/// key counts one [`Unit::KeyLookup`]; a read through a secondary index
/// makes none.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    rows: BTreeMap<Key, Versions>,
    indexes: Vec<SecondaryIndex>,
    live_count: usize,
}

impl Table {
    /// Creates an empty table with `schema`.
    pub fn new(schema: Schema) -> Self {
        Table { schema, rows: BTreeMap::new(), indexes: Vec::new(), live_count: 0 }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live (not deleted) rows at the latest version.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True iff no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Creates a secondary index on `column`, each value's rows ordered
    /// by `order_by` if given (a numeric, non-nullable column — the
    /// timestamp of a sliding window). Existing rows are indexed in one
    /// bulk pass; every later insert, update and delete keeps the index
    /// exact for the live table. Idempotent; an ordered index also serves
    /// plain equality lookups, so asking for the unordered one after it is
    /// a no-op.
    pub fn create_index(&mut self, column: &str, order_by: Option<&str>) -> Result<()> {
        let col = self.schema.column_index(column)?;
        let order = order_by.map(|o| self.schema.column_index(o)).transpose()?;
        if let Some(o) = order {
            let c = &self.schema.columns[o];
            if c.nullable || !c.ty.is_numeric() {
                return Err(StorageError::SchemaViolation(format!(
                    "index ordering column {} must be numeric and non-nullable",
                    c.name
                )));
            }
        }
        if self
            .indexes
            .iter()
            .any(|ix| ix.column() == col && (order.is_none() || ix.order_by() == order))
        {
            return Ok(());
        }
        let live = self.rows.iter().filter_map(|(k, v)| v.latest().map(|r| (k, r)));
        self.indexes.push(SecondaryIndex::build(col, order, live));
        Ok(())
    }

    /// Number of secondary indexes.
    pub(crate) fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// True iff some secondary index covers `column` — what
    /// [`Table::index_scan`] needs to answer `Some`.
    pub fn has_index(&self, column: usize) -> bool {
        self.indexes.iter().any(|ix| ix.column() == column)
    }

    /// Inserts a row at `version`. Fails on duplicate live key.
    pub fn insert(&mut self, row: Row, version: u64) -> Result<Key> {
        self.schema.validate(&row)?;
        let key = self.schema.key_of(&row);
        work::add(Unit::KeyLookup, 1);
        let entry = self.rows.entry(key.clone());
        if let Entry::Occupied(chain) = &entry {
            if chain.get().latest().is_some() {
                return Err(StorageError::DuplicateKey(key.to_string()));
            }
        }
        let row = Arc::new(row);
        for ix in &mut self.indexes {
            ix.insert(&row, key.clone());
        }
        let newest = RowVersion { version, row: Some(row) };
        match entry {
            Entry::Occupied(mut chain) => chain.get_mut().push(newest),
            Entry::Vacant(slot) => {
                slot.insert(Versions { older: Vec::new(), newest });
            }
        }
        self.live_count += 1;
        Ok(key)
    }

    /// Replaces the live row with `key` at `version`.
    pub fn update(&mut self, key: &Key, row: Row, version: u64) -> Result<Row> {
        self.schema.validate(&row)?;
        let new_key = self.schema.key_of(&row);
        if &new_key != key {
            return Err(StorageError::SchemaViolation(
                "update must not change the primary key".into(),
            ));
        }
        work::add(Unit::KeyLookup, 1);
        let versions = self
            .rows
            .get_mut(key)
            .ok_or_else(|| StorageError::NoSuchKey(key.to_string()))?;
        let old = versions
            .latest()
            .cloned()
            .ok_or_else(|| StorageError::NoSuchKey(key.to_string()))?;
        let row = Arc::new(row);
        for ix in &mut self.indexes {
            ix.remove(&old, key.clone());
            ix.insert(&row, key.clone());
        }
        versions.push(RowVersion { version, row: Some(row) });
        Ok(Arc::unwrap_or_clone(old))
    }

    /// Deletes the live row with `key` at `version`; returns the old row.
    pub fn delete(&mut self, key: &Key, version: u64) -> Result<Row> {
        work::add(Unit::KeyLookup, 1);
        let versions = self
            .rows
            .get_mut(key)
            .ok_or_else(|| StorageError::NoSuchKey(key.to_string()))?;
        let old = versions
            .latest()
            .cloned()
            .ok_or_else(|| StorageError::NoSuchKey(key.to_string()))?;
        for ix in &mut self.indexes {
            ix.remove(&old, key.clone());
        }
        versions.push(RowVersion { version, row: None });
        self.live_count -= 1;
        Ok(Arc::unwrap_or_clone(old))
    }

    /// The live row for `key` (latest version).
    pub fn get(&self, key: &Key) -> Option<&Row> {
        work::add(Unit::KeyLookup, 1);
        self.rows.get(key).and_then(Versions::latest).map(|r| &**r)
    }

    /// The row for `key` as of `version`.
    pub fn get_at(&self, key: &Key, version: u64) -> Option<&Row> {
        work::add(Unit::KeyLookup, 1);
        self.rows.get(key).and_then(|v| v.at(version))
    }

    /// Iterates live rows in key order.
    pub fn scan(&self) -> impl Iterator<Item = (&Key, &Row)> {
        self.rows
            .iter()
            .filter_map(|(k, v)| v.latest().map(|r| (k, &**r)))
    }

    /// Iterates rows as of `version` in key order.
    pub fn scan_at(&self, version: u64) -> impl Iterator<Item = (&Key, &Row)> {
        self.rows
            .iter()
            .filter_map(move |(k, v)| v.at(version).map(|r| (k, r)))
    }

    /// Live rows whose column `column` equals `value`, read from a
    /// secondary index's entries alone (no primary-key look-up); `None`
    /// when no index covers `column`, so the caller scans. `window` names
    /// a column and an inclusive range of its numeric view: with an index
    /// ordered by that column only the rows in range are visited,
    /// otherwise the whole group is (a superset — the caller applies its
    /// own window test either way).
    ///
    /// `value` must have the variant the column declares: the index keys
    /// on `Value`'s total order, where `Int(5)` and `Uint(5)` differ.
    pub fn index_scan<'a>(
        &'a self,
        column: usize,
        value: &Value,
        window: Option<(usize, RangeInclusive<i128>)>,
    ) -> Option<impl Iterator<Item = (&'a Key, &'a Row)> + 'a> {
        let on_column = || self.indexes.iter().filter(|ix| ix.column() == column);
        let ordered = window
            .and_then(|(w, range)| Some((on_column().find(|ix| ix.order_by() == Some(w))?, range)));
        let (ix, range) = match ordered {
            Some(hit) => hit,
            None => (on_column().next()?, i128::MIN..=i128::MAX),
        };
        Some(ix.rows(value, range))
    }

    /// Number of stored row versions across all keys (for GC diagnostics).
    pub fn version_count(&self) -> usize {
        self.rows.values().map(|v| v.len()).sum()
    }

    /// Drops versions older than `horizon` that are shadowed by newer
    /// versions (snapshot reads below the horizon become unavailable).
    pub fn gc(&mut self, horizon: u64) {
        for versions in self.rows.values_mut() {
            // Keep the newest version <= horizon plus everything after it.
            if versions.newest.version <= horizon {
                versions.older.clear();
            } else if let Some(keep_from) =
                versions.older.iter().rposition(|rv| rv.version <= horizon)
            {
                versions.older.drain(..keep_from);
            }
        }
        self.rows
            .retain(|_, v| !(v.older.is_empty() && v.newest.row.is_none()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("worker", ColumnType::Str),
                Column::new("week", ColumnType::Uint),
                Column::new("hours", ColumnType::Uint),
                Column::nullable("note", ColumnType::Str),
            ],
            &["worker", "week"],
        )
        .unwrap()
    }

    fn row(worker: &str, week: u64, hours: u64) -> Row {
        Row::new(vec![worker.into(), week.into(), hours.into(), Value::Null])
    }

    #[test]
    fn schema_rejects_bad_definitions() {
        assert!(Schema::new(vec![Column::new("a", ColumnType::Int)], &[]).is_err());
        assert!(Schema::new(vec![Column::new("a", ColumnType::Int)], &["b"]).is_err());
        assert!(
            Schema::new(vec![Column::nullable("a", ColumnType::Int)], &["a"]).is_err(),
            "nullable key must be rejected"
        );
        assert!(Schema::new(
            vec![Column::new("a", ColumnType::Int), Column::new("a", ColumnType::Str)],
            &["a"]
        )
        .is_err());
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = Table::new(worker_schema());
        let key = t.insert(row("w1", 23, 38), 1).unwrap();
        assert_eq!(t.get(&key).unwrap().values[2], Value::Uint(38));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = Table::new(worker_schema());
        t.insert(row("w1", 23, 38), 1).unwrap();
        assert!(matches!(t.insert(row("w1", 23, 12), 2), Err(StorageError::DuplicateKey(_))));
    }

    #[test]
    fn schema_validation_on_insert() {
        let mut t = Table::new(worker_schema());
        // Wrong arity.
        assert!(t.insert(Row::new(vec!["w1".into()]), 1).is_err());
        // Wrong type.
        assert!(t
            .insert(Row::new(vec!["w1".into(), "x".into(), 38u64.into(), Value::Null]), 1)
            .is_err());
        // NULL in non-nullable.
        assert!(t
            .insert(Row::new(vec![Value::Null, 23u64.into(), 38u64.into(), Value::Null]), 1)
            .is_err());
        // NULL in nullable is fine.
        assert!(t.insert(row("w1", 23, 38), 1).is_ok());
    }

    #[test]
    fn update_and_delete() {
        let mut t = Table::new(worker_schema());
        let key = t.insert(row("w1", 23, 38), 1).unwrap();
        let old = t.update(&key, row("w1", 23, 40), 2).unwrap();
        assert_eq!(old.values[2], Value::Uint(38));
        assert_eq!(t.get(&key).unwrap().values[2], Value::Uint(40));
        let old = t.delete(&key, 3).unwrap();
        assert_eq!(old.values[2], Value::Uint(40));
        assert!(t.get(&key).is_none());
        assert_eq!(t.len(), 0);
        assert!(matches!(t.delete(&key, 4), Err(StorageError::NoSuchKey(_))));
    }

    #[test]
    fn update_cannot_change_key() {
        let mut t = Table::new(worker_schema());
        let key = t.insert(row("w1", 23, 38), 1).unwrap();
        assert!(t.update(&key, row("w2", 23, 38), 2).is_err());
    }

    #[test]
    fn mvcc_reads_past_versions() {
        let mut t = Table::new(worker_schema());
        let key = t.insert(row("w1", 23, 10), 1).unwrap();
        t.update(&key, row("w1", 23, 20), 5).unwrap();
        t.delete(&key, 9).unwrap();
        assert!(t.get_at(&key, 0).is_none());
        assert_eq!(t.get_at(&key, 1).unwrap().values[2], Value::Uint(10));
        assert_eq!(t.get_at(&key, 4).unwrap().values[2], Value::Uint(10));
        assert_eq!(t.get_at(&key, 5).unwrap().values[2], Value::Uint(20));
        assert_eq!(t.get_at(&key, 8).unwrap().values[2], Value::Uint(20));
        assert!(t.get_at(&key, 9).is_none());
        assert!(t.get_at(&key, 100).is_none());
    }

    #[test]
    fn scan_at_version() {
        let mut t = Table::new(worker_schema());
        t.insert(row("w1", 1, 10), 1).unwrap();
        t.insert(row("w2", 1, 20), 2).unwrap();
        t.insert(row("w3", 1, 30), 3).unwrap();
        assert_eq!(t.scan_at(2).count(), 2);
        assert_eq!(t.scan_at(3).count(), 3);
        assert_eq!(t.scan().count(), 3);
    }

    /// Keys `index_scan` yields for `hours = value`, optionally narrowed
    /// to `week` in `range`; panics if no index applies.
    fn scan_keys(t: &Table, hours: u64, week: Option<RangeInclusive<i128>>) -> Vec<Key> {
        t.index_scan(2, &Value::Uint(hours), week.map(|r| (1, r)))
            .expect("an index on hours")
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn key(worker: &str, week: u64) -> Key {
        Key(vec![worker.into(), week.into()])
    }

    #[test]
    fn index_lookup_and_maintenance() {
        let mut t = Table::new(worker_schema());
        assert!(t.index_scan(2, &Value::Uint(10), None).is_none(), "no index: caller scans");
        t.create_index("hours", None).unwrap();
        let k1 = t.insert(row("w1", 1, 10), 1).unwrap();
        t.insert(row("w2", 1, 10), 2).unwrap();
        t.insert(row("w3", 1, 30), 3).unwrap();
        assert_eq!(scan_keys(&t, 10, None).len(), 2);
        t.update(&k1, row("w1", 1, 30), 4).unwrap();
        assert_eq!(scan_keys(&t, 10, None), vec![key("w2", 1)]);
        assert_eq!(scan_keys(&t, 30, None).len(), 2);
        t.delete(&k1, 5).unwrap();
        assert_eq!(scan_keys(&t, 30, None), vec![key("w3", 1)]);
        // An unordered index still answers a windowed probe — with the
        // whole group; the caller's window test narrows it.
        assert_eq!(scan_keys(&t, 30, Some(100..=200)), vec![key("w3", 1)]);
    }

    /// A table whose primary key is `id` alone, so group and ordering
    /// columns are both free to change on update.
    fn tasks() -> Table {
        Table::new(
            Schema::new(
                vec![
                    Column::new("id", ColumnType::Uint),
                    Column::new("worker", ColumnType::Str),
                    Column::new("ts", ColumnType::Timestamp),
                    Column::nullable("note", ColumnType::Uint),
                ],
                &["id"],
            )
            .unwrap(),
        )
    }

    fn task(id: u64, worker: &str, ts: u64) -> Row {
        Row::new(vec![id.into(), worker.into(), Value::Timestamp(ts), Value::Null])
    }

    fn ids(t: &Table, worker: &str, range: RangeInclusive<i128>) -> Vec<u64> {
        t.index_scan(1, &worker.into(), Some((2, range)))
            .expect("an index on worker")
            .map(|(_, r)| r.values[0].as_i128().unwrap() as u64)
            .collect()
    }

    #[test]
    fn ordered_index_follows_updates_and_deletes() {
        let mut t = tasks();
        t.create_index("worker", Some("ts")).unwrap();
        for (id, w, ts) in [(1, "a", 0), (2, "a", 50), (3, "a", 90), (4, "b", 50)] {
            t.insert(task(id, w, ts), id).unwrap();
        }
        assert_eq!(ids(&t, "a", 1..=100), vec![2, 3]);
        // (anchor − d, anchor] with anchor < d: the lower bound is negative
        // and the row at ts = 0 is inside.
        assert_eq!(ids(&t, "a", -49..=50), vec![1, 2]);
        let k = |id: u64| Key(vec![id.into()]);
        // Ordering column changes: the row moves inside its group.
        t.update(&k(1), task(1, "a", 95), 5).unwrap();
        assert_eq!(ids(&t, "a", 1..=100), vec![2, 3, 1]);
        // Group changes: it leaves one group and joins the other.
        t.update(&k(2), task(2, "b", 50), 6).unwrap();
        assert_eq!(ids(&t, "a", 1..=100), vec![3, 1]);
        assert_eq!(ids(&t, "b", 1..=100), vec![2, 4], "ties order by key");
        // Both change at once.
        t.update(&k(3), task(3, "b", 10), 7).unwrap();
        assert_eq!(ids(&t, "a", 1..=100), vec![1]);
        assert_eq!(ids(&t, "b", 1..=100), vec![3, 2, 4]);
        t.delete(&k(2), 8).unwrap();
        t.delete(&k(1), 9).unwrap();
        assert_eq!(ids(&t, "b", 1..=100), vec![3, 4]);
        assert!(ids(&t, "a", i128::MIN..=i128::MAX).is_empty());
        // Re-inserting a deleted key indexes the new row.
        t.insert(task(1, "a", 7), 10).unwrap();
        assert_eq!(ids(&t, "a", 1..=100), vec![1]);
    }

    #[test]
    fn index_created_after_rows_exist_and_recreated() {
        let mut t = tasks();
        t.insert(task(1, "a", 10), 1).unwrap();
        t.insert(task(2, "a", 20), 2).unwrap();
        t.insert(task(3, "gone", 20), 3).unwrap();
        t.delete(&Key(vec![3u64.into()]), 4).unwrap();
        t.create_index("worker", Some("ts")).unwrap();
        assert_eq!(ids(&t, "a", 15..=25), vec![2]);
        assert!(ids(&t, "gone", 0..=100).is_empty(), "only live rows are indexed");
        // Re-creating the same index, or the unordered one it already
        // serves, changes nothing.
        t.create_index("worker", Some("ts")).unwrap();
        t.create_index("worker", None).unwrap();
        assert_eq!(t.indexes.len(), 1);
        t.insert(task(4, "a", 16), 5).unwrap();
        assert_eq!(ids(&t, "a", 15..=25), vec![4, 2]);
        // An ordered index on top of an unordered one is a second index.
        let mut u = tasks();
        u.create_index("worker", None).unwrap();
        u.create_index("worker", Some("ts")).unwrap();
        assert_eq!(u.indexes.len(), 2);
    }

    /// The indexes the bulk-build test compares, `note` being nullable.
    const INDEXES: [(&str, Option<&str>); 3] = [("worker", Some("ts")), ("note", None), ("ts", None)];

    proptest::proptest! {
        /// An index built in one pass over a table's rows is, entry for
        /// entry, the index inserts, updates and deletes maintained over
        /// the same stream — version chains and tombstones included.
        #[test]
        fn a_bulk_built_index_equals_the_maintained_one(
            ops in proptest::collection::vec(
                (0u64..12, 0u8..4, 0u64..6, 0u64..4, 0u8..5),
                1..60,
            ),
        ) {
            let mut maintained = tasks();
            for (column, order) in INDEXES {
                maintained.create_index(column, order).unwrap();
            }
            let mut bulk = tasks();
            for (version, (id, worker, ts, note, kind)) in (1..).zip(ops) {
                let key = Key(vec![id.into()]);
                for t in [&mut maintained, &mut bulk] {
                    let row = Row::new(vec![
                        id.into(),
                        format!("w{worker}").into(),
                        Value::Timestamp(50 * ts),
                        if note == 3 { Value::Null } else { Value::Uint(note) },
                    ]);
                    let _ = match (kind, t.get(&key).is_some()) {
                        (0, _) => t.delete(&key, version).map(|_| ()),
                        (_, true) => t.update(&key, row, version).map(|_| ()),
                        (_, false) => t.insert(row, version).map(|_| ()),
                    };
                }
            }
            for (column, order) in INDEXES {
                bulk.create_index(column, order).unwrap();
            }
            proptest::prop_assert_eq!(&bulk.indexes, &maintained.indexes);
        }
    }

    #[test]
    fn index_reads_do_no_key_lookups() {
        let mut t = tasks();
        t.create_index("worker", Some("ts")).unwrap();
        for id in 0..20 {
            t.insert(task(id, ["a", "b"][id as usize % 2], 10 * id), id).unwrap();
        }
        let (read, work) = work::measure(|| ids(&t, "a", 0..=100));
        assert_eq!(read, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(work[Unit::KeyLookup], 0);
        let work = work::measure(|| t.get(&Key(vec![3u64.into()])).unwrap()).1;
        assert_eq!(work[Unit::KeyLookup], 1, "the counter sees a look-up");
    }

    #[test]
    fn ordering_column_must_be_numeric_and_non_nullable() {
        let mut t = tasks();
        assert!(t.create_index("ts", Some("worker")).is_err());
        assert!(t.create_index("worker", Some("note")).is_err());
        assert!(t.create_index("worker", Some("nope")).is_err());
        assert!(t.create_index("nope", None).is_err());
        assert!(t.indexes.is_empty());
    }

    #[test]
    fn gc_drops_shadowed_versions() {
        let mut t = Table::new(worker_schema());
        let key = t.insert(row("w1", 1, 10), 1).unwrap();
        for v in 2..10 {
            t.update(&key, row("w1", 1, 10 + v), v).unwrap();
        }
        assert_eq!(t.version_count(), 9);
        t.gc(8);
        assert!(t.version_count() <= 2);
        // Latest still readable.
        assert_eq!(t.get(&key).unwrap().values[2], Value::Uint(19));
    }

    #[test]
    fn gc_removes_fully_deleted_keys() {
        let mut t = Table::new(worker_schema());
        let key = t.insert(row("w1", 1, 10), 1).unwrap();
        t.delete(&key, 2).unwrap();
        t.gc(10);
        assert_eq!(t.version_count(), 0);
    }
}
