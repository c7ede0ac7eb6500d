//! The database: named tables, a global version counter, snapshots, and
//! the change log the ledger layer consumes.

use crate::table::{Key, Row, Schema, Table};
use crate::value::Value;
use crate::{Result, StorageError};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a change did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// Row inserted.
    Insert,
    /// Row replaced (old row retained in `before`).
    Update,
    /// Row deleted (old row retained in `before`).
    Delete,
}

/// One entry of the change log — the unit the ledger journals (RC4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChangeRecord {
    /// Database version this change created.
    pub version: u64,
    /// Table changed.
    pub table: String,
    /// Primary key affected.
    pub key: Key,
    /// Change kind.
    pub kind: ChangeKind,
    /// Prior row (updates and deletes).
    pub before: Option<Row>,
    /// New row (inserts and updates).
    pub after: Option<Row>,
}

impl ChangeRecord {
    /// Stable binary encoding, suitable for hashing into a ledger entry.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.version.to_be_bytes());
        out.extend_from_slice(&(self.table.len() as u64).to_be_bytes());
        out.extend_from_slice(self.table.as_bytes());
        out.push(match self.kind {
            ChangeKind::Insert => 0,
            ChangeKind::Update => 1,
            ChangeKind::Delete => 2,
        });
        out.extend_from_slice(&(self.key.0.len() as u64).to_be_bytes());
        for v in &self.key.0 {
            v.encode_into(&mut out);
        }
        for opt in [&self.before, &self.after] {
            match opt {
                None => out.push(0),
                Some(row) => {
                    out.push(1);
                    out.extend_from_slice(&row.encode());
                }
            }
        }
        out
    }

    /// Decodes a record from its [`ChangeRecord::encode`] form. The whole
    /// buffer must be consumed; any malformed field fails with
    /// [`StorageError::Decode`] rather than panicking, so journal bytes of
    /// unknown provenance can be parsed defensively.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        use crate::value::{take_len, take_slice, take_u64, take_u8};
        let mut pos = 0;
        let version = take_u64(buf, &mut pos, "change version")?;
        let table_len = take_len(buf, &mut pos, "change table length")?;
        let table_bytes = take_slice(buf, &mut pos, table_len, "change table name")?;
        let table = std::str::from_utf8(table_bytes)
            .map_err(|_| StorageError::Decode("change table name not UTF-8"))?
            .to_string();
        let kind = match take_u8(buf, &mut pos, "change kind")? {
            0 => ChangeKind::Insert,
            1 => ChangeKind::Update,
            2 => ChangeKind::Delete,
            _ => return Err(StorageError::Decode("unknown change kind")),
        };
        let key_count = take_u64(buf, &mut pos, "change key count")?;
        if key_count > (buf.len() - pos) as u64 {
            return Err(StorageError::Decode("change key count exceeds buffer"));
        }
        let mut key = Vec::with_capacity(key_count as usize);
        for _ in 0..key_count {
            key.push(Value::decode_from(buf, &mut pos)?);
        }
        let opt_row = |pos: &mut usize| -> Result<Option<Row>> {
            match take_u8(buf, pos, "change row presence tag")? {
                0 => Ok(None),
                1 => Ok(Some(Row::decode_from(buf, pos)?)),
                _ => Err(StorageError::Decode("change row presence tag not 0/1")),
            }
        };
        let before = opt_row(&mut pos)?;
        let after = opt_row(&mut pos)?;
        if pos != buf.len() {
            return Err(StorageError::Decode("trailing bytes after change record"));
        }
        Ok(ChangeRecord { version, table, key: Key(key), kind, before, after })
    }
}

/// A versioned multi-table database.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    version: u64,
    change_log: Vec<ChangeRecord>,
    /// See [`Database::generation`].
    generation: u64,
}

/// Source of [`Database::generation`] stamps, shared by every database in
/// the process so that two databases share a stamp only by being clones.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Relaxed: the stamp publishes no other data; only its uniqueness counts.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Database {
    /// An empty database at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current version (increments on every mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A stamp of the database's *layout* — its tables, their schemas and
    /// their secondary indexes — not of its rows: it changes when a table
    /// or an index is created (or a table is borrowed mutably, which could
    /// do either), and never otherwise. Two databases with equal stamps
    /// have equal layouts, so whatever was worked out from one layout (a
    /// constraint's plan) stays valid while the stamp holds.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Creates a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        self.tables.insert(name.to_string(), Table::new(schema));
        self.generation = next_generation();
        Ok(())
    }

    /// [`Table::create_index`] on `table`, moving [`Database::generation`]
    /// only if an index was actually added — asking again for an index
    /// that exists leaves the layout, and every plan made for it, as is.
    pub fn create_index(&mut self, table: &str, column: &str, order_by: Option<&str>) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let before = t.index_count();
        t.create_index(column, order_by)?;
        if t.index_count() != before {
            self.generation = next_generation();
        }
        Ok(())
    }

    /// Returns a table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Returns a mutable table by name. The caller may create indexes
    /// through it, so this counts as a layout change
    /// ([`Database::generation`]); [`Database::create_index`] does not.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))?;
        self.generation = next_generation();
        Ok(table)
    }

    /// Inserts `row` into `table`; returns the change record.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<&ChangeRecord> {
        let next = self.version + 1;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let key = t.insert(row.clone(), next)?;
        self.version = next;
        self.change_log.push(ChangeRecord {
            version: next,
            table: table.to_string(),
            key,
            kind: ChangeKind::Insert,
            before: None,
            after: Some(row),
        });
        Ok(self.change_log.last().expect("just pushed"))
    }

    /// Replaces the row with `key` in `table`.
    pub fn update(&mut self, table: &str, key: &Key, row: Row) -> Result<&ChangeRecord> {
        let next = self.version + 1;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let old = t.update(key, row.clone(), next)?;
        self.version = next;
        self.change_log.push(ChangeRecord {
            version: next,
            table: table.to_string(),
            key: key.clone(),
            kind: ChangeKind::Update,
            before: Some(old),
            after: Some(row),
        });
        Ok(self.change_log.last().expect("just pushed"))
    }

    /// Inserts or replaces the row (by its own primary key).
    pub fn upsert(&mut self, table: &str, row: Row) -> Result<&ChangeRecord> {
        let key = {
            let t = self.table(table)?;
            t.schema().validate(&row)?;
            t.schema().key_of(&row)
        };
        if self.table(table)?.get(&key).is_some() {
            self.update(table, &key, row)
        } else {
            self.insert(table, row)
        }
    }

    /// Deletes the row with `key` from `table`.
    pub fn delete(&mut self, table: &str, key: &Key) -> Result<&ChangeRecord> {
        let next = self.version + 1;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let old = t.delete(key, next)?;
        self.version = next;
        self.change_log.push(ChangeRecord {
            version: next,
            table: table.to_string(),
            key: key.clone(),
            kind: ChangeKind::Delete,
            before: Some(old),
            after: None,
        });
        Ok(self.change_log.last().expect("just pushed"))
    }

    /// Convenience: live row by key.
    pub fn get(&self, table: &str, key: &Key) -> Result<Option<&Row>> {
        Ok(self.table(table)?.get(key))
    }

    /// A consistent snapshot at the current version.
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot { db: self, version: self.version }
    }

    /// A snapshot at a specific past version.
    pub fn snapshot_at(&self, version: u64) -> Result<Snapshot<'_>> {
        if version > self.version {
            return Err(StorageError::VersionOutOfRange {
                requested: version,
                current: self.version,
            });
        }
        Ok(Snapshot { db: self, version })
    }

    /// The full change log.
    pub fn change_log(&self) -> &[ChangeRecord] {
        &self.change_log
    }

    /// Change records with version > `after_version`.
    pub fn changes_since(&self, after_version: u64) -> &[ChangeRecord] {
        let start = self.change_log.partition_point(|c| c.version <= after_version);
        &self.change_log[start..]
    }
}

/// A read view of the database at a fixed version.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot<'a> {
    db: &'a Database,
    version: u64,
}

impl<'a> Snapshot<'a> {
    /// The snapshot's version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Row by key as of the snapshot.
    pub fn get(&self, table: &str, key: &Key) -> Result<Option<&'a Row>> {
        Ok(self.db.table(table)?.get_at(key, self.version))
    }

    /// All rows of `table` as of the snapshot.
    pub fn scan(&self, table: &str) -> Result<impl Iterator<Item = (&'a Key, &'a Row)>> {
        Ok(self.db.table(table)?.scan_at(self.version))
    }

    /// Rows of `table` whose column `column` equals `value`, through a
    /// secondary index ([`Table::index_scan`]). `None` when the table has
    /// no such index **or the snapshot is historical**: indexes describe
    /// the live table only, so an old snapshot must scan.
    pub fn index_scan(
        &self,
        table: &str,
        column: usize,
        value: &Value,
        window: Option<(usize, RangeInclusive<i128>)>,
    ) -> Result<Option<impl Iterator<Item = (&'a Key, &'a Row)> + 'a>> {
        if self.version != self.db.version() {
            return Ok(None);
        }
        Ok(self.db.table(table)?.index_scan(column, value, window))
    }

    /// The table's schema.
    pub fn schema(&self, table: &str) -> Result<&'a Schema> {
        Ok(self.db.table(table)?.schema())
    }

    /// The database's layout stamp ([`Database::generation`]); the same
    /// at every version, since layout is not versioned.
    pub fn generation(&self) -> u64 {
        self.db.generation()
    }

    /// True iff `table` keeps a secondary index on `column`: a fact of the
    /// layout, not of this version — [`Snapshot::index_scan`] still
    /// answers `None` on a historical snapshot.
    pub fn has_index(&self, table: &str, column: usize) -> Result<bool> {
        Ok(self.db.table(table)?.has_index(column))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, ColumnType};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "tasks",
            Schema::new(
                vec![
                    Column::new("id", ColumnType::Uint),
                    Column::new("worker", ColumnType::Str),
                    Column::new("hours", ColumnType::Uint),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn task(id: u64, worker: &str, hours: u64) -> Row {
        Row::new(vec![id.into(), worker.into(), hours.into()])
    }

    #[test]
    fn version_increments_per_mutation() {
        let mut d = db();
        assert_eq!(d.version(), 0);
        d.insert("tasks", task(1, "w1", 8)).unwrap();
        assert_eq!(d.version(), 1);
        let key = Key(vec![Value::Uint(1)]);
        d.update("tasks", &key, task(1, "w1", 9)).unwrap();
        assert_eq!(d.version(), 2);
        d.delete("tasks", &key).unwrap();
        assert_eq!(d.version(), 3);
    }

    #[test]
    fn failed_mutation_does_not_bump_version() {
        let mut d = db();
        d.insert("tasks", task(1, "w1", 8)).unwrap();
        let v = d.version();
        assert!(d.insert("tasks", task(1, "w2", 9)).is_err());
        assert!(d.insert("nope", task(2, "w2", 9)).is_err());
        assert_eq!(d.version(), v);
        assert_eq!(d.change_log().len(), 1);
    }

    #[test]
    fn change_log_records_everything() {
        let mut d = db();
        d.insert("tasks", task(1, "w1", 8)).unwrap();
        let key = Key(vec![Value::Uint(1)]);
        d.update("tasks", &key, task(1, "w1", 9)).unwrap();
        d.delete("tasks", &key).unwrap();
        let log = d.change_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].kind, ChangeKind::Insert);
        assert_eq!(log[0].before, None);
        assert_eq!(log[1].kind, ChangeKind::Update);
        assert_eq!(log[1].before.as_ref().unwrap().values[2], Value::Uint(8));
        assert_eq!(log[2].kind, ChangeKind::Delete);
        assert_eq!(log[2].after, None);
    }

    #[test]
    fn changes_since_partitions_correctly() {
        let mut d = db();
        for i in 1..=5 {
            d.insert("tasks", task(i, "w", i)).unwrap();
        }
        assert_eq!(d.changes_since(0).len(), 5);
        assert_eq!(d.changes_since(3).len(), 2);
        assert_eq!(d.changes_since(5).len(), 0);
        assert_eq!(d.changes_since(100).len(), 0);
    }

    #[test]
    fn snapshot_isolation() {
        let mut d = db();
        d.insert("tasks", task(1, "w1", 8)).unwrap();
        let v1 = d.version();
        d.insert("tasks", task(2, "w2", 9)).unwrap();
        let snap_old = d.snapshot_at(v1).unwrap();
        let snap_new = d.snapshot();
        assert_eq!(snap_old.scan("tasks").unwrap().count(), 1);
        assert_eq!(snap_new.scan("tasks").unwrap().count(), 2);
        assert!(d.snapshot_at(99).is_err());
    }

    #[test]
    fn index_scan_serves_the_live_snapshot_only() {
        let mut d = db();
        d.table_mut("tasks").unwrap().create_index("worker", None).unwrap();
        d.insert("tasks", task(1, "w1", 8)).unwrap();
        let v1 = d.version();
        d.insert("tasks", task(2, "w1", 9)).unwrap();
        let w1 = Value::Str("w1".into());
        assert_eq!(d.snapshot().index_scan("tasks", 1, &w1, None).unwrap().unwrap().count(), 2);
        // The index already holds row 2, which v1 must not see.
        assert!(d.snapshot_at(v1).unwrap().index_scan("tasks", 1, &w1, None).unwrap().is_none());
        let latest = d.snapshot_at(d.version()).unwrap();
        assert!(latest.index_scan("tasks", 1, &w1, None).unwrap().is_some());
        assert!(d.snapshot().index_scan("tasks", 2, &Value::Uint(8), None).unwrap().is_none());
        assert!(d.snapshot().index_scan("nope", 0, &w1, None).is_err());
    }

    #[test]
    fn generation_moves_with_the_layout_only() {
        let mut d = db();
        let g = d.generation();
        assert_ne!(g, Database::new().generation(), "a table is a layout change");
        d.insert("tasks", task(1, "w1", 8)).unwrap();
        d.upsert("tasks", task(1, "w1", 9)).unwrap();
        d.delete("tasks", &Key(vec![Value::Uint(1)])).unwrap();
        assert_eq!(d.generation(), g, "rows are not layout");
        let clone = d.clone();
        assert_eq!(clone.generation(), g, "a clone has the same layout");

        d.create_index("tasks", "worker", None).unwrap();
        let indexed = d.generation();
        assert_ne!(indexed, g);
        d.create_index("tasks", "worker", None).unwrap();
        assert!(d.create_index("tasks", "nope", None).is_err());
        assert!(d.create_index("nope", "worker", None).is_err());
        assert_eq!(d.generation(), indexed, "no index added, no change");
        assert!(d.snapshot().has_index("tasks", 1).unwrap());
        assert!(!d.snapshot().has_index("tasks", 2).unwrap());
        assert!(d.snapshot().has_index("nope", 1).is_err());
        assert_eq!(d.snapshot_at(0).unwrap().generation(), indexed, "layout is not versioned");

        d.table_mut("tasks").unwrap();
        assert_ne!(d.generation(), indexed, "a mutable borrow may change the layout");
        assert_eq!(clone.generation(), g, "and the clone's is its own");
        assert!(!clone.snapshot().has_index("tasks", 1).unwrap());
    }

    #[test]
    fn upsert_inserts_then_updates() {
        let mut d = db();
        d.upsert("tasks", task(1, "w1", 8)).unwrap();
        d.upsert("tasks", task(1, "w1", 10)).unwrap();
        let key = Key(vec![Value::Uint(1)]);
        assert_eq!(d.get("tasks", &key).unwrap().unwrap().values[2], Value::Uint(10));
        assert_eq!(d.change_log()[1].kind, ChangeKind::Update);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut d = db();
        let schema = Schema::new(vec![Column::new("a", ColumnType::Int)], &["a"]).unwrap();
        assert!(matches!(d.create_table("tasks", schema), Err(StorageError::TableExists(_))));
    }

    #[test]
    fn change_record_encoding_is_stable_and_distinct() {
        let mut d = db();
        d.insert("tasks", task(1, "w1", 8)).unwrap();
        d.insert("tasks", task(2, "w1", 8)).unwrap();
        let log = d.change_log();
        assert_ne!(log[0].encode(), log[1].encode());
        assert_eq!(log[0].encode(), log[0].encode());
    }

    #[test]
    fn change_record_decode_inverts_encode_for_every_kind() {
        let mut d = db();
        d.insert("tasks", task(1, "w1", 8)).unwrap();
        let key = Key(vec![Value::Uint(1)]);
        d.update("tasks", &key, task(1, "w1", 9)).unwrap();
        d.delete("tasks", &key).unwrap();
        for record in d.change_log() {
            let decoded = ChangeRecord::decode(&record.encode()).unwrap();
            assert_eq!(&decoded, record);
        }
    }

    #[test]
    fn change_record_decode_rejects_malformed_input() {
        let mut d = db();
        d.insert("tasks", task(1, "w1", 8)).unwrap();
        let good = d.change_log()[0].encode();

        // Every truncation fails (never panics, never succeeds).
        for cut in 0..good.len() {
            assert!(ChangeRecord::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage fails.
        let mut extended = good.clone();
        extended.push(0);
        assert!(ChangeRecord::decode(&extended).is_err());
        // Unknown change kind fails. The kind byte sits right after the
        // version and length-prefixed table name.
        let kind_at = 8 + 8 + d.change_log()[0].table.len();
        let mut bad_kind = good.clone();
        bad_kind[kind_at] = 9;
        assert!(ChangeRecord::decode(&bad_kind).is_err());
        // A hostile length prefix (huge table length) fails cleanly.
        let mut bad_len = good;
        bad_len[8..16].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(ChangeRecord::decode(&bad_len).is_err());
    }
}
