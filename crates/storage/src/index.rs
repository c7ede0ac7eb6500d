//! Secondary indexes: column value → the live rows holding it, optionally
//! ordered by a second (numeric) column within each value.

use crate::table::{Key, Row};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::ops::{Bound, RangeInclusive};
use std::sync::Arc;

/// One value's entries: `(ordering value, primary key)` → the live row.
type Group = BTreeMap<(i128, Key), Arc<Row>>;

/// One entry of a [`Group`].
type Entry = ((i128, Key), Arc<Row>);

/// A secondary index over one column.
///
/// With an ordering column the rows of one value — one *group* — sort by
/// that column's numeric view, so "this worker's tasks of the last week"
/// is a range inside the group instead of the whole group. Each entry
/// holds the live row itself (shared with the table's version chain), so
/// a read through the index never goes back to the primary map.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SecondaryIndex {
    column: usize,
    order_by: Option<usize>,
    /// Per value: `(ordering value, key)` → row; the ordering value is 0
    /// throughout when there is no ordering column.
    map: BTreeMap<Value, Group>,
}

impl SecondaryIndex {
    /// Creates an empty index over schema column `column`, each group
    /// ordered by schema column `order_by` if given. The ordering column
    /// must hold numeric, non-NULL values ([`Table::create_index`]
    /// checks the schema).
    ///
    /// [`Table::create_index`]: crate::Table::create_index
    pub fn new(column: usize, order_by: Option<usize>) -> Self {
        SecondaryIndex {
            column,
            order_by,
            map: BTreeMap::new(),
        }
    }

    /// The index [`SecondaryIndex::new`] would reach by inserting `rows`
    /// (each live row under its key, in any order), built in one pass:
    /// each group's entries are collected, then bulk-loaded sorted. Rows
    /// are grouped by hash, not in an ordered map: finding a row's group
    /// among hundreds by comparison was half of the build.
    pub fn build<'a>(
        column: usize,
        order_by: Option<usize>,
        rows: impl IntoIterator<Item = (&'a Key, &'a Arc<Row>)>,
    ) -> Self {
        let mut ix = SecondaryIndex::new(column, order_by);
        let mut groups: HashMap<&Value, Vec<Entry>> = HashMap::new();
        for (key, row) in rows {
            let entry = ((ix.order_of(row), key.clone()), Arc::clone(row));
            groups.entry(&row.values[column]).or_default().push(entry);
        }
        ix.map = groups
            .into_iter()
            .map(|(value, entries)| (value.clone(), Group::from_iter(entries)))
            .collect();
        ix
    }

    /// The indexed column position.
    pub fn column(&self) -> usize {
        self.column
    }

    /// The ordering column position, if any.
    pub fn order_by(&self) -> Option<usize> {
        self.order_by
    }

    fn order_of(&self, row: &Row) -> i128 {
        self.order_by.map_or(0, |c| {
            row.values[c]
                .as_i128()
                .expect("schema check: ordering column is numeric and non-NULL")
        })
    }

    /// Adds the entry for `row`, stored under `key`.
    pub fn insert(&mut self, row: &Arc<Row>, key: Key) {
        let entry = (self.order_of(row), key);
        let value = &row.values[self.column];
        // Not `entry(value.clone())`: that clones the group value (a heap
        // `String` for a worker name) even when the group exists.
        match self.map.get_mut(value) {
            Some(group) => {
                group.insert(entry, Arc::clone(row));
            }
            None => {
                self.map
                    .insert(value.clone(), Group::from([(entry, Arc::clone(row))]));
            }
        }
    }

    /// Removes the entry for `row`, stored under `key`.
    pub fn remove(&mut self, row: &Row, key: Key) {
        let value = &row.values[self.column];
        let order = self.order_of(row);
        if let Some(group) = self.map.get_mut(value) {
            group.remove(&(order, key));
            if group.is_empty() {
                self.map.remove(value);
            }
        }
    }

    /// The rows whose column equals `value` and whose ordering value lies
    /// in `order`, with their keys, in (ordering value, key) order;
    /// `i128::MIN..=i128::MAX` is the whole group. Borrows from the index:
    /// nothing is cloned and no other map is read.
    pub fn rows<'a>(
        &'a self,
        value: &Value,
        order: RangeInclusive<i128>,
    ) -> impl Iterator<Item = (&'a Key, &'a Row)> + 'a {
        // `Key(vec![])` sorts before every real key and owns no heap.
        let lo = (*order.start(), Key(Vec::new()));
        let hi = match order.end().checked_add(1) {
            Some(next) => Bound::Excluded((next, Key(Vec::new()))),
            None => Bound::Unbounded,
        };
        self.map
            .get(value)
            // `BTreeMap::range` panics on an inverted range; it is empty.
            .filter(|_| order.start() <= order.end())
            .map(|group| group.range((Bound::Included(lo), hi)))
            .into_iter()
            .flatten()
            .map(|((_, key), row)| (key, &**row))
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: RangeInclusive<i128> = i128::MIN..=i128::MAX;

    fn key(s: &str) -> Key {
        Key(vec![Value::Str(s.into())])
    }

    /// (group, ts) rows; the index is over column 0 ordered by column 1.
    fn row(group: u64, ts: u64) -> Arc<Row> {
        Arc::new(Row::new(vec![Value::Uint(group), Value::Timestamp(ts)]))
    }

    fn keys(ix: &SecondaryIndex, group: u64, order: RangeInclusive<i128>) -> Vec<Key> {
        ix.rows(&Value::Uint(group), order).map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn insert_get_remove() {
        let mut ix = SecondaryIndex::new(0, None);
        ix.insert(&row(10, 0), key("a"));
        ix.insert(&row(10, 0), key("b"));
        ix.insert(&row(20, 0), key("c"));
        assert_eq!(keys(&ix, 10, ALL).len(), 2);
        assert_eq!(ix.distinct_values(), 2);
        ix.remove(&row(10, 0), key("a"));
        assert_eq!(keys(&ix, 10, ALL), vec![key("b")]);
        ix.remove(&row(10, 0), key("b"));
        assert_eq!(ix.distinct_values(), 1);
        // Removing a missing entry is a no-op.
        ix.remove(&row(99, 0), key("zz"));
        assert!(keys(&ix, 99, ALL).is_empty());
    }

    #[test]
    fn entries_carry_the_row() {
        let mut ix = SecondaryIndex::new(0, Some(1));
        let r = row(1, 7);
        ix.insert(&r, key("a"));
        let got: Vec<_> = ix.rows(&Value::Uint(1), ALL).collect();
        assert_eq!(got, vec![(&key("a"), &*r)]);
        assert!(std::ptr::eq(got[0].1, &*r), "shared, not copied");
    }

    #[test]
    fn ordered_range_within_a_group() {
        let mut ix = SecondaryIndex::new(0, Some(1));
        for (i, ts) in [5u64, 10, 15, 20].iter().enumerate() {
            ix.insert(&row(1, *ts), key(&format!("k{i}")));
        }
        ix.insert(&row(2, 12), key("other"));
        assert_eq!(keys(&ix, 1, 10..=15), vec![key("k1"), key("k2")]);
        assert_eq!(keys(&ix, 1, 0..=100).len(), 4);
        assert!(keys(&ix, 1, 6..=9).is_empty());
        // A negative lower bound (anchor < window length) is just a range.
        assert_eq!(keys(&ix, 1, -604_700..=5), vec![key("k0")]);
        // Inverted and extreme ranges are empty or whole, never a panic.
        let (lo, hi) = (15, 10);
        assert!(keys(&ix, 1, lo..=hi).is_empty());
        assert_eq!(keys(&ix, 1, ALL).len(), 4);
        // Same ordering value: ties break by key.
        ix.insert(&row(1, 10), key("a-tie"));
        assert_eq!(keys(&ix, 1, 10..=10), vec![key("a-tie"), key("k1")]);
    }
}
