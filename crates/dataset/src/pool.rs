//! The shared value pool: every distinct attribute value is stored exactly
//! once and referred to by a compact, copyable [`ValueId`].
//!
//! # Why interning
//!
//! MLNClean's Stage-I cost is dominated by comparing and regrouping attribute
//! values: the two-layer MLN index groups tuples by projected value vectors,
//! AGP/RSC compare γs by string distance, and the distributed runner ships
//! rows between workers.  Interning turns all equality work into `u32`
//! compares, makes group keys cheaply `Ord`/`Hash`, and lets distance results
//! be cached per *value pair* instead of per *occurrence pair*.
//!
//! # Id stability under in-place repairs
//!
//! Ids are assigned densely in first-appearance order and are **never reused
//! or renumbered**.  A repair that rewrites a cell (e.g. `DOTH → DOTHAN`)
//! only swaps which id the cell stores; the old value stays in the pool so
//! every previously handed-out `ValueId` (in γs, provenance records, cached
//! distances, partition snapshots) remains valid for the lifetime of the
//! pool.  New values introduced by a repair are appended, so a pool snapshot
//! taken at time *t* agrees with any later version of the same pool on all
//! ids below its length — the invariant the distributed gather phase relies
//! on.
//!
//! # Concurrency
//!
//! Lookups ([`ValuePool::resolve`], [`ValuePool::lookup`]) take `&self` and
//! touch no interior mutability, so a pool shared behind a `&` reference can
//! be read lock-free from any number of worker threads (the values are
//! `Arc<str>`, making clones of the pool cheap snapshots that share the
//! underlying string storage).  Interning requires `&mut self`;
//! [`ValuePool::intern_all`] batches it for whole rows or columns.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of an interned value within a [`ValuePool`].
///
/// Ids are dense (`0..pool.len()`), stable for the lifetime of the pool, and
/// ordered by first appearance — **not** lexicographically.  Code that needs
/// string order (e.g. the deterministic group ordering of the MLN index)
/// must resolve and compare the strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The raw index of this value in its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An append-only interner mapping strings to stable [`ValueId`]s.
#[derive(Clone, Default)]
pub struct ValuePool {
    values: Vec<Arc<str>>,
    by_value: HashMap<Arc<str>, ValueId>,
}

impl fmt::Debug for ValuePool {
    /// Deterministic output: only the id-ordered value list (the reverse map
    /// is derived state whose hash order would make equal pools format
    /// differently).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ValuePool")
            .field("values", &self.values)
            .finish()
    }
}

impl ValuePool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty pool sized for roughly `capacity` distinct values.
    pub fn with_capacity(capacity: usize) -> Self {
        ValuePool {
            values: Vec::with_capacity(capacity),
            by_value: HashMap::with_capacity(capacity),
        }
    }

    /// Intern `value`, returning its id (existing or newly assigned).
    pub fn intern(&mut self, value: &str) -> ValueId {
        if let Some(&id) = self.by_value.get(value) {
            return id;
        }
        let arc: Arc<str> = Arc::from(value);
        let id = ValueId(
            u32::try_from(self.values.len()).expect("value pool overflow (>4G distinct values)"),
        );
        self.values.push(Arc::clone(&arc));
        self.by_value.insert(arc, id);
        id
    }

    /// Catch this pool up to an append-only descendant of itself by copying
    /// the descendant's tail of new values.
    ///
    /// Because ids are assigned densely in first-appearance order and never
    /// renumbered, a snapshot taken at time *t* agrees with any later version
    /// of the same pool on all ids below its length — so syncing is a pure
    /// append of `Arc<str>` clones (no re-hashing of the shared prefix, no
    /// clone of the whole map).  This is what lets long-lived sessions keep
    /// a pool snapshot (the cleaned index's) in step with the dirty
    /// dataset's pool at O(new values) per change set instead of an O(pool)
    /// clone.
    pub fn sync_from(&mut self, descendant: &ValuePool) {
        debug_assert!(
            descendant.values.len() >= self.values.len(),
            "sync_from target must be an append-only descendant"
        );
        for value in &descendant.values[self.values.len()..] {
            let id = ValueId(
                u32::try_from(self.values.len())
                    .expect("value pool overflow (>4G distinct values)"),
            );
            self.values.push(Arc::clone(value));
            self.by_value.insert(Arc::clone(value), id);
        }
    }

    /// Intern a batch of values, returning their ids in order (a convenience
    /// over calling [`ValuePool::intern`] per value — same cost, one hash
    /// probe per value).
    pub fn intern_all<I, S>(&mut self, values: I) -> Vec<ValueId>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        values
            .into_iter()
            .map(|v| self.intern(v.as_ref()))
            .collect()
    }

    /// Look up a value without interning it.
    pub fn lookup(&self, value: &str) -> Option<ValueId> {
        self.by_value.get(value).copied()
    }

    /// The string behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this pool (or a snapshot ancestor of
    /// it).
    pub fn resolve(&self, id: ValueId) -> &str {
        &self.values[id.index()]
    }

    /// The string behind `id`, or `None` if the id is out of range.
    pub fn get(&self, id: ValueId) -> Option<&str> {
        self.values.get(id.index()).map(|s| &**s)
    }

    /// Resolve a slice of ids in order.
    pub fn resolve_all<'p>(&'p self, ids: &[ValueId]) -> Vec<&'p str> {
        ids.iter().map(|&id| self.resolve(id)).collect()
    }

    /// Whether `id` is in range for this pool.  This is a pure index-range
    /// check: it cannot tell an id issued by this pool from one issued by an
    /// unrelated pool that happens to be at least as large — callers moving
    /// ids between pools must guarantee a shared snapshot ancestry themselves
    /// (as the distributed gather phase does with its prefix-length bound).
    pub fn contains(&self, id: ValueId) -> bool {
        id.index() < self.values.len()
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total bytes of distinct string payload held by the pool (the
    /// memory-side statistic the bench smoke run records).
    pub fn string_bytes(&self) -> usize {
        self.values.iter().map(|v| v.len()).sum()
    }

    /// Iterate over `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), &**v))
    }
}

impl PartialEq for ValuePool {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for ValuePool {}

/// Serialized as the id-ordered value list only; the reverse map is derived
/// state and is rebuilt on deserialization.  Because ids are dense in
/// first-appearance order and the stored list is duplicate-free, re-interning
/// the list reassigns every value its original id, so the round trip is
/// exact.
impl Serialize for ValuePool {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeSeq;
        let mut seq = serializer.serialize_seq(Some(self.values.len()))?;
        for value in &self.values {
            seq.serialize_element(&**value)?;
        }
        seq.end()
    }
}

impl<'de> Deserialize<'de> for ValuePool {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let values = Vec::<String>::deserialize(deserializer)?;
        let mut pool = ValuePool::with_capacity(values.len());
        for value in &values {
            pool.intern(value);
        }
        if pool.len() != values.len() {
            return Err(serde::de::Error::custom(
                "value pool payload contains duplicate values",
            ));
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut pool = ValuePool::new();
        let a = pool.intern("DOTHAN");
        let b = pool.intern("BOAZ");
        assert_eq!(a, ValueId(0));
        assert_eq!(b, ValueId(1));
        assert_eq!(pool.intern("DOTHAN"), a);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.resolve(a), "DOTHAN");
        assert_eq!(pool.lookup("BOAZ"), Some(b));
        assert_eq!(pool.lookup("AL"), None);
    }

    #[test]
    fn batch_interning_matches_sequential() {
        let mut batch = ValuePool::new();
        let ids = batch.intern_all(["a", "b", "a", "c"]);
        let mut seq = ValuePool::new();
        let expected: Vec<ValueId> = ["a", "b", "a", "c"].iter().map(|v| seq.intern(v)).collect();
        assert_eq!(ids, expected);
        assert_eq!(batch, seq);
    }

    #[test]
    fn snapshot_clone_shares_ids() {
        let mut pool = ValuePool::new();
        let a = pool.intern("AL");
        let snapshot = pool.clone();
        let b = pool.intern("AK"); // extends the original only
        assert_eq!(snapshot.resolve(a), "AL");
        assert!(snapshot.contains(a));
        assert!(!snapshot.contains(b));
        assert_eq!(pool.resolve(b), "AK");
    }

    #[test]
    fn iter_is_in_id_order() {
        let mut pool = ValuePool::new();
        pool.intern_all(["x", "y", "z"]);
        let pairs: Vec<(ValueId, &str)> = pool.iter().collect();
        assert_eq!(
            pairs,
            vec![(ValueId(0), "x"), (ValueId(1), "y"), (ValueId(2), "z")]
        );
        assert_eq!(pool.string_bytes(), 3);
    }

    proptest! {
        #[test]
        fn intern_resolve_round_trips(values in proptest::collection::vec("\\PC{0,24}", 0..64)) {
            let mut pool = ValuePool::new();
            let ids: Vec<ValueId> = values.iter().map(|v| pool.intern(v)).collect();
            // Round-trip: every id resolves back to exactly the interned string.
            for (value, id) in values.iter().zip(&ids) {
                prop_assert_eq!(pool.resolve(*id), value.as_str());
                prop_assert_eq!(pool.lookup(value), Some(*id));
            }
            // Injectivity: equal strings share an id, distinct strings never do.
            for (i, a) in values.iter().enumerate() {
                for (j, b) in values.iter().enumerate() {
                    prop_assert_eq!(ids[i] == ids[j], a == b, "{} vs {}", i, j);
                }
            }
            // Density: ids cover 0..distinct-count.
            let distinct: std::collections::BTreeSet<&String> = values.iter().collect();
            prop_assert_eq!(pool.len(), distinct.len());
        }
    }
}
