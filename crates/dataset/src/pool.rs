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
//! # Concurrency and cost
//!
//! A run holds **one** id → string table however many datasets, index
//! snapshots and reports name it: the table sits behind an `Arc`, the
//! string → id reverse map behind its own, and the map exists only in pools
//! that were asked to [`ValuePool::intern`] or [`ValuePool::lookup`].  What
//! each operation costs:
//!
//! * `clone()` — two reference-count bumps, whatever the pool holds.
//! * [`ValuePool::intern`] of a value already present — one hash probe,
//!   read-only.  Of a new value — an append; the first one after a `clone()`
//!   (while the other handle lives) first copies the handle's table and map,
//!   once, after which the handle owns its storage again.
//! * [`ValuePool::sync_from`] into an **empty** snapshot — adopts the
//!   descendant's table, O(1), no map.  Into a non-empty one — appends the
//!   new tail, O(new values), after at most one copy of a table it still
//!   shares.  Neither hashes a string.
//! * The first [`ValuePool::lookup`] (or `intern`) on a pool without a map —
//!   a snapshot, a deserialised or adopted table — builds it, O(pool).
//!   [`ValuePool::resolve`] / [`ValuePool::get`] never need it.
//!
//! Lookups take `&self` (the lazy map build is a `OnceLock`), so a pool
//! shared behind a `&` reference can be read from any number of worker
//! threads; the type is `Send + Sync`.  Interning requires `&mut self`;
//! [`ValuePool::intern_all`] batches it for whole rows or columns.

use mlnw::{CodecError, Decode, Decoder, Encode, Encoder};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of an interned value within a [`ValuePool`].
///
/// Ids are dense (`0..pool.len()`), stable for the lifetime of the pool, and
/// ordered by first appearance — **not** lexicographically.  Code that needs
/// string order (e.g. the deterministic group ordering of the MLN index)
/// must resolve and compare the strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

mlnw::codec! { struct ValueId { 0 } }

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
///
/// Clones share storage until one of them interns a new value (see the
/// [module docs](self) for the cost of each operation).
#[derive(Clone, Default)]
pub struct ValuePool {
    /// The id → string table, copied on a write while shared.
    values: Arc<Vec<Arc<str>>>,
    /// The string → id reverse map of `values`: derived state, built by the
    /// first `intern` / `lookup` and copied on a write while shared.
    by_value: OnceLock<Arc<ReverseMap>>,
}

type ReverseMap = HashMap<Arc<str>, ValueId>;

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
            values: Arc::new(Vec::with_capacity(capacity)),
            by_value: OnceLock::from(Arc::new(HashMap::with_capacity(capacity))),
        }
    }

    /// The reverse map, built from the table on first use.
    fn reverse_map(&self) -> &Arc<ReverseMap> {
        self.by_value.get_or_init(|| {
            let mut by_value = HashMap::with_capacity(self.values.len());
            for (i, value) in self.values.iter().enumerate() {
                by_value.insert(Arc::clone(value), ValueId(i as u32));
            }
            Arc::new(by_value)
        })
    }

    /// Intern `value`, returning its id (existing or newly assigned).
    pub fn intern(&mut self, value: &str) -> ValueId {
        if let Some(&id) = self.reverse_map().get(value) {
            return id;
        }
        let arc: Arc<str> = Arc::from(value);
        let id = ValueId(
            u32::try_from(self.values.len()).expect("value pool overflow (>4G distinct values)"),
        );
        Arc::make_mut(&mut self.values).push(Arc::clone(&arc));
        let by_value = self.by_value.get_mut().expect("built by the probe above");
        Arc::make_mut(by_value).insert(arc, id);
        id
    }

    /// Catch this pool up to an append-only descendant of itself without
    /// hashing a string.
    ///
    /// Because ids are assigned densely in first-appearance order and never
    /// renumbered, a snapshot taken at time *t* agrees with any later version
    /// of the same pool on all ids below its length.  An **empty** pool
    /// therefore adopts the descendant's table outright (a reference bump:
    /// what an index snapshot of a freshly loaded dataset costs), and a
    /// non-empty one appends the descendant's tail of new values to its own
    /// table — O(new values) per change set for a long-lived session's
    /// snapshots, after at most one copy of a table still shared from the
    /// adoption.  Adopting on *every* call would hand the descendant's next
    /// `intern` a shared table to copy whole, every time.
    ///
    /// The reverse map is never taken from the descendant (a snapshot that
    /// only resolves never holds one, and sharing it would make the
    /// descendant's next new value copy it); one this pool had built is
    /// dropped when a tail arrives and rebuilt by its next `lookup`.
    pub fn sync_from(&mut self, descendant: &ValuePool) {
        debug_assert!(
            descendant.values.len() >= self.values.len(),
            "sync_from target must be an append-only descendant"
        );
        if descendant.values.len() == self.values.len() {
            return;
        }
        if self.values.is_empty() {
            self.values = Arc::clone(&descendant.values);
        } else {
            let tail = &descendant.values[self.values.len()..];
            Arc::make_mut(&mut self.values).extend_from_slice(tail);
        }
        self.by_value.take();
    }

    /// Whether `self` and `other` name one id → string table — the probe
    /// that clones and adopted snapshots really share storage (and that a
    /// handle which interned since owns its own).
    pub fn shares_storage_with(&self, other: &ValuePool) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
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
        self.reverse_map().get(value).copied()
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
        self.shares_storage_with(other) || self.values == other.values
    }
}

impl Eq for ValuePool {}

/// Encoded as the id-ordered value list only; the reverse map is derived
/// state, rebuilt on decoding.  Because ids are dense in first-appearance
/// order and the stored list is duplicate-free, re-interning the list
/// reassigns every value its original id, so the round trip is exact.
impl Encode for ValuePool {
    fn encode(&self, enc: &mut Encoder) {
        self.values.encode(enc);
    }
}

impl Decode for ValuePool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.seq()?;
        let mut pool = ValuePool::with_capacity(len);
        for id in 0..len {
            let value = String::decode(dec)?;
            if pool.intern(&value).index() != id {
                return Err(CodecError::DuplicateValue(value));
            }
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_pool_frame_listing_a_value_twice_is_refused() {
        let twice = mlnw::to_bytes(&vec![String::from("a"), "b".into(), "a".into()]).unwrap();
        assert_eq!(
            mlnw::from_bytes::<ValuePool>(&twice),
            Err(CodecError::DuplicateValue("a".into()))
        );
    }

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
    fn an_empty_snapshot_adopts_the_table_and_never_the_map() {
        let mut pool = ValuePool::new();
        pool.intern_all(["AL", "AK"]);
        let mut snapshot = ValuePool::new();
        snapshot.sync_from(&pool);
        assert!(snapshot.shares_storage_with(&pool));
        // Sharing the map would make the pool's next new value copy it.
        assert!(snapshot.by_value.get().is_none());
        assert_eq!(snapshot, pool);

        // The pool moves on alone; the snapshot keeps what it saw, and a
        // later sync appends the tail to the snapshot's own table.
        let c = pool.intern("AZ");
        assert!(!snapshot.shares_storage_with(&pool));
        assert!(!snapshot.contains(c));
        snapshot.sync_from(&pool);
        assert!(!snapshot.shares_storage_with(&pool));
        assert_eq!(snapshot.resolve(c), "AZ");
        assert_eq!(snapshot.lookup("AZ"), Some(c));
        assert_eq!(snapshot.lookup("AR"), None);
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

        // Random interleavings of `clone` / `intern` / `sync_from` /
        // `lookup` over several handles against a plain `Vec<String>` per
        // handle: whatever storage the handles share, each one answers as
        // if it owned a private copy.
        #[test]
        fn handles_behave_like_private_copies(ops in proptest::collection::vec(0u32..1_000_000, 0..96)) {
            const VALUES: usize = 10;
            const HANDLES: usize = 6;
            let value = |v: usize| format!("value-{v}");
            let mut handles: Vec<(ValuePool, Vec<String>)> = vec![(ValuePool::new(), Vec::new())];
            for op in ops {
                let (kind, a, b, v) = (op % 5, (op / 5) as usize, (op / 50) as usize, (op / 500) as usize);
                let (a, b, v) = (a % handles.len(), b % handles.len(), value(v % VALUES));
                match kind {
                    // A clone parts from its source here (the oldest handle
                    // makes room once there are enough).
                    0 => {
                        let copy = handles[a].clone();
                        if handles.len() == HANDLES {
                            handles.remove(0);
                        }
                        handles.push(copy);
                    }
                    // Interning: the id is the model's position, present or new.
                    1 => {
                        let (pool, model) = &mut handles[a];
                        let expected = model.iter().position(|m| *m == v).unwrap_or(model.len());
                        if expected == model.len() {
                            model.push(v.clone());
                        }
                        prop_assert_eq!(pool.intern(&v), ValueId(expected as u32));
                    }
                    // Syncing, wherever `b` is an append-only descendant of
                    // `a` (always true of an empty `a`).
                    2 => {
                        if handles[b].1.starts_with(&handles[a].1) {
                            let (descendant, model) = handles[b].clone();
                            handles[a].0.sync_from(&descendant);
                            handles[a].1 = model;
                        }
                    }
                    // A fresh, empty snapshot: the next sync into it adopts.
                    3 => {
                        if handles.len() < HANDLES {
                            handles.push((ValuePool::new(), Vec::new()));
                        }
                    }
                    // A lookup builds the map of a handle that has none.
                    _ => {
                        let (pool, model) = &handles[a];
                        let expected = model.iter().position(|m| *m == v);
                        prop_assert_eq!(pool.lookup(&v), expected.map(|i| ValueId(i as u32)));
                    }
                }
                // No handle sees what another interned after they parted,
                // and ids below the common length agree where the models do.
                for (pool, model) in &handles {
                    prop_assert_eq!(pool.len(), model.len());
                    let held: Vec<&str> = pool.iter().map(|(_, s)| s).collect();
                    prop_assert_eq!(held, model.iter().map(String::as_str).collect::<Vec<_>>());
                    prop_assert!(!pool.contains(ValueId(model.len() as u32)));
                }
            }
            for (pool, model) in &handles {
                // A handle that never built its map looks up like one that did.
                let mut rebuilt = ValuePool::new();
                rebuilt.intern_all(model);
                prop_assert_eq!(pool, &rebuilt);
                for v in (0..VALUES).map(value) {
                    prop_assert_eq!(pool.lookup(&v), rebuilt.lookup(&v));
                }
                // The codec round-trips to an equal pool whose next intern takes
                // the next dense id.
                let bytes = mlnw::to_bytes(pool).unwrap();
                let mut decoded: ValuePool = mlnw::from_bytes(&bytes).unwrap();
                prop_assert_eq!(&decoded, pool);
                prop_assert_eq!(decoded.intern("never interned"), ValueId(model.len() as u32));
                prop_assert_eq!(pool.len(), model.len());
            }
        }
    }
}
