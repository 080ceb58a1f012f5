//! Typed mutation streams: the one ingest vocabulary of the incremental
//! engine.
//!
//! A [`ChangeSet`] is an ordered list of [`Mutation`]s — row insertions, cell
//! updates and row deletions — applied atomically by
//! [`crate::CleaningSession::apply`].  Mutations execute **in order**, and
//! tuple ids are interpreted against the session state *at the point of the
//! sequence where the mutation applies*: a `Delete(t)` shifts every later row
//! down by one, so a subsequent mutation naming `TupleId(t)` addresses the
//! row that followed the deleted one.  This is exactly the numbering a batch
//! rebuild over the surviving rows would assign, which is what makes the
//! session byte-identical to a one-shot clean of the net data.

use crate::error::CleanError;
use dataset::{ArityMismatch, AttrId, Dataset, TupleId, ValueId};

/// One typed mutation of the session's data.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Append a batch of string rows (each row in schema order).
    Insert(Vec<Vec<String>>),
    /// Overwrite one cell of an existing tuple with a new string value.
    Update(TupleId, AttrId, String),
    /// Remove one tuple; all later tuple ids shift down by one.
    Delete(TupleId),
}

mlnw::codec! {
    enum Mutation {
        0 => Insert(rows),
        1 => Update(tuple, attr, value),
        2 => Delete(tuple),
    }
}

/// One [`Mutation`] over the value ids of a pool: what a change set is once
/// interned, and what crosses a partition boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdMutation {
    /// Append rows: their ids back to back, `arity` per row, each row in
    /// schema order.
    Insert(Vec<ValueId>),
    /// Overwrite one cell of an existing tuple with a value id.
    Update(TupleId, AttrId, ValueId),
    /// Remove one tuple; all later tuple ids shift down by one.
    Delete(TupleId),
}

mlnw::codec! {
    enum IdMutation {
        0 => Insert(ids),
        1 => Update(tuple, attr, value),
        2 => Delete(tuple),
    }
}

/// A change set interned against a store's pool, as the streaming
/// coordinator routes it to one partition: the values the partition has
/// not seen — each once, in the order its store interns them — and the
/// mutations, whose ids name the store's pool with the tail appended.
/// Every value crosses to a partition once, as a string; after that, as an
/// id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InternedSlice {
    /// Values new to the store, in the id order they take.
    pub tail: Vec<String>,
    /// The mutations, in application order, over store-local ids.
    pub mutations: Vec<IdMutation>,
}

mlnw::codec! { struct InternedSlice { tail, mutations } }

impl InternedSlice {
    /// Whether the slice holds no mutations (an idle partition's).
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }

    /// [`ChangeSet::validate`] over ids, against a table of `arity` columns
    /// holding `rows` rows over a pool of `values` values (the tail
    /// included): an insert must be whole rows, tuple and attribute bounds
    /// as for a change set, and every id must name one of the `values`.
    pub fn validate(&self, arity: usize, mut rows: usize, values: usize) -> Result<(), CleanError> {
        let known = |&value: &ValueId| {
            if value.index() < values {
                Ok(())
            } else {
                Err(CleanError::UnknownValue { value, values })
            }
        };
        for mutation in &self.mutations {
            match mutation {
                IdMutation::Insert(ids) => {
                    let width = arity.max(1);
                    if !ids.len().is_multiple_of(width) {
                        return Err(CleanError::Arity(ArityMismatch {
                            expected: arity,
                            actual: ids.len() % width,
                        }));
                    }
                    ids.iter().try_for_each(known)?;
                    rows += ids.len() / width;
                }
                IdMutation::Update(t, attr, value) => {
                    check_tuple(*t, rows)?;
                    check_attr(*attr, arity)?;
                    known(value)?;
                }
                IdMutation::Delete(t) => {
                    check_tuple(*t, rows)?;
                    rows -= 1;
                }
            }
        }
        Ok(())
    }
}

/// A mutation may name only a row the table holds at its point of the
/// sequence.
fn check_tuple(tuple: TupleId, rows: usize) -> Result<(), CleanError> {
    if tuple.index() >= rows {
        return Err(CleanError::UnknownTuple { tuple, rows });
    }
    Ok(())
}

/// A mutation may name only an attribute of the schema.
fn check_attr(attr: AttrId, arity: usize) -> Result<(), CleanError> {
    if attr.index() >= arity {
        return Err(CleanError::UnknownAttribute { attr, arity });
    }
    Ok(())
}

/// An ordered, atomically-applied sequence of [`Mutation`]s.
///
/// Build one with the fluent methods and hand it to
/// [`crate::CleaningSession::apply`]:
///
/// ```
/// use dataset::{AttrId, TupleId};
/// use mlnclean::ChangeSet;
///
/// let changes = ChangeSet::new()
///     .insert(vec![vec!["ELIZA".into(), "BOAZ".into()]])
///     .update(TupleId(0), AttrId(1), "DOTHAN")
///     .delete(TupleId(0));
/// assert_eq!(changes.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChangeSet {
    mutations: Vec<Mutation>,
}

mlnw::codec! { struct ChangeSet { mutations } }

impl ChangeSet {
    /// An empty change set.
    pub fn new() -> Self {
        ChangeSet::default()
    }

    /// A change set holding one batch insertion — the shape
    /// [`crate::CleaningSession::ingest_batch`] desugars to.
    pub fn inserting(rows: Vec<Vec<String>>) -> Self {
        ChangeSet::new().insert(rows)
    }

    /// Append a batch insertion.
    pub fn insert(mut self, rows: Vec<Vec<String>>) -> Self {
        self.mutations.push(Mutation::Insert(rows));
        self
    }

    /// Append a single-row insertion.
    pub fn insert_row(self, row: Vec<String>) -> Self {
        self.insert(vec![row])
    }

    /// Append a cell update.
    pub fn update(mut self, tuple: TupleId, attr: AttrId, value: impl Into<String>) -> Self {
        self.mutations
            .push(Mutation::Update(tuple, attr, value.into()));
        self
    }

    /// Append a row deletion.
    pub fn delete(mut self, tuple: TupleId) -> Self {
        self.mutations.push(Mutation::Delete(tuple));
        self
    }

    /// Append an arbitrary mutation.
    pub fn push(&mut self, mutation: Mutation) {
        self.mutations.push(mutation);
    }

    /// Number of mutations.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// Whether the change set holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }

    /// Iterate over the mutations in application order.
    pub fn iter(&self) -> impl Iterator<Item = &Mutation> {
        self.mutations.iter()
    }

    /// Consume the change set into its mutations.
    pub fn into_mutations(self) -> Vec<Mutation> {
        self.mutations
    }

    /// Check every mutation against a table of `arity` columns currently
    /// holding `rows` rows: row arity, tuple and attribute bounds, with the
    /// row count tracked through the set's own inserts and deletes (tuple
    /// ids are sequential — see the [module docs](self)).  Every driver runs
    /// this before applying anything, which is what makes a change set
    /// atomic: a failed `apply` leaves the driver untouched.
    pub fn validate(&self, arity: usize, mut rows: usize) -> Result<(), CleanError> {
        for mutation in &self.mutations {
            match mutation {
                Mutation::Insert(batch) => {
                    if let Some(row) = batch.iter().find(|row| row.len() != arity) {
                        return Err(CleanError::Arity(ArityMismatch {
                            expected: arity,
                            actual: row.len(),
                        }));
                    }
                    rows += batch.len();
                }
                Mutation::Update(t, attr, _) => {
                    check_tuple(*t, rows)?;
                    check_attr(*attr, arity)?;
                }
                Mutation::Delete(t) => {
                    check_tuple(*t, rows)?;
                    rows -= 1;
                }
            }
        }
        Ok(())
    }

    /// Cut `ds` into insert change sets of `batch_rows` rows each (clamped
    /// to at least one; the last set holds the remainder), in row order —
    /// how the streaming engines feed a static dataset through a session.
    pub fn insert_batches(ds: &Dataset, batch_rows: usize) -> impl Iterator<Item = ChangeSet> + '_ {
        let batch_rows = batch_rows.max(1);
        (0..ds.len()).step_by(batch_rows).map(move |at| {
            let upto = (at + batch_rows).min(ds.len());
            ChangeSet::inserting(
                (at..upto)
                    .map(|t| ds.tuple(TupleId(t)).owned_values())
                    .collect(),
            )
        })
    }
}

/// The rows a change-set walk deleted so far, in **virtual** coordinates
/// (the rows at entry plus those the set inserted, the deleted ones still in
/// place until one compaction at the end), and the translation from the
/// sequential ids mutations name (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct DeferredDeletes {
    /// Virtual rows marked deleted, ascending.
    marked: Vec<usize>,
}

impl DeferredDeletes {
    /// The virtual row sequential id `t` names: the `t`-th unmarked row,
    /// `t` plus the marked rows below it.  Those are the `i` whose
    /// `marked[i] - i` (the unmarked rows below `marked[i]`, never falling
    /// in `i`) is at most `t`.
    pub fn resolve(&self, t: usize) -> usize {
        let (mut lo, mut hi) = (0, self.marked.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.marked[mid] - mid <= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        t + lo
    }

    /// Mark virtual row `v` deleted.
    pub fn mark(&mut self, v: usize) {
        let at = self.marked.partition_point(|&r| r < v);
        self.marked.insert(at, v);
    }

    /// The sequential id of the unmarked virtual row `v`.
    pub fn sequential(&self, v: usize) -> usize {
        v - self.marked.partition_point(|&r| r < v)
    }

    /// The marked rows, ascending (what every `remap_removed` takes).
    pub fn marked(&self) -> &[usize] {
        &self.marked
    }
}

impl FromIterator<Mutation> for ChangeSet {
    fn from_iter<I: IntoIterator<Item = Mutation>>(iter: I) -> Self {
        ChangeSet {
            mutations: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for ChangeSet {
    type Item = Mutation;
    type IntoIter = std::vec::IntoIter<Mutation>;

    fn into_iter(self) -> Self::IntoIter {
        self.mutations.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluent_construction_preserves_order() {
        let cs = ChangeSet::new()
            .insert_row(vec!["a".into()])
            .update(TupleId(0), AttrId(0), "b")
            .delete(TupleId(0));
        let kinds: Vec<&'static str> = cs
            .iter()
            .map(|m| match m {
                Mutation::Insert(_) => "insert",
                Mutation::Update(..) => "update",
                Mutation::Delete(_) => "delete",
            })
            .collect();
        assert_eq!(kinds, vec!["insert", "update", "delete"]);
        assert!(!cs.is_empty());
        assert_eq!(cs.into_mutations().len(), 3);
    }

    /// `resolve` against the definition — walk the virtual rows and count
    /// the unmarked ones — and `sequential` as its inverse on unmarked rows.
    #[test]
    fn deferred_deletes_translate_between_sequential_and_virtual_ids() {
        let mut deletes = DeferredDeletes::default();
        assert_eq!(deletes.resolve(4), 4, "nothing marked: the identity");
        for v in [3, 0, 7, 4, 5] {
            deletes.mark(v);
        }
        assert_eq!(deletes.marked(), &[0, 3, 4, 5, 7]);
        let unmarked: Vec<usize> = (0..12).filter(|v| !deletes.marked().contains(v)).collect();
        for (t, &v) in unmarked.iter().enumerate() {
            assert_eq!(deletes.resolve(t), v, "sequential id {t}");
            assert_eq!(deletes.sequential(v), t, "virtual row {v}");
        }
    }

    /// A walk that deletes its sequential row 0 three times removes the
    /// first three virtual rows, in order.
    #[test]
    fn repeated_deletes_of_one_sequential_id_walk_forward() {
        let mut deletes = DeferredDeletes::default();
        for _ in 0..3 {
            let v = deletes.resolve(0);
            deletes.mark(v);
        }
        assert_eq!(deletes.marked(), &[0, 1, 2]);
        assert_eq!(deletes.resolve(0), 3);
    }

    #[test]
    fn inserting_is_one_insert_mutation() {
        let cs = ChangeSet::inserting(vec![vec!["x".into()], vec!["y".into()]]);
        assert_eq!(cs.len(), 1);
        assert!(matches!(cs.iter().next(), Some(Mutation::Insert(rows)) if rows.len() == 2));
    }
}
