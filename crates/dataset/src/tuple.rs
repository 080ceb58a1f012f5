//! Tuples: a zero-copy row view over the columnar [`Dataset`], identified by
//! a stable [`TupleId`].

use crate::dataset::Dataset;
use crate::pool::ValueId;
use crate::schema::AttrId;
use std::fmt;

/// Stable identifier of a tuple within a dataset.  Tuple ids are assigned on
/// insertion and never reused, so they survive cleaning operations that
/// rewrite values in place and deduplication passes that mark tuples removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub usize);

mlnw::codec! { struct TupleId { 0 } }

impl TupleId {
    /// The raw index of this tuple.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0 + 1)
    }
}

/// Remap a tuple-id list past a row removal: ids matching a removed row are
/// dropped, and every surviving id shifts down by the number of removed rows
/// below it — the id-space compaction that follows
/// [`Dataset::remove_rows`](crate::Dataset::remove_rows).  `removed` must be
/// sorted, deduplicated pre-removal row indices.  This is the single source
/// of truth for post-removal renumbering; every structure caching `TupleId`s
/// across a compaction (MLN-index γs, provenance records) goes through it.
pub fn remap_ids_after_removal(ids: &mut Vec<TupleId>, removed: &[usize]) {
    debug_assert!(removed.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    ids.retain_mut(|t| {
        let below = removed.partition_point(|&r| r < t.0);
        if removed.get(below).is_some_and(|&r| r == t.0) {
            return false;
        }
        t.0 -= below;
        true
    });
}

/// A row view: one tuple of a dataset, read through the columnar storage.
///
/// `Tuple` is a cheap `Copy` handle (a row index plus a dataset reference);
/// per-cell access resolves through the dataset's value pool without cloning
/// strings.  Comparisons between tuples of the same dataset (or of datasets
/// sharing a pool snapshot) reduce to [`ValueId`] equality.
#[derive(Clone, Copy)]
pub struct Tuple<'a> {
    id: TupleId,
    ds: &'a Dataset,
}

impl<'a> Tuple<'a> {
    pub(crate) fn new(id: TupleId, ds: &'a Dataset) -> Self {
        Tuple { id, ds }
    }

    /// The stable identifier of this tuple.
    pub fn id(&self) -> TupleId {
        self.id
    }

    /// Value of the attribute `attr`.
    pub fn value(&self, attr: AttrId) -> &'a str {
        self.ds.value(self.id, attr)
    }

    /// Interned id of the attribute `attr`'s value.
    pub fn value_id(&self, attr: AttrId) -> ValueId {
        self.ds.value_id(self.id, attr)
    }

    /// All values in schema order (materialized as string slices).
    pub fn values(&self) -> Vec<&'a str> {
        (0..self.arity()).map(|a| self.value(AttrId(a))).collect()
    }

    /// All interned ids in schema order.
    pub fn value_ids(&self) -> Vec<ValueId> {
        self.ds.row_ids(self.id)
    }

    /// All values in schema order as owned strings (for crossing pool
    /// boundaries).
    pub fn owned_values(&self) -> Vec<String> {
        self.values().into_iter().map(str::to_string).collect()
    }

    /// Number of attributes in the tuple.
    pub fn arity(&self) -> usize {
        self.ds.schema().arity()
    }

    /// Project the tuple onto a subset of attributes (in the given order).
    pub fn project(&self, attrs: &[AttrId]) -> Vec<&'a str> {
        attrs.iter().map(|&a| self.value(a)).collect()
    }

    /// Whether two tuples agree on every attribute value (ignoring the id).
    /// This is the duplicate test MLNClean applies after conflict resolution.
    /// Within one dataset the comparison is pure id equality; across datasets
    /// it compares strings (still `O(arity)` — checking whether two *pools*
    /// are equal snapshots would cost `O(distinct values)` and is never
    /// cheaper than just comparing the row).
    pub fn same_values(&self, other: &Tuple<'_>) -> bool {
        if self.arity() != other.arity() {
            return false;
        }
        if std::ptr::eq(self.ds, other.ds) {
            (0..self.arity()).all(|a| self.value_id(AttrId(a)) == other.value_id(AttrId(a)))
        } else {
            (0..self.arity()).all(|a| self.value(AttrId(a)) == other.value(AttrId(a)))
        }
    }
}

impl fmt::Debug for Tuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple")
            .field("id", &self.id)
            .field("values", &self.values())
            .finish()
    }
}

impl PartialEq for Tuple<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.same_values(other)
    }
}

impl fmt::Display for Tuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.id, self.values().join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn dataset() -> Dataset {
        let mut ds = Dataset::new(Schema::new(&["HN", "CT", "ST", "PN"]));
        ds.push_row(vec![
            "ELIZA".into(),
            "BOAZ".into(),
            "AL".into(),
            "2567688400".into(),
        ])
        .unwrap();
        ds
    }

    #[test]
    fn value_access_and_update() {
        let mut ds = dataset();
        assert_eq!(ds.tuple(TupleId(0)).value(AttrId(1)), "BOAZ");
        ds.set_value(TupleId(0), AttrId(1), "DOTHAN");
        let t = ds.tuple(TupleId(0));
        assert_eq!(t.value(AttrId(1)), "DOTHAN");
        assert_eq!(t.arity(), 4);
    }

    #[test]
    fn projection_preserves_order() {
        let ds = dataset();
        let t = ds.tuple(TupleId(0));
        assert_eq!(t.project(&[AttrId(2), AttrId(0)]), vec!["AL", "ELIZA"]);
    }

    #[test]
    fn same_values_ignores_id_and_pool() {
        let ds = dataset();
        let mut other = Dataset::new(Schema::new(&["HN", "CT", "ST", "PN"]));
        // Different interning order → different ids, same strings.
        other.intern("2567688400");
        other
            .push_row(vec![
                "ELIZA".into(),
                "BOAZ".into(),
                "AL".into(),
                "2567688400".into(),
            ])
            .unwrap();
        other
            .push_row(vec![
                "ALABAMA".into(),
                "BOAZ".into(),
                "AL".into(),
                "2567688400".into(),
            ])
            .unwrap();
        let a = ds.tuple(TupleId(0));
        assert!(a.same_values(&other.tuple(TupleId(0))));
        assert!(!a.same_values(&other.tuple(TupleId(1))));
    }

    #[test]
    fn remap_after_removal_drops_and_shifts() {
        let mut ids: Vec<TupleId> = [0, 2, 3, 5, 7].into_iter().map(TupleId).collect();
        remap_ids_after_removal(&mut ids, &[2, 6]);
        // 2 dropped; 3 → 2, 5 → 4, 7 → 5; 0 untouched.
        assert_eq!(ids, vec![TupleId(0), TupleId(2), TupleId(4), TupleId(5)]);
        // Empty removal is a no-op.
        let before = ids.clone();
        remap_ids_after_removal(&mut ids, &[]);
        assert_eq!(ids, before);
    }

    #[test]
    fn display_is_one_indexed_like_the_paper() {
        assert_eq!(TupleId(0).to_string(), "t1");
        assert_eq!(TupleId(5).to_string(), "t6");
        let ds = dataset();
        assert_eq!(
            ds.tuple(TupleId(0)).to_string(),
            "t1[ELIZA, BOAZ, AL, 2567688400]"
        );
    }
}
