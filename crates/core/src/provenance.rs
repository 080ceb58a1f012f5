//! Provenance in ids, text at the edge.
//!
//! A [`crate::Report`] explains every decision of a run: AGP's merges
//! (§5.1.1), RSC's γ replacements (§5.1.2) and FSCR's fused assignments
//! (Algorithm 2).  The records hold what the stages already work in — value
//! ids and attribute ids — so writing one allocates no string.  Text is made
//! only where bytes leave the process: a record list's `Debug`, the
//! component evaluation against a ground truth, the CSV writer and the
//! examples' printing.
//!
//! A [`Records`] list resolves its ids through [`Names`]: the value pool and
//! the attribute names of the report that holds it.  The report attaches
//! them where it is assembled ([`crate::StageTwo::report`] and
//! [`crate::StageTwo::finish`], [`crate::Report::new`]).  The
//! stages' own records — [`crate::StageOne`]'s per block, the whole-index
//! stage runs', the fusion memo — carry none: a pool handle held there
//! would share the cleaned index's arena, and the next value interned would
//! copy it.  A list without names renders and compares its raw ids.
//!
//! Two engines can give one value different ids: a session that interned
//! rows it later deleted, or a coordinator and a batch run.  So two named
//! lists compare their text ([`Provenance::text`]), and compare ids directly
//! only when both resolve through one arena and one schema.  Two unnamed
//! lists compare ids: they come from one engine and its one pool.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use dataset::{AttrId, Schema, ValueId, ValuePool};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// What a report's provenance ids name: the pool its value ids resolve in
/// and the schema its attribute ids index.
#[derive(Debug, Clone)]
pub struct Names {
    pool: ValuePool,
    schema: Schema,
}

impl Names {
    pub(crate) fn new(pool: ValuePool, schema: Schema) -> Self {
        Names { pool, schema }
    }

    /// The text of value `id`.
    ///
    /// # Panics
    /// Panics if `id` is not in the pool: a list is only ever named by
    /// the report whose engine wrote its ids.
    pub fn value(&self, id: ValueId) -> &str {
        self.pool.resolve(id)
    }

    /// The name of attribute `id`.
    ///
    /// # Panics
    /// Panics if `id` is outside the schema, like [`Names::value`].
    pub fn attr(&self, id: AttrId) -> &str {
        self.schema.attr_name(id)
    }

    /// `ids` as their text.
    pub fn values<'a>(&'a self, ids: &'a [ValueId]) -> Values<'a> {
        Values { ids, names: self }
    }

    /// `pairs` as `(attribute name, value)` text.
    pub fn pairs<'a>(&'a self, pairs: &'a [(AttrId, ValueId)]) -> Pairs<'a> {
        Pairs { pairs, names: self }
    }

    /// Whether an id means the same text under both: one arena, one schema.
    fn same_ids(&self, other: &Names) -> bool {
        self.pool.shares_storage_with(&other.pool) && self.schema == other.schema
    }
}

/// Value ids as their text: a list of strings in `Debug` and in equality.
pub struct Values<'a> {
    ids: &'a [ValueId],
    names: &'a Names,
}

impl Values<'_> {
    fn texts(&self) -> impl Iterator<Item = &str> + '_ {
        self.ids.iter().map(|&v| self.names.value(v))
    }
}

impl fmt::Debug for Values<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.texts()).finish()
    }
}

impl PartialEq for Values<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.texts().eq(other.texts())
    }
}

/// `(attribute, value)` id pairs as `(name, text)` pairs.
pub struct Pairs<'a> {
    pairs: &'a [(AttrId, ValueId)],
    names: &'a Names,
}

impl Pairs<'_> {
    fn texts(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let names = self.names;
        self.pairs
            .iter()
            .map(|&(a, v)| (names.attr(a), names.value(v)))
    }
}

impl fmt::Debug for Pairs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.texts()).finish()
    }
}

impl PartialEq for Pairs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.texts().eq(other.texts())
    }
}

/// A provenance record: ids in memory, text in `Debug` and across pools.
pub trait Provenance {
    /// The record with its ids resolved.  Its type has the record's name and
    /// fields, so its derived `Debug` writes what the record's text is.
    type Text<'a>: fmt::Debug + PartialEq
    where
        Self: 'a;

    /// The record as text under `names`.
    fn text<'a>(&'a self, names: &'a Names) -> Self::Text<'a>;
}

/// A list of provenance records, and the [`Names`] its ids resolve through
/// once a report holds it (see the [module docs](self)).  It derefs to its
/// `Vec`.
#[derive(Clone)]
pub struct Records<T> {
    items: Vec<T>,
    names: Option<Arc<Names>>,
}

impl<T> Records<T> {
    /// What the list's ids name, if a report attached it.
    pub fn names(&self) -> Option<&Names> {
        self.names.as_deref()
    }

    pub(crate) fn attach(&mut self, names: &Arc<Names>) {
        self.names = Some(Arc::clone(names));
    }
}

impl<T> Default for Records<T> {
    fn default() -> Self {
        Vec::new().into()
    }
}

impl<T> From<Vec<T>> for Records<T> {
    fn from(items: Vec<T>) -> Self {
        Records { items, names: None }
    }
}

impl<T> Deref for Records<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.items
    }
}

impl<T> DerefMut for Records<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.items
    }
}

impl<T> IntoIterator for Records<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a Records<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// A named list writes its records' text; an unnamed one its raw ids.
impl<T: Provenance + fmt::Debug> fmt::Debug for Records<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.names() {
            Some(names) => f
                .debug_list()
                .entries(self.items.iter().map(|record| record.text(names)))
                .finish(),
            None => f.debug_list().entries(&self.items).finish(),
        }
    }
}

/// Two named lists compare their text, or their ids when both resolve
/// through one arena and one schema; any other pair compares ids.
impl<T: Provenance + PartialEq> PartialEq for Records<T> {
    fn eq(&self, other: &Self) -> bool {
        match (self.names(), other.names()) {
            (Some(a), Some(b)) if !a.same_ids(b) => {
                self.items.len() == other.items.len()
                    && (self.items.iter().zip(&other.items)).all(|(x, y)| x.text(a) == y.text(b))
            }
            _ => self.items == other.items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsc::RscRepair;
    use rules::RuleId;

    fn repair(key: ValueId, value: ValueId) -> RscRepair {
        RscRepair {
            rule: RuleId(0),
            group_key: vec![key],
            from_values: vec![key, value],
            to_values: vec![key, key],
            tuples: Vec::new(),
        }
    }

    #[test]
    fn named_lists_render_and_compare_text_and_unnamed_ones_ids() {
        let schema = Schema::new(&["A", "B"]);
        let mut a = ValuePool::new();
        let (x, y) = (a.intern("x"), a.intern("y"));
        let mut b = ValuePool::new();
        let (y2, x2) = (b.intern("y"), b.intern("x"));
        let mut left: Records<RscRepair> = vec![repair(x, y)].into();
        let mut right: Records<RscRepair> = vec![repair(x2, y2)].into();
        let mut apart: Records<RscRepair> = vec![repair(y2, x2)].into();
        assert_ne!(left, right, "unnamed, the ids differ");
        assert!(format!("{left:?}").contains("from_values: [ValueId(0), ValueId(1)]"));

        left.attach(&Arc::new(Names::new(a, schema.clone())));
        let names = Arc::new(Names::new(b, schema));
        right.attach(&names);
        apart.attach(&names);
        assert_eq!(left, right, "named, the text is the same");
        assert_eq!(format!("{left:?}"), format!("{right:?}"));
        assert!(format!("{left:?}").contains(r#"from_values: ["x", "y"]"#));
        assert_ne!(left, apart);
        assert_ne!(right, apart, "one arena: the ids are compared");
    }
}
