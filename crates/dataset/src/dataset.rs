//! The in-memory dataset: a schema plus columnar value storage, with
//! cell-level access, attribute domains, and duplicate detection.
//!
//! Storage is **columnar and interned**: one `Vec<ValueId>` per attribute,
//! with every distinct string held once in the dataset's [`ValuePool`].  Row
//! access is preserved through the [`Tuple`] view type and [`TupleId`], so
//! call sites keep their row-oriented shape while cell equality, grouping and
//! cross-worker shipping all operate on compact ids.

use crate::cell::CellRef;
use crate::pool::{IdTable, ValueId, ValuePool};
use crate::rng::GOLDEN_GAMMA;
use crate::schema::{AttrId, Schema};
use crate::tuple::{Tuple, TupleId};
use mlnw::{CodecError, Decode, Decoder, Encode, Encoder};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::BuildHasher;

/// Error returned when a row does not match the dataset schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityMismatch {
    /// Number of attributes the schema expects.
    pub expected: usize,
    /// Number of values the offending row carried.
    pub actual: usize,
}

impl fmt::Display for ArityMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "row has {} values but the schema has {} attributes",
            self.actual, self.expected
        )
    }
}

impl std::error::Error for ArityMismatch {}

/// Error returned when two datasets' schemas differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchemaMismatch;

impl fmt::Display for SchemaMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the datasets have different schemas")
    }
}

impl std::error::Error for SchemaMismatch {}

/// An in-memory relation: schema + interned columnar cells.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub(crate) schema: Schema,
    pub(crate) pool: ValuePool,
    /// One column of interned cell ids per attribute, all of equal length.
    pub(crate) columns: Vec<Vec<ValueId>>,
    pub(crate) rows: usize,
}

/// Encoded as the sequence of its four fields, like a `codec!` struct.
impl Encode for Dataset {
    fn encode(&self, enc: &mut Encoder) {
        enc.seq(4);
        self.schema.encode(enc);
        self.pool.encode(enc);
        self.columns.encode(enc);
        self.rows.encode(enc);
    }
}

/// Decoding checks what every accessor assumes — one column per attribute,
/// `rows` ids in each, every id in the pool — so a frame that breaks one is
/// refused here, not at the first lookup that would panic.
impl Decode for Dataset {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.fields(4)?;
        let (schema, pool) = (Schema::decode(dec)?, ValuePool::decode(dec)?);
        let (columns, rows) = (Vec::<Vec<ValueId>>::decode(dec)?, usize::decode(dec)?);
        let length = |expected, found| Err(CodecError::Length { expected, found });
        if columns.len() != schema.arity() {
            return length(schema.arity(), columns.len());
        }
        if let Some(column) = columns.iter().find(|column| column.len() != rows) {
            return length(rows, column.len());
        }
        if let Some(id) = columns.iter().flatten().find(|&&id| !pool.contains(id)) {
            return Err(CodecError::OutOfRange {
                value: u64::from(id.0),
                expected: "a value id of the dataset's pool",
            });
        }
        Ok(Dataset {
            schema,
            pool,
            columns,
            rows,
        })
    }
}

impl Dataset {
    /// Create an empty dataset over `schema`.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        Dataset {
            schema,
            pool: ValuePool::new(),
            columns: vec![Vec::new(); arity],
            rows: 0,
        }
    }

    /// Create a dataset with pre-allocated capacity.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let arity = schema.arity();
        Dataset {
            schema,
            pool: ValuePool::new(),
            columns: (0..arity).map(|_| Vec::with_capacity(capacity)).collect(),
            rows: 0,
        }
    }

    /// Create an empty dataset over an existing value pool, so ids remain
    /// comparable with the source.  This is how the streaming coordinator
    /// gathers a report's rows: rows travel as `Vec<ValueId>` beside one
    /// pool handle — a `pool.clone()` is two reference bumps and shares the
    /// source's storage until either side interns a new value
    /// ([`ValuePool`]'s cost contract).
    pub fn with_pool(schema: Schema, pool: ValuePool, capacity: usize) -> Self {
        let arity = schema.arity();
        Dataset {
            schema,
            pool,
            columns: (0..arity).map(|_| Vec::with_capacity(capacity)).collect(),
            rows: 0,
        }
    }

    /// A dataset of `rows` rows whose cells are `columns`, one column of ids
    /// per attribute of `schema`, named by `pool`.  This is how a maintained
    /// table becomes a dataset: the columns move in as they are, and the pool
    /// handle is the caller's (two reference bumps, [`ValuePool`]'s cost
    /// contract).  `rows` is stated apart from the columns because a schema
    /// of no attributes has none.
    ///
    /// # Panics
    /// Panics if there is not one column per attribute or a column does not
    /// hold `rows` ids.
    pub fn from_columns(
        schema: Schema,
        pool: ValuePool,
        columns: Vec<Vec<ValueId>>,
        rows: usize,
    ) -> Self {
        assert_eq!(columns.len(), schema.arity(), "one column per attribute");
        assert!(
            columns.iter().all(|column| column.len() == rows),
            "every column holds one id per row"
        );
        debug_assert!(
            columns.iter().flatten().all(|&v| pool.contains(v)),
            "from_columns with an out-of-range ValueId (same-pool ancestry is the caller's contract)"
        );
        Dataset {
            schema,
            pool,
            columns,
            rows,
        }
    }

    /// The schema of this dataset.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The dataset's value pool.
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// Intern an arbitrary string into this dataset's pool (without touching
    /// any cell), returning its id.  Useful for comparing external constants
    /// against cells by id.
    pub fn intern(&mut self, value: &str) -> ValueId {
        self.pool.intern(value)
    }

    /// Append `values`, none of which the pool holds yet, as its next ids
    /// ([`ValuePool::extend_new`]: `Err(i)` names the first held one, and
    /// the pool is then left as it was).
    pub fn extend_pool(&mut self, values: &[String]) -> Result<(), usize> {
        self.pool.extend_new(values)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the dataset has no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append a row of strings, assigning it the next [`TupleId`].
    pub fn push_row(&mut self, values: Vec<String>) -> Result<TupleId, ArityMismatch> {
        if values.len() != self.schema.arity() {
            return Err(ArityMismatch {
                expected: self.schema.arity(),
                actual: values.len(),
            });
        }
        for (column, value) in self.columns.iter_mut().zip(&values) {
            column.push(self.pool.intern(value));
        }
        let id = TupleId(self.rows);
        self.rows += 1;
        Ok(id)
    }

    /// Append a row of already-interned ids (they must come from this
    /// dataset's pool or a snapshot ancestor of it).
    pub fn push_row_ids(&mut self, values: &[ValueId]) -> Result<TupleId, ArityMismatch> {
        if values.len() != self.schema.arity() {
            return Err(ArityMismatch {
                expected: self.schema.arity(),
                actual: values.len(),
            });
        }
        debug_assert!(
            values.iter().all(|&v| self.pool.contains(v)),
            "push_row_ids with an out-of-range ValueId (same-pool ancestry is the caller's contract)"
        );
        for (column, &value) in self.columns.iter_mut().zip(values) {
            column.push(value);
        }
        let id = TupleId(self.rows);
        self.rows += 1;
        Ok(id)
    }

    /// Append a batch of string rows, returning the range of assigned row
    /// indices.  The batch is atomic: every row's arity is validated before
    /// any row is appended, so a failed call leaves the dataset untouched.
    pub fn extend_rows<I>(&mut self, rows: I) -> Result<std::ops::Range<usize>, ArityMismatch>
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        let rows: Vec<Vec<String>> = rows.into_iter().collect();
        let arity = self.schema.arity();
        for row in &rows {
            if row.len() != arity {
                return Err(ArityMismatch {
                    expected: arity,
                    actual: row.len(),
                });
            }
        }
        let start = self.rows;
        for row in rows {
            self.push_row(row).expect("arity validated above");
        }
        Ok(start..self.rows)
    }

    /// Append rows of already-interned ids, given back to back in schema
    /// order (`arity` ids per row), returning the range of assigned row
    /// indices.  Like [`Dataset::extend_rows`] the batch is atomic: a length
    /// that is not a whole number of rows appends nothing.
    pub fn extend_row_ids(
        &mut self,
        ids: &[ValueId],
    ) -> Result<std::ops::Range<usize>, ArityMismatch> {
        let arity = self.schema.arity().max(1);
        let start = self.rows;
        if !ids.len().is_multiple_of(arity) {
            return Err(ArityMismatch {
                expected: arity,
                actual: ids.len() % arity,
            });
        }
        debug_assert!(
            ids.iter().all(|&v| self.pool.contains(v)),
            "extend_row_ids with an out-of-range ValueId (same-pool ancestry is the caller's contract)"
        );
        let rows = ids.len() / arity;
        for column in &mut self.columns {
            column.reserve(rows);
        }
        for row in ids.chunks_exact(arity) {
            for (column, &id) in self.columns.iter_mut().zip(row) {
                column.push(id);
            }
        }
        self.rows += rows;
        Ok(start..self.rows)
    }

    /// Append every row of `other` (which must have the same schema),
    /// returning the range of assigned row indices.
    ///
    /// This is the micro-batch ingest primitive: values are re-interned into
    /// this dataset's pool **once per distinct id** of `other`'s pool (not
    /// once per cell), so appending a batch that mostly repeats known values
    /// costs one hash probe per distinct value plus one `u32` push per cell.
    pub fn extend_from(
        &mut self,
        other: &Dataset,
    ) -> Result<std::ops::Range<usize>, SchemaMismatch> {
        if self.schema != other.schema {
            return Err(SchemaMismatch);
        }
        let mut map: Vec<Option<ValueId>> = vec![None; other.pool.len()];
        let start = self.rows;
        let Dataset { pool, columns, .. } = self;
        for (column, other_column) in columns.iter_mut().zip(&other.columns) {
            column.reserve(other.rows);
            for &id in other_column {
                let mapped = match map[id.index()] {
                    Some(mapped) => mapped,
                    None => {
                        let mapped = pool.intern(other.pool.resolve(id));
                        map[id.index()] = Some(mapped);
                        mapped
                    }
                };
                column.push(mapped);
            }
        }
        self.rows += other.rows;
        Ok(start..self.rows)
    }

    /// Remove one row, compacting the dataset: every tuple id greater than
    /// `t` shifts down by one, exactly as if the dataset had been built
    /// without the removed row.  The pool is untouched (interned values are
    /// append-only, so ids held elsewhere keep resolving).
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    pub fn remove_row(&mut self, t: TupleId) {
        assert!(t.0 < self.rows, "tuple id {t} out of range");
        for column in &mut self.columns {
            column.remove(t.0);
        }
        self.rows -= 1;
    }

    /// Remove several rows at once (ids interpreted against the *current*
    /// numbering, i.e. all relative to the same pre-removal state).  The
    /// surviving rows are compacted in order, as if the dataset had been
    /// built from them alone.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn remove_rows(&mut self, ids: &[TupleId]) {
        if ids.is_empty() {
            return;
        }
        let mut removed: Vec<usize> = ids.iter().map(|t| t.0).collect();
        removed.sort_unstable();
        removed.dedup();
        assert!(
            removed.last().is_none_or(|&t| t < self.rows),
            "tuple id out of range"
        );
        for column in &mut self.columns {
            let mut keep = 0usize;
            let mut next = removed.iter().peekable();
            for i in 0..column.len() {
                if next.peek().is_some_and(|&&r| r == i) {
                    next.next();
                    continue;
                }
                column[keep] = column[i];
                keep += 1;
            }
            column.truncate(keep);
        }
        self.rows -= removed.len();
    }

    /// A row view of the tuple with id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn tuple(&self, id: TupleId) -> Tuple<'_> {
        assert!(id.0 < self.rows, "tuple id {id} out of range");
        Tuple::new(id, self)
    }

    /// Value of a single cell.
    pub fn value(&self, tuple: TupleId, attr: AttrId) -> &str {
        self.pool.resolve(self.columns[attr.0][tuple.0])
    }

    /// Interned id of a single cell.
    pub fn value_id(&self, tuple: TupleId, attr: AttrId) -> ValueId {
        self.columns[attr.0][tuple.0]
    }

    /// The interned ids of one attribute's cells, in row order.
    pub fn column(&self, attr: AttrId) -> &[ValueId] {
        &self.columns[attr.0]
    }

    /// Value of a cell given a [`CellRef`].
    pub fn cell(&self, cell: CellRef) -> &str {
        self.value(cell.tuple, cell.attr)
    }

    /// Interned id of a cell given a [`CellRef`].
    pub fn cell_id(&self, cell: CellRef) -> ValueId {
        self.value_id(cell.tuple, cell.attr)
    }

    /// Overwrite a single cell with a string (interning it if new).
    pub fn set_value(&mut self, tuple: TupleId, attr: AttrId, value: impl Into<String>) {
        let id = self.pool.intern(&value.into());
        self.columns[attr.0][tuple.0] = id;
    }

    /// Overwrite a single cell with an id from this dataset's pool.
    pub fn set_value_id(&mut self, tuple: TupleId, attr: AttrId, value: ValueId) {
        debug_assert!(
            self.pool.contains(value),
            "set_value_id with an out-of-range ValueId (same-pool ancestry is the caller's contract)"
        );
        self.columns[attr.0][tuple.0] = value;
    }

    /// Iterate over all tuples (as row views) in insertion order.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple<'_>> {
        (0..self.rows).map(move |i| Tuple::new(TupleId(i), self))
    }

    /// Iterate over all tuple ids.
    pub fn tuple_ids(&self) -> impl Iterator<Item = TupleId> {
        (0..self.rows).map(TupleId)
    }

    /// Iterate over every cell of the dataset in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = (CellRef, &str)> {
        (0..self.rows).flat_map(move |t| {
            (0..self.schema.arity()).map(move |a| {
                let cell = CellRef::new(TupleId(t), AttrId(a));
                (cell, self.cell(cell))
            })
        })
    }

    /// Total number of cells (tuples × attributes); the denominator of the
    /// error rate in the paper's evaluation protocol.
    pub fn cell_count(&self) -> usize {
        self.rows * self.schema.arity()
    }

    /// The active domain of an attribute: the distinct values appearing in
    /// that column, sorted.  Quantitative cleaners (HoloClean-style) draw
    /// their repair candidates from this set.
    pub fn domain(&self, attr: AttrId) -> BTreeSet<String> {
        self.domain_ids(attr)
            .into_iter()
            .map(|id| self.pool.resolve(id).to_string())
            .collect()
    }

    /// The active domain of an attribute as interned ids (ordered by id, i.e.
    /// first appearance — not lexicographically).
    pub fn domain_ids(&self, attr: AttrId) -> BTreeSet<ValueId> {
        self.columns[attr.0].iter().copied().collect()
    }

    /// Number of distinct values in the column `attr`.
    pub fn distinct_count(&self, attr: AttrId) -> usize {
        self.domain_ids(attr).len()
    }

    /// Co-occurrence counts between values of `a` and values of `b`:
    /// how many tuples carry each (value-of-a, value-of-b) pair.
    pub fn cooccurrence(&self, a: AttrId, b: AttrId) -> BTreeMap<(String, String), usize> {
        let mut by_id: HashMap<(ValueId, ValueId), usize> = HashMap::new();
        for (&va, &vb) in self.columns[a.0].iter().zip(&self.columns[b.0]) {
            *by_id.entry((va, vb)).or_insert(0) += 1;
        }
        by_id
            .into_iter()
            .map(|((va, vb), n)| {
                (
                    (
                        self.pool.resolve(va).to_string(),
                        self.pool.resolve(vb).to_string(),
                    ),
                    n,
                )
            })
            .collect()
    }

    /// The full row of interned ids for one tuple, in schema order.
    pub fn row_ids(&self, tuple: TupleId) -> Vec<ValueId> {
        self.columns.iter().map(|c| c[tuple.0]).collect()
    }

    /// One 64-bit hash per row, folded **column by column**: each column is
    /// read front to back once and no row image is built.  The fold is
    /// order-sensitive, so `(a, b)` and `(b, a)` hash apart, and seeded per
    /// call because ids follow the input's first-appearance order.  Equal
    /// rows hash equal; whether rows with equal hashes are equal is for the
    /// caller to verify cell by cell, as [`Dataset::deduplicated`] does.
    /// [`hash_rows`] is the same fold over chosen rows of a caller's own
    /// columns.
    pub fn row_hashes(&self) -> Vec<u64> {
        let mut hashes = vec![RandomState::new().hash_one(self.rows); self.rows];
        for column in &self.columns {
            for (hash, &id) in hashes.iter_mut().zip(column) {
                *hash = fold_row_hash(*hash, id);
            }
        }
        hashes
    }

    /// For every row, the index of the first row holding exactly its values
    /// (its own for a first occurrence), given one hash per row that is equal
    /// for equal rows.  First occurrences sit in an [`IdTable`] of row
    /// indices, sized for every row; a candidate with an equal hash is
    /// compared cell by cell — ids of one pool, so id equality is string
    /// equality — and that comparison decides, whatever the hashes do.
    fn first_occurrences(&self, hashes: &[u64]) -> Vec<u32> {
        assert!(self.rows < u32::MAX as usize, "more than 4G rows");
        let mut firsts = IdTable::with_capacity(self.rows);
        let hash_of = |row: u32| hashes[row as usize];
        (0..self.rows as u32)
            .map(|row| {
                let (hash, at) = (hash_of(row), row as usize);
                let same = |first: u32| {
                    let first = first as usize;
                    hashes[first] == hash && self.columns.iter().all(|c| c[first] == c[at])
                };
                match firsts.find(hash, same) {
                    Ok(first) => first,
                    Err(vacant) => {
                        firsts.insert(vacant, row, hash, hash_of);
                        row
                    }
                }
            })
            .collect()
    }

    /// Group tuple ids by their exact values: each group with more than one
    /// member is a set of exact duplicates.  Groups are returned in order of
    /// their first member.
    pub fn duplicate_groups(&self) -> Vec<Vec<TupleId>> {
        let first = self.first_occurrences(&self.row_hashes());
        // By first member: its group's position, once a second member shows.
        let mut group_of: Vec<Option<usize>> = vec![None; self.rows];
        let mut groups: Vec<Vec<TupleId>> = Vec::new();
        for (row, &first) in first.iter().enumerate() {
            let first = first as usize;
            if first != row {
                let group = *group_of[first].get_or_insert_with(|| {
                    groups.push(vec![TupleId(first)]);
                    groups.len() - 1
                });
                groups[group].push(TupleId(row));
            }
        }
        groups.sort_by_key(|group| group[0]);
        groups
    }

    /// Return a copy of the dataset keeping only the first tuple of every
    /// exact-duplicate family, in order (tuple ids are reassigned densely).
    /// This is the final deduplication step of the MLNClean pipeline.  The
    /// copy names `self`'s value pool — the same storage, not a copy of it
    /// ([`Dataset::project_rows`]) — so ids remain comparable and the cost
    /// is the rows alone.
    ///
    /// Three flat passes, no allocation per row: hash the rows column by
    /// column, find first occurrences in a table of row indices, gather the
    /// survivors column by column ([`Dataset::project_rows`]).
    pub fn deduplicated(&self) -> Dataset {
        let first = self.first_occurrences(&self.row_hashes());
        let firsts = first.iter().enumerate();
        let keep: Vec<TupleId> = firsts
            .filter(|&(row, &first)| first as usize == row)
            .map(|(row, _)| TupleId(row))
            .collect();
        self.project_rows(&keep)
    }

    /// Extract the given rows (in the given order) into a new dataset that
    /// shares `self`'s value pool (two reference bumps, whatever the pool
    /// holds; the storage stays shared until either side interns a new
    /// value): only ids move, never strings, and they move column by column
    /// into columns of exactly `ids.len()` cells (no row image is built in
    /// between).
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn project_rows(&self, ids: &[TupleId]) -> Dataset {
        let gather = |column: &Vec<ValueId>| ids.iter().map(|t| column[t.0]).collect();
        Dataset {
            schema: self.schema.clone(),
            pool: self.pool.clone(),
            columns: self.columns.iter().map(gather).collect(),
            rows: ids.len(),
        }
    }

    /// Cells where `self` and `other` differ.  The two datasets must have the
    /// same shape.
    pub fn diff_cells(&self, other: &Dataset) -> Vec<CellRef> {
        assert_eq!(
            self.schema.arity(),
            other.schema.arity(),
            "schemas must agree"
        );
        assert_eq!(
            self.len(),
            other.len(),
            "datasets must have the same number of tuples"
        );
        // When the pools agree (the common case: `other` is a repaired clone
        // of `self`), cells compare as pure id equality.
        let same_pool = self.pool == other.pool;
        let mut out = Vec::new();
        for t in self.tuple_ids() {
            for a in self.schema.attr_ids() {
                let differs = if same_pool {
                    self.value_id(t, a) != other.value_id(t, a)
                } else {
                    self.value(t, a) != other.value(t, a)
                };
                if differs {
                    out.push(CellRef::new(t, a));
                }
            }
        }
        out
    }
}

/// One 64-bit hash per row of `rows`, over `columns` — one column of ids per
/// attribute, in schema order — seeded by `seed`: the fold of
/// [`Dataset::deduplicated`]'s row hash, for a caller that keeps its own
/// columns and hashes rows as they change.  Under one seed equal rows hash
/// equal; what is equal is for the caller to verify cell by cell.
pub fn hash_rows<C: AsRef<[ValueId]>>(columns: &[C], rows: &[usize], seed: u64) -> Vec<u64> {
    let mut hashes = vec![seed; rows.len()];
    for column in columns {
        let column = column.as_ref();
        for (hash, &row) in hashes.iter_mut().zip(rows) {
            *hash = fold_row_hash(*hash, column[row]);
        }
    }
    hashes
}

/// One step of the row hash: fold the next cell's id into `hash`.
#[inline]
fn fold_row_hash(hash: u64, id: ValueId) -> u64 {
    (hash.rotate_left(5) ^ u64::from(id.0)).wrapping_mul(GOLDEN_GAMMA)
}

impl PartialEq for Dataset {
    /// Semantic equality: same schema and the same string value in every
    /// cell.  Id assignment (interning order) is irrelevant.
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.rows != other.rows {
            return false;
        }
        if self.pool == other.pool {
            return self.columns == other.columns;
        }
        self.tuple_ids().all(|t| {
            self.schema
                .attr_ids()
                .all(|a| self.value(t, a) == other.value(t, a))
        })
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in self.tuples() {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::sample_hospital_dataset;
    use std::collections::HashSet;

    /// A frame that decodes describes a real dataset: hand-built frames
    /// whose columns disagree with the schema's arity or with `rows`, or name
    /// an id past the pool, are refused at decode — not left to panic at the
    /// first lookup.
    #[test]
    fn an_inconsistent_dataset_frame_does_not_decode() {
        let ds = sample_hospital_dataset();
        let (arity, rows) = (ds.schema.arity(), ds.rows);
        let decode = |edit: &dyn Fn(&mut Dataset)| {
            let mut frame = ds.clone();
            edit(&mut frame);
            mlnw::from_bytes::<Dataset>(&mlnw::to_bytes(&frame).unwrap())
        };
        assert_eq!(decode(&|_| {}), Ok(ds.clone()));
        let length = |expected, found| Err(CodecError::Length { expected, found });
        let short = |d: &mut Dataset| d.columns[2].truncate(rows - 1);
        assert_eq!(decode(&short), length(rows, rows - 1));
        let extra = |d: &mut Dataset| d.columns.push(d.columns[0].clone());
        assert_eq!(decode(&extra), length(arity, arity + 1));
        let missing = |d: &mut Dataset| d.columns.truncate(arity - 1);
        assert_eq!(decode(&missing), length(arity, arity - 1));
        assert_eq!(decode(&|d| d.rows += 1), length(rows + 1, rows));
        let past = ValueId(ds.pool.len() as u32);
        assert_eq!(
            decode(&|d| d.columns[1][3] = past),
            Err(CodecError::OutOfRange {
                value: u64::from(past.0),
                expected: "a value id of the dataset's pool",
            })
        );
    }

    #[test]
    fn push_row_checks_arity() {
        let mut ds = Dataset::new(Schema::new(&["a", "b"]));
        assert!(ds.push_row(vec!["1".into(), "2".into()]).is_ok());
        let err = ds.push_row(vec!["1".into()]).unwrap_err();
        assert_eq!(
            err,
            ArityMismatch {
                expected: 2,
                actual: 1
            }
        );
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn domain_and_counts() {
        let ds = sample_hospital_dataset();
        let ct = ds.schema().attr_id("CT").unwrap();
        let domain = ds.domain(ct);
        assert_eq!(domain.len(), 3); // DOTHAN, DOTH, BOAZ
        assert_eq!(ds.distinct_count(ct), 3);
    }

    #[test]
    fn cooccurrence_counts_pairs() {
        let ds = sample_hospital_dataset();
        let ct = ds.schema().attr_id("CT").unwrap();
        let st = ds.schema().attr_id("ST").unwrap();
        let co = ds.cooccurrence(ct, st);
        assert_eq!(co[&("BOAZ".to_string(), "AL".to_string())], 2);
        assert_eq!(co[&("BOAZ".to_string(), "AK".to_string())], 1);
    }

    #[test]
    fn duplicates_and_dedup() {
        let truth = crate::sample_hospital_truth();
        let groups = truth.duplicate_groups();
        // t1/t2 are duplicates and t3..t6 are duplicates in the ground truth.
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&4));
        let dedup = truth.deduplicated();
        assert_eq!(dedup.len(), 2);
    }

    /// `deduplicated()` as it was defined before the column-wise passes: a
    /// set of row images, first occurrence wins, order kept.
    fn deduplicated_oracle(ds: &Dataset) -> Dataset {
        let mut seen: HashSet<Vec<ValueId>> = HashSet::new();
        let mut out = Dataset::with_pool(ds.schema.clone(), ds.pool.clone(), ds.rows);
        for t in ds.tuple_ids() {
            let key = ds.row_ids(t);
            if seen.insert(key.clone()) {
                out.push_row_ids(&key).expect("same schema");
            }
        }
        out
    }

    /// A table over attributes `A0, A1, …` from rows of small numbers.
    fn table(arity: usize, rows: &[Vec<usize>]) -> Dataset {
        let names: Vec<String> = (0..arity).map(|a| format!("A{a}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut ds = Dataset::new(Schema::new(&names));
        for row in rows {
            let row = row.iter().map(|v| format!("v{v}")).collect();
            ds.push_row(row).unwrap();
        }
        ds
    }

    /// Same rows in the same order over the same ids, exactly-sized columns.
    fn assert_deduplicates_like_the_oracle(ds: &Dataset) -> Dataset {
        let (actual, expected) = (ds.deduplicated(), deduplicated_oracle(ds));
        assert_eq!(actual.columns, expected.columns);
        assert_eq!((actual.rows, &actual.pool), (expected.rows, &ds.pool));
        for column in &actual.columns {
            assert_eq!(column.capacity(), column.len());
        }
        let mut families = actual.rows;
        for group in ds.duplicate_groups() {
            assert!(group.len() > 1 && group.is_sorted());
            let image = ds.row_ids(group[0]);
            assert!(group.iter().all(|&t| ds.row_ids(t) == image));
            families += group.len() - 1;
        }
        assert_eq!(families, ds.rows, "every later duplicate is in one group");
        actual
    }

    #[test]
    fn deduplicated_named_cases_match_the_row_image_definition() {
        // No rows; one column; all rows equal; all rows distinct.
        assert!(assert_deduplicates_like_the_oracle(&table(3, &[])).is_empty());
        let one_column = table(1, &[vec![1], vec![2], vec![1], vec![3], vec![2]]);
        assert_eq!(assert_deduplicates_like_the_oracle(&one_column).len(), 3);
        let equal = table(3, &vec![vec![4, 5, 6]; 9]);
        assert_eq!(assert_deduplicates_like_the_oracle(&equal).len(), 1);
        let distinct: Vec<Vec<usize>> = (0..40).map(|i| vec![i / 7, i % 7]).collect();
        assert_eq!(
            assert_deduplicates_like_the_oracle(&table(2, &distinct)).len(),
            40
        );
        // Arity 0: every row is the empty row.
        let mut empty_rows = table(0, &[]);
        assert!(assert_deduplicates_like_the_oracle(&empty_rows).is_empty());
        for _ in 0..3 {
            empty_rows.push_row(Vec::new()).unwrap();
        }
        assert_eq!(assert_deduplicates_like_the_oracle(&empty_rows).len(), 1);
        assert_eq!(empty_rows.duplicate_groups().len(), 1);
        // Two rows that differ in the last column only.
        let last = table(4, &[vec![1, 2, 3, 4], vec![1, 2, 3, 5], vec![1, 2, 3, 4]]);
        let deduplicated = assert_deduplicates_like_the_oracle(&last);
        assert_eq!(deduplicated.len(), 2);
        assert_eq!(deduplicated.value(TupleId(1), AttrId(3)), "v5");
    }

    #[test]
    fn the_first_occurrence_survives_in_its_place() {
        // B A B C A: the survivors are rows 0, 1 and 3, in that order, and
        // the groups are listed by first member — B's before A's.
        let ds = table(
            2,
            &[vec![2, 2], vec![1, 1], vec![2, 2], vec![3, 3], vec![1, 1]],
        );
        let first = ds.first_occurrences(&ds.row_hashes());
        assert_eq!(first, vec![0, 1, 0, 3, 1]);
        let deduplicated = assert_deduplicates_like_the_oracle(&ds);
        assert_eq!(
            deduplicated,
            ds.project_rows(&[TupleId(0), TupleId(1), TupleId(3)])
        );
        assert_eq!(
            ds.duplicate_groups(),
            vec![vec![TupleId(0), TupleId(2)], vec![TupleId(1), TupleId(4)]]
        );
    }

    #[test]
    fn rows_with_colliding_hashes_are_separated_cell_by_cell() {
        // Every row under one hash: the table degenerates to one probe chain
        // and only the cell comparison tells the rows apart.
        let rows: Vec<Vec<usize>> = (0..30).map(|i| vec![i % 5, i % 3, 7]).collect();
        let ds = table(3, &rows);
        let first = ds.first_occurrences(&vec![0; ds.len()]);
        let expected: Vec<u32> = (0..30).map(|i| i % 15).collect();
        assert_eq!(first, expected);
        assert_eq!(first, ds.first_occurrences(&ds.row_hashes()));
    }

    #[test]
    fn row_hashes_depend_on_the_column_order_of_the_values() {
        // (x, y) and (y, x) hold the same ids: a hash that only xors or adds
        // them would chain every such pair of rows.
        let ds = table(2, &[vec![1, 2], vec![2, 1], vec![1, 2]]);
        let hashes = ds.row_hashes();
        assert_ne!(hashes[0], hashes[1]);
        assert_eq!(hashes[0], hashes[2]);
    }

    #[test]
    fn diff_cells_finds_injected_differences() {
        let dirty = sample_hospital_dataset();
        let truth = crate::sample_hospital_truth();
        let diff = dirty.diff_cells(&truth);
        // t2.CT, t3.CT, t3.PN, t4.ST are the erroneous cells of Table 1.
        assert_eq!(diff.len(), 4);
    }

    #[test]
    fn cells_iterator_covers_every_cell() {
        let ds = sample_hospital_dataset();
        assert_eq!(ds.cells().count(), ds.cell_count());
        assert_eq!(ds.cell_count(), 24);
    }

    #[test]
    fn set_value_updates_cell() {
        let mut ds = sample_hospital_dataset();
        let st = ds.schema().attr_id("ST").unwrap();
        ds.set_value(TupleId(3), st, "AL");
        assert_eq!(ds.value(TupleId(3), st), "AL");
    }

    #[test]
    fn set_value_id_and_ids_round_trip() {
        let mut ds = sample_hospital_dataset();
        let st = ds.schema().attr_id("ST").unwrap();
        let al = ds.pool().lookup("AL").unwrap();
        ds.set_value_id(TupleId(3), st, al);
        assert_eq!(ds.value_id(TupleId(3), st), al);
        assert_eq!(ds.value(TupleId(3), st), "AL");
    }

    #[test]
    fn equality_ignores_interning_order() {
        // Same content, different insertion order of *values* within rows →
        // different id assignment, still equal.
        let mut a = Dataset::new(Schema::new(&["x", "y"]));
        a.push_row(vec!["p".into(), "q".into()]).unwrap();
        a.push_row(vec!["r".into(), "s".into()]).unwrap();
        let mut b = Dataset::new(Schema::new(&["x", "y"]));
        b.intern("s");
        b.intern("r");
        b.push_row(vec!["p".into(), "q".into()]).unwrap();
        b.push_row(vec!["r".into(), "s".into()]).unwrap();
        assert_ne!(a.pool(), b.pool());
        assert_eq!(a, b);
    }

    #[test]
    fn extend_rows_is_atomic_on_arity_errors() {
        let mut ds = Dataset::new(Schema::new(&["a", "b"]));
        ds.push_row(vec!["1".into(), "2".into()]).unwrap();
        let err = ds
            .extend_rows(vec![vec!["3".into(), "4".into()], vec!["5".into()]])
            .unwrap_err();
        assert_eq!(
            err,
            ArityMismatch {
                expected: 2,
                actual: 1
            }
        );
        assert_eq!(ds.len(), 1, "a failed batch must not append anything");
        let range = ds
            .extend_rows(vec![
                vec!["3".into(), "4".into()],
                vec!["5".into(), "6".into()],
            ])
            .unwrap();
        assert_eq!(range, 1..3);
        assert_eq!(ds.value(TupleId(2), AttrId(0)), "5");
    }

    #[test]
    fn extend_from_remaps_foreign_pool_ids() {
        let dirty = sample_hospital_dataset();
        // A receiving dataset whose pool assigns different ids to the same
        // strings (values interned in a scrambled order first).
        let mut out = Dataset::new(dirty.schema().clone());
        out.intern("BOAZ");
        out.intern("DOTHAN");
        let range = out.extend_from(&dirty).unwrap();
        assert_eq!(range, 0..dirty.len());
        assert_eq!(out, dirty, "cell values must survive the id remap");
        assert_ne!(out.pool(), dirty.pool());

        // Appending the same batch again only pushes ids, never new strings.
        let before = out.pool().len();
        out.extend_from(&dirty).unwrap();
        assert_eq!(out.pool().len(), before);
        assert_eq!(out.len(), 2 * dirty.len());
    }

    #[test]
    fn extend_from_rejects_different_schemas() {
        let dirty = sample_hospital_dataset();
        let mut out = Dataset::new(Schema::new(&["x"]));
        assert_eq!(out.extend_from(&dirty), Err(SchemaMismatch));
        assert!(out.is_empty());
    }

    #[test]
    fn remove_row_compacts_like_a_rebuild() {
        let ds = sample_hospital_dataset();
        let mut removed = ds.clone();
        removed.remove_row(TupleId(2));
        let survivors: Vec<TupleId> = (0..ds.len()).filter(|&t| t != 2).map(TupleId).collect();
        let rebuilt = ds.project_rows(&survivors);
        assert_eq!(removed, rebuilt);
        // Ids above the removal point shifted down by one.
        let ct = ds.schema().attr_id("CT").unwrap();
        assert_eq!(removed.value(TupleId(2), ct), ds.value(TupleId(3), ct));
    }

    #[test]
    fn remove_rows_handles_unsorted_and_duplicate_ids() {
        let ds = sample_hospital_dataset();
        let mut removed = ds.clone();
        removed.remove_rows(&[TupleId(4), TupleId(1), TupleId(4)]);
        let rebuilt = ds.project_rows(&[TupleId(0), TupleId(2), TupleId(3), TupleId(5)]);
        assert_eq!(removed, rebuilt);
        assert_eq!(removed.len(), 4);
        // Removing nothing is a no-op.
        let before = removed.clone();
        removed.remove_rows(&[]);
        assert_eq!(removed, before);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_row_rejects_out_of_range_ids() {
        let mut ds = sample_hospital_dataset();
        ds.remove_row(TupleId(6));
    }

    #[test]
    fn project_rows_shares_pool_snapshot() {
        let ds = sample_hospital_dataset();
        let part = ds.project_rows(&[TupleId(3), TupleId(0)]);
        assert_eq!(part.len(), 2);
        // Ids are directly comparable across the snapshot boundary.
        let st = ds.schema().attr_id("ST").unwrap();
        assert_eq!(part.value_id(TupleId(0), st), ds.value_id(TupleId(3), st));
        assert_eq!(part.value(TupleId(1), st), "AL");
    }

    #[test]
    fn deduplicated_matches_the_row_image_definition() {
        let mut rng = Rng::labelled(concat!(
            module_path!(),
            "::deduplicated_matches_the_row_image_definition"
        ));
        for _ in 0..64 {
            let arity = rng.below(5);
            let domain = 1 + rng.below(3);
            let cells = (0..rng.below(400))
                .map(|_| rng.below(1000))
                .collect::<Vec<_>>();
            // Few values per column: most rows repeat an earlier one.
            let rows: Vec<Vec<usize>> = cells
                .chunks_exact(arity.max(1))
                .map(|row| row[..arity].iter().map(|v| v % domain).collect())
                .collect();
            let ds = table(arity, &rows);
            let deduplicated = assert_deduplicates_like_the_oracle(&ds);
            assert!(deduplicated.len() <= domain.pow(arity as u32));
        }
    }
}
