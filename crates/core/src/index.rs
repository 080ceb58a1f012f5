//! The two-layer **MLN index** (Section 4 of the paper).
//!
//! The first layer has one [`Block`] per rule; the second layer partitions a
//! block's pieces of data into [`Group`]s sharing the same reason-part
//! values.  Cleaning then proceeds block by block, group by group, never
//! needing information from outside the block — this is what shrinks the
//! search space of repair candidates.
//!
//! Group keys are interned `Vec<ValueId>`s: per-tuple grouping is hash work
//! over `u32`s, with a single string-ordered sort at the end of construction
//! so block/group ordering (and therefore all downstream tie-breaking) is
//! identical to the historical string-keyed index.  The index carries a
//! snapshot of the dataset's [`ValuePool`] (a handle on the same storage, not
//! a copy), so every consumer (AGP, RSC, FSCR, weight merging, reporting) can
//! resolve ids without re-touching the dataset.
//!
//! Construction cost is `O(|rules| × |tuples|)` as analysed in the paper.

use crate::gamma::Gamma;
use crate::map_ordered;
use dataset::{AttrId, Dataset, TupleId, ValueId, ValuePool};
use rules::{Rule, RuleId, RuleSet};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A second-layer group: all γs sharing the same reason-part values within a
/// block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    /// The shared reason-part values (interned).
    pub key: Vec<ValueId>,
    /// The distinct pieces of data in the group (same reason part, possibly
    /// different result parts — more than one γ means the group is dirty).
    pub gammas: Vec<Gamma>,
}

mlnw::codec! { struct Group { key, gammas } }

impl Group {
    /// Create a group from its key.
    pub fn new(key: Vec<ValueId>) -> Self {
        Group {
            key,
            gammas: Vec::new(),
        }
    }

    /// Total number of tuples related to the group's γs — the quantity AGP
    /// compares against the threshold τ.
    pub fn tuple_count(&self) -> usize {
        self.gammas.iter().map(|g| g.support()).sum()
    }

    /// Number of distinct γs.
    pub fn gamma_count(&self) -> usize {
        self.gammas.len()
    }

    /// The γ* related to the most tuples — the group representative used for
    /// inter-group distances in AGP.
    pub fn dominant_gamma(&self) -> Option<&Gamma> {
        self.gammas.iter().max_by_key(|g| g.support())
    }

    /// All tuple ids covered by the group.
    pub fn all_tuples(&self) -> Vec<TupleId> {
        let mut out: Vec<TupleId> = self
            .gammas
            .iter()
            .flat_map(|g| g.tuples.iter().copied())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Move `gammas` (another group's, by value) into this group the way an
    /// AGP merge does: a γ whose full value vector — an id comparison —
    /// matches one already here extends that γ's tuples, any other γ is
    /// appended.
    pub(crate) fn absorb_gammas(&mut self, gammas: impl IntoIterator<Item = Gamma>) {
        for gamma in gammas {
            if let Some(existing) = self.gammas.iter_mut().find(|g| {
                g.reason_values == gamma.reason_values && g.result_values == gamma.result_values
            }) {
                existing.tuples.extend(gamma.tuples);
            } else {
                self.gammas.push(gamma);
            }
        }
    }

    /// Whether the group is already in the ideal clean state (exactly one γ).
    pub fn is_clean(&self) -> bool {
        self.gammas.len() == 1
    }

    /// The group key resolved through a pool.
    pub fn resolve_key<'p>(&self, pool: &'p ValuePool) -> Vec<&'p str> {
        pool.resolve_all(&self.key)
    }
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key: Vec<String> = self.key.iter().map(|v| v.to_string()).collect();
        writeln!(
            f,
            "group[{}] ({} tuples)",
            key.join("|"),
            self.tuple_count()
        )?;
        for g in &self.gammas {
            writeln!(f, "  {g} x{}", g.support())?;
        }
        Ok(())
    }
}

/// A first-layer block: every piece of data of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The rule this block corresponds to.
    pub rule: RuleId,
    /// Reason-part attributes of the rule (schema ids, rule order).
    pub reason_attrs: Vec<AttrId>,
    /// Result-part attributes of the rule (schema ids, rule order).
    pub result_attrs: Vec<AttrId>,
    /// The block's groups, ordered by their string-resolved keys.
    pub groups: Vec<Group>,
}

mlnw::codec! { struct Block { rule, reason_attrs, result_attrs, groups } }

impl Block {
    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Find the group with the given (interned) reason-part key.
    pub fn group_by_key_ids(&self, key: &[ValueId]) -> Option<&Group> {
        self.groups.iter().find(|g| g.key == key)
    }

    /// Iterate over every γ in the block.
    pub fn gammas(&self) -> impl Iterator<Item = &Gamma> {
        self.groups.iter().flat_map(|g| g.gammas.iter())
    }

    /// Total number of distinct γs in the block (the `M` of Eq. 4).
    pub fn gamma_count(&self) -> usize {
        self.groups.iter().map(|g| g.gamma_count()).sum()
    }
}

/// Error returned when the index cannot be built or maintained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// A rule references an attribute that is not in the dataset schema.
    UnknownAttribute {
        /// The offending rule.
        rule: RuleId,
        /// The missing attribute name.
        attribute: String,
    },
    /// [`MlnIndex::remove_tuples`] was handed a tuple id past the dataset's
    /// last row.
    TupleOutOfRange {
        /// The offending tuple id.
        tuple: TupleId,
        /// Number of rows the dataset holds.
        rows: usize,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::UnknownAttribute { rule, attribute } => {
                write!(f, "rule {rule} references unknown attribute {attribute:?}")
            }
            IndexError::TupleOutOfRange { tuple, rows } => {
                write!(f, "cannot remove tuple {tuple}: the data has {rows} rows")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// What one [`MlnIndex::insert_tuples`] call changed, per block — the
/// dirtiness information the [`crate::RowStore`] reports to the drivers that
/// decide which groups must re-run the cleaning stages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Number of dataset rows scanned by the insertion.
    pub rows: usize,
    /// Per block (rule order): the interned keys of the distinct groups that
    /// gained a tuple or a γ, or were newly created, in no particular order
    /// — what a cleaning driver marks dirty.
    pub touched_keys: Vec<Vec<Vec<ValueId>>>,
    /// Per block (rule order): groups newly created by the insertion.
    pub created_groups: Vec<usize>,
}

/// What one [`MlnIndex::remove_tuples`] call changed, per block — the
/// mirror image of [`InsertReport`] for deletions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RemoveReport {
    /// Number of tuples removed from the index.
    pub rows: usize,
    /// Per block (rule order): the interned keys of the distinct groups that
    /// lost a tuple, a γ, or were dropped entirely, in no particular order.
    pub touched_keys: Vec<Vec<Vec<ValueId>>>,
    /// Per block (rule order): groups dropped because the removal emptied
    /// them.
    pub removed_groups: Vec<usize>,
}

/// The full two-layer MLN index.
#[derive(Debug, Clone, PartialEq)]
pub struct MlnIndex {
    /// One block per rule, in rule order.
    pub blocks: Vec<Block>,
    /// Snapshot of the indexed dataset's value pool: every id stored in the
    /// blocks resolves here.
    pool: ValuePool,
}

mlnw::codec! { struct MlnIndex { blocks, pool } }

/// Compare two id vectors by their string-resolved values — the ordering the
/// historical string-keyed index used for groups and γs, preserved so every
/// downstream tie-break stays byte-identical.  Public because external
/// coordinators that assemble blocks (e.g. the distributed streaming merge)
/// must restore exactly this ordering; do not reimplement it.
pub fn cmp_resolved(pool: &ValuePool, a: &[ValueId], b: &[ValueId]) -> Ordering {
    let ka = a.iter().map(|&v| pool.resolve(v));
    let kb = b.iter().map(|&v| pool.resolve(v));
    ka.cmp(kb)
}

impl MlnIndex {
    /// Build the index for `ds` under `rules` (lines 1–13 of Algorithm 1),
    /// constructing the per-rule blocks in parallel.  Blocks are independent
    /// and reassembled in rule order, so the result is byte-identical to
    /// [`MlnIndex::build_serial`].
    pub fn build(ds: &Dataset, rules: &RuleSet) -> Result<Self, IndexError> {
        Self::build_with(ds, rules, true)
    }

    /// [`MlnIndex::build_with`] on the calling thread alone — the same body
    /// as [`MlnIndex::build`], for the parallel-equivalence tests and
    /// single-core profiling.
    pub fn build_serial(ds: &Dataset, rules: &RuleSet) -> Result<Self, IndexError> {
        Self::build_with(ds, rules, false)
    }

    /// Build the index, mapping the per-rule-block body over the rayon pool
    /// or the calling thread (the [`crate::CleanConfig::parallel`] toggle).
    pub fn build_with(ds: &Dataset, rules: &RuleSet, parallel: bool) -> Result<Self, IndexError> {
        Self::validate(ds, rules)?;
        // An empty snapshot adopts the dataset's id table: a reference bump.
        let mut pool = ValuePool::new();
        pool.sync_from(ds.pool());
        let pairs: Vec<(RuleId, &Rule)> = rules.iter_with_ids().collect();
        let blocks = map_ordered(parallel, pairs, |(rule_id, rule)| {
            build_block(ds, &pool, rule_id, rule)
        });
        Ok(MlnIndex { blocks, pool })
    }

    /// Check every rule against the dataset schema, so later projections
    /// cannot panic.
    fn validate(ds: &Dataset, rules: &RuleSet) -> Result<(), IndexError> {
        for (rule_id, rule) in rules.iter_with_ids() {
            for attr in rule.all_attrs() {
                if ds.schema().attr_id(&attr).is_none() {
                    return Err(IndexError::UnknownAttribute {
                        rule: rule_id,
                        attribute: attr,
                    });
                }
            }
        }
        Ok(())
    }

    /// Incrementally insert the dataset rows `from..ds.len()` into the
    /// existing blocks/groups.
    ///
    /// `self` must have been built (or incrementally grown) from exactly the
    /// first `from` rows of `ds` under the same `rules`; the call then makes
    /// it byte-identical to `MlnIndex::build(ds, rules)` — new γs and groups
    /// are spliced in at their string-sorted positions, and tuple ids append
    /// in dataset order.  The pool snapshot is refreshed from `ds`, which is
    /// sound because [`ValuePool`] ids are append-only stable.
    ///
    /// Blocks are processed in parallel when `parallel` is set (byte-identical
    /// to the serial path).  The returned [`InsertReport`] says which groups
    /// and blocks were touched.
    pub fn insert_tuples(
        &mut self,
        ds: &Dataset,
        rules: &RuleSet,
        from: usize,
        parallel: bool,
    ) -> InsertReport {
        self.pool.sync_from(ds.pool());
        let rows = ds.len().saturating_sub(from);
        let mut report = InsertReport {
            rows,
            touched_keys: vec![Vec::new(); self.blocks.len()],
            created_groups: vec![0; self.blocks.len()],
        };
        if rows > 0 {
            let inserted = self.map_blocks(rules, parallel, |block, pool, rule| {
                insert_range_into_block(block, ds, pool, rule, from)
            });
            (report.touched_keys, report.created_groups) = inserted.into_iter().unzip();
        }
        report
    }

    /// Incrementally remove tuples from the blocks/groups — the splice-out
    /// mirror of [`MlnIndex::insert_tuples`].
    ///
    /// `ds` must be the dataset the index was built from **still containing**
    /// the rows (the caller compacts the dataset afterwards); `ids` are
    /// interpreted against that pre-removal numbering.  After the call the
    /// index is byte-identical to `MlnIndex::build` over the surviving rows
    /// (with their post-compaction ids): each tuple is spliced out of its
    /// sorted γ position, γs and groups emptied by the removal are dropped,
    /// and every surviving id greater than a removed one shifts down.
    ///
    /// Blocks are processed in parallel when `parallel` is set
    /// (byte-identical to the serial path).  The returned [`RemoveReport`]
    /// says which groups and blocks were touched.  An id past `ds`'s last row
    /// is an [`IndexError::TupleOutOfRange`] and leaves the index untouched.
    pub fn remove_tuples(
        &mut self,
        ds: &Dataset,
        rules: &RuleSet,
        ids: &[TupleId],
        parallel: bool,
    ) -> Result<RemoveReport, IndexError> {
        let mut removed: Vec<usize> = ids.iter().map(|t| t.0).collect();
        removed.sort_unstable();
        removed.dedup();
        let mut report = RemoveReport {
            rows: removed.len(),
            touched_keys: vec![Vec::new(); self.blocks.len()],
            removed_groups: vec![0; self.blocks.len()],
        };
        if let Some(&last) = removed.last() {
            if last >= ds.len() {
                return Err(IndexError::TupleOutOfRange {
                    tuple: TupleId(last),
                    rows: ds.len(),
                });
            }
            let removed = &removed;
            let spliced = self.map_blocks(rules, parallel, |block, pool, rule| {
                let counts = remove_ids_from_block(block, ds, pool, rule, removed);
                remap_block_after_removal(block, removed);
                counts
            });
            (report.touched_keys, report.removed_groups) = spliced.into_iter().unzip();
        }
        Ok(report)
    }

    /// Incrementally re-home one tuple after a cell update.
    ///
    /// `ds` must already hold the **new** value; `old_row` is the tuple's
    /// full pre-update id row (schema order, resolving in `ds`'s pool, whose
    /// interned values are append-only).  For every block whose membership
    /// or projection changed, the tuple is spliced out of its old γ position
    /// and into its new one (both string-sorted, so the block stays
    /// byte-identical to a rebuild over the updated dataset).  Blocks whose
    /// rule does not see the change are untouched.
    ///
    /// Returns, per block (rule order), the interned keys of the distinct
    /// groups touched — the tuple's pre-update group, its post-update group,
    /// or both (empty = block untouched).  The keys are what the incremental
    /// [`crate::CleaningSession`] marks dirty for its group-scoped refresh.
    pub fn update_tuple(
        &mut self,
        ds: &Dataset,
        rules: &RuleSet,
        t: TupleId,
        old_row: &[ValueId],
        parallel: bool,
    ) -> Vec<Vec<Vec<ValueId>>> {
        // The update may have interned a brand-new value.
        self.pool.sync_from(ds.pool());
        self.map_blocks(rules, parallel, |block, pool, rule| {
            rehome_tuple_in_block(block, ds, pool, rule, t, old_row)
        })
    }

    /// Run `f` over every block beside its rule — the pool snapshot to
    /// resolve through in hand, on the rayon pool when `parallel` — and
    /// return what it said of each, in rule order: the shared frame of the
    /// three incremental maintenance calls above.
    fn map_blocks<R: Send>(
        &mut self,
        rules: &RuleSet,
        parallel: bool,
        f: impl Fn(&mut Block, &ValuePool, &Rule) -> R + Sync + Send,
    ) -> Vec<R> {
        // A hard assert, not a debug one: a mismatched rule set would make
        // the zip below silently drop blocks from the index in release
        // builds.
        assert_eq!(
            self.blocks.len(),
            rules.len(),
            "the index is maintained under the rule set it was built from"
        );
        let (blocks, pool) = self.split_mut();
        let pairs: Vec<(Block, &Rule)> = std::mem::take(blocks)
            .into_iter()
            .zip(rules.iter_with_ids().map(|(_, rule)| rule))
            .collect();
        let mapped = map_ordered(parallel, pairs, |(mut block, rule)| {
            let out = f(&mut block, pool, rule);
            (block, out)
        });
        let (done, out) = mapped.into_iter().unzip();
        *blocks = done;
        out
    }

    /// Assemble an index from externally built blocks and the pool their
    /// value ids resolve through — the constructor external coordinators
    /// (e.g. the distributed streaming driver, which merges per-partition
    /// pristine blocks into global ones) use.  The caller is responsible
    /// for the blocks' invariants: groups sorted by string-resolved key, γs
    /// by resolved value vector, tuple lists ascending.
    pub fn from_parts(blocks: Vec<Block>, pool: ValuePool) -> Self {
        MlnIndex { blocks, pool }
    }

    /// Splice removed tuple ids out of every γ tuple list and shift the
    /// surviving ids down, **without** restructuring groups or γs.
    ///
    /// This keeps cached post-Stage-I block state (where AGP may have merged
    /// groups and RSC rewritten γs) consistent after a dataset compaction:
    /// blocks the removal never touched only need the id shift, and blocks
    /// it did touch are about to be re-cleaned from pristine state anyway.
    /// `removed` must be sorted, deduplicated pre-removal row indices.
    pub fn remap_removed(&mut self, removed: &[usize]) {
        if removed.is_empty() {
            return;
        }
        for block in &mut self.blocks {
            remap_block_after_removal(block, removed);
        }
    }

    /// Catch the pool snapshot up to an append-only descendant
    /// ([`ValuePool::sync_from`]: an empty snapshot adopts the descendant's
    /// arena, a non-empty one appends only the tail of new values; no string
    /// is hashed either way), so every stored id keeps resolving to the same
    /// string.
    pub(crate) fn sync_pool_from(&mut self, descendant: &ValuePool) {
        self.pool.sync_from(descendant);
    }

    /// The pool snapshot every block id resolves through.  It names the
    /// indexed dataset's arena — shared, not copied, until the dataset
    /// interns a value the snapshot has yet to be synced to — and carries no
    /// string → id table unless something calls [`ValuePool::lookup`] on it.
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// Simultaneous mutable access to the blocks and shared access to the
    /// pool (the borrow shape AGP/RSC need to rewrite blocks while resolving
    /// strings).
    pub fn split_mut(&mut self) -> (&mut Vec<Block>, &ValuePool) {
        (&mut self.blocks, &self.pool)
    }

    /// The block of a rule.
    pub fn block(&self, rule: RuleId) -> &Block {
        &self.blocks[rule.index()]
    }

    /// Number of blocks (= number of rules).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Find a group by its string key within a rule's block (resolves through
    /// the pool snapshot; mostly a test/debug convenience).
    pub fn group_by_key(&self, rule: RuleId, key: &[&str]) -> Option<&Group> {
        let ids: Option<Vec<ValueId>> = key.iter().map(|v| self.pool.lookup(v)).collect();
        let ids = ids?;
        self.block(rule).group_by_key_ids(&ids)
    }
}

/// Build one rule's block from scratch (the per-rule body of Algorithm 1,
/// lines 1–13) — the unit of work of the parallel index construction.
fn build_block(ds: &Dataset, pool: &ValuePool, rule_id: RuleId, rule: &Rule) -> Block {
    let schema = ds.schema();
    let reason_attrs: Vec<AttrId> = rule
        .reason_attrs()
        .iter()
        .map(|a| {
            schema
                .attr_id(a)
                .expect("rules validated against the schema")
        })
        .collect();
    let result_attrs: Vec<AttrId> = rule
        .result_attrs()
        .iter()
        .map(|a| {
            schema
                .attr_id(a)
                .expect("rules validated against the schema")
        })
        .collect();

    // full γ key (reason ids, then result ids) -> γ.  The row's key is built
    // in one reused buffer and looked up by slice, so a row whose γ exists
    // costs one integer hash probe and a push; only a γ's first tuple
    // allocates.  No string is cloned, hashed or compared while scanning.
    let arity = reason_attrs.len();
    let mut gammas: HashMap<Vec<ValueId>, Gamma> = HashMap::new();
    let mut key: Vec<ValueId> = Vec::with_capacity(arity + result_attrs.len());
    for t in ds.tuples() {
        if !rule.is_relevant(schema, &t) {
            continue;
        }
        key.clear();
        key.extend(
            reason_attrs
                .iter()
                .chain(&result_attrs)
                .map(|&a| t.value_id(a)),
        );
        if let Some(gamma) = gammas.get_mut(key.as_slice()) {
            gamma.tuples.push(t.id());
            continue;
        }
        let (vl, vr) = (key[..arity].to_vec(), key[arity..].to_vec());
        let mut gamma = Gamma::new(rule_id, reason_attrs.clone(), vl, result_attrs.clone(), vr);
        gamma.tuples.push(t.id());
        gammas.insert(key.clone(), gamma);
    }

    // Restore the historical deterministic ordering: groups sorted by their
    // string-resolved keys, γs within a group by their resolved full value
    // vector (exactly the old BTreeMap-over-Vec<String> iteration order).
    // Every γ leads with its group's key and the reason arity is fixed, so
    // one sort by the full vector orders the groups and the γs inside them
    // at once and leaves each group contiguous.
    let mut gammas: Vec<Gamma> = gammas.into_values().collect();
    gammas.sort_by(|a, b| cmp_resolved_gammas(pool, a, b));
    let mut groups: Vec<Group> = Vec::new();
    for gamma in gammas {
        match groups.last_mut() {
            Some(group) if group.key == gamma.reason_values => group.gammas.push(gamma),
            _ => groups.push(Group {
                key: gamma.reason_values.clone(),
                gammas: vec![gamma],
            }),
        }
    }
    Block {
        rule: rule_id,
        reason_attrs,
        result_attrs,
        groups,
    }
}

/// Compare two γs by their string-resolved full value vector (reason part
/// then result part) — the within-group ordering of the index.  Public for
/// the same reason as [`cmp_resolved`].
pub fn cmp_resolved_gammas(pool: &ValuePool, a: &Gamma, b: &Gamma) -> Ordering {
    let ka = a
        .reason_values
        .iter()
        .chain(&a.result_values)
        .map(|&v| pool.resolve(v));
    let kb = b
        .reason_values
        .iter()
        .chain(&b.result_values)
        .map(|&v| pool.resolve(v));
    ka.cmp(kb)
}

/// Where the group keyed `vl` is — or would go — in the block's string order.
fn find_group(block: &Block, pool: &ValuePool, vl: &[ValueId]) -> Result<usize, usize> {
    block
        .groups
        .binary_search_by(|g| cmp_resolved(pool, &g.key, vl))
}

/// Where the γ with result part `vr` is — or would go — in the string order
/// of a pristine group: its γs all carry the group's key as their reason
/// part, so [`cmp_resolved_gammas`]' order is the order of their result parts.
fn find_gamma(group: &Group, pool: &ValuePool, vr: &[ValueId]) -> Result<usize, usize> {
    group
        .gammas
        .binary_search_by(|g| cmp_resolved(pool, &g.result_values, vr))
}

/// Put tuple `t` into the γ `(vl, vr)` of `block`, at its ascending position
/// in the γ's tuple list (the end, for a newly appended row), creating the γ
/// — and the group — at their string-sorted positions when absent.  Returns
/// whether the group was created.
fn splice_in(
    block: &mut Block,
    pool: &ValuePool,
    vl: &[ValueId],
    vr: Vec<ValueId>,
    t: TupleId,
) -> bool {
    let new_gamma = |block: &Block, vr: Vec<ValueId>| {
        let (reason, result) = (block.reason_attrs.clone(), block.result_attrs.clone());
        let mut gamma = Gamma::new(block.rule, reason, vl.to_vec(), result, vr);
        gamma.tuples.push(t);
        gamma
    };
    match find_group(block, pool, vl) {
        Ok(i) => {
            match find_gamma(&block.groups[i], pool, &vr) {
                Ok(j) => {
                    let tuples = &mut block.groups[i].gammas[j].tuples;
                    tuples.insert(tuples.partition_point(|&held| held < t), t);
                }
                Err(j) => {
                    let gamma = new_gamma(block, vr);
                    block.groups[i].gammas.insert(j, gamma);
                }
            }
            false
        }
        Err(i) => {
            let gammas = vec![new_gamma(block, vr)];
            let key = vl.to_vec();
            block.groups.insert(i, Group { key, gammas });
            true
        }
    }
}

/// Take tuple `t` out of the γ `(vl, vr)` of `block`, dropping the γ if that
/// empties it and then the group if that empties it — exactly what a rebuild
/// without the tuple would omit.  Returns whether the group was dropped.
fn splice_out(
    block: &mut Block,
    pool: &ValuePool,
    vl: &[ValueId],
    vr: &[ValueId],
    t: TupleId,
) -> bool {
    let i = find_group(block, pool, vl).expect("the tuple's group is in the index");
    let group = &mut block.groups[i];
    let j = find_gamma(group, pool, vr).expect("the tuple's γ is in the index");
    let tuples = &mut group.gammas[j].tuples;
    let k = tuples.binary_search(&t).expect("the tuple id is in its γ");
    tuples.remove(k);
    if tuples.is_empty() {
        group.gammas.remove(j);
    }
    let dropped = group.gammas.is_empty();
    if dropped {
        block.groups.remove(i);
    }
    dropped
}

/// Insert the rows `from..ds.len()` into one block, keeping the block
/// byte-identical to a full rebuild ([`splice_in`]; tuple ids append in
/// dataset order).  Returns `(touched group keys, created groups)`.
fn insert_range_into_block(
    block: &mut Block,
    ds: &Dataset,
    pool: &ValuePool,
    rule: &Rule,
    from: usize,
) -> (Vec<Vec<ValueId>>, usize) {
    let schema = ds.schema();
    let mut touched: HashSet<Vec<ValueId>> = HashSet::new();
    let mut created = 0usize;
    for t in (from..ds.len()).map(TupleId) {
        let tuple = ds.tuple(t);
        if !rule.is_relevant(schema, &tuple) {
            continue;
        }
        let vl = tuple.project_ids(&block.reason_attrs);
        let vr = tuple.project_ids(&block.result_attrs);
        created += usize::from(splice_in(block, pool, &vl, vr, t));
        touched.insert(vl);
    }
    (touched.into_iter().collect(), created)
}

/// Splice the (sorted, deduplicated, pre-removal) row indices `removed` out
/// of one block ([`splice_out`]).  Ids are NOT shifted here (see
/// [`remap_block_after_removal`]).  Returns `(touched group keys, dropped
/// groups)`.
fn remove_ids_from_block(
    block: &mut Block,
    ds: &Dataset,
    pool: &ValuePool,
    rule: &Rule,
    removed: &[usize],
) -> (Vec<Vec<ValueId>>, usize) {
    let schema = ds.schema();
    let mut touched: HashSet<Vec<ValueId>> = HashSet::new();
    let mut dropped = 0usize;
    for &r in removed {
        let t = TupleId(r);
        let tuple = ds.tuple(t);
        if !rule.is_relevant(schema, &tuple) {
            continue;
        }
        let vl = tuple.project_ids(&block.reason_attrs);
        let vr = tuple.project_ids(&block.result_attrs);
        dropped += usize::from(splice_out(block, pool, &vl, &vr, t));
        touched.insert(vl);
    }
    (touched.into_iter().collect(), dropped)
}

/// Shift every γ tuple id down by the number of (sorted, deduplicated)
/// `removed` indices below it, dropping exact matches — the id-space
/// compaction that follows a dataset row removal.
fn remap_block_after_removal(block: &mut Block, removed: &[usize]) {
    for group in &mut block.groups {
        for gamma in &mut group.gammas {
            dataset::remap_ids_after_removal(&mut gamma.tuples, removed);
        }
    }
}

/// Move tuple `t` from its pre-update γ to its post-update γ within one
/// block ([`splice_out`], then [`splice_in`]).  Returns the
/// interned keys of the distinct groups touched — old first, then new when
/// they differ (empty when the rule cannot see the update).
fn rehome_tuple_in_block(
    block: &mut Block,
    ds: &Dataset,
    pool: &ValuePool,
    rule: &Rule,
    t: TupleId,
    old_row: &[ValueId],
) -> Vec<Vec<ValueId>> {
    let schema = ds.schema();
    let tuple = ds.tuple(t);
    let old_relevant = rule.is_relevant_ids(schema, pool, old_row);
    let new_relevant = rule.is_relevant(schema, &tuple);
    let project_old =
        |attrs: &[AttrId]| -> Vec<ValueId> { attrs.iter().map(|a| old_row[a.index()]).collect() };
    let old_vl = project_old(&block.reason_attrs);
    let old_vr = project_old(&block.result_attrs);
    let new_vl = tuple.project_ids(&block.reason_attrs);
    let new_vr = tuple.project_ids(&block.result_attrs);
    if old_relevant == new_relevant && (!old_relevant || (old_vl == new_vl && old_vr == new_vr)) {
        return Vec::new(); // the rule cannot tell the old and new rows apart
    }

    let mut touched: Vec<Vec<ValueId>> = Vec::with_capacity(2);
    if old_relevant {
        splice_out(block, pool, &old_vl, &old_vr, t);
        touched.push(old_vl);
    }
    if new_relevant {
        splice_in(block, pool, &new_vl, new_vr, t);
        if !touched.contains(&new_vl) {
            touched.push(new_vl);
        }
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::sample_hospital_dataset;
    use rules::sample_hospital_rules;

    fn build_sample_index() -> MlnIndex {
        MlnIndex::build(&sample_hospital_dataset(), &sample_hospital_rules()).unwrap()
    }

    #[test]
    fn figure2_block_and_group_counts() {
        // Figure 2: blocks B1, B2, B3 have 3, 3, 2 groups respectively.
        let index = build_sample_index();
        assert_eq!(index.block_count(), 3);
        let counts: Vec<usize> = index.blocks.iter().map(|b| b.group_count()).collect();
        assert_eq!(counts, vec![3, 3, 2]);
    }

    #[test]
    fn block1_group_keys_match_figure2() {
        let index = build_sample_index();
        let b1 = index.block(RuleId(0));
        let keys: Vec<Vec<&str>> = b1
            .groups
            .iter()
            .map(|g| g.resolve_key(index.pool()))
            .collect();
        assert!(keys.contains(&vec!["DOTHAN"]));
        assert!(keys.contains(&vec!["DOTH"]));
        assert!(keys.contains(&vec!["BOAZ"]));
    }

    #[test]
    fn groups_are_ordered_by_string_key() {
        // The interned index must preserve the historical BTreeMap-over-
        // strings group order, not id (first-appearance) order.
        let index = build_sample_index();
        for block in &index.blocks {
            let keys: Vec<Vec<&str>> = block
                .groups
                .iter()
                .map(|g| g.resolve_key(index.pool()))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted, "block {:?} groups out of order", block.rule);
        }
    }

    #[test]
    fn boaz_group_has_two_gammas_with_expected_support() {
        let index = build_sample_index();
        let boaz = index.group_by_key(RuleId(0), &["BOAZ"]).unwrap();
        assert_eq!(boaz.gamma_count(), 2);
        assert_eq!(boaz.tuple_count(), 3);
        let dominant = boaz.dominant_gamma().unwrap();
        assert_eq!(dominant.resolve_result_values(index.pool()), vec!["AL"]);
        assert_eq!(dominant.support(), 2);
        assert!(!boaz.is_clean());
    }

    #[test]
    fn cfd_block_only_contains_relevant_tuples() {
        let index = build_sample_index();
        let b3 = index.block(RuleId(2));
        let all_tuples: Vec<TupleId> = b3.groups.iter().flat_map(|g| g.all_tuples()).collect();
        assert!(!all_tuples.contains(&TupleId(0)));
        assert!(!all_tuples.contains(&TupleId(1)));
        assert_eq!(all_tuples.len(), 4);
    }

    #[test]
    fn dc_block_groups_by_phone_number() {
        let ds = sample_hospital_dataset();
        let index = build_sample_index();
        let b2 = index.block(RuleId(1));
        assert_eq!(b2.reason_attrs, vec![ds.schema().attr_id("PN").unwrap()]);
        assert_eq!(b2.result_attrs, vec![ds.schema().attr_id("ST").unwrap()]);
        let g = index.group_by_key(RuleId(1), &["2567688400"]).unwrap();
        assert_eq!(g.gamma_count(), 2, "AK and AL versions");
        assert_eq!(g.tuple_count(), 3);
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let ds = sample_hospital_dataset();
        let mut rules = rules::RuleSet::default();
        rules.push(rules::Rule::Fd(rules::FunctionalDependency::new(
            vec!["CT"],
            vec!["MISSING"],
        )));
        let err = MlnIndex::build(&ds, &rules).unwrap_err();
        assert_eq!(
            err,
            IndexError::UnknownAttribute {
                rule: RuleId(0),
                attribute: "MISSING".to_string()
            }
        );
    }

    #[test]
    fn clean_data_produces_singleton_groups() {
        let truth = dataset::sample_hospital_truth();
        let index = MlnIndex::build(&truth, &sample_hospital_rules()).unwrap();
        for block in &index.blocks {
            for group in &block.groups {
                assert!(
                    group.is_clean(),
                    "clean data must give one γ per group: {group}"
                );
            }
        }
    }

    #[test]
    fn parallel_and_serial_build_are_byte_identical() {
        let cases = [
            sample_hospital_dataset(),
            datagen::HaiGenerator::default()
                .with_rows(300)
                .with_providers(12)
                .dirty(0.08, 0.5, 11)
                .dirty,
        ];
        for (ds, rules) in [
            (&cases[0], sample_hospital_rules()),
            (&cases[1], datagen::HaiGenerator::rules()),
        ] {
            let par = MlnIndex::build(ds, &rules).unwrap();
            let ser = MlnIndex::build_serial(ds, &rules).unwrap();
            assert_eq!(par, ser);
            assert_eq!(format!("{par:?}"), format!("{ser:?}"));
        }
    }

    #[test]
    fn incremental_insert_matches_full_build() {
        // For every split point: build on the prefix, insert the rest, and
        // the index must be byte-identical to a full build — serial and
        // parallel insertion alike.
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let full = MlnIndex::build(&ds, &rules).unwrap();
        for split in 0..=ds.len() {
            for parallel in [false, true] {
                let prefix = ds.project_rows(&(0..split).map(TupleId).collect::<Vec<_>>());
                let mut index = MlnIndex::build_serial(&prefix, &rules).unwrap();
                let report = index.insert_tuples(&ds, &rules, split, parallel);
                assert_eq!(report.rows, ds.len() - split);
                assert_eq!(
                    format!("{index:?}"),
                    format!("{full:?}"),
                    "split {split} (parallel={parallel}) diverged from the full build"
                );
            }
        }
    }

    #[test]
    fn incremental_insert_matches_full_build_on_hai() {
        let dirty = datagen::HaiGenerator::default()
            .with_rows(240)
            .with_providers(10)
            .dirty(0.08, 0.5, 7)
            .dirty;
        let rules = datagen::HaiGenerator::rules();
        let full = MlnIndex::build(&dirty, &rules).unwrap();
        // Grow in uneven micro-batches from an empty index.
        let empty = Dataset::new(dirty.schema().clone());
        let mut index = MlnIndex::build(&empty, &rules).unwrap();
        let mut at = 0usize;
        while at < dirty.len() {
            let upto = (at + 37).min(dirty.len());
            let prefix = dirty.project_rows(&(0..upto).map(TupleId).collect::<Vec<_>>());
            index.insert_tuples(&prefix, &rules, at, true);
            at = upto;
        }
        assert_eq!(format!("{index:?}"), format!("{full:?}"));
    }

    #[test]
    fn insert_report_tracks_touched_and_created_groups() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        // Build on the first four rows, then insert the last two (t5/t6 are
        // BOAZ duplicates of existing groups).
        let prefix = ds.project_rows(&[TupleId(0), TupleId(1), TupleId(2), TupleId(3)]);
        let mut index = MlnIndex::build(&prefix, &rules).unwrap();
        let report = index.insert_tuples(&ds, &rules, 4, false);
        assert_eq!(report.rows, 2);
        assert_eq!(report.touched_keys.len(), rules.len());
        // The BOAZ rows join existing groups in block B1: nothing created
        // there, and the one key they touch is BOAZ.
        assert_eq!(report.created_groups[0], 0);
        assert_eq!(resolved(&index, &report.touched_keys[0]), [["BOAZ"]]);
    }

    /// Keys resolved through the index's pool, sorted.
    fn resolved<'p>(index: &'p MlnIndex, keys: &[Vec<ValueId>]) -> Vec<Vec<&'p str>> {
        let resolve = |key: &Vec<ValueId>| key.iter().map(|&v| index.pool().resolve(v)).collect();
        let mut keys: Vec<Vec<&str>> = keys.iter().map(resolve).collect();
        keys.sort();
        keys
    }

    #[test]
    fn incremental_remove_matches_rebuild_on_survivors() {
        // For every subset size: remove a spread of tuples and compare with a
        // fresh build over the surviving rows (sharing the pool snapshot so
        // ids are directly comparable) — serial and parallel alike.
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let cases: Vec<Vec<TupleId>> = vec![
            vec![TupleId(0)],
            vec![TupleId(5)],
            vec![TupleId(2), TupleId(4)],
            vec![TupleId(1), TupleId(2), TupleId(3)],
            (0..ds.len()).map(TupleId).collect(),
        ];
        for removed in cases {
            for parallel in [false, true] {
                let mut index = MlnIndex::build(&ds, &rules).unwrap();
                let report = index
                    .remove_tuples(&ds, &rules, &removed, parallel)
                    .unwrap();
                assert_eq!(report.rows, removed.len());
                let survivors: Vec<TupleId> =
                    ds.tuple_ids().filter(|t| !removed.contains(t)).collect();
                let rebuilt = MlnIndex::build_serial(&ds.project_rows(&survivors), &rules).unwrap();
                assert_eq!(
                    format!("{index:?}"),
                    format!("{rebuilt:?}"),
                    "removing {removed:?} (parallel={parallel}) diverged from a rebuild"
                );
            }
        }
    }

    #[test]
    fn remove_report_counts_touched_and_dropped_groups() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        // t2 is the only DOTH tuple: its B1 group disappears entirely.
        let report = index
            .remove_tuples(&ds, &rules, &[TupleId(1)], false)
            .unwrap();
        assert_eq!(report.rows, 1);
        assert_eq!(resolved(&index, &report.touched_keys[0]), [["DOTH"]]);
        assert!(report.removed_groups[0] >= 1, "the DOTH group must drop");
        // Removing nothing is a no-op.
        let untouched = index.clone();
        let report = index.remove_tuples(&ds, &rules, &[], true).unwrap();
        assert_eq!(report.rows, 0);
        assert_eq!(format!("{index:?}"), format!("{untouched:?}"));
    }

    #[test]
    fn removing_an_out_of_range_tuple_is_an_error_and_leaves_the_index_untouched() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        let untouched = index.clone();
        // One valid id beside the bad one: nothing may be half-applied.
        let err = index
            .remove_tuples(&ds, &rules, &[TupleId(0), TupleId(ds.len())], false)
            .unwrap_err();
        assert_eq!(
            err,
            IndexError::TupleOutOfRange {
                tuple: TupleId(ds.len()),
                rows: ds.len(),
            }
        );
        assert_eq!(index, untouched);
    }

    #[test]
    fn incremental_update_matches_rebuild_on_updated_data() {
        // Rewrite single cells (including ones that flip CFD relevance and
        // ones no rule can see) and compare with a fresh build over the
        // updated dataset.
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let schema = ds.schema().clone();
        let cases: Vec<(usize, &str, &str)> = vec![
            (3, "ST", "AL"),      // the paper's t4 repair
            (1, "CT", "DOTHAN"),  // heals the typo group
            (2, "HN", "ALABAMA"), // flips t3 out of the CFD block
            (0, "HN", "ELIZA"),   // flips t1 into the CFD block
            (4, "PN", "999"),     // brand-new value, new γ
            (5, "ST", "AL"),      // no-op update (same value)
        ];
        for (row, attr, value) in cases {
            for parallel in [false, true] {
                let mut updated = ds.clone();
                let mut index = MlnIndex::build(&ds, &rules).unwrap();
                let t = TupleId(row);
                let a = schema.attr_id(attr).unwrap();
                let old_row = updated.row_ids(t);
                updated.set_value(t, a, value);
                let touched = index.update_tuple(&updated, &rules, t, &old_row, parallel);
                let rebuilt = MlnIndex::build_serial(&updated, &rules).unwrap();
                assert_eq!(
                    format!("{index:?}"),
                    format!("{rebuilt:?}"),
                    "updating t{row}.{attr}={value} (parallel={parallel}) diverged from a rebuild"
                );
                if updated.value(t, a) == ds.value(t, a) {
                    assert!(
                        touched.iter().all(|keys| keys.is_empty()),
                        "no-op update must not touch"
                    );
                }
            }
        }
    }

    #[test]
    fn update_leaves_unrelated_blocks_untouched() {
        // An update to an attribute only rule r1 (CT -> ST) can see must not
        // touch the DC or CFD blocks... unless relevance flips.  Updating ST
        // touches B1 (result part) and B2 (result part) but never B3.
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let mut updated = ds.clone();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        let t = TupleId(3);
        let st = ds.schema().attr_id("ST").unwrap();
        let old_row = updated.row_ids(t);
        updated.set_value(t, st, "AL");
        let touched = index.update_tuple(&updated, &rules, t, &old_row, false);
        assert!(!touched[0].is_empty(), "B1's result part changed");
        assert!(!touched[1].is_empty(), "B2's result part changed");
        assert!(touched[2].is_empty(), "B3 (HN,CT => PN) cannot see ST");
        // ST is a result-part attribute in B1 and B2: the tuple stays in the
        // same group, so exactly one key is reported per touched block.
        assert_eq!(touched[0].len(), 1);
        assert_eq!(touched[1].len(), 1);
    }

    #[test]
    fn index_pool_matches_dataset_pool() {
        let ds = sample_hospital_dataset();
        let index = MlnIndex::build(&ds, &sample_hospital_rules()).unwrap();
        assert_eq!(index.pool(), ds.pool());
        // Every id the index stores resolves in the snapshot.
        for block in &index.blocks {
            for gamma in block.gammas() {
                for &v in gamma.reason_values.iter().chain(&gamma.result_values) {
                    assert!(index.pool().contains(v));
                }
            }
        }
    }
}
