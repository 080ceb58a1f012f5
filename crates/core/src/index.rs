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
//!
//! One routine, [`Block::merge_runs`], lays γs into a block, and every
//! writer of a pristine block goes through it: a build inserts every row
//! into empty blocks, an insert its new rows, an update the one row it
//! re-homes, and the streaming coordinator the per-partition γs it merges.
//! A delete is the id remap every γ pays for anyway, plus dropping what it
//! emptied.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::gamma::Gamma;
use crate::map_ordered;
use dataset::{AttrId, Dataset, TupleId, ValueId, ValuePool};
use rules::{Rule, RuleId, RuleSet};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// A second-layer group: all γs sharing the same reason-part values within a
/// block.  Only this crate builds one: every writer goes through
/// [`Block::merge_runs`].
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct Group {
    /// The shared reason-part values (interned).
    pub key: Vec<ValueId>,
    /// The distinct pieces of data in the group (same reason part, possibly
    /// different result parts — more than one γ means the group is dirty).
    pub gammas: Vec<Gamma>,
}

mlnw::codec! { struct Group { key, gammas } }

impl Group {
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
    /// An empty block for `rule` over its resolved reason- and result-part
    /// attributes.
    pub fn new(rule: RuleId, reason_attrs: Vec<AttrId>, result_attrs: Vec<AttrId>) -> Self {
        Block {
            rule,
            reason_attrs,
            result_attrs,
            groups: Vec::new(),
        }
    }

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

    /// Lay a batch of γ runs into the block, keeping it byte-identical to a
    /// build over all the rows it then holds: groups ordered by their
    /// string-resolved keys, γs inside a group by their resolved full value
    /// vector (the historical string-keyed index's order, which every
    /// downstream tie-break relies on), tuple ids ascending.
    ///
    /// The batch's distinct keys are sorted once by their strings and merged
    /// into the block's groups: each key is placed by binary search over the
    /// part of the block not yet passed, and the groups the batch creates go
    /// in with one pass from the back, which moves each held group at most
    /// once (and none when nothing is created).  A key that matches a held
    /// γ adds its tuples to that γ — appended when they all come after the
    /// γ's last tuple (every insert), merged in otherwise (an update, or runs
    /// from two partitions).  Returns the keys of the groups the batch
    /// touched, in block order, and how many of them it created.
    pub fn merge_runs(&mut self, runs: GammaRuns, pool: &ValuePool) -> (Vec<Vec<ValueId>>, usize) {
        let mut runs: Vec<(Vec<ValueId>, Vec<TupleId>)> = runs.runs.into_iter().collect();
        runs.sort_unstable_by(|a, b| cmp_resolved(pool, &a.0, &b.0));
        let Block {
            rule,
            reason_attrs,
            result_attrs,
            groups,
        } = self;
        let arity = reason_attrs.len();
        let mut touched = Vec::new();
        // New groups, each beside the held group it goes in front of.
        let mut fresh: Vec<(usize, Group)> = Vec::new();
        // Held groups before `at` are passed.
        let mut at = 0;
        let mut runs = runs.into_iter().peekable();
        while let Some((key, _)) = runs.peek() {
            let vl = key[..arity].to_vec();
            let found = groups[at..].binary_search_by(|g| cmp_resolved(pool, &g.key, &vl));
            at += found.unwrap_or_else(|i| i);
            let group = match found {
                Ok(_) => &mut groups[at],
                Err(_) => {
                    // Room for one γ, what most groups ever hold.
                    let gammas = Vec::with_capacity(1);
                    fresh.push((
                        at,
                        Group {
                            key: vl.clone(),
                            gammas,
                        },
                    ));
                    let last = fresh.len() - 1;
                    &mut fresh[last].1
                }
            };
            // γs of the group the batch has passed.
            let mut passed = 0;
            while let Some((key, tuples)) = runs.next_if(|(key, _)| key[..arity] == vl[..]) {
                let vr = &key[arity..];
                let gammas = &mut group.gammas;
                let found =
                    gammas[passed..].binary_search_by(|g| cmp_resolved(pool, &g.result_values, vr));
                match found {
                    Ok(j) => add_ascending(&mut gammas[passed + j].tuples, &tuples),
                    Err(j) => {
                        let (reason, result) = (reason_attrs.clone(), result_attrs.clone());
                        let gamma = Gamma::new(*rule, reason, vl.clone(), result, vr.to_vec());
                        gammas.insert(passed + j, Gamma { tuples, ..gamma });
                    }
                }
                passed += found.unwrap_or_else(|j| j) + 1;
            }
            at += usize::from(found.is_ok());
            touched.push(vl);
        }
        // From the back: the held groups behind each new one shift by the
        // number of new ones still to place, into the slots `resize` added.
        let created = fresh.len();
        let mut read = groups.len();
        groups.resize_with(read + created, Group::default);
        let mut write = groups.len();
        for (at, group) in fresh.into_iter().rev() {
            while read > at {
                read -= 1;
                write -= 1;
                groups.swap(read, write);
            }
            write -= 1;
            groups[write] = group;
        }
        (touched, created)
    }

    /// Drop the (sorted, deduplicated, pre-removal) row indices `removed`
    /// from every γ and shift the survivors down
    /// ([`dataset::remap_ids_after_removal`]), then drop the γs and groups
    /// that emptied.  Returns the keys of the groups that lost a tuple, in
    /// block order, and how many groups emptied.
    fn remove_ids(&mut self, removed: &[usize]) -> (Vec<Vec<ValueId>>, usize) {
        let mut touched = Vec::new();
        let before = self.groups.len();
        self.groups.retain_mut(|group| {
            let held = group.tuple_count();
            for gamma in &mut group.gammas {
                dataset::remap_ids_after_removal(&mut gamma.tuples, removed);
            }
            if group.tuple_count() < held {
                touched.push(group.key.clone());
                group.gammas.retain(|g| !g.tuples.is_empty());
            }
            !group.gammas.is_empty()
        });
        (touched, before - self.groups.len())
    }
}

/// A batch of γ runs bound for one block ([`Block::merge_runs`]): per γ key
/// — the reason-part ids followed by the result-part ids — the ascending
/// ids of the tuples that carry it.  Runs of one key join as they arrive,
/// one hash probe each.
#[derive(Debug, Default)]
pub struct GammaRuns {
    runs: HashMap<Vec<ValueId>, Vec<TupleId>>,
}

impl GammaRuns {
    /// Add the ascending ids `tuples` to the run of γ key `key`.
    pub fn push(&mut self, key: &[ValueId], tuples: &[TupleId]) {
        match self.runs.get_mut(key) {
            Some(held) => add_ascending(held, tuples),
            None => {
                self.runs.insert(key.to_vec(), tuples.to_vec());
            }
        }
    }
}

/// Add the ascending ids `run` to the ascending ids `held`.
fn add_ascending(held: &mut Vec<TupleId>, run: &[TupleId]) {
    let interleaved =
        matches!((held.last(), run.first()), (Some(last), Some(first)) if first < last);
    held.extend_from_slice(run);
    if interleaved {
        // Two ascending runs back to back: the stable sort merges them in
        // one linear pass.
        held.sort();
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
    /// gained a tuple or a γ, or were newly created, in block order — what a
    /// cleaning driver marks dirty.
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
    /// lost a tuple, a γ, or were dropped entirely, in block order.
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
/// downstream tie-break stays byte-identical.
fn cmp_resolved(pool: &ValuePool, a: &[ValueId], b: &[ValueId]) -> Ordering {
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

    /// Build the index: empty blocks, then every row inserted
    /// ([`MlnIndex::insert_tuples`] from row 0), the per-rule-block body
    /// mapped over the rayon pool or the calling thread (the
    /// [`crate::CleanConfig::parallel`] toggle).
    pub fn build_with(ds: &Dataset, rules: &RuleSet, parallel: bool) -> Result<Self, IndexError> {
        let blocks = Self::empty_blocks(ds, rules)?;
        // An empty snapshot adopts the dataset's id table: a reference bump.
        let mut index = MlnIndex {
            blocks,
            pool: ValuePool::new(),
        };
        index.insert_tuples(ds, rules, 0, parallel);
        Ok(index)
    }

    /// One empty block per rule, its attributes resolved against the dataset
    /// schema — so later projections cannot panic.
    fn empty_blocks(ds: &Dataset, rules: &RuleSet) -> Result<Vec<Block>, IndexError> {
        let schema = ds.schema();
        let resolve = |rule: RuleId, attrs: Vec<String>| -> Result<Vec<AttrId>, IndexError> {
            attrs
                .into_iter()
                .map(|attribute| match schema.attr_id(&attribute) {
                    Some(id) => Ok(id),
                    None => Err(IndexError::UnknownAttribute { rule, attribute }),
                })
                .collect()
        };
        rules
            .iter_with_ids()
            .map(|(id, rule)| {
                let reason = resolve(id, rule.reason_attrs())?;
                Ok(Block::new(id, reason, resolve(id, rule.result_attrs())?))
            })
            .collect()
    }

    /// Incrementally insert the dataset rows `from..ds.len()` into the
    /// existing blocks/groups.
    ///
    /// `self` must have been built (or incrementally grown) from exactly the
    /// first `from` rows of `ds` under the same `rules`; the call then makes
    /// it byte-identical to `MlnIndex::build(ds, rules)` — each block takes
    /// the rows it sees as one batch ([`Block::merge_runs`]): new γs and
    /// groups land at their string-sorted positions, and tuple ids append in
    /// dataset order.  The pool snapshot is refreshed from `ds`, which is
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
                insert_rows(block, ds, pool, rule, from)
            });
            (report.touched_keys, report.created_groups) = inserted.into_iter().unzip();
        }
        report
    }

    /// Incrementally remove tuples from the blocks/groups — the mirror of
    /// [`MlnIndex::insert_tuples`].
    ///
    /// `ds` must be the dataset the index was built from **still containing**
    /// the rows (the caller compacts the dataset afterwards); `ids` are
    /// interpreted against that pre-removal numbering, and no row is read.
    /// After the call the index is byte-identical to `MlnIndex::build` over
    /// the surviving rows (with their post-compaction ids): one pass over
    /// every γ drops the removed ids and shifts every surviving id greater
    /// than a removed one down, and γs and groups emptied by the removal are
    /// dropped.
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
            let dropped = self.map_blocks(rules, parallel, |block, _, _| block.remove_ids(removed));
            (report.touched_keys, report.removed_groups) = dropped.into_iter().unzip();
        }
        Ok(report)
    }

    /// Incrementally re-home one tuple after a cell update.
    ///
    /// `ds` must already hold the **new** value; `old_row` is the tuple's
    /// full pre-update id row (schema order, resolving in `ds`'s pool, whose
    /// interned values are append-only).  For every block whose membership
    /// or projection changed, the tuple is taken out of its old γ and merged
    /// into its new one as a one-row batch ([`Block::merge_runs`]), so the
    /// block stays byte-identical to a rebuild over the updated dataset.
    /// Blocks whose rule does not see the change are untouched.
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
    /// value ids resolve through.  The caller is responsible for the blocks'
    /// invariants: groups sorted by string-resolved key, γs by resolved
    /// value vector, tuple lists ascending — what [`Block::merge_runs`]
    /// keeps.
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
            for gamma in block.groups.iter_mut().flat_map(|g| &mut g.gammas) {
                dataset::remap_ids_after_removal(&mut gamma.tuples, removed);
            }
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
    pub(crate) fn split_mut(&mut self) -> (&mut Vec<Block>, &ValuePool) {
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

/// The γ key of a row under a block: its reason-part ids, then its
/// result-part ids.
fn gamma_key(block: &Block, value: impl Fn(AttrId) -> ValueId) -> Vec<ValueId> {
    let attrs = block.reason_attrs.iter().chain(&block.result_attrs);
    attrs.map(|&a| value(a)).collect()
}

/// Insert the rows `from..ds.len()` into one block as one batch
/// ([`Block::merge_runs`]).  The row's key is built in one reused buffer and
/// looked up by slice, so a row whose γ the batch holds costs one integer
/// hash probe and a push.  Returns `(touched group keys, created groups)`.
fn insert_rows(
    block: &mut Block,
    ds: &Dataset,
    pool: &ValuePool,
    rule: &Rule,
    from: usize,
) -> (Vec<Vec<ValueId>>, usize) {
    let schema = ds.schema();
    let mut runs = GammaRuns::default();
    let mut key: Vec<ValueId> =
        Vec::with_capacity(block.reason_attrs.len() + block.result_attrs.len());
    for t in (from..ds.len()).map(TupleId) {
        let tuple = ds.tuple(t);
        if !rule.is_relevant(schema, &tuple) {
            continue;
        }
        key.clear();
        let attrs = block.reason_attrs.iter().chain(&block.result_attrs);
        key.extend(attrs.map(|&a| tuple.value_id(a)));
        runs.push(&key, &[t]);
    }
    block.merge_runs(runs, pool)
}

/// Take tuple `t` out of the γ `key` of `block`, dropping the γ if that
/// empties it and then the group if that empties it — exactly what a rebuild
/// without the tuple would omit.
#[allow(
    clippy::expect_used,
    reason = "`key` is the tuple's pre-update γ key under a rule that saw the row, and the index holds every row the rule sees"
)]
fn take_out(block: &mut Block, pool: &ValuePool, key: &[ValueId], t: TupleId) {
    let (vl, vr) = key.split_at(block.reason_attrs.len());
    let i = block
        .groups
        .binary_search_by(|g| cmp_resolved(pool, &g.key, vl))
        .expect("the tuple's group is in the index");
    let group = &mut block.groups[i];
    let j = group
        .gammas
        .binary_search_by(|g| cmp_resolved(pool, &g.result_values, vr))
        .expect("the tuple's γ is in the index");
    let tuples = &mut group.gammas[j].tuples;
    let k = tuples.binary_search(&t).expect("the tuple id is in its γ");
    tuples.remove(k);
    if tuples.is_empty() {
        group.gammas.remove(j);
    }
    if group.gammas.is_empty() {
        block.groups.remove(i);
    }
}

/// Move tuple `t` from its pre-update γ to its post-update γ within one
/// block ([`take_out`], then a one-row [`Block::merge_runs`]).  Returns the
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
    let old_key = gamma_key(block, |a| old_row[a.index()]);
    let new_key = gamma_key(block, |a| tuple.value_id(a));
    if old_relevant == new_relevant && (!old_relevant || old_key == new_key) {
        return Vec::new(); // the rule cannot tell the old and new rows apart
    }

    let mut touched: Vec<Vec<ValueId>> = Vec::with_capacity(2);
    if old_relevant {
        take_out(block, pool, &old_key, t);
        touched.push(old_key[..block.reason_attrs.len()].to_vec());
    }
    if new_relevant {
        let mut runs = GammaRuns::default();
        runs.push(&new_key, &[t]);
        let (keys, _) = block.merge_runs(runs, pool);
        for key in keys {
            if !touched.contains(&key) {
                touched.push(key);
            }
        }
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::sample_hospital_dataset;
    use rules::sample_hospital_rules;
    use std::collections::BTreeMap;

    fn build_sample_index() -> MlnIndex {
        MlnIndex::build(&sample_hospital_dataset(), &sample_hospital_rules()).unwrap()
    }

    /// Per block, per group: its resolved key, then per γ its resolved
    /// result values and its tuple ids.
    type Layout = Vec<Vec<(Vec<String>, Vec<(Vec<String>, Vec<TupleId>)>)>>;

    /// The historical string-keyed layout, built without the index: per
    /// rule, a `BTreeMap` from resolved (reason, result) values to ascending
    /// tuple ids.
    fn reference(ds: &Dataset, rules: &RuleSet) -> Layout {
        let schema = ds.schema();
        let mut layout = Layout::new();
        for (_, rule) in rules.iter_with_ids() {
            let mut block: BTreeMap<Vec<String>, BTreeMap<Vec<String>, Vec<TupleId>>> =
                BTreeMap::new();
            for t in ds.tuples().filter(|t| rule.is_relevant(schema, t)) {
                let values = |attrs: Vec<String>| -> Vec<String> {
                    let value = |a: &String| t.value(schema.attr_id(a).unwrap()).to_string();
                    attrs.iter().map(value).collect()
                };
                let gammas = block.entry(values(rule.reason_attrs())).or_default();
                gammas
                    .entry(values(rule.result_attrs()))
                    .or_default()
                    .push(t.id());
            }
            layout.push(
                block
                    .into_iter()
                    .map(|(k, g)| (k, g.into_iter().collect()))
                    .collect(),
            );
        }
        layout
    }

    /// An index's layout in the reference's shape; every γ must carry its
    /// group's key.
    fn layout(index: &MlnIndex) -> Layout {
        let resolve = |ids: &[ValueId]| -> Vec<String> {
            ids.iter()
                .map(|&v| index.pool().resolve(v).to_string())
                .collect()
        };
        let group = |g: &Group| {
            assert!(g.gammas.iter().all(|gamma| gamma.reason_values == g.key));
            let gammas = g
                .gammas
                .iter()
                .map(|gamma| (resolve(&gamma.result_values), gamma.tuples.clone()));
            (resolve(&g.key), gammas.collect())
        };
        index
            .blocks
            .iter()
            .map(|b| b.groups.iter().map(group).collect())
            .collect()
    }

    #[test]
    fn build_matches_the_string_keyed_reference() {
        let hai = datagen::HaiGenerator::default()
            .with_rows(400)
            .with_providers(15)
            .with_seed(3)
            .dirty(0.08, 0.5, 3)
            .dirty;
        let car = datagen::CarGenerator::default()
            .with_rows(400)
            .with_seed(5)
            .dirty(0.08, 0.5, 5)
            .dirty;
        for (ds, rules) in [
            (sample_hospital_dataset(), sample_hospital_rules()),
            (hai, datagen::HaiGenerator::rules()),
            (car, datagen::CarGenerator::rules()),
        ] {
            let index = MlnIndex::build(&ds, &rules).unwrap();
            assert!(index.blocks.iter().any(|b| b.groups.len() > 1));
            assert_eq!(layout(&index), reference(&ds, &rules));
        }
    }

    #[test]
    fn interleaved_runs_of_one_gamma_merge_ascending() {
        // The streaming coordinator's shape: one γ key arriving from two
        // partitions whose tuple ids interleave.
        let ds = sample_hospital_dataset();
        let built = build_sample_index().blocks.swap_remove(0);
        let mut block = Block::new(built.rule, built.reason_attrs, built.result_attrs);
        let key = gamma_key(&block, |a| ds.value_id(TupleId(4), a));
        let mut runs = GammaRuns::default();
        runs.push(&key, &[TupleId(1), TupleId(4), TupleId(6)]);
        runs.push(&key, &[TupleId(0), TupleId(5)]);
        runs.push(&key, &[TupleId(7)]);
        let (touched, created) = block.merge_runs(runs, ds.pool());
        assert_eq!((touched, created), (vec![key[..1].to_vec()], 1));
        let ids: Vec<usize> = block.groups[0].gammas[0]
            .tuples
            .iter()
            .map(|t| t.0)
            .collect();
        assert_eq!(ids, [0, 1, 4, 5, 6, 7]);
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
                assert_eq!(layout(&index), reference(&ds, &rules), "split {split}");
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
        assert_eq!(layout(&index), reference(&dirty, &rules));
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
                let survivors = ds.project_rows(&survivors);
                assert_eq!(layout(&index), reference(&survivors, &rules));
                let rebuilt = MlnIndex::build_serial(&survivors, &rules).unwrap();
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
                assert_eq!(layout(&index), reference(&updated, &rules));
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
