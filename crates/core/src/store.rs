//! The row store: what a [`crate::CleaningSession`] and a partition of the
//! distributed streaming coordinator share — rows under a rule set, their
//! **pristine** MLN index (byte-identical to `MlnIndex::build` over the rows)
//! and the one ingest path, [`RowStore::apply`], which splices a
//! [`ChangeSet`] in and compacts its deletes once at the end
//! ([`DeferredDeletes`]).  The store cleans nothing: it reports what moved
//! ([`Applied`]) — per block, the pristine group keys every update, insert
//! and delete touched — and a cleaning driver marks its own state from that.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// An insert dirties keys, not blocks (clippy.toml; it bans `to_string` too).
#![deny(clippy::disallowed_methods)]

use crate::changeset::{ChangeSet, DeferredDeletes, IdMutation, InternedSlice, Mutation};
use crate::error::CleanError;
use crate::index::{Block, MlnIndex};
use crate::CleanConfig;
use dataset::{Dataset, Schema, TupleId, ValueId, ValuePool};
use rules::RuleSet;
use std::time::{Duration, Instant};

/// What one change set changed — the dirtiness the next re-clean will have
/// to pay for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// 1-based ordinal of this change set within the stream.
    pub batch: usize,
    /// Rows inserted by this change set.
    pub rows: usize,
    /// Cells overwritten by `Update` mutations in this change set.
    pub updated_cells: usize,
    /// Rows removed by `Delete` mutations in this change set.
    pub deleted_rows: usize,
    /// Net rows held after this change set.
    pub total_rows: usize,
    /// Blocks currently dirty (touched since the last re-clean); a bare
    /// [`RowStore`] cleans nothing, so its reports count `touched_blocks`
    /// (the distributed coordinator never reads a partition's).
    pub dirty_blocks: usize,
    /// Total blocks (= rules).
    pub total_blocks: usize,
    /// Groups touched by this change set (summed over its mutations; a group
    /// touched by two mutations counts twice).
    pub touched_groups: usize,
    /// Total groups across all blocks after this change set.
    pub total_groups: usize,
    /// Sorted indices of the blocks this change set touched (what the
    /// distributed coordinator tracks dirtiness across partitions by).
    pub touched_blocks: Vec<usize>,
}

mlnw::codec! { struct BatchReport { batch, rows, updated_cells, deleted_rows, total_rows, dirty_blocks, total_blocks, touched_groups, total_groups, touched_blocks } }

/// A compacting suspend image of a [`RowStore`] (and so of a
/// [`crate::CleaningSession`]): the net rows and the batch ordinal, bound by
/// the live data, not the stream's history.  A resumed session re-derives
/// its caches, and its outputs equal a batch run over the net rows anyway.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The net surviving rows at the suspend point.
    pub dataset: Dataset,
    /// Change sets applied before the suspend point.
    pub batches: usize,
}

mlnw::codec! { struct SessionSnapshot { dataset, batches } }

/// What one [`RowStore::apply`] changed: the report (whose `rows` are the
/// rows grown) and what a cleaning driver marks its state from.
#[derive(Debug, Clone)]
pub struct Applied {
    /// The change set's report.
    pub report: BatchReport,
    /// Tuples an update wrote, in virtual coordinates.
    pub updated: Vec<TupleId>,
    /// Virtual rows the change set deleted, ascending.
    pub removed: Vec<usize>,
    /// Per block: the pristine group keys the change set touched — those
    /// an update re-homed a tuple across, an insert added a tuple to and a
    /// delete took one from, created and dropped groups included.  A key
    /// two mutations touched is listed twice.
    pub touched_keys: Vec<Vec<Vec<ValueId>>>,
}

/// Rows and their pristine MLN index — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct RowStore {
    config: CleanConfig,
    rules: RuleSet,
    dataset: Dataset,
    pristine: MlnIndex,
    remap_passes: usize,
    index_clock: Duration,
    batches: usize,
}

impl RowStore {
    /// Open an empty store.  Fails like [`crate::MlnClean::clean`] does: on
    /// an empty rule set, or a rule naming an attribute the schema lacks.
    pub fn new(config: CleanConfig, schema: Schema, rules: RuleSet) -> Result<Self, CleanError> {
        if rules.is_empty() {
            return Err(CleanError::NoRules);
        }
        let dataset = Dataset::new(schema);
        let pristine = MlnIndex::build_serial(&dataset, &rules)?;
        Ok(RowStore {
            config,
            rules,
            dataset,
            pristine,
            remap_passes: 0,
            index_clock: Duration::ZERO,
            batches: 0,
        })
    }

    /// Reopen a store from [`RowStore::snapshot`]'s image; the clock and
    /// the remap count restart from zero.
    pub fn resume(
        config: CleanConfig,
        rules: RuleSet,
        snapshot: SessionSnapshot,
    ) -> Result<Self, CleanError> {
        let mut store = RowStore::new(config, snapshot.dataset.schema().clone(), rules)?;
        store.load(snapshot)?;
        Ok(store)
    }

    /// Load `image` into this empty store: ingest its rows (what that
    /// changed, if it held any) and continue its batch ordinals.
    pub(crate) fn load(&mut self, image: SessionSnapshot) -> Result<Option<Applied>, CleanError> {
        let rows = &image.dataset;
        let applied = (!rows.is_empty()).then(|| self.ingest_dataset(rows));
        let applied = applied.transpose()?;
        self.batches = image.batches;
        Ok(applied)
    }

    /// The compacting suspend image.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            dataset: self.dataset.clone(),
            batches: self.batches,
        }
    }

    /// The store configuration.
    pub(crate) fn config(&self) -> &CleanConfig {
        &self.config
    }

    /// The rule set the pristine index is built under.
    pub(crate) fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The net rows, over the store's pool.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The net rows, moved out.
    pub(crate) fn into_dataset(self) -> Dataset {
        self.dataset
    }

    /// The pristine index over [`RowStore::dataset`].
    pub(crate) fn pristine(&self) -> &MlnIndex {
        &self.pristine
    }

    /// Change sets applied so far.
    pub(crate) fn batches(&self) -> usize {
        self.batches
    }

    /// Id-compaction passes so far.
    pub(crate) fn remap_passes(&self) -> usize {
        self.remap_passes
    }

    /// Total groups across all pristine blocks.
    pub(crate) fn total_groups(&self) -> usize {
        self.pristine.blocks.iter().map(Block::group_count).sum()
    }

    /// Cumulative index-maintenance wall clock.
    pub fn index_clock(&self) -> Duration {
        self.index_clock
    }

    /// Copies of the listed pristine blocks, in the listed order.
    pub fn pristine_blocks(&self, blocks: &[usize]) -> Vec<Block> {
        let copy = |&b: &usize| self.pristine.blocks[b].clone();
        blocks.iter().map(copy).collect()
    }

    /// The rows in order, as value ids of the store's pool.
    pub fn rows(&self) -> Vec<Vec<ValueId>> {
        let row = |t| self.dataset.row_ids(TupleId(t));
        (0..self.dataset.len()).map(row).collect()
    }

    /// Apply one [`ChangeSet`], validated whole first ([`ChangeSet::validate`]:
    /// a failed call changes nothing).  Its values intern into the store's
    /// pool mutation by mutation, in order; then the mutations apply in
    /// order, a `Delete(t)` shifting later rows down; an update to a cell's
    /// own value is skipped.
    pub fn apply(&mut self, changes: ChangeSet) -> Result<Applied, CleanError> {
        let arity = self.dataset.schema().arity();
        changes.validate(arity, self.dataset.len())?;
        let started = Instant::now();
        let dataset = &mut self.dataset;
        let interned = changes
            .into_mutations()
            .into_iter()
            .map(|mutation| match mutation {
                Mutation::Insert(rows) => {
                    let mut ids = Vec::with_capacity(rows.len() * arity);
                    for row in rows {
                        ids.extend(row.iter().map(|value| dataset.intern(value)));
                    }
                    IdMutation::Insert(ids)
                }
                Mutation::Update(t, attr, value) => {
                    IdMutation::Update(t, attr, dataset.intern(&value))
                }
                Mutation::Delete(t) => IdMutation::Delete(t),
            });
        let mutations = interned.collect();
        self.apply_ids(mutations, started)
    }

    /// Apply one [`InternedSlice`]: append its tail to the store's pool,
    /// then apply its mutations exactly as [`RowStore::apply`] applies the
    /// change set they intern.  A slice that fails
    /// [`InternedSlice::validate`] against the pool with the tail appended,
    /// or whose tail holds a value the pool has ([`CleanError::KnownValue`]),
    /// changes nothing.
    pub fn apply_interned(&mut self, slice: InternedSlice) -> Result<Applied, CleanError> {
        let values = self.dataset.pool().len() + slice.tail.len();
        let (arity, rows) = (self.dataset.schema().arity(), self.dataset.len());
        slice.validate(arity, rows, values)?;
        let started = Instant::now();
        let InternedSlice {
            mut tail,
            mutations,
        } = slice;
        if let Err(at) = self.dataset.extend_pool(&tail) {
            let value = tail.swap_remove(at);
            return Err(CleanError::KnownValue { value });
        }
        self.apply_ids(mutations, started)
    }

    /// The one ingest body: apply interned mutations in order, deletes
    /// deferred to one compaction at the end.
    fn apply_ids(
        &mut self,
        mutations: Vec<IdMutation>,
        started: Instant,
    ) -> Result<Applied, CleanError> {
        let parallel = self.config.parallel;
        let RowStore {
            rules,
            dataset,
            pristine,
            remap_passes,
            ..
        } = &mut *self;
        let mut report = BatchReport::default();
        let mut touched = vec![Vec::new(); pristine.block_count()];
        let mut updated = Vec::new();
        let mut deletes = DeferredDeletes::default();
        for mutation in mutations {
            match mutation {
                IdMutation::Insert(ids) => {
                    let from = dataset.len();
                    dataset.extend_row_ids(&ids)?;
                    let inserted = pristine.insert_tuples(dataset, rules, from, parallel);
                    report.rows += inserted.rows;
                    report.touched_groups += add(&mut touched, inserted.touched_keys);
                }
                IdMutation::Update(t, attr, value) => {
                    let t = TupleId(deletes.resolve(t.index()));
                    if dataset.value_id(t, attr) == value {
                        continue; // no-op: the cell already holds this value
                    }
                    let old_row = dataset.row_ids(t);
                    dataset.set_value_id(t, attr, value);
                    let keys = pristine.update_tuple(dataset, rules, t, &old_row, parallel);
                    report.touched_groups += add(&mut touched, keys);
                    updated.push(t);
                }
                IdMutation::Delete(t) => deletes.mark(deletes.resolve(t.index())),
            }
        }
        let removed = deletes.marked().to_vec();
        if !removed.is_empty() {
            let ids: Vec<TupleId> = removed.iter().map(|&r| TupleId(r)).collect();
            let spliced = pristine.remove_tuples(dataset, rules, &ids, parallel)?;
            dataset.remove_rows(&ids);
            *remap_passes += 1;
            report.touched_groups += add(&mut touched, spliced.touched_keys);
        }
        report.updated_cells = updated.len();
        report.deleted_rows = removed.len();
        report.touched_blocks = nonempty(&touched);
        Ok(Applied {
            report: self.close_batch(started, report),
            updated,
            removed,
            touched_keys: touched,
        })
    }

    /// Ingest a whole dataset (the batch special case): an empty store shares
    /// its columns and pool, a non-empty one appends the rows through
    /// [`Dataset::extend_from`]; either way the new rows go into the index
    /// through [`MlnIndex::insert_tuples`].
    pub fn ingest_dataset(&mut self, ds: &Dataset) -> Result<Applied, CleanError> {
        if ds.schema() != self.dataset.schema() {
            return Err(CleanError::Schema(dataset::SchemaMismatch));
        }
        let started = Instant::now();
        let from = self.dataset.len();
        if from == 0 {
            self.dataset = ds.clone();
            // The empty blocks start over on the adopted pool.
            let blocks = std::mem::take(&mut self.pristine.blocks);
            self.pristine = MlnIndex::from_parts(blocks, ValuePool::new());
        } else {
            self.dataset.extend_from(ds)?;
        }
        let parallel = self.config.parallel;
        let inserted = self
            .pristine
            .insert_tuples(&self.dataset, &self.rules, from, parallel);
        let touched = inserted.touched_keys;
        let report = BatchReport {
            rows: ds.len(),
            touched_groups: touched.iter().map(Vec::len).sum(),
            touched_blocks: nonempty(&touched),
            ..BatchReport::default()
        };
        Ok(Applied {
            report: self.close_batch(started, report),
            updated: Vec::new(),
            removed: Vec::new(),
            touched_keys: touched,
        })
    }

    /// Account the wall time, bump the batch ordinal and fill in the
    /// report's totals; the blocks it touched count as dirty.
    fn close_batch(&mut self, started: Instant, report: BatchReport) -> BatchReport {
        self.index_clock += started.elapsed();
        self.batches += 1;
        BatchReport {
            batch: self.batches,
            total_rows: self.dataset.len(),
            dirty_blocks: report.touched_blocks.len(),
            total_blocks: self.pristine.block_count(),
            total_groups: self.total_groups(),
            ..report
        }
    }
}

/// Append one mutation's per-block touched keys to the change set's;
/// returns how many it touched.
fn add(total: &mut [Vec<Vec<ValueId>>], keys: Vec<Vec<Vec<ValueId>>>) -> usize {
    let mut count = 0;
    for (total, keys) in total.iter_mut().zip(keys) {
        count += keys.len();
        total.extend(keys);
    }
    count
}

/// The blocks with a touched key, ascending.
fn nonempty(keys: &[Vec<Vec<ValueId>>]) -> Vec<usize> {
    (0..keys.len()).filter(|&b| !keys[b].is_empty()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CleaningSession;
    use datagen::HaiGenerator;
    use dataset::rng::Rng;
    use dataset::AttrId;

    /// One seeded change set over `live`'s rows: one to four mutations —
    /// inserts of `donors` rows, updates to a donor's value, deletes — and,
    /// as a first mutation, sometimes an update to the value the cell
    /// already holds.
    fn script(rng: &mut Rng, donors: &Dataset, live: &Dataset) -> ChangeSet {
        let arity = donors.schema().arity();
        let mut rows = live.len();
        let mut changes = ChangeSet::new();
        if rows > 0 && rng.below(3) == 0 {
            let (t, attr) = (TupleId(rng.below(rows)), AttrId(rng.below(arity)));
            changes = changes.update(t, attr, live.value(t, attr));
        }
        for _ in 0..1 + rng.below(4) {
            let donor = TupleId(rng.below(donors.len()));
            let attr = AttrId(rng.below(arity));
            match rng.below(10) {
                0..=2 => {
                    changes = changes.insert_row(donors.tuple(donor).owned_values());
                    rows += 1;
                }
                3..=7 if rows > 0 => {
                    let t = TupleId(rng.below(rows));
                    changes = changes.update(t, attr, donors.value(donor, attr));
                }
                _ if rows > 1 => {
                    changes = changes.delete(TupleId(rng.below(rows)));
                    rows -= 1;
                }
                _ => {}
            }
        }
        changes
    }

    /// Stream hospital and a seeded HAI script through a bare store beside a
    /// session: after every change set the store's pristine index is the
    /// one a build over its rows gives, its report is the session's but for
    /// `dirty_blocks` (its own: the blocks the set touched), and a store
    /// resumed from a decoded snapshot mid-stream answers every later change
    /// set alike.
    #[test]
    fn a_store_keeps_a_built_index_and_reports_like_a_session() {
        let hai = HaiGenerator::default().with_rows(240).with_providers(10);
        let workloads = [
            (
                dataset::sample_hospital_dataset(),
                rules::sample_hospital_rules(),
            ),
            (hai.dirty(0.05, 0.5, 17).dirty, HaiGenerator::rules()),
        ];
        for (dirty, rules) in workloads {
            let config = CleanConfig::default().with_tau(2);
            let schema = dirty.schema().clone();
            let mut store = RowStore::new(config.clone(), schema.clone(), rules.clone()).unwrap();
            let mut session = CleaningSession::new(config.clone(), schema, rules.clone()).unwrap();
            let half: Vec<TupleId> = dirty.tuple_ids().take(dirty.len() / 2).collect();
            let bulk = store.ingest_dataset(&dirty.project_rows(&half)).unwrap();
            let from_session = session.ingest_dataset(&dirty.project_rows(&half)).unwrap();
            assert_eq!(bulk.report, from_session);

            let mut rng = Rng::seeded(0x5701E + dirty.len() as u64);
            let mut resumed: Option<RowStore> = None;
            let (mut issued, mut written) = (0, 0);
            for step in 0..30 {
                let changes = script(&mut rng, &dirty, store.dataset());
                let rows = store.dataset().len();
                issued += changes
                    .iter()
                    .filter(|m| matches!(m, Mutation::Update(..)))
                    .count();
                let applied = store.apply(changes.clone()).unwrap();
                let report = &applied.report;
                written += report.updated_cells;
                assert_eq!(report.dirty_blocks, report.touched_blocks.len(), "{step}");
                assert_eq!(report.total_rows, rows + report.rows - report.deleted_rows);
                assert_eq!(applied.updated.len(), report.updated_cells, "{step}");
                assert_eq!(applied.removed.len(), report.deleted_rows, "{step}");
                let built = MlnIndex::build(store.dataset(), &rules).unwrap();
                assert_eq!(store.pristine(), &built, "step {step}");

                let from_session = session.apply(changes.clone()).unwrap();
                let dirty_blocks = from_session.dirty_blocks;
                assert_eq!(
                    BatchReport {
                        dirty_blocks,
                        ..report.clone()
                    },
                    from_session,
                    "step {step}"
                );
                if step % 7 == 6 {
                    let _ = session.outcome();
                }

                if let Some(resumed) = &mut resumed {
                    assert_eq!(&resumed.apply(changes).unwrap().report, report);
                    assert_eq!(resumed.rows(), store.rows(), "step {step}");
                    assert_eq!(resumed.dataset().pool(), store.dataset().pool());
                    assert_eq!(resumed.pristine(), store.pristine(), "step {step}");
                } else if step == 10 {
                    let frame = mlnw::to_bytes(&store.snapshot()).unwrap();
                    let snapshot = mlnw::from_bytes(&frame).unwrap();
                    let store = RowStore::resume(config.clone(), rules.clone(), snapshot);
                    resumed = Some(store.unwrap());
                }
            }
            assert!(written < issued, "the script wrote no no-op update");
            assert!(store.remap_passes() > 0, "the script deleted nothing");
        }
    }

    /// A two-row hospital store and the interned slice that updates row 0's
    /// city to a value the pool lacks.
    fn hospital_store() -> (RowStore, InternedSlice) {
        let dirty = dataset::sample_hospital_dataset();
        let (schema, rules) = (dirty.schema().clone(), rules::sample_hospital_rules());
        let mut store = RowStore::new(CleanConfig::default(), schema, rules).unwrap();
        let rows = dirty.tuples().take(2).map(|t| t.owned_values()).collect();
        store.apply(ChangeSet::inserting(rows)).unwrap();
        let values = store.dataset().pool().len();
        let slice = InternedSlice {
            tail: vec!["GADSDEN".into()],
            mutations: vec![IdMutation::Update(
                TupleId(0),
                AttrId(1),
                ValueId(values as u32),
            )],
        };
        (store, slice)
    }

    /// The one door both paths share, pinned through its outputs: the
    /// slice applies, and so does the change set it interns.
    #[test]
    fn an_interned_slice_applies_like_its_change_set() {
        let (mut store, slice) = hospital_store();
        let mut twin = store.clone();
        let applied = store.apply_interned(slice).unwrap();
        let changes = ChangeSet::new().update(TupleId(0), AttrId(1), "GADSDEN");
        assert_eq!(applied.report, twin.apply(changes).unwrap().report);
        assert_eq!(store.dataset().pool(), twin.dataset().pool());
        assert_eq!(store.rows(), twin.rows());
        assert_eq!(store.pristine(), twin.pristine());
    }

    /// A slice naming an id past the pool its tail grows is refused typed,
    /// the store untouched.
    #[test]
    fn a_slice_naming_an_id_past_its_pool_is_refused() {
        let (mut store, mut slice) = hospital_store();
        let values = store.dataset().pool().len() + 1;
        slice.mutations.push(IdMutation::Insert(
            (0..store.dataset().schema().arity())
                .map(|a| ValueId((values - 1 + a) as u32))
                .collect(),
        ));
        let before = (store.dataset().clone(), store.pristine().clone());
        let err = store.apply_interned(slice).unwrap_err();
        let value = ValueId(values as u32);
        assert_eq!(err, CleanError::UnknownValue { value, values });
        assert_eq!((store.dataset(), store.pristine()), (&before.0, &before.1));
        assert_eq!(store.dataset().pool(), before.0.pool());
        assert_eq!(store.batches(), 1);
    }

    /// A slice whose tail re-ships a value the pool holds is refused typed,
    /// the store — its pool too — untouched.
    #[test]
    fn a_slice_re_shipping_a_held_value_is_refused() {
        let (mut store, mut slice) = hospital_store();
        let held: String = store.dataset().value(TupleId(1), AttrId(2)).into();
        slice.tail.push(held.clone());
        let before = (store.dataset().clone(), store.pristine().clone());
        let err = store.apply_interned(slice).unwrap_err();
        assert_eq!(err, CleanError::KnownValue { value: held });
        assert_eq!((store.dataset(), store.pristine()), (&before.0, &before.1));
        assert_eq!(store.dataset().pool(), before.0.pool());
        assert_eq!(store.dataset().pool().lookup("GADSDEN"), None);
        assert_eq!(store.batches(), 1);
    }
}
