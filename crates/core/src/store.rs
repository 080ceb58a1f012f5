//! The row store: what a [`crate::CleaningSession`] and a partition of the
//! distributed streaming coordinator share — rows under a rule set, their
//! **pristine** MLN index (byte-identical to `MlnIndex::build` over the rows)
//! and the one ingest path, [`RowStore::apply`], which splices a
//! [`ChangeSet`] in and compacts its deletes once at the end
//! ([`DeferredDeletes`]).  The store cleans nothing: it reports what moved
//! ([`Applied`]), and a cleaning driver marks its own state from that.

use crate::changeset::{ChangeSet, DeferredDeletes, Mutation};
use crate::error::CleanError;
use crate::index::{Block, MlnIndex};
use crate::CleanConfig;
use dataset::{Dataset, Schema, TupleId, ValueId};
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
    /// Per block: the pristine group keys updates re-homed a tuple across.
    pub rehomed: Vec<Vec<Vec<ValueId>>>,
    /// Blocks an insert or a delete touched, ascending.
    pub restructured: Vec<usize>,
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

    /// The net rows.
    pub(crate) fn dataset(&self) -> &Dataset {
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

    /// The values interned since pool index `from`, in id order.
    pub fn pool_tail(&self, from: usize) -> Vec<String> {
        let pool = self.dataset.pool();
        pool.iter().skip(from).map(|(_, v)| v.to_string()).collect()
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
    /// a failed call changes nothing).  Mutations apply in order, a
    /// `Delete(t)` shifting later rows down; an update to a cell's own value
    /// is skipped.
    pub fn apply(&mut self, changes: ChangeSet) -> Result<Applied, CleanError> {
        changes.validate(self.dataset.schema().arity(), self.dataset.len())?;
        let started = Instant::now();
        let parallel = self.config.parallel;
        let RowStore {
            rules,
            dataset,
            pristine,
            remap_passes,
            ..
        } = &mut *self;
        let mut report = BatchReport::default();
        let mut touched = vec![0usize; pristine.block_count()];
        let mut updated = Vec::new();
        let mut rehomed = vec![Vec::new(); touched.len()];
        let mut deletes = DeferredDeletes::default();
        for mutation in changes.into_mutations() {
            match mutation {
                Mutation::Insert(rows) => {
                    let from = dataset.len();
                    dataset.extend_rows(rows).expect("validated above");
                    let inserted = pristine.insert_tuples(dataset, rules, from, parallel);
                    report.rows += inserted.rows;
                    add(&mut touched, &inserted.touched_groups);
                }
                Mutation::Update(t, attr, value) => {
                    let t = TupleId(deletes.resolve(t.index()));
                    if dataset.value(t, attr) == value {
                        continue; // no-op: the cell already holds this value
                    }
                    let old_row = dataset.row_ids(t);
                    dataset.set_value(t, attr, value);
                    let keys = pristine.update_tuple(dataset, rules, t, &old_row, parallel);
                    for (block, keys) in rehomed.iter_mut().zip(keys) {
                        report.touched_groups += keys.len();
                        block.extend(keys);
                    }
                    updated.push(t);
                }
                Mutation::Delete(t) => deletes.mark(deletes.resolve(t.index())),
            }
        }
        let removed = deletes.marked().to_vec();
        if !removed.is_empty() {
            let ids: Vec<TupleId> = removed.iter().map(|&r| TupleId(r)).collect();
            let spliced = pristine.remove_tuples(dataset, rules, &ids, parallel)?;
            dataset.remove_rows(&ids);
            *remap_passes += 1;
            add(&mut touched, &spliced.touched_groups);
        }
        report.updated_cells = updated.len();
        report.deleted_rows = removed.len();
        report.touched_groups += touched.iter().sum::<usize>();
        report.touched_blocks = (0..touched.len())
            .filter(|&b| touched[b] > 0 || !rehomed[b].is_empty())
            .collect();
        Ok(Applied {
            report: self.close_batch(started, report),
            updated,
            removed,
            rehomed,
            restructured: nonzero(&touched),
        })
    }

    /// Ingest a whole dataset (the batch special case): an empty store shares
    /// its columns and pool and builds the index in bulk; otherwise the rows
    /// append through [`Dataset::extend_from`].
    pub fn ingest_dataset(&mut self, ds: &Dataset) -> Result<Applied, CleanError> {
        if ds.schema() != self.dataset.schema() {
            return Err(CleanError::Schema(dataset::SchemaMismatch));
        }
        let started = Instant::now();
        let parallel = self.config.parallel;
        let touched = if self.dataset.is_empty() {
            self.dataset = ds.clone();
            self.pristine = MlnIndex::build_with(&self.dataset, &self.rules, parallel)
                .expect("rules were validated when the store was created");
            // A bulk build touches exactly the groups it creates.
            let blocks = &self.pristine.blocks;
            blocks.iter().map(Block::group_count).collect()
        } else {
            let from = self.dataset.len();
            self.dataset.extend_from(ds)?;
            let inserted = self
                .pristine
                .insert_tuples(&self.dataset, &self.rules, from, parallel);
            inserted.touched_groups
        };
        let report = BatchReport {
            rows: ds.len(),
            touched_groups: touched.iter().sum(),
            touched_blocks: nonzero(&touched),
            ..BatchReport::default()
        };
        Ok(Applied {
            restructured: report.touched_blocks.clone(),
            report: self.close_batch(started, report),
            updated: Vec::new(),
            removed: Vec::new(),
            rehomed: vec![Vec::new(); touched.len()],
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

/// Add per-block counts into a running per-block total.
fn add(total: &mut [usize], counts: &[usize]) {
    for (total, count) in total.iter_mut().zip(counts) {
        *total += count;
    }
}

/// The blocks with a non-zero count, ascending.
fn nonzero(counts: &[usize]) -> Vec<usize> {
    (0..counts.len()).filter(|&b| counts[b] > 0).collect()
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
                    assert_eq!(resumed.pool_tail(0), store.pool_tail(0), "step {step}");
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
}
