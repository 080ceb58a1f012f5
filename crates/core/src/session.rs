//! The incremental cleaning engine: a [`CleaningSession`] owns the dataset,
//! the MLN index and all per-stage state across micro-batch ingests.
//!
//! The paper's Algorithm 1 is batch-only: every run rebuilds the index,
//! re-learns every weight and re-cleans every block.  The session keeps two
//! copies of the index instead:
//!
//! * a **pristine** index, incrementally maintained so it is byte-identical
//!   to `MlnIndex::build` over the net rows ingested so far, and
//! * a **cleaned** index holding, per block, the post-AGP/weights/RSC state
//!   of the last refresh, plus the per-block provenance records — owned,
//!   with the per-group clean caches, by the per-block Stage-I driver
//!   ([`StageOne`]).
//!
//! [`CleaningSession::apply`] is the one ingest path: it consumes a typed
//! [`ChangeSet`] of [`Mutation`]s — inserts, cell updates and row deletions —
//! splices each into the pristine blocks/groups
//! ([`MlnIndex::insert_tuples`], [`MlnIndex::update_tuple`],
//! [`MlnIndex::remove_tuples`]) and records the dirtiness **per group**, not
//! per block: a pure cell update marks only the group keys it rehomed the
//! tuple across, while structural changes (inserts, deletes, any change to
//! a block's total support) fall back to marking the whole block dirty.
//! Deletions compact the dataset (later tuple ids shift down by one), and
//! the driver remaps its cleaned index, per-block provenance and per-group
//! clean state in step, so untouched state keeps serving from cache.
//!
//! Producing a [`Report`] then hands the dirty blocks' pristine state to
//! [`StageOne::refresh`] — the one refresh path, shared with the distributed
//! streaming coordinator — which re-runs Stage I **only on the affected
//! groups**: AGP merge *decisions* are re-planned per block against the
//! block's plan memo (a nearest-normal search from nothing only for the
//! abnormal groups whose own signature, or whose remembered target's, changed —
//! [`CleaningSession::rescanned_groups`]), and merging γs, the closed-form
//! block softmax and RSC's pairwise γ scoring are recomputed only for
//! output groups whose sources changed
//! ([`CleaningSession::recleaned_groups`]).  Stage II — the one Stage-II
//! driver, [`StageTwo`], shared with the coordinator too —
//! re-fuses **only the invalidated tuples** against a fusion plan restricted
//! to their covering blocks ([`CleaningSession::fused_tuples`]) and replays
//! every memoised fusion over a copy of the dirty rows, which is the one
//! dataset the session keeps.  The result is byte-identical — output CSV
//! and AGP/RSC/FSCR provenance — to a single batch run over the **net
//! surviving rows**, which is what [`crate::MlnClean::clean`] now is: one
//! bulk ingest plus [`CleaningSession::finish`].

use crate::changeset::{ChangeSet, Mutation};
use crate::engine::{Report, Timings};
use crate::error::CleanError;
use crate::index::{Block, InsertReport, MlnIndex};
use crate::stage_one::{MemoryStats, StageOne};
use crate::stage_two::StageTwo;
use crate::CleanConfig;
use dataset::{Dataset, Schema, TupleId};
use rules::RuleSet;
use std::time::Instant;

/// What one [`CleaningSession::apply`] call changed — the dirtiness the next
/// re-clean will have to pay for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// 1-based ordinal of this change set within the session.
    pub batch: usize,
    /// Rows inserted by this change set.
    pub rows: usize,
    /// Cells overwritten by `Update` mutations in this change set.
    pub updated_cells: usize,
    /// Rows removed by `Delete` mutations in this change set.
    pub deleted_rows: usize,
    /// Net rows held by the session after this change set.
    pub total_rows: usize,
    /// Blocks currently dirty (touched since the last re-clean, including by
    /// this change set).
    pub dirty_blocks: usize,
    /// Total blocks (= rules).
    pub total_blocks: usize,
    /// Groups touched by this change set (summed over its mutations; a group
    /// touched by two mutations counts twice).
    pub touched_groups: usize,
    /// Total groups across all blocks after this change set.
    pub total_groups: usize,
    /// Sorted indices of the blocks this change set touched (a subset of the
    /// blocks currently dirty).  External coordinators — e.g. the
    /// distributed streaming driver — use this to track per-block dirtiness
    /// across partitions without reaching into the session.
    pub touched_blocks: Vec<usize>,
}

mlnw::codec! { struct BatchReport { batch, rows, updated_cells, deleted_rows, total_rows, dirty_blocks, total_blocks, touched_groups, total_groups, touched_blocks } }

/// A compacting suspend image of a [`CleaningSession`]: the net surviving
/// rows and the batch ordinal — everything a fresh session needs to continue
/// the stream with byte-identical outputs.
///
/// The snapshot is *compacting* by construction: it captures the current
/// dataset (net survivors), not the mutation history, so its size is bound
/// by the live data no matter how long the stream ran.  It serializes
/// through the `mlnw` codec (see `transport`), which is how a worker
/// checkpoints itself and truncates its replay journal.
///
/// Caches, fusion memos and provenance are deliberately **not** captured:
/// [`CleaningSession::resume`] rebuilds them on the next outcome, and the
/// session's core invariant (outputs are byte-identical to a batch run over
/// the net surviving rows) guarantees the resumed stream cannot diverge
/// from the uninterrupted one.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The net surviving rows at the suspend point.
    pub dataset: Dataset,
    /// Change sets applied before the suspend point (the resumed session
    /// continues the [`BatchReport`] ordinals from here).
    pub batches: usize,
}

mlnw::codec! { struct SessionSnapshot { dataset, batches } }

/// An incremental MLNClean engine over typed mutation ingest.
///
/// See the [module docs](self) for the design; see
/// [`crate::MlnClean::clean`] for the batch special case (one bulk ingest +
/// [`CleaningSession::finish`]).
#[derive(Debug, Clone)]
pub struct CleaningSession {
    config: CleanConfig,
    rules: RuleSet,
    dataset: Dataset,
    /// Byte-identical to `MlnIndex::build(&self.dataset, &self.rules)`.
    pristine: MlnIndex,
    /// The per-block Stage-I driver: the cleaned index, the per-block
    /// provenance and the per-group clean caches with their dirtiness.
    stage_one: StageOne,
    /// The Stage-II driver: the per-tuple fusion memo, one slot per row of
    /// `dataset`.
    stage_two: StageTwo,
    /// O(index) id-compaction passes performed so far (at most one per
    /// change set containing deletes) — see
    /// [`CleaningSession::remap_passes`].
    remap_passes: usize,
    timings: Timings,
    batches: usize,
}

impl CleaningSession {
    /// Open a session for `schema` under `rules`.
    ///
    /// Fails like [`crate::MlnClean::clean`] does: on an empty rule set, or
    /// on a rule referencing an attribute the schema does not have.
    pub fn new(config: CleanConfig, schema: Schema, rules: RuleSet) -> Result<Self, CleanError> {
        if rules.is_empty() {
            return Err(CleanError::NoRules);
        }
        let dataset = Dataset::new(schema);
        let pristine = MlnIndex::build_serial(&dataset, &rules)?;
        Ok(CleaningSession {
            stage_one: StageOne::new(config.clone(), pristine.clone()),
            stage_two: StageTwo::new(config.clone()),
            config,
            rules,
            dataset,
            pristine,
            remap_passes: 0,
            timings: Timings::default(),
            batches: 0,
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &CleanConfig {
        &self.config
    }

    /// The rule set the session cleans against.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The accumulated (dirty) dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Net rows held by the session.
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// Whether the session currently holds no rows.
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// Number of blocks (= rules).
    pub fn total_blocks(&self) -> usize {
        self.pristine.block_count()
    }

    /// Blocks currently dirty (at least one of their groups will re-run
    /// Stage I on the next outcome).
    pub fn dirty_block_count(&self) -> usize {
        self.stage_one.dirty_blocks().len()
    }

    /// Change sets applied so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Cumulative number of output groups Stage I actually recomputed across
    /// all refreshes of this session — the incrementality probe.  A pure
    /// cell-update stream re-cleans only the groups its tuples move across,
    /// so this stays far below "groups × refreshes"; compare against
    /// [`CleaningSession::total_groups`] to assert group-scoped re-cleaning
    /// is working.
    pub fn recleaned_groups(&self) -> u64 {
        self.stage_one.recleaned_groups()
    }

    /// Cumulative number of abnormal groups whose nearest-normal search the
    /// AGP re-plans of this session started from nothing — no standing
    /// incumbent ([`StageOne::rescanned_groups`]) — the planning half of the
    /// incrementality probe: after the first outcome it grows with the
    /// groups whose signature changed, not with the abnormal groups of the
    /// dirty blocks.
    pub fn rescanned_groups(&self) -> u64 {
        self.stage_one.rescanned_groups()
    }

    /// Cumulative number of tuples Stage II actually fused across all
    /// outcomes of this session ([`StageTwo::fused_tuples`]) — the fusion
    /// half of the incrementality probe: after the first outcome it grows
    /// with the tuples a change invalidated, not with the rows.
    pub fn fused_tuples(&self) -> u64 {
        self.stage_two.fused_tuples()
    }

    /// Total groups across all pristine blocks right now.
    pub fn total_groups(&self) -> usize {
        self.pristine.blocks.iter().map(|b| b.group_count()).sum()
    }

    /// The incrementally maintained pristine index — byte-identical to
    /// `MlnIndex::build` over the net rows ingested so far.
    ///
    /// External coordinators (e.g. the distributed streaming driver) read
    /// the per-block state here to merge it across partitions.
    pub fn pristine_index(&self) -> &MlnIndex {
        &self.pristine
    }

    /// O(index) id-compaction passes performed so far — the regression
    /// counter for the batched delete remap.  Every change set pays at most
    /// **one** such pass no matter how many deletes it contains or how they
    /// interleave with inserts and updates (a change set without deletes
    /// pays none).
    pub fn remap_passes(&self) -> usize {
        self.remap_passes
    }

    /// Cumulative per-stage wall-clock timings across all ingests and
    /// re-cleans of this session.
    pub fn timings(&self) -> Timings {
        self.timings
    }

    /// Counters of the out-of-core machinery (spills, fault-ins, fusion
    /// evictions).  All zero unless [`CleanConfig::memory_budget`] is set.
    pub fn memory_stats(&self) -> MemoryStats {
        self.stage_two.memory_stats(&self.stage_one)
    }

    /// Estimated resident bytes of the session's **evictable working
    /// state** — the pool [`CleanConfig::memory_budget`] bounds: per-block
    /// γ clean caches, their distance memos, and the heap of the per-tuple
    /// fusion memo.  A count-based heuristic (exact sizing would cost more
    /// than the state is worth), consistent across calls, which is all the
    /// spill policy needs.
    pub fn resident_estimate(&self) -> usize {
        self.stage_two.resident_estimate(&self.stage_one)
    }

    /// Capture a compacting suspend image of the session: the net surviving
    /// rows and the batch ordinal.  See
    /// [`SessionSnapshot`] for what is (and deliberately is not) captured,
    /// and [`CleaningSession::resume`] for the other half.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            dataset: self.dataset.clone(),
            batches: self.batches,
        }
    }

    /// Reopen a session from a [`SessionSnapshot`] — the suspend/resume
    /// counterpart of [`CleaningSession::snapshot`].
    ///
    /// The resumed session continues the stream exactly where the suspended
    /// one left off: every later outcome is byte-identical (output CSV and
    /// AGP/RSC/FSCR provenance) to the uninterrupted session's, because
    /// both are byte-identical to a batch run over the net surviving rows.
    /// Cumulative diagnostics ([`CleaningSession::timings`],
    /// [`CleaningSession::recleaned_groups`],
    /// [`CleaningSession::rescanned_groups`],
    /// [`CleaningSession::fused_tuples`],
    /// [`CleaningSession::remap_passes`]) restart from zero — they describe
    /// work done by *this* process, not the stream.
    pub fn resume(
        config: CleanConfig,
        rules: RuleSet,
        snapshot: SessionSnapshot,
    ) -> Result<Self, CleanError> {
        let mut session = CleaningSession::new(config, snapshot.dataset.schema().clone(), rules)?;
        if !snapshot.dataset.is_empty() {
            session.ingest_dataset(&snapshot.dataset)?;
        }
        session.batches = snapshot.batches;
        Ok(session)
    }

    /// Apply one typed [`ChangeSet`] — the session's one ingest path.
    ///
    /// The change set is atomic: every mutation is validated (row arity,
    /// tuple and attribute bounds, with tuple ids tracked through the
    /// sequence's own insertions and deletions) before anything is applied,
    /// so a failed call leaves the session untouched.  Mutations then apply
    /// in order; a `Delete(t)` shifts every later row down by one, exactly
    /// like a batch rebuild over the surviving rows would.
    ///
    /// Deletions are **remap-batched**: rows marked for deletion stay in
    /// place (in *virtual* coordinates — the rows at entry plus whatever
    /// this change set inserts) while the walk translates every later
    /// sequentially-interpreted tuple id onto the survivors, and one
    /// compaction at the end splices all doomed rows out of the dataset,
    /// the pristine index, the cached cleaned index and the provenance.  A
    /// bulk retraction therefore costs a single O(index) id-remap pass no
    /// matter how its deletes interleave with inserts and updates
    /// ([`CleaningSession::remap_passes`] counts the passes).
    pub fn apply(&mut self, changes: ChangeSet) -> Result<BatchReport, CleanError> {
        changes.validate(self.dataset.schema().arity(), self.dataset.len())?;
        let started = Instant::now();
        let parallel = self.config.parallel;
        let mut inserted = 0usize;
        let mut updated_cells = 0usize;
        let mut touched_groups = 0usize;
        let mut touched_blocks = vec![false; self.pristine.block_count()];
        // Virtual row indices marked for deletion, kept sorted.
        let mut removed: Vec<usize> = Vec::new();

        for mutation in changes.into_mutations() {
            match mutation {
                Mutation::Insert(rows) => {
                    let from = self.dataset.len();
                    self.dataset.extend_rows(rows).expect("validated above");
                    let report =
                        self.pristine
                            .insert_tuples(&self.dataset, &self.rules, from, parallel);
                    self.stage_two.grow(self.dataset.len());
                    inserted += report.rows;
                    touched_groups += report.total_touched_groups();
                    self.touch_blocks(&mut touched_blocks, &report.touched_groups);
                }
                Mutation::Update(t, attr, value) => {
                    let t = TupleId(nth_surviving(&removed, t.index()));
                    if self.dataset.value(t, attr) == value {
                        continue; // no-op: the cell already holds this value
                    }
                    updated_cells += 1;
                    let old_row = self.dataset.row_ids(t);
                    self.dataset.set_value(t, attr, value);
                    let touched = self.pristine.update_tuple(
                        &self.dataset,
                        &self.rules,
                        t,
                        &old_row,
                        parallel,
                    );
                    touched_groups += touched.iter().map(Vec::len).sum::<usize>();
                    for (block, keys) in touched.iter().enumerate() {
                        if !keys.is_empty() {
                            self.stage_one.mark_keys_dirty(block, keys);
                            touched_blocks[block] = true;
                        }
                    }
                    self.stage_two.invalidate(t);
                }
                Mutation::Delete(t) => {
                    // Translate the sequential id onto the survivors and
                    // defer the actual removal to the single compaction
                    // below.
                    let v = nth_surviving(&removed, t.index());
                    removed.insert(removed.partition_point(|&r| r < v), v);
                }
            }
        }

        let deleted_rows = removed.len();
        if !removed.is_empty() {
            let removed_ids: Vec<TupleId> = removed.iter().map(|&r| TupleId(r)).collect();
            let report =
                self.pristine
                    .remove_tuples(&self.dataset, &self.rules, &removed_ids, parallel)?;
            self.dataset.remove_rows(&removed_ids);
            self.stage_two.remap_removed(&removed);
            self.stage_one.remap_removed(&removed);
            self.remap_passes += 1;
            touched_groups += report.touched_groups.iter().sum::<usize>();
            self.touch_blocks(&mut touched_blocks, &report.touched_groups);
        }

        self.stage_two.enforce_budget(&mut self.stage_one);
        Ok(self.finalize_change(
            started,
            inserted,
            updated_cells,
            deleted_rows,
            touched_groups,
            touched_blocks,
        ))
    }

    /// Shared post-ingest bookkeeping of [`CleaningSession::apply`] and
    /// [`CleaningSession::ingest_dataset`]: catch the cleaned index's pool
    /// snapshot up to the dataset pool (new values interned by the change
    /// must resolve there even when no block went dirty; pools are
    /// append-only, so only the new tail is copied), account the wall time,
    /// bump the batch ordinal and assemble the [`BatchReport`].
    fn finalize_change(
        &mut self,
        started: Instant,
        rows: usize,
        updated_cells: usize,
        deleted_rows: usize,
        touched_groups: usize,
        touched_blocks: Vec<bool>,
    ) -> BatchReport {
        self.stage_one.sync_pool(self.dataset.pool());
        self.timings.index += started.elapsed();
        self.batches += 1;
        BatchReport {
            batch: self.batches,
            rows,
            updated_cells,
            deleted_rows,
            total_rows: self.dataset.len(),
            dirty_blocks: self.dirty_block_count(),
            total_blocks: self.pristine.block_count(),
            touched_groups,
            total_groups: self.total_groups(),
            touched_blocks: touched_blocks
                .iter()
                .enumerate()
                .filter_map(|(i, &t)| t.then_some(i))
                .collect(),
        }
    }

    /// Ingest one micro-batch of string rows — a thin convenience for
    /// [`CleaningSession::apply`] with a single `Insert` mutation.
    pub fn ingest_batch(&mut self, rows: Vec<Vec<String>>) -> Result<BatchReport, CleanError> {
        self.apply(ChangeSet::inserting(rows))
    }

    /// Ingest a whole dataset (the batch special case).
    ///
    /// When the session is still empty this shares the dataset's columnar
    /// storage and value pool outright (no re-interning) and builds the
    /// pristine index with the bulk `MlnIndex::build_with` path; otherwise
    /// the rows are appended via [`Dataset::extend_from`], which re-interns
    /// each distinct value once.
    pub fn ingest_dataset(&mut self, ds: &Dataset) -> Result<BatchReport, CleanError> {
        if ds.schema() != self.dataset.schema() {
            return Err(CleanError::Schema(dataset::SchemaMismatch));
        }
        let started = Instant::now();
        let report = if self.dataset.is_empty() {
            self.dataset = ds.clone();
            self.pristine = MlnIndex::build_with(&self.dataset, &self.rules, self.config.parallel)
                .expect("rules were validated when the session was created");
            // A bulk build touches exactly the groups it creates.
            let groups: Vec<usize> = self
                .pristine
                .blocks
                .iter()
                .map(|b| b.group_count())
                .collect();
            InsertReport {
                rows: ds.len(),
                touched_groups: groups.clone(),
                created_groups: groups,
            }
        } else {
            let from = self.dataset.len();
            self.dataset.extend_from(ds)?;
            self.pristine
                .insert_tuples(&self.dataset, &self.rules, from, self.config.parallel)
        };
        self.stage_two.grow(self.dataset.len());
        let mut touched_blocks = vec![false; self.pristine.block_count()];
        self.touch_blocks(&mut touched_blocks, &report.touched_groups);
        self.stage_two.enforce_budget(&mut self.stage_one);
        Ok(self.finalize_change(
            started,
            report.rows,
            0,
            0,
            report.total_touched_groups(),
            touched_blocks,
        ))
    }

    /// Mark every block a structural change (an insert, a delete) touched —
    /// a non-zero touched-group count — **fully** dirty, and flag it in the
    /// change set's per-block report.
    fn touch_blocks(&mut self, touched_blocks: &mut [bool], touched_groups: &[usize]) {
        for (block, &touched) in touched_groups.iter().enumerate() {
            if touched > 0 {
                self.stage_one.mark_block_dirty(block);
                touched_blocks[block] = true;
            }
        }
    }

    /// Re-run Stage I on the dirty blocks' affected groups from their
    /// pristine state ([`StageOne::refresh`]) and empty the memo slot of
    /// every tuple whose fusion that made stale.
    fn refresh(&mut self) {
        let dirty: Vec<(usize, &Block)> = self
            .stage_one
            .dirty_blocks()
            .into_iter()
            .map(|i| (i, &self.pristine.blocks[i]))
            .collect();
        let refreshed = self
            .stage_one
            .refresh(&dirty, self.pristine.pool(), &mut self.timings);
        self.stage_two.invalidate_refreshed(&refreshed, &dirty);
    }

    /// Re-clean whatever is dirty and produce the full [`Report`] over the
    /// net rows ingested so far — byte-identical (output CSV and
    /// AGP/RSC/FSCR provenance) to a single `MlnClean::clean` batch run on
    /// the accumulated surviving data.
    ///
    /// Can be called after every change set; only the work made necessary by
    /// the mutations since the previous call is redone, and the snapshot
    /// cost is one copy of the dirty rows — the fusions are written into it
    /// ([`StageTwo::report`]) — plus an `Arc` bump of the cleaned index.
    /// [`CleaningSession::finish`] moves the rows out instead.
    pub fn outcome(&mut self) -> Report {
        self.refresh();
        let report =
            self.stage_two
                .report(&mut self.stage_one, self.dataset.clone(), &mut self.timings);
        // Post-outcome every block is clean and every fusion memoised — the
        // session's widest footprint.  Shed back under the budget before
        // handing the report out (the next outcome re-derives evictions).
        self.stage_two.enforce_budget(&mut self.stage_one);
        report
    }

    /// Close the session, producing the final [`Report`].
    ///
    /// Unlike [`CleaningSession::outcome`] this moves the session's rows
    /// into the report, so the batch wrapper [`crate::MlnClean::clean`] pays
    /// no extra copies over the historical monolithic pipeline.
    pub fn finish(mut self) -> Report {
        self.refresh();
        self.stage_two
            .report(&mut self.stage_one, self.dataset, &mut self.timings)
    }
}

/// The `t`-th (0-based) surviving virtual row index given the sorted list of
/// virtual indices already marked for deletion — the translation from a
/// sequentially-interpreted tuple id (deletes shift later ids down) to the
/// deferred-compaction coordinate space.  Binary search on "surviving rows
/// at or below `mid`".  Public so external coordinators batching deletions
/// the same way (the distributed streaming driver) share this exact
/// translation instead of copying it.
pub fn nth_surviving(removed: &[usize], t: usize) -> usize {
    let (mut lo, mut hi) = (t, t + removed.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let surviving = mid + 1 - removed.partition_point(|&r| r <= mid);
        if surviving > t {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::HaiGenerator;
    use dataset::csv;

    fn assert_same_report(label: &str, a: &Report, b: &Report) {
        assert_eq!(
            csv::to_csv(&a.repaired),
            csv::to_csv(&b.repaired),
            "{label}"
        );
        assert_eq!(
            csv::to_csv(a.deduplicated()),
            csv::to_csv(b.deduplicated()),
            "{label}"
        );
        assert_eq!(a.agp, b.agp, "{label}: AGP provenance");
        assert_eq!(a.rsc, b.rsc, "{label}: RSC provenance");
        assert_eq!(a.fscr, b.fscr, "{label}: FSCR provenance");
    }

    /// Break every spill segment of the session: delete it, or cut it in
    /// half so it reads back but no longer decodes.
    fn break_segments(session: &CleaningSession, truncate: bool) -> usize {
        let dir = session
            .stage_one
            .spill_dir()
            .expect("something was spilled");
        let mut broken = 0;
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let path = entry.unwrap().path();
            if truncate {
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            } else {
                std::fs::remove_file(&path).unwrap();
            }
            broken += 1;
        }
        broken
    }

    /// A spill segment that cannot be read back (deleted) or decoded
    /// (truncated) must not panic and must not move the output: the block is
    /// re-cleaned whole from its pristine state.  Both fault-in sites are
    /// driven — a dirty block at refresh, every block at a delete's id remap.
    #[test]
    fn a_lost_spill_segment_is_survived_and_leaves_the_report_unchanged() {
        let generator = HaiGenerator::default().with_rows(300).with_providers(12);
        let dirty = generator.dirty(0.03, 0.5, 5).dirty;
        let rules = HaiGenerator::rules();
        let config = CleanConfig::default().with_tau(2);
        let open = |config: CleanConfig| {
            let mut session =
                CleaningSession::new(config, dirty.schema().clone(), rules.clone()).unwrap();
            session.ingest_dataset(&dirty).unwrap();
            session
        };
        let mut plain = open(config.clone());
        let mut tight = open(config.with_memory_budget(1));
        assert_same_report("first outcome", &tight.outcome(), &plain.outcome());
        assert!(tight.memory_stats().spilled_blocks > 0);

        let city = dirty.schema().attr_id("City").unwrap();
        let update = ChangeSet::new().update(TupleId(0), city, dirty.value(TupleId(7), city));
        let delete = ChangeSet::new().delete(TupleId(3)).delete(TupleId(40));
        let mut errors = 0;
        for (label, changes, truncate) in [
            ("update over deleted segments", update, false),
            ("delete over truncated segments", delete, true),
        ] {
            assert!(break_segments(&tight, truncate) > 0, "{label}");
            plain.apply(changes.clone()).unwrap();
            tight.apply(changes).unwrap();
            assert_same_report(label, &tight.outcome(), &plain.outcome());
            let stats = tight.memory_stats();
            assert!(stats.spill_errors > errors, "{label}: {stats:?}");
            errors = stats.spill_errors;
        }
        assert_eq!(plain.memory_stats(), MemoryStats::default());
    }

    /// A cell update empties its own tuple's fusion slot whatever the
    /// refresh says: a tuple the update moved *out* of a block is listed by
    /// none of the block's rebuilt groups, and the cache entry that still
    /// knew it can be gone — here with the block's spill segment.
    #[test]
    fn an_updated_tuple_that_left_a_block_with_a_lost_segment_is_fused_again() {
        let dirty = dataset::sample_hospital_dataset();
        let rules = rules::sample_hospital_rules();
        let open = |config: CleanConfig, rows: &Dataset| {
            let mut session =
                CleaningSession::new(config, rows.schema().clone(), rules.clone()).unwrap();
            session.ingest_dataset(rows).unwrap();
            session
        };
        // A budget the fusion memo alone fills: every block cache spills and
        // no fusion is evicted (one byte would empty the memo after every
        // outcome and leave the update nothing to invalidate).
        let config = CleanConfig::default().with_tau(1);
        let mut unbudgeted = open(config.clone(), &dirty);
        let _ = unbudgeted.outcome();
        let budget = unbudgeted.resident_estimate() - unbudgeted.stage_one.resident_estimate();
        let mut session = open(config.clone().with_memory_budget(budget), &dirty);
        let _ = session.outcome();
        let stats = session.memory_stats();
        assert_eq!((stats.spilled_blocks, stats.evicted_fusions), (3, 0));
        assert_eq!(break_segments(&session, false), 3);

        // Only the CFD reads HN, and HN = ELIZA is all that made row 2
        // relevant to it.
        let hn = dirty.schema().attr_id("HN").unwrap();
        let update = ChangeSet::new().update(TupleId(2), hn, "ELIZB");
        session.apply(update).unwrap();
        let fused = session.fused_tuples();
        let mut fresh = open(config, session.dataset());
        assert_same_report("after the update", &session.outcome(), &fresh.outcome());
        // The three rows the CFD block still lists, and row 2.
        assert_eq!(session.fused_tuples() - fused, 4);
        let stats = session.memory_stats();
        assert_eq!((stats.spill_errors, stats.evicted_fusions), (1, 0));
    }
    /// The one-shot run holds one id → string table: the caller's dataset,
    /// the repaired rows, the deduplicated rows and the cleaned index's
    /// snapshot all name the same storage (nothing interned, nothing copied).
    #[test]
    fn a_one_shot_report_names_one_pool_storage() {
        let generator = HaiGenerator::default().with_rows(300).with_providers(12);
        let dirty = generator.dirty(0.03, 0.5, 5).dirty;
        let config = CleanConfig::default().with_tau(2);
        let report = crate::MlnClean::new(config)
            .clean(&dirty, &HaiGenerator::rules())
            .unwrap();
        assert!(!report.fscr.changes.is_empty(), "something was repaired");
        assert!(report.deduplicated().len() < report.repaired.len());
        for (label, pool) in [
            ("repaired", report.repaired.pool()),
            ("deduplicated", report.deduplicated().pool()),
            ("cleaned index", report.index().pool()),
        ] {
            assert!(dirty.pool().shares_storage_with(pool), "{label}");
        }
    }

    /// Micro-batch ingest pays O(new values) of pool work per change set:
    /// once each snapshot has parted from the table it adopted (the dataset
    /// at the second batch that interns, the snapshots right after), the
    /// dataset's pool shares its storage with neither index when a batch
    /// arrives, so interning the batch's new values copies nothing — and
    /// the snapshots still catch up to it.  (A `sync_from` that adopted on
    /// every call would hand the dataset a shared table to copy each time.)
    #[test]
    fn from_the_third_batch_on_the_dataset_pool_is_shared_with_no_snapshot() {
        let generator = HaiGenerator::default().with_rows(400).with_providers(12);
        let dirty = generator.dirty(0.03, 0.5, 5).dirty;
        let config = CleanConfig::default().with_tau(2);
        let mut session =
            CleaningSession::new(config, dirty.schema().clone(), HaiGenerator::rules()).unwrap();
        let batches = datagen::row_batches(&dirty, 20);
        assert_eq!(batches.len(), 20);
        for (i, mut batch) in batches.into_iter().enumerate() {
            // Every batch interns at least one value nobody has seen.
            batch[0][0] = format!("provider of batch {i}");
            let before = session.dataset().pool().len();
            if i >= 2 {
                let pool = session.dataset().pool();
                assert!(!pool.shares_storage_with(session.pristine.pool()), "{i}");
                assert!(
                    !pool.shares_storage_with(session.stage_one.cleaned().pool()),
                    "{i}"
                );
            }
            session.ingest_batch(batch).unwrap();
            let pool = session.dataset().pool();
            assert!(pool.len() > before, "batch {i} interned nothing");
            assert_eq!(session.pristine.pool(), pool, "{i}");
            assert_eq!(session.stage_one.cleaned().pool(), pool, "{i}");
            if i % 5 == 4 {
                // A report shares the dataset's table while it lives.
                let report = session.outcome();
                let pool = session.dataset().pool();
                assert!(report.repaired.pool().shares_storage_with(pool), "{i}");
            }
        }
    }

    /// A report the caller still holds is a snapshot: a later change set
    /// that interns a new value leaves everything the report resolves
    /// through — its rows' pool, its index's — answering exactly as before.
    #[test]
    fn a_held_report_is_untouched_by_a_later_intern() {
        let dirty = dataset::sample_hospital_dataset();
        let config = CleanConfig::default().with_tau(1);
        let mut session = CleaningSession::new(
            config,
            dirty.schema().clone(),
            rules::sample_hospital_rules(),
        )
        .unwrap();
        session.ingest_dataset(&dirty).unwrap();
        let held = session.outcome();
        let values = |pool: &dataset::ValuePool| -> Vec<String> {
            pool.iter().map(|(_, v)| v.to_string()).collect()
        };
        let before = (
            csv::to_csv(&held.repaired),
            csv::to_csv(held.deduplicated()),
            values(held.repaired.pool()),
            values(held.index().pool()),
        );

        let ct = dirty.schema().attr_id("CT").unwrap();
        let update = ChangeSet::new().update(TupleId(0), ct, "A CITY NOBODY INTERNED");
        session.apply(update).unwrap();
        let fresh = session.outcome();
        let id = fresh.repaired.pool().lookup("A CITY NOBODY INTERNED");
        let id = id.expect("the update interned it");
        assert_eq!(fresh.index().pool().resolve(id), "A CITY NOBODY INTERNED");

        let after = (
            csv::to_csv(&held.repaired),
            csv::to_csv(held.deduplicated()),
            values(held.repaired.pool()),
            values(held.index().pool()),
        );
        assert_eq!(before, after);
        for pool in [held.repaired.pool(), held.index().pool(), dirty.pool()] {
            assert!(!pool.contains(id));
            assert_eq!(pool.lookup("A CITY NOBODY INTERNED"), None);
        }
    }
}
