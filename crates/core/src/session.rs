//! The incremental cleaning engine: a [`CleaningSession`] is a [`RowStore`]
//! plus the two stage drivers, [`StageOne`] and [`StageTwo`].
//!
//! [`CleaningSession::apply`] hands a [`ChangeSet`] to the store and marks
//! the drivers from what moved: every mutation dirties the pristine group
//! keys it touched — an update those it re-homed its tuple across, an insert
//! those it added a tuple to, a delete those it took one from — and a delete
//! shifts both drivers past the removed ids.  A [`Report`] re-runs Stage I
//! on the dirty groups only ([`StageOne::refresh`], shared with the
//! distributed coordinator; where a mutation moved a block's total support,
//! the groups it reuses get their probabilities rescaled) and re-fuses the
//! invalidated tuples only — the tuples of the groups it re-cleaned, the
//! conflicted tuples of the refreshed blocks and the rows it wrote; a fusion
//! a moved total cannot change is re-scored instead ([`StageTwo`]) — yet is
//! byte-identical — output CSV and AGP/RSC/FSCR provenance, `f_score`
//! included — to a batch run over the net surviving rows, which is what
//! [`crate::MlnClean::clean`] is: one bulk ingest plus
//! [`CleaningSession::finish`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// An insert dirties keys, not blocks (clippy.toml; it bans `to_string` too).
#![deny(clippy::disallowed_methods)]

use crate::changeset::ChangeSet;
use crate::engine::{Report, Timings};
use crate::error::CleanError;
use crate::index::Block;
use crate::stage_one::{MemoryStats, Refreshed, StageOne};
use crate::stage_two::StageTwo;
use crate::store::{Applied, BatchReport, RowStore, SessionSnapshot};
use crate::CleanConfig;
use dataset::{Dataset, Schema};
use rules::RuleSet;

/// An incremental MLNClean engine over typed mutation ingest — see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct CleaningSession {
    store: RowStore,
    /// The cleaned index, its provenance and the per-group clean caches.
    stage_one: StageOne,
    /// The per-tuple fusion memo.
    stage_two: StageTwo,
    /// The stage clocks; `index` is the store's.
    timings: Timings,
}

impl CleaningSession {
    /// Open a session.  Fails like [`RowStore::new`] does.
    pub fn new(config: CleanConfig, schema: Schema, rules: RuleSet) -> Result<Self, CleanError> {
        let store = RowStore::new(config.clone(), schema, rules)?;
        Ok(CleaningSession {
            stage_one: StageOne::new(config.clone(), store.pristine().clone()),
            stage_two: StageTwo::new(config),
            store,
            timings: Timings::default(),
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &CleanConfig {
        self.store.config()
    }

    /// The rule set the session cleans against.
    pub fn rules(&self) -> &RuleSet {
        self.store.rules()
    }

    /// The accumulated (dirty) dataset.
    pub fn dataset(&self) -> &Dataset {
        self.store.dataset()
    }

    /// Net rows held by the session.
    pub fn len(&self) -> usize {
        self.dataset().len()
    }

    /// Whether the session currently holds no rows.
    pub fn is_empty(&self) -> bool {
        self.dataset().is_empty()
    }

    /// Number of blocks (= rules).
    pub fn total_blocks(&self) -> usize {
        self.store.pristine().block_count()
    }

    /// Blocks at least one of whose groups re-runs Stage I next outcome.
    pub fn dirty_block_count(&self) -> usize {
        self.stage_one.dirty_blocks().len()
    }

    /// Change sets applied so far.
    pub fn batches(&self) -> usize {
        self.store.batches()
    }

    /// Output groups Stage I recomputed across all refreshes — the
    /// incrementality probe ([`StageOne::recleaned_groups`]).
    pub fn recleaned_groups(&self) -> u64 {
        self.stage_one.recleaned_groups()
    }

    /// Abnormal groups whose nearest-normal search started from nothing —
    /// the planning probe ([`StageOne::rescanned_groups`]).
    pub fn rescanned_groups(&self) -> u64 {
        self.stage_one.rescanned_groups()
    }

    /// Tuples Stage II fused across all outcomes — the fusion probe
    /// ([`StageTwo::fused_tuples`]).
    pub fn fused_tuples(&self) -> u64 {
        self.stage_two.fused_tuples()
    }

    /// Total groups across all pristine blocks right now.
    pub fn total_groups(&self) -> usize {
        self.store.total_groups()
    }

    /// O(index) id-compaction passes so far: at most one per change set,
    /// however many deletes it holds and however they interleave.
    pub fn remap_passes(&self) -> usize {
        self.store.remap_passes()
    }

    /// Cumulative per-stage wall clock of this session.
    pub fn timings(&self) -> Timings {
        self.timings
    }

    /// Memo-drop and eviction counters; all zero unless
    /// [`CleanConfig::memory_budget`] is set.
    pub fn memory_stats(&self) -> MemoryStats {
        self.stage_two.memory_stats(&self.stage_one)
    }

    /// Estimated resident bytes of the evictable working state the
    /// [`CleanConfig::memory_budget`] bounds: block memos and fusion memo.
    pub fn resident_estimate(&self) -> usize {
        self.stage_two.resident_estimate(&self.stage_one)
    }

    /// A compacting suspend image ([`RowStore::snapshot`]).
    pub fn snapshot(&self) -> SessionSnapshot {
        self.store.snapshot()
    }

    /// Reopen a session from a [`SessionSnapshot`].  Every later outcome is
    /// byte-identical to the uninterrupted session's; the diagnostics
    /// (timings, the probes, [`CleaningSession::remap_passes`]) restart from
    /// zero — they describe this process, not the stream.
    pub fn resume(
        config: CleanConfig,
        rules: RuleSet,
        snapshot: SessionSnapshot,
    ) -> Result<Self, CleanError> {
        let mut session = CleaningSession::new(config, snapshot.dataset.schema().clone(), rules)?;
        if let Some(applied) = session.store.load(snapshot)? {
            session.absorb(applied);
        }
        Ok(session)
    }

    /// Apply one typed [`ChangeSet`] — atomically ([`RowStore::apply`]) —
    /// and mark the drivers from what it changed.
    pub fn apply(&mut self, changes: ChangeSet) -> Result<BatchReport, CleanError> {
        let applied = self.store.apply(changes)?;
        Ok(self.absorb(applied))
    }

    /// [`CleaningSession::apply`] with a single `Insert` mutation.
    pub fn ingest_batch(&mut self, rows: Vec<Vec<String>>) -> Result<BatchReport, CleanError> {
        self.apply(ChangeSet::inserting(rows))
    }

    /// Ingest a whole dataset (the batch special case,
    /// [`RowStore::ingest_dataset`]).
    pub fn ingest_dataset(&mut self, ds: &Dataset) -> Result<BatchReport, CleanError> {
        let applied = self.store.ingest_dataset(ds)?;
        Ok(self.absorb(applied))
    }

    /// Mark the drivers from what the store changed, shed back under the
    /// budget and catch the cleaned index's pool up to the rows' (a new value
    /// must resolve there even when no block went dirty).  The report's
    /// `dirty_blocks` becomes the session's.
    fn absorb(&mut self, applied: Applied) -> BatchReport {
        // Slots in virtual coordinates: the rows before the compaction.
        let report = &applied.report;
        self.stage_two.grow(report.total_rows + report.deleted_rows);
        for &t in &applied.updated {
            self.stage_two.invalidate(t);
        }
        for (block, keys) in applied.touched_keys.iter().enumerate() {
            self.stage_one.mark_keys_dirty(block, keys);
        }
        if !applied.removed.is_empty() {
            self.stage_two.remap_removed(&applied.removed);
            self.stage_one.remap_removed(&applied.removed);
        }
        self.stage_two.enforce_budget(&mut self.stage_one);
        self.stage_one.sync_pool(self.store.dataset().pool());
        self.timings.index = self.store.index_clock();
        BatchReport {
            dirty_blocks: self.dirty_block_count(),
            ..applied.report
        }
    }

    /// Re-run Stage I on the dirty blocks' affected groups and empty the
    /// memo slot of every tuple whose fusion that made stale; what the
    /// refresh did.
    fn refresh(&mut self) -> Refreshed {
        let pristine = self.store.pristine();
        let dirty: Vec<(usize, &Block)> = self
            .stage_one
            .dirty_blocks()
            .into_iter()
            .map(|i| (i, &pristine.blocks[i]))
            .collect();
        let refreshed = self
            .stage_one
            .refresh(&dirty, pristine.pool(), &mut self.timings);
        self.stage_two.invalidate_refreshed(&refreshed, &dirty);
        refreshed
    }

    /// Re-clean whatever is dirty and produce the full [`Report`] over the
    /// net rows so far.  Only the work the changes since the last call made
    /// necessary is redone: Stage II patches the last report's rows where
    /// their fusions were redone and copies the rest out; the cleaned index
    /// is shared.
    pub fn outcome(&mut self) -> Report {
        self.refresh();
        self.report()
    }

    /// [`CleaningSession::outcome`] once its refresh ran: settle the fusion
    /// memo and report.
    fn report(&mut self) -> Report {
        let report =
            self.stage_two
                .report(&mut self.stage_one, self.store.dataset(), &mut self.timings);
        // Every block is clean and every fusion memoised now — the widest
        // footprint: shed back under the budget before handing it out.
        self.stage_two.enforce_budget(&mut self.stage_one);
        report
    }

    /// Close the session, producing the final [`Report`]; unlike
    /// [`CleaningSession::outcome`] the repaired rows, the FSCR record and
    /// the Stage-I provenance move into it, uncopied (the net rows become
    /// the repaired rows when no outcome came before).
    pub fn finish(mut self) -> Report {
        self.refresh();
        let rows = self.store.into_dataset();
        self.stage_two
            .finish(self.stage_one, rows, &mut self.timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{CarGenerator, HaiGenerator};
    use dataset::{csv, AttrId, TupleId};
    use std::collections::BTreeSet;
    use std::sync::Arc;

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

    /// A delete dirties only the blocks that listed a removed row: the id
    /// shift leaves the others clean, whose memos the budget dropped, and
    /// the next outcome is the unbudgeted one.
    #[test]
    fn a_delete_dirties_only_the_blocks_it_touches() {
        let dirty = dataset::sample_hospital_dataset();
        let open = |config: CleanConfig| {
            let mut session = CleaningSession::new(
                config,
                dirty.schema().clone(),
                rules::sample_hospital_rules(),
            )
            .unwrap();
            session.ingest_dataset(&dirty).unwrap();
            session
        };
        let config = CleanConfig::default().with_tau(1);
        let mut plain = open(config.clone());
        let mut tight = open(config.with_memory_budget(1));
        assert_same_report("first outcome", &tight.outcome(), &plain.outcome());
        assert_eq!(tight.memory_stats().dropped_memos, 3);

        // Row 0 is not an ELIZA row, so the CFD block does not list it.
        let delete = ChangeSet::new().delete(TupleId(0));
        plain.apply(delete.clone()).unwrap();
        tight.apply(delete).unwrap();
        assert_eq!(tight.dirty_block_count(), 2);
        assert_same_report("after the delete", &tight.outcome(), &plain.outcome());
    }

    /// An insert and a delete re-clean the groups they touch, not their
    /// blocks, and a moved Z re-scores, it does not re-fuse.  On seeded CAR
    /// data an update that flips a row's CFD relevance, a 64-row insert and a
    /// 1-row delete each move a block's total support, yet each re-cleans
    /// under a fifth of the output groups — every other one is reused under
    /// the moved total — and re-fuses at most the tuples of the groups it
    /// re-cleaned, the conflicted tuples of the refreshed blocks and the rows
    /// it wrote; each outcome, `f_score` included, is the batch run over the
    /// same rows.
    #[test]
    fn an_insert_and_a_delete_reclean_the_groups_they_touch() {
        // The benchmark's CAR shape: fifteen models a make.
        let generator = CarGenerator {
            models_per_make: 15,
            rows: 4_064,
            seed: 29,
        };
        let dirty = generator.dirty(0.02, 0.5, 29).dirty;
        let rules = CarGenerator::rules();
        let config = CleanConfig::default()
            .with_tau(1)
            .with_agp_distance_guard(0.15);
        let rows = |range: std::ops::Range<usize>| -> Vec<Vec<String>> {
            range
                .map(|t| dirty.tuple(TupleId(t)).owned_values())
                .collect()
        };
        let load = dirty.len() - 64;
        let mut session =
            CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone()).unwrap();
        session.ingest_batch(rows(0..load)).unwrap();
        let mut last = session.outcome();

        // An acura row leaves the CFD's scope.
        let make = dirty.schema().attr_id("Make").unwrap();
        let acura = (0..load).find(|&t| dirty.value(TupleId(t), make) == "acura");
        let acura = TupleId(acura.unwrap());
        let batch = crate::MlnClean::new(config);
        let changes = [
            (
                "the update",
                ChangeSet::new().update(acura, make, "rewrite-make-1"),
                1,
            ),
            (
                "the insert",
                ChangeSet::inserting(rows(load..dirty.len())),
                64,
            ),
            ("the delete", ChangeSet::new().delete(TupleId(load / 2)), 0),
        ];
        let mut fused = Vec::new();
        for (label, changes, written) in changes {
            session.apply(changes).unwrap();
            let (recleaned, refused) = (session.recleaned_groups(), session.fused_tuples());
            let refreshed = session.refresh();
            let outcome = session.report();
            let recleaned = session.recleaned_groups() - recleaned;
            let refused = session.fused_tuples() - refused;
            let groups: usize = outcome.index().blocks.iter().map(Block::group_count).sum();
            assert!(
                0 < recleaned && recleaned * 5 < groups as u64,
                "{label}: {recleaned} of {groups} groups re-cleaned"
            );
            assert!(!refreshed.rescaled.is_empty(), "{label}: Z moved");

            let mut bound: BTreeSet<TupleId> = refreshed.invalidated.iter().copied().collect();
            for &i in &refreshed.blocks {
                let tuples = outcome.index().blocks[i].gammas().flat_map(|g| &g.tuples);
                let conflicted =
                    tuples.filter(|t| outcome.fscr.outcomes[t.index()].conflict_detected);
                bound.extend(conflicted);
            }
            let bound = bound.len() as u64 + written;
            assert!(
                refused <= bound,
                "{label}: {refused} re-fused, bound {bound}"
            );
            let fresh = batch.clean(session.dataset(), &rules).unwrap();
            assert_same_report(label, &outcome, &fresh);
            fused.push(refused);
            if written > 0 {
                // No id moved: a fusion that stood kept its provenance list,
                // and many kept it under a new score.
                let pairs = last.fscr.outcomes.iter().zip(&outcome.fscr.outcomes);
                let kept = pairs.filter(|(a, b)| Arc::ptr_eq(&a.fused, &b.fused));
                let rescored = kept.filter(|(a, b)| a.f_score != b.f_score).count();
                assert!(rescored > 100, "{label}: {rescored} fusions re-scored");
            }
            last = outcome;
        }
        let rows = session.len() as u64;
        assert!(
            fused[1] * 3 < rows,
            "the insert re-fused {} of {rows}",
            fused[1]
        );
        assert!(
            fused[2] * 50 < rows,
            "the delete re-fused {} of {rows}",
            fused[2]
        );
    }

    /// A tuple a cell update moved *out* of a block is fused again: no
    /// rebuilt group of the block lists it, but the cache entry of the group
    /// it left names the old slot that does (and the update empties the
    /// tuple's own fusion slot besides).
    #[test]
    fn an_updated_tuple_that_left_a_block_is_fused_again() {
        let dirty = dataset::sample_hospital_dataset();
        let rules = rules::sample_hospital_rules();
        let open = |config: CleanConfig, rows: &Dataset| {
            let mut session =
                CleaningSession::new(config, rows.schema().clone(), rules.clone()).unwrap();
            session.ingest_dataset(rows).unwrap();
            session
        };
        let config = CleanConfig::default().with_tau(1);
        let mut session = open(config.clone(), &dirty);
        let _ = session.outcome();

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
        let batches: Vec<ChangeSet> = ChangeSet::insert_batches(&dirty, 20).collect();
        assert_eq!(batches.len(), 20);
        for (i, changes) in batches.into_iter().enumerate() {
            // Every batch interns at least one value nobody has seen.
            let changes =
                changes.update(TupleId(20 * i), AttrId(0), format!("provider of batch {i}"));
            let before = session.dataset().pool().len();
            if i >= 2 {
                let pool = session.dataset().pool();
                assert!(
                    !pool.shares_storage_with(session.store.pristine().pool()),
                    "{i}"
                );
                assert!(
                    !pool.shares_storage_with(session.stage_one.cleaned().pool()),
                    "{i}"
                );
            }
            session.apply(changes).unwrap();
            let pool = session.dataset().pool();
            assert!(pool.len() > before, "batch {i} interned nothing");
            assert_eq!(session.store.pristine().pool(), pool, "{i}");
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
            pool.iter().map(|(_, v)| v.into()).collect()
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

    /// A report the caller still holds keeps every byte while a later
    /// refresh moves groups and repairs out of the cleaned index: the
    /// refresh copies the shared index once and moves from its own copy.
    #[test]
    fn a_held_report_is_untouched_by_a_refresh_that_moves_groups() {
        let generator = HaiGenerator::default().with_rows(300).with_providers(12);
        let dirty = generator.dirty(0.03, 0.5, 5).dirty;
        let config = CleanConfig::default().with_tau(2);
        let mut session =
            CleaningSession::new(config, dirty.schema().clone(), HaiGenerator::rules()).unwrap();
        session.ingest_dataset(&dirty).unwrap();
        let held = session.outcome();
        let bytes = mlnw::to_bytes(&held).unwrap();

        let city = dirty.schema().attr_id("City").unwrap();
        let update = ChangeSet::new().update(TupleId(0), city, dirty.value(TupleId(7), city));
        session.apply(update).unwrap();
        let recleaned = session.recleaned_groups();
        let fresh = session.outcome();
        let rebuilt = session.recleaned_groups() - recleaned;
        let groups: usize = fresh.index().blocks.iter().map(Block::group_count).sum();
        assert!(
            0 < rebuilt && rebuilt < groups as u64 / 2,
            "{rebuilt} of {groups}"
        );
        assert!(!std::ptr::eq(held.index(), fresh.index()));
        assert_ne!(mlnw::to_bytes(&fresh).unwrap(), bytes);
        assert_eq!(mlnw::to_bytes(&held).unwrap(), bytes);
    }
}
