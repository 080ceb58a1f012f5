//! The one Stage-II driver: [`StageTwo`] owns the per-tuple **fusion memo**
//! — what FSCR (Algorithm 2) decided for each tuple the last time its data
//! versions were fused — with its invalidation, its budget policy and the
//! report tail that derives the final clean data from the versions (the
//! paper's second stage: fuse, then drop exact duplicates).  It is
//! [`StageOne`]'s twin, and like it serves both [`crate::CleaningSession`]
//! and the distributed streaming coordinator.
//!
//! A caller keeps the memo in step with its rows ([`StageTwo::grow`] on
//! insert, [`StageTwo::invalidate`] on a cell update,
//! [`StageTwo::remap_removed`] on delete, with the sorted list
//! [`StageOne::remap_removed`] takes), reports every Stage-I refresh
//! ([`StageTwo::invalidate_refreshed`]) and asks for a [`Report`] over its
//! dirty rows ([`StageTwo::report`]).
//!
//! **Invalidation.**  A fusion is a function of the tuple's version vector
//! and of its covering blocks' substitution candidates, so a refresh empties
//! two kinds of slot:
//!
//! * every tuple of [`Refreshed::invalidated`] — its versions may have
//!   changed;
//! * every memoised fusion with `conflict_detected` among the tuples of each
//!   refreshed block.  A conflicted fusion may have swapped a version for
//!   the block's most probable non-conflicting γ, and that candidate list
//!   changes whenever *any* group of the block recomputes — also one the
//!   tuple is not in.  (A conflict-free fusion reads the tuple's own
//!   versions only.)
//!
//! **Settling** fuses exactly the empty slots, against a plan restricted to
//! the blocks that list them ([`ConflictResolver::plan_for`]), and nothing
//! when no slot is empty.
//!
//! **The repaired dataset is derived, not maintained.**  Every report
//! already walks every tuple's fusion to rebuild the [`FscrRecord`], and
//! hands out a whole dataset either way; writing the fused cells into a
//! copy of the dirty rows on that same walk costs a store per changed cell,
//! where a second resident dataset would have to mirror every insert,
//! update and delete.
//!
//! **Budget.**  Under a [`CleanConfig::memory_budget`] the memo shares the
//! budget with Stage I's block caches ([`StageTwo::enforce_budget`]): cold
//! caches spill first, then the memo is *windowed* — fusions are evicted
//! oldest tuple first, counted in [`MemoryStats::evicted_fusions`], and
//! re-derived by the next report.  A fusion is a deterministic function of
//! the cleaned index, so eviction trades time for memory and never a byte
//! of output.

use crate::engine::{Report, Timings};
use crate::fscr::{apply_tuple_fusion, ConflictResolver, FscrRecord, TupleFusion};
use crate::index::Block;
use crate::stage_one::{MemoryStats, Refreshed, StageOne};
use crate::CleanConfig;
use dataset::{Dataset, TupleId};
use std::sync::Arc;
use std::time::Instant;

/// Estimated evictable heap per memoised fusion: the fused-assignment buffer
/// plus allocator slack.  The slots themselves (the `Vec`'s inline buffer)
/// are not evictable and therefore not budgeted.
pub(crate) const FUSION_SLOT_BYTES: usize = 64;

/// The Stage-II driver — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct StageTwo {
    config: CleanConfig,
    /// Per tuple: the memoised fusion (`None` = fuse it at the next report).
    fusions: Vec<Option<TupleFusion>>,
    /// Number of `Some` slots in `fusions` — kept exact so neither the
    /// budget nor the nothing-to-fuse test scans the O(rows) memo.
    memoised: usize,
    /// Fusions evicted by the budget so far.
    evicted: u64,
    /// Slots filled so far — see [`StageTwo::fused_tuples`].
    fused: u64,
}

impl StageTwo {
    /// A driver over no rows.
    pub fn new(config: CleanConfig) -> Self {
        StageTwo {
            config,
            fusions: Vec::new(),
            memoised: 0,
            evicted: 0,
            fused: 0,
        }
    }

    /// Tuples the memo holds a slot for.
    pub fn slots(&self) -> usize {
        self.fusions.len()
    }

    /// Cumulative number of tuples actually fused (vs replayed from the
    /// memo) — Stage II's incrementality probe, the sibling of
    /// [`StageOne::recleaned_groups`].
    pub fn fused_tuples(&self) -> u64 {
        self.fused
    }

    /// Rows were appended: one empty slot for each, up to `rows` in all.
    pub fn grow(&mut self, rows: usize) {
        self.fusions.resize(rows, None);
    }

    /// Empty `t`'s slot.  A cell update calls this for the tuple it wrote:
    /// its versions may have moved where no refresh will say so — a block it
    /// left no longer lists it.
    pub fn invalidate(&mut self, t: TupleId) {
        if self.fusions[t.index()].take().is_some() {
            self.memoised -= 1;
        }
    }

    /// Drop the slots of removed rows (`removed`: sorted, deduplicated
    /// pre-removal row indices); later slots shift down.
    pub fn remap_removed(&mut self, removed: &[usize]) {
        for &row in removed {
            self.invalidate(TupleId(row));
        }
        let mut row = 0usize;
        self.fusions.retain(|_| {
            row += 1;
            removed.binary_search(&(row - 1)).is_err()
        });
    }

    /// Empty the slots a Stage-I refresh made stale — see the
    /// [module docs](self) for the two rules.  `pristine` is the slice
    /// [`StageOne::refresh`] was handed.
    pub fn invalidate_refreshed(&mut self, refreshed: &Refreshed, pristine: &[(usize, &Block)]) {
        for &t in &refreshed.invalidated {
            self.invalidate(t);
        }
        let conflicted = |f: &TupleFusion| f.conflict_detected;
        for (i, block) in pristine {
            if !refreshed.blocks.contains(i) {
                continue;
            }
            for &t in block.gammas().flat_map(|gamma| &gamma.tuples) {
                if self.fusions[t.index()].as_ref().is_some_and(conflicted) {
                    self.invalidate(t);
                }
            }
        }
    }

    /// Spill cold block caches into whatever the memo leaves of the budget;
    /// `(budget, estimated bytes still resident)` when there is one.
    fn shed_blocks(&self, stage_one: &mut StageOne) -> Option<(usize, usize)> {
        let budget = self.config.memory_budget?;
        let resident = stage_one.enforce_budget(self.memoised * FUSION_SLOT_BYTES);
        Some((budget, resident))
    }

    /// Fit both stages' evictable state to the configured budget: spill
    /// clean block caches coldest first ([`StageOne::enforce_budget`]), then
    /// — if still over — evict memoised fusions front to back, so in an
    /// append-mostly stream the oldest tuples lose their memo first and the
    /// recent tail survives.  No-op without a budget.
    pub fn enforce_budget(&mut self, stage_one: &mut StageOne) {
        let Some((budget, mut resident)) = self.shed_blocks(stage_one) else {
            return;
        };
        for slot in &mut self.fusions {
            if resident <= budget {
                break;
            }
            if slot.take().is_some() {
                self.memoised -= 1;
                self.evicted += 1;
                resident = resident.saturating_sub(FUSION_SLOT_BYTES);
            }
        }
    }

    /// Estimated resident bytes of both stages' evictable state — the pool
    /// [`CleanConfig::memory_budget`] bounds.
    pub fn resident_estimate(&self, stage_one: &StageOne) -> usize {
        self.memoised * FUSION_SLOT_BYTES + stage_one.resident_estimate()
    }

    /// The out-of-core counters of both stages.
    pub fn memory_stats(&self, stage_one: &StageOne) -> MemoryStats {
        MemoryStats {
            evicted_fusions: self.evicted,
            ..stage_one.memory_stats()
        }
    }

    /// Fuse exactly the empty slots from `stage_one`'s cleaned index.
    fn settle(&mut self, stage_one: &mut StageOne, timings: &mut Timings) {
        // Shed cold caches *before* the fusion allocations below, but evict
        // no fusion: the memo is about to be refilled.
        self.shed_blocks(stage_one);
        if self.memoised == self.fusions.len() {
            return; // nothing invalidated — skip the plan build entirely
        }
        let started = Instant::now();
        let wanted: Vec<bool> = self.fusions.iter().map(Option::is_none).collect();
        let resolver = ConflictResolver::new(self.config.max_exhaustive_fusion);
        let plan = resolver.plan_for(stage_one.cleaned(), &wanted);
        for (t, slot) in self.fusions.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(resolver.fuse_tuple(&plan, TupleId(t)));
            }
        }
        self.fused += (self.fusions.len() - self.memoised) as u64;
        self.memoised = self.fusions.len();
        timings.fscr += started.elapsed();
    }

    /// Produce the [`Report`] over `dirty` — the caller's rows, one per
    /// slot, every dirty block refreshed: settle the memo, write each
    /// tuple's fusion into the rows (they become [`Report::repaired`]) while
    /// recording it in tuple order, exactly like a batch run emits it, and
    /// drop exact duplicates if [`CleanConfig::deduplicate`] says so.  The
    /// clocks run into `timings.fscr` / `timings.dedup`, and the report
    /// carries `timings` as they then read.
    pub fn report(
        &mut self,
        stage_one: &mut StageOne,
        dirty: Dataset,
        timings: &mut Timings,
    ) -> Report {
        self.settle(stage_one, timings);
        let started = Instant::now();
        let cleaned = Arc::clone(stage_one.cleaned());
        let mut repaired = dirty;
        let mut fscr = FscrRecord::default();
        for (t, fusion) in self.fusions.iter().enumerate() {
            let fusion = fusion.as_ref().expect("settled just above");
            apply_tuple_fusion(&mut repaired, cleaned.pool(), TupleId(t), fusion, &mut fscr);
        }
        timings.fscr += started.elapsed();

        let deduplicated = self.config.deduplicate.then(|| {
            let started = Instant::now();
            let deduplicated = repaired.deduplicated();
            timings.dedup += started.elapsed();
            deduplicated
        });
        let (agp, rsc) = stage_one.records();
        Report {
            repaired,
            deduplicated,
            index: Some(cleaned),
            agp,
            rsc,
            fscr,
            timings: *timings,
            partitions: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agp::tests::{random_change_set, Change, Evolving, StreamRng};
    use crate::stage_one::tests::workloads;
    use dataset::{csv, AttrId, Schema};
    use rules::{parse_rules, RuleSet};

    /// An evolving table with both stage drivers kept in step with it the
    /// way `CleaningSession::apply` and `outcome` keep theirs.
    struct Stream {
        table: Evolving,
        config: CleanConfig,
        one: StageOne,
        two: StageTwo,
    }

    impl Stream {
        fn open(config: &CleanConfig, ds: &Dataset, rules: &RuleSet) -> Self {
            let table = Evolving::new(Dataset::new(ds.schema().clone()), rules.clone());
            let mut stream = Stream {
                one: StageOne::new(config.clone(), table.index.clone()),
                two: StageTwo::new(config.clone()),
                config: config.clone(),
                table,
            };
            let rows = ds.tuples().map(|t| t.owned_values()).collect();
            let inserted = stream.table.insert(rows);
            stream.absorb(vec![inserted]);
            stream
        }

        /// Tell the drivers what the table's mutations did, in order.
        fn absorb(&mut self, changes: Vec<Change>) {
            let touch = |one: &mut StageOne, touched_groups: &[usize]| {
                for (block, &touched) in touched_groups.iter().enumerate() {
                    if touched > 0 {
                        one.mark_block_dirty(block);
                    }
                }
            };
            for change in changes {
                match change {
                    Change::Inserted(report) => {
                        self.two.grow(self.two.slots() + report.rows);
                        touch(&mut self.one, &report.touched_groups);
                    }
                    Change::Updated(t, touched) => {
                        for (block, keys) in touched.iter().enumerate() {
                            self.one.mark_keys_dirty(block, keys);
                        }
                        self.two.invalidate(t);
                    }
                    Change::Deleted(removed, report) => {
                        self.two.remap_removed(&removed);
                        self.one.remap_removed(&removed);
                        touch(&mut self.one, &report.touched_groups);
                    }
                }
            }
        }

        /// Refresh what is dirty and report; the report must equal Stage II
        /// run from scratch over the same cleaned index — repaired CSV, the
        /// FSCR record (outcomes and changes, in order) and the dedup CSV.
        /// Returns the report and what the refresh said.
        fn report(&mut self, label: &str) -> (Report, Refreshed) {
            let index = &self.table.index;
            let dirty: Vec<(usize, &Block)> = self
                .one
                .dirty_blocks()
                .into_iter()
                .map(|i| (i, &index.blocks[i]))
                .collect();
            let mut timings = Timings::default();
            let refreshed = self.one.refresh(&dirty, index.pool(), &mut timings);
            self.two.invalidate_refreshed(&refreshed, &dirty);
            self.one.sync_pool(self.table.ds.pool());
            let rows = self.table.ds.clone();
            let report = self.two.report(&mut self.one, rows, &mut timings);
            assert_eq!(report.timings, timings, "{label}");

            let resolver = ConflictResolver::new(self.config.max_exhaustive_fusion);
            let (repaired, record) = resolver.resolve(&self.table.ds, self.one.cleaned());
            assert_eq!(
                csv::to_csv(&report.repaired),
                csv::to_csv(&repaired),
                "{label}"
            );
            assert_eq!(report.fscr, record, "{label}");
            assert_eq!(
                csv::to_csv(report.deduplicated()),
                csv::to_csv(&repaired.deduplicated()),
                "{label}"
            );
            (report, refreshed)
        }
    }

    /// `CFD: K="p", A -> B` and `CFD: K="q", A -> B` over alternating p and q
    /// rows.  No block lists every row, so an insert or a delete on one side
    /// leaves the other side's memoised fusions standing — on both sides of
    /// the gap a delete closes.
    fn disjoint_cfds() -> (&'static str, Dataset, RuleSet, CleanConfig) {
        let mut ds = Dataset::new(Schema::new(&["K", "A", "B"]));
        for i in 0..24 {
            let k = ["p", "q"][i % 2];
            let b = if i % 7 == 3 {
                "bx".into()
            } else {
                format!("b{}", i / 2 % 3)
            };
            ds.push_row(vec![k.into(), format!("a{}", i / 2 % 3), b])
                .unwrap();
        }
        let rules = parse_rules("CFD: K=\"p\", A -> B\nCFD: K=\"q\", A -> B").unwrap();
        (
            "disjoint CFDs",
            ds,
            rules,
            CleanConfig::default().with_tau(1),
        )
    }

    #[test]
    fn every_report_of_seeded_streams_equals_stage_two_from_scratch() {
        let mut workloads = workloads();
        workloads.push(disjoint_cfds());
        for (name, ds, rules, config) in workloads {
            for memory_budget in [None, Some(1)] {
                let config = CleanConfig {
                    memory_budget,
                    ..config.clone()
                };
                let mut stream = Stream::open(&config, &ds, &rules);
                let mut rng = StreamRng(0x57A6E2 + ds.len() as u64);
                let mut rows_reported = 0;
                for step in 0..13 {
                    // Before a report: nothing (the first), one change set,
                    // or two.
                    for _ in 0..step % 3 {
                        let changes = random_change_set(&mut stream.table, &mut rng);
                        stream.absorb(changes);
                        stream.two.enforce_budget(&mut stream.one);
                    }
                    stream.report(&format!("{name}, {memory_budget:?}: step {step}"));
                    rows_reported += stream.table.ds.len() as u64;
                    stream.two.enforce_budget(&mut stream.one);
                    let emptied = stream.two.fusions.iter().filter(|f| f.is_none()).count();
                    assert_eq!(stream.two.memoised + emptied, stream.two.slots());
                    if memory_budget.is_some() {
                        assert_eq!(stream.two.memoised, 0, "{name}: 1 byte holds no fusion");
                    }
                }
                let stats = stream.two.memory_stats(&stream.one);
                if memory_budget.is_some() {
                    // Every fusion was evicted after every report…
                    assert_eq!(stream.two.fused_tuples(), rows_reported, "{name}");
                    assert_eq!(stats.evicted_fusions, rows_reported, "{name}");
                } else {
                    // …or replayed from the memo wherever it still stood.
                    assert!(stream.two.fused_tuples() < rows_reported, "{name}");
                    assert_eq!(stats, MemoryStats::default(), "{name}");
                }
            }
        }
    }

    /// The rule the refreshed tuples alone do not cover: a conflicted fusion
    /// reads its blocks' substitution candidates, which a recompute of a
    /// group the tuple is *not* in can change.
    #[test]
    fn a_conflicted_fusion_is_dropped_when_another_group_of_its_block_recomputes() {
        // Row 0's versions disagree on B — (a1, x1) under `A -> B`, (c1, x2)
        // under `C -> B` — and the fusion that wins keeps (c1, x2) and swaps
        // the other for `A -> B`'s candidate (a2, x2).
        let mut ds = Dataset::new(Schema::new(&["A", "B", "C"]));
        for row in [
            ["a1", "x1", "c1"],
            ["a1", "x1", "c2"],
            ["a1", "x1", "c2"],
            ["a2", "x2", "c1"],
            ["a2", "x2", "c1"],
            ["a2", "x2", "c1"],
        ] {
            ds.push_row(row.iter().map(|v| v.to_string()).collect())
                .unwrap();
        }
        let rules = parse_rules("FD: A -> B\nFD: C -> B").unwrap();
        let mut stream = Stream::open(&CleanConfig::default().with_tau(0), &ds, &rules);
        let (first, _) = stream.report("first report");
        let row0 = &first.fscr.outcomes[0];
        assert!(row0.conflict_detected && !row0.fusion_failed);
        assert!(row0.fused.contains(&("A".to_string(), "a2".to_string())));

        // Row 5 leaves group a2 for a group of its own: (a2, x2) loses
        // support, hence probability.  Row 0 sits in neither group and no
        // refreshed group lists it, yet the other order wins now: it keeps
        // (a1, x1) and swaps in `C -> B`'s candidate (c2, x1).
        let change = stream.table.update(TupleId(5), AttrId(0), "a3");
        stream.absorb(vec![change]);
        let (second, refreshed) = stream.report("after the update");
        assert_eq!(refreshed.blocks, vec![0]);
        assert!(!refreshed.invalidated.contains(&TupleId(0)));
        let row0 = &second.fscr.outcomes[0];
        assert!(row0.fused.contains(&("A".to_string(), "a1".to_string())));
        assert_eq!(
            second.repaired.tuple(TupleId(0)).owned_values(),
            ["a1", "x1", "c2"]
        );
    }

    #[test]
    fn a_one_cell_update_on_seeded_hai_fuses_a_strict_subset_of_the_rows() {
        let (_, ds, rules, config) = workloads().remove(1);
        let mut stream = Stream::open(&config, &ds, &rules);
        stream.report("first report");
        let rows = ds.len() as u64;
        assert_eq!(stream.two.fused_tuples(), rows);

        // Give row 0 another row's city: the result part of two FDs.
        let city = ds.schema().attr_id("City").unwrap();
        let other = (1..ds.len())
            .map(|t| ds.value(TupleId(t), city))
            .find(|c| *c != ds.value(TupleId(0), city))
            .unwrap();
        let change = stream.table.update(TupleId(0), city, other);
        stream.absorb(vec![change]);
        stream.report("after the update");
        let fused = stream.two.fused_tuples() - rows;
        assert!((1..rows / 2).contains(&fused), "{fused} of {rows} rows");

        // Nothing dirty, nothing fused.
        stream.report("again");
        assert_eq!(stream.two.fused_tuples(), rows + fused);
    }
}
