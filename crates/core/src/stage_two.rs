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
//! dirty rows ([`StageTwo::report`], or [`StageTwo::finish`] on the drivers'
//! last use, which moves the Stage-I provenance instead of copying it).
//!
//! **Invalidation.**  A fusion is a function of the tuple's version vector,
//! of its covering blocks' substitution candidates and — through the Eq. 3
//! probabilities `c / Z` it multiplies — of those blocks' total supports, so
//! a refresh empties three kinds of slot:
//!
//! * every tuple of [`Refreshed::invalidated`] — its versions may have
//!   changed;
//! * every memoised fusion with `conflict_detected` among the tuples of each
//!   refreshed block.  A conflicted fusion may have swapped a version for
//!   the block's most probable non-conflicting γ, and that candidate list
//!   changes whenever *any* group of the block recomputes — also one the
//!   tuple is not in.  (A conflict-free fusion reads the tuple's own
//!   versions only.)
//! * every memoised fusion over three or more versions among the tuples of
//!   each block whose total support moved ([`Refreshed::rescaled`]).  Each
//!   order takes one factor per covering block, so a new `Z` divides every
//!   order's product alike — but over three or more factors, products taken
//!   in different orders round differently, and another order may win.
//!
//! A fusion a moved `Z` leaves standing — conflict-free, at most two
//! versions, first order walked first — keeps its assignment and its
//! provenance; only its score moves.  It holds its factors inline (block,
//! Eq. 3 numerator, the `Z` it was scored at), and the report derives its
//! `f_score` from them: the stored score while every factor's block still
//! has that `Z`, else the factors re-folded under the blocks' current totals
//! through `weights::probability` — bit for bit the score a fresh fusion
//! would multiply.  A report whose every fusion was just made (a batch run)
//! skips the comparison.
//!
//! **Settling** fuses exactly the empty slots, against a plan restricted to
//! the blocks that list them ([`ConflictResolver::plan_for`]), and nothing
//! when no slot is empty.  The plan fuses each distinct version vector once
//! and a slot is a [`SharedFusion`] handle onto that fusion, so filling one is
//! a reference-count bump; the handle holds the fusion's assignment list, so
//! a fusion that survives a refresh is not re-stated — the next report's
//! [`crate::FusionOutcome::fused`] is the list the previous report already
//! shares.
//!
//! **The repaired dataset is derived, not maintained.**  Every report
//! walks every tuple's fusion to rebuild the [`FscrRecord`], and hands out a
//! whole dataset either way; on that walk a tuple costs a handle bump for its
//! outcome plus a store and a change record per *changed* cell written into
//! a copy of the dirty rows — ids only, no string — where a second resident
//! dataset would have to mirror every insert, update and delete.  The report
//! names its records' ids once, by its cleaned index's pool and its rows'
//! schema ([`crate::provenance`]).
//!
//! **Budget.**  Under a [`CleanConfig::memory_budget`] the memo shares the
//! budget with Stage I's block memos ([`StageTwo::enforce_budget`]): cold
//! blocks' memos drop first, then the memo is *windowed* — slots are emptied
//! oldest tuple first, each counted in [`MemoryStats::evicted_fusions`], and
//! re-derived by the next report.  The estimate counts **distinct fusions**,
//! not slots: a slot is a pointer in the memo's inline buffer, and emptying
//! it frees memory only if it held the last handle onto its fusion — only
//! then does the estimate fall, by a fixed charge for the fusion and for each
//! attribute it assigns.  A sweep over tuples
//! whose vectors later tuples share therefore frees nothing and keeps going.
//! (A clone of the driver shares its handles: what both hold stays charged to
//! both until one lets go.)  A fusion is a deterministic function of the
//! cleaned index, so eviction trades time for memory and never a byte of
//! output.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::agp::AgpRecord;
use crate::engine::{Report, Timings};
use crate::fscr::{apply_scored_fusion, ConflictResolver, FscrRecord, SharedFusion};
use crate::index::Block;
use crate::rsc::RscRecord;
use crate::stage_one::{MemoryStats, Refreshed, StageOne};
use crate::weights::block_support;
use crate::CleanConfig;
use dataset::{Dataset, TupleId};
use std::sync::Arc;
use std::time::Instant;

/// What the budget estimate charges a distinct memoised fusion: this much
/// for the shared cell and the assignment list's header, and again for each
/// fused attribute, allocator slack included.
const FUSION_UNIT_BYTES: usize = 128;

fn fusion_bytes(fusion: &SharedFusion) -> usize {
    FUSION_UNIT_BYTES * (1 + fusion.fused.len())
}

/// The Stage-II driver — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct StageTwo {
    config: CleanConfig,
    /// Per tuple: a handle onto the memoised fusion of its version vector
    /// (`None` = fuse it at the next report).
    fusions: Vec<Option<SharedFusion>>,
    /// Number of `Some` slots in `fusions` — kept exact so the
    /// nothing-to-fuse test does not scan the O(rows) memo.
    memoised: usize,
    /// [`fusion_bytes`] summed over the distinct fusions the slots keep
    /// alive — kept exact so the budget does not scan the memo either.
    memo_bytes: usize,
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
            memo_bytes: 0,
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
        self.release(t.index());
    }

    /// Empty slot `t`; whether it held a handle.
    fn release(&mut self, t: usize) -> bool {
        let Some(fusion) = self.fusions[t].take() else {
            return false;
        };
        self.memoised -= 1;
        if fusion.holders() == 1 {
            self.memo_bytes -= fusion_bytes(&fusion);
        }
        true
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
    /// [module docs](self) for the three rules.  `pristine` is the slice
    /// [`StageOne::refresh`] was handed.
    pub fn invalidate_refreshed(&mut self, refreshed: &Refreshed, pristine: &[(usize, &Block)]) {
        for &t in &refreshed.invalidated {
            self.invalidate(t);
        }
        for (i, block) in pristine {
            if !refreshed.blocks.contains(i) {
                continue;
            }
            let rescaled = refreshed.rescaled.contains(i);
            let stale =
                |f: &SharedFusion| f.conflict_detected || (rescaled && !f.survives_rescale());
            for &t in block.gammas().flat_map(|gamma| &gamma.tuples) {
                if self.fusions[t.index()].as_ref().is_some_and(stale) {
                    self.invalidate(t);
                }
            }
        }
    }

    /// Drop cold block memos until they fit whatever the fusion memo leaves
    /// of the budget; `(budget, estimated bytes still resident)` when there
    /// is one.
    fn shed_blocks(&self, stage_one: &mut StageOne) -> Option<(usize, usize)> {
        let budget = self.config.memory_budget?;
        Some((budget, stage_one.enforce_budget(self.memo_bytes)))
    }

    /// Fit both stages' evictable state to the configured budget: drop clean
    /// blocks' memos coldest first ([`StageOne::enforce_budget`]), then
    /// — if still over — empty memo slots front to back, so in an
    /// append-mostly stream the oldest tuples lose their memo first and the
    /// recent tail survives.  No-op without a budget.
    pub fn enforce_budget(&mut self, stage_one: &mut StageOne) {
        let Some((budget, resident)) = self.shed_blocks(stage_one) else {
            return;
        };
        let blocks = resident - self.memo_bytes;
        for t in 0..self.fusions.len() {
            if blocks + self.memo_bytes <= budget {
                break;
            }
            if self.release(t) {
                self.evicted += 1;
            }
        }
    }

    /// Estimated resident bytes of both stages' evictable state — the pool
    /// [`CleanConfig::memory_budget`] bounds: Stage I's block memos plus the
    /// distinct memoised fusions.
    pub fn resident_estimate(&self, stage_one: &StageOne) -> usize {
        self.memo_bytes + stage_one.resident_estimate()
    }

    /// The budget counters of both stages.
    pub fn memory_stats(&self, stage_one: &StageOne) -> MemoryStats {
        MemoryStats {
            evicted_fusions: self.evicted,
            ..stage_one.memory_stats()
        }
    }

    /// Fuse exactly the empty slots from `stage_one`'s cleaned index;
    /// returns the substitution candidates the new fusions tested.
    fn settle(&mut self, stage_one: &mut StageOne, timings: &mut Timings) -> u64 {
        // Drop cold memos *before* the fusion allocations below, but evict
        // no fusion: the memo is about to be refilled.
        self.shed_blocks(stage_one);
        if self.memoised == self.fusions.len() {
            return 0; // nothing invalidated — skip the plan build entirely
        }
        let started = Instant::now();
        let wanted: Vec<bool> = self.fusions.iter().map(Option::is_none).collect();
        let resolver = ConflictResolver::new(self.config.max_exhaustive_fusion);
        let plan = resolver.plan_for(stage_one.cleaned(), &wanted);
        for (t, slot) in self.fusions.iter_mut().enumerate() {
            if slot.is_none() {
                let fusion = resolver.fuse_tuple(&plan, TupleId(t));
                // The plan's handle and this one: the first slot to hold it.
                if fusion.holders() == 2 {
                    self.memo_bytes += fusion_bytes(&fusion);
                }
                *slot = Some(fusion);
            }
        }
        self.fused += (self.fusions.len() - self.memoised) as u64;
        self.memoised = self.fusions.len();
        timings.fscr += started.elapsed();
        plan.candidates_tested()
    }

    /// Produce the [`Report`] over `dirty` — the caller's rows, one per
    /// slot, every dirty block refreshed: settle the memo, write each
    /// tuple's fusion into the rows (they become [`Report::repaired`]) while
    /// recording it in tuple order, exactly like a batch run emits it, and
    /// drop exact duplicates if [`CleanConfig::deduplicate`] says so.  The
    /// clocks run into `timings.fscr` / `timings.dedup`, and the report
    /// carries `timings` as they then read.  The Stage-I provenance is a
    /// copy of `stage_one`'s, and every record list is named by the cleaned
    /// index's pool and `dirty`'s schema.
    pub fn report(
        &mut self,
        stage_one: &mut StageOne,
        dirty: Dataset,
        timings: &mut Timings,
    ) -> Report {
        let mut report = self.assemble(stage_one, dirty, timings);
        (report.agp, report.rsc) = stage_one.records();
        report.name_records();
        report
    }

    /// [`StageTwo::report`] on the drivers' last use: the Stage-I
    /// provenance moves into the report, uncopied.
    pub fn finish(
        mut self,
        mut stage_one: StageOne,
        dirty: Dataset,
        timings: &mut Timings,
    ) -> Report {
        let mut report = self.assemble(&mut stage_one, dirty, timings);
        (report.agp, report.rsc) = stage_one.into_records();
        report.name_records();
        report
    }

    /// The report of [`StageTwo::report`] with empty Stage-I provenance.
    fn assemble(
        &mut self,
        stage_one: &mut StageOne,
        dirty: Dataset,
        timings: &mut Timings,
    ) -> Report {
        // With no fusion memoised, every one is scored by this settle at the
        // blocks' current totals — a batch run re-scores nothing.
        let all_fresh = self.memoised == 0;
        let candidates_tested = self.settle(stage_one, timings);
        let started = Instant::now();
        let cleaned = Arc::clone(stage_one.cleaned());
        let supports: Option<Vec<usize>> =
            (!all_fresh).then(|| cleaned.blocks.iter().map(block_support).collect());
        let mut repaired = dirty;
        let mut fscr = FscrRecord {
            candidates_tested,
            ..FscrRecord::default()
        };
        for (t, fusion) in self.fusions.iter().enumerate() {
            #[allow(
                clippy::expect_used,
                reason = "settle() fills every empty slot and nothing empties one before this loop"
            )]
            let fusion = fusion.as_ref().expect("settled just above");
            let f_score = match &supports {
                Some(supports) => fusion.f_score_at(supports),
                None => fusion.f_score,
            };
            apply_scored_fusion(&mut repaired, TupleId(t), fusion, f_score, &mut fscr);
        }
        timings.fscr += started.elapsed();

        let deduplicated = self.config.deduplicate.then(|| {
            let started = Instant::now();
            let deduplicated = repaired.deduplicated();
            timings.dedup += started.elapsed();
            deduplicated
        });
        Report {
            repaired,
            deduplicated,
            index: Some(cleaned),
            agp: AgpRecord::default(),
            rsc: RscRecord::default(),
            fscr,
            timings: *timings,
            partitions: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agp::tests::{random_change_set, Change, Evolving};
    use crate::stage_one::tests::workloads;
    use dataset::rng::Rng;
    use dataset::{csv, AttrId, Schema, ValueId};
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
            let touch = |one: &mut StageOne, touched: &[Vec<Vec<ValueId>>]| {
                for (block, keys) in touched.iter().enumerate() {
                    one.mark_keys_dirty(block, keys);
                }
            };
            for change in changes {
                match change {
                    Change::Inserted(report) => {
                        self.two.grow(self.two.slots() + report.rows);
                        touch(&mut self.one, &report.touched_keys);
                    }
                    Change::Updated(t, touched) => {
                        touch(&mut self.one, &touched);
                        self.two.invalidate(t);
                    }
                    Change::Deleted(removed, report) => {
                        self.two.remap_removed(&removed);
                        self.one.remap_removed(&removed);
                        touch(&mut self.one, &report.touched_keys);
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
                let mut rng = Rng::seeded(0x57A6E2 + ds.len() as u64);
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
                    assert!(stats.dropped_memos > 0, "{name}: {stats:?}");
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
        // Tuple 0's fused value of A, as text.
        let a_of_row0 = |report: &Report| {
            let names = report.fscr.outcomes.names().unwrap();
            let fused = report.fscr.outcomes[0].fused.iter();
            let a = fused.filter(|&&(a, _)| names.attr(a) == "A");
            a.map(|&(_, v)| names.value(v).to_string())
                .collect::<Vec<_>>()
        };
        let row0 = &first.fscr.outcomes[0];
        assert!(row0.conflict_detected && !row0.fusion_failed);
        assert_eq!(a_of_row0(&first), ["a2"]);

        // Row 5 leaves group a2 for a group of its own: (a2, x2) loses
        // support, hence probability.  Row 0 sits in neither group and no
        // refreshed group lists it, yet the other order wins now: it keeps
        // (a1, x1) and swaps in `C -> B`'s candidate (c2, x1).
        let change = stream.table.update(TupleId(5), AttrId(0), "a3");
        stream.absorb(vec![change]);
        let (second, refreshed) = stream.report("after the update");
        assert_eq!(refreshed.blocks, vec![0]);
        assert!(!refreshed.invalidated.contains(&TupleId(0)));
        assert_eq!(a_of_row0(&second), ["a1"]);
        assert_eq!(
            second.repaired.tuple(TupleId(0)).owned_values(),
            ["a1", "x1", "c2"]
        );
    }

    /// The rule a moved `Z` adds: over three conflict-free FDs on disjoint
    /// attributes every tuple has three versions, whose products may round
    /// differently per order under a new `Z`, so an insert into new groups
    /// re-fuses every row; over two of the FDs the same insert re-fuses the
    /// new row alone, and the fusions that stood are re-scored.  Every
    /// report equals Stage II from scratch.
    #[test]
    fn a_moved_z_refuses_the_three_version_tuples_and_rescores_the_rest() {
        let mut ds = Dataset::new(Schema::new(&["A", "B", "C", "D", "E", "F"]));
        for i in 0..12 {
            let row = [("a", 3), ("b", 3), ("c", 4), ("d", 4), ("e", 2), ("f", 2)];
            ds.push_row(row.map(|(v, n)| format!("{v}{}", i % n)).to_vec())
                .unwrap();
        }
        let new_row = ["a9", "b9", "c9", "d9", "e9", "f9"].map(String::from);
        let config = CleanConfig::default().with_tau(0);
        for (fds, refused) in [
            ("FD: A -> B\nFD: C -> D\nFD: E -> F", 13),
            ("FD: A -> B\nFD: C -> D", 1),
        ] {
            let mut stream = Stream::open(&config, &ds, &parse_rules(fds).unwrap());
            let (first, _) = stream.report(fds);
            let before = stream.two.fused_tuples();
            let change = stream.table.insert(vec![new_row.to_vec()]);
            stream.absorb(vec![change]);
            let (second, refreshed) = stream.report(fds);
            assert_eq!(
                refreshed.rescaled, refreshed.blocks,
                "{fds}: Z moved in every block"
            );
            assert_eq!(stream.two.fused_tuples() - before, refused, "{fds}");
            // Every fusion that stood kept its provenance list, and moved
            // its score.
            let pairs = first.fscr.outcomes.iter().zip(&second.fscr.outcomes);
            let kept: Vec<_> = pairs
                .filter(|(a, b)| Arc::ptr_eq(&a.fused, &b.fused))
                .collect();
            assert_eq!(kept.len() as u64, 13 - refused, "{fds}");
            assert!(kept.iter().all(|(a, b)| a.f_score != b.f_score), "{fds}");
        }
    }

    #[test]
    fn a_one_cell_update_on_seeded_hai_fuses_a_strict_subset_of_the_rows() {
        let (_, ds, rules, config) = workloads().remove(1);
        let mut stream = Stream::open(&config, &ds, &rules);
        let (first, _) = stream.report("first report");
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
        let (second, _) = stream.report("after the update");
        let fused = stream.two.fused_tuples() - rows;
        assert!((1..rows / 2).contains(&fused), "{fused} of {rows} rows");

        // Provenance survives outcomes: a tuple whose fusion stood shares its
        // resolved list with the previous report, a re-fused one does not.
        let kept = |a: &Report, b: &Report| {
            let pairs = a.fscr.outcomes.iter().zip(&b.fscr.outcomes);
            pairs
                .filter(|(a, b)| Arc::ptr_eq(&a.fused, &b.fused))
                .count() as u64
        };
        assert_eq!(kept(&first, &second), rows - fused);
        let (before, after) = (&first.fscr.outcomes[0], &second.fscr.outcomes[0]);
        assert!(!Arc::ptr_eq(&before.fused, &after.fused));
        assert_ne!(before.fused, after.fused);

        // Nothing dirty, nothing fused.
        let (third, _) = stream.report("again");
        assert_eq!(stream.two.fused_tuples(), rows + fused);
        assert_eq!(kept(&second, &third), rows);
    }

    /// What the budget counts: distinct fusions, and a slot's eviction only
    /// when it held the last handle.
    #[test]
    fn the_budget_charges_each_distinct_fusion_once_and_frees_it_with_its_last_slot() {
        let (_, ds, rules, config) = workloads().remove(1);
        let mut stream = Stream::open(&config, &ds, &rules);
        let (report, _) = stream.report("first report");
        let mut lists = std::collections::HashSet::new();
        let outcomes = report.fscr.outcomes.iter();
        let distinct = outcomes.filter(|o| lists.insert(Arc::as_ptr(&o.fused)));
        let expected: usize = distinct
            .map(|o| FUSION_UNIT_BYTES * (1 + o.fused.len()))
            .sum();
        assert!(lists.len() < stream.two.slots(), "HAI tuples share vectors");
        assert_eq!(stream.two.memo_bytes, expected);
        assert_eq!(
            stream.two.resident_estimate(&stream.one),
            expected + stream.one.resident_estimate()
        );

        // Releasing all but one holder of every fusion frees nothing.
        let mut last_holder: Vec<usize> = Vec::new();
        for t in (0..stream.two.slots()).rev() {
            let fusion = stream.two.fusions[t].clone().unwrap();
            if fusion.holders() == 2 {
                last_holder.push(t);
            } else {
                stream.two.invalidate(TupleId(t));
                assert_eq!(stream.two.memo_bytes, expected);
            }
        }
        assert_eq!(last_holder.len(), stream.two.memoised);
        for t in last_holder {
            stream.two.invalidate(TupleId(t));
        }
        assert_eq!((stream.two.memoised, stream.two.memo_bytes), (0, 0));
        stream.report("refilled");
        assert_eq!(stream.two.memo_bytes, expected);
    }
}
