//! The one Stage-II driver: [`StageTwo`] owns the per-tuple **fusion memo**
//! — what FSCR (Algorithm 2) decided for each tuple the last time its data
//! versions were fused — with its invalidation, its budget policy and the
//! report it maintains from the versions (the paper's second stage: fuse,
//! then drop exact duplicates).  It is
//! [`StageOne`]'s twin, and like it serves both [`crate::CleaningSession`]
//! and the distributed streaming coordinator.
//!
//! A caller keeps the memo in step with its rows ([`StageTwo::grow`] on
//! insert, [`StageTwo::invalidate`] on a cell update,
//! [`StageTwo::remap_removed`] on delete, with the sorted list
//! [`StageOne::remap_removed`] takes), reports every Stage-I refresh
//! ([`StageTwo::invalidate_refreshed`]) and asks for a [`Report`] over its
//! dirty rows: [`StageTwo::report`], which maintains the report between
//! calls, or [`StageTwo::derive`], which keeps none — and
//! [`StageTwo::finish`] on the drivers' last use, which moves the report and
//! the Stage-I provenance instead of copying them.
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
//! **The report is maintained, not re-derived.**  Between reports the
//! driver keeps the report's Stage-II half — the repaired rows as one column
//! of value ids per attribute, every tuple's [`crate::FusionOutcome`], the
//! cell changes in tuple order, and a dedup index (a hash per row, each
//! exact-duplicate class's members linked in row order, and a table of the
//! classes' first occurrences) — and a report patches it, the way a
//! materialized view applies a delta instead of recomputing its query.  It
//! rewrites only slots settling refilled, reading only those rows from the
//! caller's rows: a new row, a row the caller wrote
//! ([`StageTwo::invalidate`]), or one whose new fusion assigns otherwise
//! than its standing outcome — a refilled slot with the same row and the
//! same assignment has the same repaired values and cell changes, and only
//! takes its new outcome.  It re-folds the standing fusions' scores only
//! for the tuples of the blocks a refresh rescaled since the last report;
//! it appends on [`StageTwo::grow`] and renumbers on
//! [`StageTwo::remap_removed`]; and when a class's first occurrence changes
//! its values or leaves, first place passes to the next member of the
//! class.  Everything else is copied out as it stands.
//! [`StageTwo::finish`] after an earlier report runs the same patch and
//! moves the state out.  The view holds ids and no pool handle: the report attaches the caller's pool
//! when it is assembled, so a new value the caller interns later copies no
//! arena the view shares.  The report names its records' ids once, by its
//! cleaned index's pool and its rows' schema ([`crate::provenance`]).
//!
//! **A report that is not maintained** is derived from every slot:
//! [`StageTwo::derive`] takes the caller's rows by value, writes every
//! tuple's fusion into them and finds the first occurrences in one pass,
//! leaving no view and no dedup index behind.  The distributed coordinator
//! reports this way, so what it keeps between outcomes stays O(ids); and
//! [`StageTwo::finish`] does when no report came before it (a batch run),
//! so a one-report run neither copies its rows nor builds an index it would
//! drop at once.
//!
//! **Budget.**  Under a [`CleanConfig::memory_budget`] the memo shares the
//! budget with Stage I's block memos ([`StageTwo::enforce_budget`]): cold
//! blocks' memos drop first, then the memo is *windowed* — slots are emptied
//! oldest tuple first, each counted in [`MemoryStats::evicted_fusions`], and
//! re-derived by the next report.  The estimate counts **distinct fusions**,
//! not slots: a slot is a pointer in the memo's inline buffer, and emptying
//! it frees memory only if it held the last handle onto its fusion — only
//! then does the estimate fall, by the fusion's shared cell plus one
//! `(AttrId, ValueId)` pair per attribute it assigns.  A sweep over tuples
//! whose vectors later tuples share therefore frees nothing and keeps going.
//! (A clone of the driver shares its handles: what both hold stays charged to
//! both until one lets go.)  A fusion is a deterministic function of the
//! cleaned index, so eviction trades time for memory and never a byte of
//! output.  The maintained report is output, not memo, and the budget does
//! not bound it, as it bounds neither the caller's rows nor the pristine and
//! cleaned indexes: it is one more O(cells) table of ids — about the size of
//! the caller's rows, and of each report handed out — and dropping it would
//! trade a patch for a whole-table derive at every report, not a fusion for
//! a re-fusion.  A driver that must not hold it derives instead.  Its
//! outcomes share their fusions' assignment lists, so an evicted fusion's
//! list lives on while its tuple's outcome names it.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// A report patches, it does not re-derive (clippy.toml; tests keep the copy).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use crate::agp::AgpRecord;
use crate::engine::{Report, Timings};
use crate::fscr::{
    apply_tuple_fusion, CellChange, ConflictResolver, FscrRecord, FusionOutcome, SharedFusion,
    MAX_EXHAUSTIVE_FUSION,
};
use crate::index::{Block, MlnIndex};
use crate::rsc::RscRecord;
use crate::stage_one::{MemoryStats, Refreshed, StageOne};
use crate::weights::block_support;
use crate::CleanConfig;
use dataset::pool::{IdTable, Vacant};
use dataset::{hash_rows, AttrId, CellRef, Dataset, TupleId, ValueId};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;
use std::time::Instant;

/// What the budget estimate charges a distinct memoised fusion: its shared
/// cell, and one pair per attribute it assigns.
fn fusion_bytes(fusion: &SharedFusion) -> usize {
    SharedFusion::CELL_BYTES + fusion.fused.len() * size_of::<(AttrId, ValueId)>()
}

/// A slot flag: the fusion is conflicted, so any recompute in its blocks
/// makes it stale.
const CONFLICTED: u8 = 1;
/// A slot flag: the fusion keeps no factors, so a moved `Z` in its blocks
/// makes it stale.
const UNFACTORED: u8 = 2;

/// The Stage-II driver — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct StageTwo {
    config: CleanConfig,
    /// Per tuple: a handle onto the memoised fusion of its version vector
    /// (`None` = fuse it at the next report).
    fusions: Vec<Option<SharedFusion>>,
    /// Per slot: which refreshes make its fusion stale ([`CONFLICTED`],
    /// [`UNFACTORED`]) — read beside the slot, so the invalidation walk
    /// over a refreshed block does not visit the fusions.
    fragile: Vec<u8>,
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
    /// The last report's Stage-II half, which the next one patches.
    view: View,
    /// Blocks whose total support a refresh moved since the last report:
    /// the standing fusions of their tuples are re-scored.
    rescaled: Vec<usize>,
    /// Rows the caller wrote since the last report ([`StageTwo::invalidate`]),
    /// unsorted: the rows whose dirty values may have moved.
    written: Vec<usize>,
    /// Rows reports rewrote so far — see [`StageTwo::rewritten_rows`].
    rewritten: u64,
}

impl StageTwo {
    /// A driver over no rows.
    pub fn new(config: CleanConfig) -> Self {
        StageTwo {
            view: View::new(),
            config,
            fusions: Vec::new(),
            fragile: Vec::new(),
            memoised: 0,
            memo_bytes: 0,
            evicted: 0,
            fused: 0,
            rescaled: Vec::new(),
            written: Vec::new(),
            rewritten: 0,
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

    /// Cumulative number of rows reports rewrote in the maintained report
    /// (vs copied out as they stood) — the sibling of
    /// [`StageTwo::fused_tuples`]: a report rewrites at most the slots it
    /// refilled, those whose row or assignment moved.
    pub fn rewritten_rows(&self) -> u64 {
        self.rewritten
    }

    /// Rows were appended: one empty slot for each, up to `rows` in all.
    pub fn grow(&mut self, rows: usize) {
        self.fusions.resize(rows, None);
        self.fragile.resize(rows, 0);
    }

    /// Empty `t`'s slot.  A cell update calls this for the tuple it wrote:
    /// its versions may have moved where no refresh will say so — a block it
    /// left no longer lists it — and so may its row, which the next report
    /// reads again.
    pub fn invalidate(&mut self, t: TupleId) {
        self.release(t.index());
        self.written.push(t.index());
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

    /// Drop the slots and maintained rows of removed rows (`removed`:
    /// sorted, deduplicated pre-removal row indices); later ones shift down.
    pub fn remap_removed(&mut self, removed: &[usize]) {
        for &row in removed {
            self.release(row);
        }
        drop_removed(&mut self.fragile, removed);
        let mut row = 0;
        self.fusions.retain(|_| {
            row += 1;
            kept(removed, row - 1)
        });
        self.written.retain(|&row| kept(removed, row));
        for row in &mut self.written {
            *row -= removed.partition_point(|&r| r < *row);
        }
        self.view.remap_removed(removed);
    }

    /// Empty the slots a Stage-I refresh made stale — see the
    /// [module docs](self) for the three rules.  `pristine` is the slice
    /// [`StageOne::refresh`] was handed.
    pub fn invalidate_refreshed(&mut self, refreshed: &Refreshed, pristine: &[(usize, &Block)]) {
        self.rescaled.extend(&refreshed.rescaled);
        for &t in &refreshed.invalidated {
            self.release(t.index());
        }
        for (i, block) in pristine {
            if !refreshed.blocks.contains(i) {
                continue;
            }
            let stale = match refreshed.rescaled.contains(i) {
                true => CONFLICTED | UNFACTORED,
                false => CONFLICTED,
            };
            for &t in block.gammas().flat_map(|gamma| &gamma.tuples) {
                if self.fragile[t.index()] & stale != 0 {
                    self.release(t.index());
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

    /// Fuse exactly the empty slots from `stage_one`'s cleaned index; per
    /// slot, whether it was refilled (empty when none was), and the
    /// substitution candidates the new fusions tested.
    fn settle(&mut self, stage_one: &mut StageOne, timings: &mut Timings) -> (Vec<bool>, u64) {
        // Drop cold memos *before* the fusion allocations below, but evict
        // no fusion: the memo is about to be refilled.
        self.shed_blocks(stage_one);
        if self.memoised == self.fusions.len() {
            return (Vec::new(), 0); // nothing invalidated — skip the plan build entirely
        }
        let started = Instant::now();
        let wanted: Vec<bool> = self.fusions.iter().map(Option::is_none).collect();
        let resolver = ConflictResolver::new(MAX_EXHAUSTIVE_FUSION);
        let plan = resolver.plan_for(stage_one.cleaned(), &wanted);
        for (t, slot) in self.fusions.iter_mut().enumerate() {
            if slot.is_none() {
                let fusion = resolver.fuse_tuple(&plan, TupleId(t));
                // The plan's handle and this one: the first slot to hold it.
                if fusion.holders() == 2 {
                    self.memo_bytes += fusion_bytes(&fusion);
                }
                #[allow(
                    clippy::disallowed_methods,
                    reason = "u8::from(bool), not a String::from"
                )]
                let fragile = u8::from(fusion.conflict_detected) * CONFLICTED
                    + u8::from(!fusion.survives_rescale()) * UNFACTORED;
                self.fragile[t] = fragile;
                *slot = Some(fusion);
            }
        }
        self.fused += (self.fusions.len() - self.memoised) as u64;
        self.memoised = self.fusions.len();
        timings.fscr += started.elapsed();
        (wanted, plan.candidates_tested())
    }

    /// Settle the memo and patch the maintained report to `rows` — the
    /// shared tail of [`StageTwo::report`] and [`StageTwo::finish`]; returns
    /// the substitution candidates the new fusions tested.
    fn patch(&mut self, stage_one: &mut StageOne, rows: &Dataset, timings: &mut Timings) -> u64 {
        let (wanted, candidates_tested) = self.settle(stage_one, timings);
        let started = Instant::now();
        let refilled: Vec<usize> = (0..wanted.len()).filter(|&t| wanted[t]).collect();
        let mut rescaled = std::mem::take(&mut self.rescaled);
        rescaled.sort_unstable();
        rescaled.dedup();
        if !rescaled.is_empty() && self.view.rows > 0 {
            let cleaned = stage_one.cleaned();
            let supports: Vec<usize> = cleaned.blocks.iter().map(block_support).collect();
            let blocks = rescaled.iter().map(|&b| &cleaned.blocks[b]);
            self.view.rescore(blocks, &self.fusions, &supports);
        }
        let mut written = std::mem::take(&mut self.written);
        written.sort_unstable();
        written.dedup();
        timings.fscr += started.elapsed();
        let rewritten = self
            .view
            .rewrite(&refilled, &self.fusions, &written, rows, timings);
        self.rewritten += rewritten as u64;
        candidates_tested
    }

    /// Produce the [`Report`] over `rows` — the caller's rows, one per slot,
    /// every dirty block refreshed: settle the memo, patch the maintained
    /// report (module docs) and copy it out — the repaired rows named by
    /// `rows`' pool, the FSCR record in tuple order exactly like a batch run
    /// emits it, and the rows without exact duplicates.  The clocks run into
    /// `timings.fscr` / `timings.dedup`, and the report carries `timings` as
    /// they then read.  The Stage-I provenance is a copy of `stage_one`'s,
    /// and every record list is named by the cleaned index's pool and `rows`'
    /// schema.  A driver reports through this or through
    /// [`StageTwo::derive`], never both.
    pub fn report(
        &mut self,
        stage_one: &mut StageOne,
        rows: &Dataset,
        timings: &mut Timings,
    ) -> Report {
        let candidates_tested = self.patch(stage_one, rows, timings);
        let started = Instant::now();
        let view = &mut self.view;
        let repaired = view.dataset(rows, view.columns.clone());
        let fscr = FscrRecord {
            outcomes: view.outcomes.clone().into(),
            changes: view.changes.clone().into(),
            candidates_tested,
        };
        timings.fscr += started.elapsed();
        let firsts = view.classes.firsts();
        let mut report = assemble(repaired, firsts, fscr, stage_one.cleaned(), timings);
        (report.agp, report.rsc) = stage_one.records();
        report.name_records();
        report
    }

    /// The [`Report`] of [`StageTwo::report`], derived from every slot and
    /// kept nowhere: `rows` move in and become the repaired rows, and the
    /// first occurrences are found in one pass, with no dedup index left
    /// behind.  This is how a driver that keeps no O(cells) state between
    /// reports reports — the distributed coordinator, which only routes.
    /// Its cost is the table's, not the change's.
    pub fn derive(
        &mut self,
        stage_one: &mut StageOne,
        rows: Dataset,
        timings: &mut Timings,
    ) -> Report {
        let mut report = self.derived(stage_one, rows, timings);
        (report.agp, report.rsc) = stage_one.records();
        report.name_records();
        report
    }

    /// The report on the drivers' last use: the maintained report, if a
    /// report came before, is patched and moves out; if none did — a batch
    /// run, or a driver that derives — it is [`StageTwo::derive`]'s, `rows`
    /// moving in.  Either way nothing is copied, the Stage-I provenance
    /// included.
    pub fn finish(
        mut self,
        mut stage_one: StageOne,
        rows: Dataset,
        timings: &mut Timings,
    ) -> Report {
        let mut report = if self.view.rows == 0 {
            self.derived(&mut stage_one, rows, timings)
        } else {
            let candidates_tested = self.patch(&mut stage_one, &rows, timings);
            let mut view = self.view;
            let columns = std::mem::take(&mut view.columns);
            let repaired = view.dataset(&rows, columns);
            let fscr = FscrRecord {
                outcomes: std::mem::take(&mut view.outcomes).into(),
                changes: std::mem::take(&mut view.changes).into(),
                candidates_tested,
            };
            let firsts = view.classes.firsts();
            assemble(repaired, firsts, fscr, stage_one.cleaned(), timings)
        };
        (report.agp, report.rsc) = stage_one.into_records();
        report.name_records();
        report
    }

    /// [`StageTwo::derive`]'s report with empty Stage-I provenance.
    fn derived(
        &mut self,
        stage_one: &mut StageOne,
        mut repaired: Dataset,
        timings: &mut Timings,
    ) -> Report {
        debug_assert_eq!(self.view.rows, 0, "a driver that keeps a view patches it");
        let all_fresh = self.memoised == 0;
        let (_, candidates_tested) = self.settle(stage_one, timings);
        let started = Instant::now();
        // What the view would have patched is moot: nothing is kept.
        self.rescaled.clear();
        self.written.clear();
        // A fusion this settle made is scored at the blocks' current totals;
        // one that stood may have been scored under others.
        let cleaned = Arc::clone(stage_one.cleaned());
        let supports: Option<Vec<usize>> =
            (!all_fresh).then(|| cleaned.blocks.iter().map(block_support).collect());
        let mut fscr = FscrRecord {
            candidates_tested,
            ..FscrRecord::default()
        };
        // Settled: every slot holds a fusion.
        for (t, fusion) in self.fusions.iter().flatten().enumerate() {
            apply_tuple_fusion(&mut repaired, TupleId(t), fusion, &mut fscr);
            if let (Some(supports), Some(outcome)) = (&supports, fscr.outcomes.last_mut()) {
                outcome.f_score = fusion.f_score_at(supports);
            }
        }
        debug_assert_eq!(fscr.outcomes.len(), repaired.len(), "one outcome per row");
        timings.fscr += started.elapsed();
        let started = Instant::now();
        let firsts = first_rows(&repaired);
        timings.dedup += started.elapsed();
        assemble(repaired, &firsts, fscr, &cleaned, timings)
    }
}

/// A report of `repaired` and `fscr` with empty Stage-I provenance; its rows
/// without exact duplicates are `firsts`, the first occurrences.
fn assemble(
    repaired: Dataset,
    firsts: &[TupleId],
    fscr: FscrRecord,
    cleaned: &Arc<MlnIndex>,
    timings: &mut Timings,
) -> Report {
    let started = Instant::now();
    let deduplicated = repaired.project_rows(firsts);
    timings.dedup += started.elapsed();
    Report {
        repaired,
        deduplicated: Some(deduplicated),
        index: Some(Arc::clone(cleaned)),
        agp: AgpRecord::default(),
        rsc: RscRecord::default(),
        fscr,
        timings: *timings,
        partitions: None,
    }
}

/// Drop the items at `removed` (sorted, deduplicated indices within
/// `items`); later ones shift down, each run between two removed indices
/// copied as one slice.
fn drop_removed<T: Copy>(items: &mut Vec<T>, removed: &[usize]) {
    let Some(&first) = removed.first() else {
        return;
    };
    let mut at = first;
    for (i, &row) in removed.iter().enumerate() {
        let end = removed.get(i + 1).map_or(items.len(), |&next| next);
        items.copy_within(row + 1..end, at);
        at += end - row - 1;
    }
    items.truncate(at);
}

/// Whether `row` is not among `removed` (sorted).
fn kept(removed: &[usize], row: usize) -> bool {
    removed.binary_search(&row).is_err()
}

/// The report's Stage-II half as the last report left it — see the
/// [module docs](self).  Ids only: a report attaches the caller's pool.
#[derive(Debug, Clone)]
struct View {
    /// Rows covered: the slots the last report settled.  Slots past it are
    /// new since, and empty.
    rows: usize,
    /// The repaired rows, one column per attribute (none before the first
    /// report).
    columns: Vec<Vec<ValueId>>,
    /// Per tuple: its FSCR outcome.
    outcomes: Vec<FusionOutcome>,
    /// Every cell the fusions rewrote, in tuple order.
    changes: Vec<CellChange>,
    /// The dedup index.
    classes: Classes,
}

impl View {
    fn new() -> Self {
        View {
            rows: 0,
            columns: Vec::new(),
            outcomes: Vec::new(),
            changes: Vec::new(),
            classes: Classes::new(),
        }
    }

    /// `columns` — the view's rows or a copy of them — as a dataset named
    /// by `rows`' schema and pool.
    fn dataset(&self, rows: &Dataset, columns: Vec<Vec<ValueId>>) -> Dataset {
        Dataset::from_columns(
            rows.schema().clone(),
            rows.pool().clone(),
            columns,
            self.rows,
        )
    }

    /// Re-fold the standing outcomes' scores under `supports`, the cleaned
    /// blocks' current total supports: the outcomes of the tuples `blocks`
    /// list, the rescaled ones.  (A standing fusion's factors name blocks
    /// that cover its tuple now: a tuple whose cover moved was written, hence
    /// refilled.)
    fn rescore<'a>(
        &mut self,
        blocks: impl Iterator<Item = &'a Block>,
        fusions: &[Option<SharedFusion>],
        supports: &[usize],
    ) {
        for t in blocks.flat_map(Block::gammas).flat_map(|g| &g.tuples) {
            let t = t.index();
            if let (Some(outcome), Some(Some(fusion))) = (self.outcomes.get_mut(t), fusions.get(t))
            {
                outcome.f_score = fusion.f_score_at(supports);
            }
        }
    }

    /// Rewrite the refilled rows (`refilled`: ascending, every slot past the
    /// view's rows among them; `fusions`: the memo, settled) whose row or
    /// assignment may have moved — a new row, a row the caller wrote
    /// (`written`, sorted) or a fusion whose assignment differs from the
    /// standing outcome's — from `rows`;
    /// every refilled row takes its new outcome, scored as fused (a fresh
    /// fusion is scored at the blocks' current totals).  The view then
    /// covers `rows`.  Returns the rows rewritten.  The clocks run into
    /// `timings.fscr`, and `timings.dedup` for the dedup index.
    fn rewrite(
        &mut self,
        refilled: &[usize],
        fusions: &[Option<SharedFusion>],
        written: &[usize],
        rows: &Dataset,
        timings: &mut Timings,
    ) -> usize {
        let started = Instant::now();
        // New rows join as the caller holds them and are fused in place;
        // a standing row waits until the dedup index has let it go.
        let standing_rows = self.rows;
        if self.columns.is_empty() {
            self.columns = vec![Vec::new(); rows.schema().arity()];
        }
        for (a, column) in self.columns.iter_mut().enumerate() {
            column.extend_from_slice(&rows.column(AttrId(a))[standing_rows..]);
        }
        self.rows = rows.len();
        let (mut standing, mut appended) = (Vec::new(), Vec::new());
        let mut fresh = Vec::new();
        let mut written = written.iter().peekable();
        // Settled: every refilled slot holds its fusion.
        let refilled = refilled
            .iter()
            .filter_map(|&t| Some((t, fusions[t].as_ref()?)));
        for (t, fusion) in refilled {
            let outcome = fusion.outcome(TupleId(t));
            while written.next_if(|&&w| w < t).is_some() {}
            let read = written.peek() == Some(&&t);
            match self.outcomes.get_mut(t) {
                // Same row, same assignment: same repaired values and cell
                // changes.
                Some(kept) if !read && kept.fused == outcome.fused => *kept = outcome,
                Some(kept) => {
                    *kept = outcome;
                    standing.push((t, fusion));
                }
                None => {
                    self.outcomes.push(outcome);
                    rewrite_row(&mut self.columns, t, fusion, &mut fresh);
                    appended.push(t);
                }
            }
        }
        debug_assert_eq!(
            self.outcomes.len(),
            rows.len(),
            "every new slot is refilled"
        );
        timings.fscr += started.elapsed();

        let started = Instant::now();
        self.classes
            .take_out(standing.iter().map(|&(t, _)| t), &self.columns);
        timings.dedup += started.elapsed();

        let started = Instant::now();
        for (a, column) in self.columns.iter_mut().enumerate() {
            let dirty = rows.column(AttrId(a));
            for &(t, _) in &standing {
                column[t] = dirty[t];
            }
        }
        // The standing rows precede the new ones, and so do their changes.
        let mut changes = Vec::new();
        for &(t, fusion) in &standing {
            rewrite_row(&mut self.columns, t, fusion, &mut changes);
        }
        changes.append(&mut fresh);
        let mut rewritten: Vec<usize> = standing.into_iter().map(|(t, _)| t).collect();
        rewritten.append(&mut appended);
        self.splice_changes(&rewritten, changes);
        timings.fscr += started.elapsed();

        let started = Instant::now();
        self.classes.put_in(&rewritten, &self.columns, self.rows);
        timings.dedup += started.elapsed();
        rewritten.len()
    }

    /// Replace the `rewritten` rows' cell changes (tuple order) by `fresh`,
    /// theirs now, keeping tuple order.
    fn splice_changes(&mut self, rewritten: &[usize], fresh: Vec<CellChange>) {
        if rewritten.is_empty() {
            return;
        }
        let standing = std::mem::take(&mut self.changes);
        let mut changes = Vec::with_capacity(standing.len() + fresh.len());
        let mut fresh = fresh.into_iter().peekable();
        let mut rewritten = rewritten.iter().peekable();
        for change in standing {
            let t = change.cell.tuple.index();
            while let Some(new) = fresh.next_if(|new| new.cell.tuple.index() < t) {
                changes.push(new);
            }
            while rewritten.next_if(|&&r| r < t).is_some() {}
            if rewritten.peek() != Some(&&t) {
                changes.push(change);
            }
        }
        changes.extend(fresh);
        self.changes = changes;
    }

    /// Drop the removed rows the view covers and renumber the rest
    /// (`removed`: sorted, deduplicated pre-removal row indices).
    fn remap_removed(&mut self, removed: &[usize]) {
        let removed = &removed[..removed.partition_point(|&r| r < self.rows)];
        if removed.is_empty() {
            return;
        }
        self.classes.remap_removed(removed, &self.columns);
        for column in &mut self.columns {
            drop_removed(column, removed);
        }
        self.outcomes
            .retain(|outcome| kept(removed, outcome.tuple.index()));
        for (t, outcome) in self.outcomes.iter_mut().enumerate() {
            outcome.tuple = TupleId(t);
        }
        self.changes
            .retain(|change| kept(removed, change.cell.tuple.index()));
        for change in &mut self.changes {
            let t = change.cell.tuple.index();
            change.cell.tuple = TupleId(t - removed.partition_point(|&r| r < t));
        }
        self.rows -= removed.len();
    }
}

/// Write tuple `t`'s fusion into `columns`, which hold its dirty values,
/// and append each cell it changes to `changes` — the maintained report's
/// [`crate::apply_tuple_fusion`].
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)] // Provenance holds ids.
fn rewrite_row(
    columns: &mut [Vec<ValueId>],
    t: usize,
    fusion: &SharedFusion,
    changes: &mut Vec<CellChange>,
) {
    for &(attr, new) in fusion.fused.iter() {
        let cell = &mut columns[attr.index()][t];
        if *cell != new {
            changes.push(CellChange {
                cell: CellRef::new(TupleId(t), attr),
                old: *cell,
                new,
            });
            *cell = new;
        }
    }
}

/// The dedup index of the maintained rows: a hash per row, the members of
/// each exact-duplicate class linked in row order, and an [`IdTable`] of the
/// classes' first occurrences placed by their hash.  Two classes whose
/// hashes collide both sit in the table, told apart by their values: rows of
/// one table share one pool, so id equality is value equality.  Rows are
/// `u32`s, the table's ids: a view holds fewer than 2^32 − 1 rows.
#[derive(Debug, Clone)]
struct Classes {
    /// Seeds the row hash ([`hash_rows`]).
    seed: u64,
    /// Per row: its hash, as it was put in.
    hashes: Vec<u64>,
    /// Per row: the next and the previous member of its class ([`NONE`]
    /// past the ends).
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Per first occurrence: the last member of its class.
    last: Vec<u32>,
    /// Per row: whether it is the first occurrence of its class.
    first: Vec<bool>,
    /// The first occurrences in row order, as of the last
    /// [`Classes::firsts`]; `None` once a class changed since.
    firsts: Option<Vec<TupleId>>,
    /// The first occurrences.
    table: IdTable,
}

/// No row: past the end of a class.
const NONE: u32 = u32::MAX;

/// Whether rows `a` and `b` hold the same values.
fn same_row<C: AsRef<[ValueId]>>(columns: &[C], a: usize, b: usize) -> bool {
    columns
        .iter()
        .all(|column| column.as_ref()[a] == column.as_ref()[b])
}

/// The first occurrence of each exact-duplicate class among `rows`, in row
/// order: what a report that keeps no dedup index needs of one — no links,
/// no index left behind.
fn first_rows(rows: &Dataset) -> Vec<TupleId> {
    assert!(rows.len() < NONE as usize, "more than 4G rows");
    let arity = rows.schema().arity();
    let columns: Vec<&[ValueId]> = (0..arity).map(|a| rows.column(AttrId(a))).collect();
    let hashes = rows.row_hashes();
    let hash_of = |row: u32| hashes[row as usize];
    let mut table = IdTable::with_capacity(rows.len());
    let mut firsts = Vec::new();
    for (row, &hash) in hashes.iter().enumerate() {
        let same = |first: u32| hash_of(first) == hash && same_row(&columns, first as usize, row);
        if let Err(vacant) = table.find(hash, same) {
            table.insert(vacant, row as u32, hash, hash_of);
            firsts.push(TupleId(row));
        }
    }
    firsts
}

impl Classes {
    fn new() -> Self {
        Classes {
            seed: RandomState::new().hash_one(0u64),
            hashes: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            last: Vec::new(),
            first: Vec::new(),
            firsts: None,
            table: IdTable::with_capacity(0),
        }
    }

    /// The first occurrence of the class holding `row`'s values, hashed
    /// `hash`, or where one would go.
    fn find(&self, hash: u64, row: usize, columns: &[Vec<ValueId>]) -> Result<u32, Vacant> {
        let same = |head: u32| {
            let head = head as usize;
            self.hashes[head] == hash && same_row(columns, head, row)
        };
        self.table.find(hash, same)
    }

    /// Take `rows` (ascending, holding the values they were put in with)
    /// out of their classes: a first occurrence that leaves hands first
    /// place to the next member of its class.
    fn take_out(&mut self, rows: impl Iterator<Item = usize>, columns: &[Vec<ValueId>]) {
        for row in rows {
            self.firsts = None;
            let hash = self.hashes[row];
            let Ok(head) = self.find(hash, row, columns) else {
                continue;
            };
            let head = head as usize;
            let (prev, next) = (self.prev[row], self.next[row]);
            if row == head {
                let hashes = &self.hashes;
                if next == NONE {
                    self.table.remove(hash, row as u32, |r| hashes[r as usize]);
                } else {
                    self.table.replace(hash, row as u32, next);
                    let next = next as usize;
                    self.prev[next] = NONE;
                    self.last[next] = self.last[row];
                    self.first[next] = true;
                }
            } else {
                self.next[prev as usize] = next;
                match next {
                    NONE => self.last[head] = prev,
                    next => self.prev[next as usize] = prev,
                }
            }
            (self.prev[row], self.next[row], self.first[row]) = (NONE, NONE, false);
        }
    }

    /// Put `rows` (ascending) into the classes of the values `columns` now
    /// holds for them, the index then covering `len` rows: a row that joins
    /// a class ahead of its first occurrence takes first place.
    fn put_in(&mut self, rows: &[usize], columns: &[Vec<ValueId>], len: usize) {
        let hashes = hash_rows(columns, rows, self.seed);
        self.place(rows, &hashes, columns, len);
    }

    /// [`Classes::put_in`] with the rows' hashes given.
    fn place(&mut self, rows: &[usize], hashes: &[u64], columns: &[Vec<ValueId>], len: usize) {
        assert!(len < NONE as usize, "more than 4G rows");
        for per_row in [&mut self.next, &mut self.prev, &mut self.last] {
            per_row.resize(len, NONE);
        }
        self.hashes.resize(len, 0);
        self.first.resize(len, false);
        if !rows.is_empty() {
            self.firsts = None;
        }
        for (&row, &hash) in rows.iter().zip(hashes) {
            self.hashes[row] = hash;
            let head = match self.find(hash, row, columns) {
                Ok(head) => head as usize,
                Err(vacant) => {
                    let hashes = &self.hashes;
                    self.table
                        .insert(vacant, row as u32, hash, |r| hashes[r as usize]);
                    (self.last[row], self.first[row]) = (row as u32, true);
                    continue;
                }
            };
            if row < head {
                // Ahead of the first occurrence: first place is the row's.
                self.table.replace(hash, head as u32, row as u32);
                (self.next[row], self.prev[head]) = (head as u32, row as u32);
                (self.last[row], self.first[row], self.first[head]) =
                    (self.last[head], true, false);
                continue;
            }
            let mut before = self.last[head] as usize;
            if before > row {
                before = head;
                while (self.next[before] as usize) < row {
                    before = self.next[before] as usize;
                }
            }
            let after = self.next[before];
            (self.prev[row], self.next[row], self.next[before]) =
                (before as u32, after, row as u32);
            match after {
                NONE => self.last[head] = row as u32,
                after => self.prev[after as usize] = row as u32,
            }
        }
    }

    /// Take the removed rows out (`removed`: sorted, deduplicated) and
    /// renumber the rest.
    fn remap_removed(&mut self, removed: &[usize], columns: &[Vec<ValueId>]) {
        self.take_out(removed.iter().copied(), columns);
        self.firsts = None;
        let renumber = |row: u32| row - removed.partition_point(|&r| r < row as usize) as u32;
        for per_row in [&mut self.next, &mut self.prev, &mut self.last] {
            drop_removed(per_row, removed);
            for row in per_row.iter_mut().filter(|row| **row != NONE) {
                *row = renumber(*row);
            }
        }
        drop_removed(&mut self.hashes, removed);
        drop_removed(&mut self.first, removed);
        self.table.rename(renumber);
    }

    /// The first occurrences, in row order.
    fn firsts(&mut self) -> &[TupleId] {
        self.firsts.get_or_insert_with(|| {
            let rows = self.first.iter().enumerate();
            rows.filter(|&(_, &first)| first)
                .map(|(row, _)| TupleId(row))
                .collect()
        })
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
    /// way `CleaningSession::apply` and `outcome` keep theirs — and a second
    /// Stage-II driver kept in step beside the first that reports through
    /// [`StageTwo::derive`], the way the distributed coordinator does.
    struct Stream {
        table: Evolving,
        one: StageOne,
        two: StageTwo,
        derives: StageTwo,
    }

    impl Stream {
        fn open(config: &CleanConfig, ds: &Dataset, rules: &RuleSet) -> Self {
            let table = Evolving::new(Dataset::new(ds.schema().clone()), rules.clone());
            let mut stream = Stream {
                one: StageOne::new(config.clone(), table.index.clone()),
                two: StageTwo::new(config.clone()),
                derives: StageTwo::new(config.clone()),
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
                        for two in [&mut self.two, &mut self.derives] {
                            two.grow(two.slots() + report.rows);
                        }
                        touch(&mut self.one, &report.touched_keys);
                    }
                    Change::Updated(t, touched) => {
                        touch(&mut self.one, &touched);
                        self.two.invalidate(t);
                        self.derives.invalidate(t);
                    }
                    Change::Deleted(removed, report) => {
                        self.two.remap_removed(&removed);
                        self.derives.remap_removed(&removed);
                        self.one.remap_removed(&removed);
                        touch(&mut self.one, &report.touched_keys);
                    }
                }
            }
        }

        /// Refresh what is dirty and report through both drivers; each report
        /// must equal Stage II run from scratch over the same cleaned index —
        /// repaired CSV, the FSCR record (outcomes and changes, in order) and
        /// the dedup CSV.  Returns the maintained report and what the refresh
        /// said.
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
            self.derives.invalidate_refreshed(&refreshed, &dirty);
            self.one.sync_pool(self.table.ds.pool());
            let report = self.two.report(&mut self.one, &self.table.ds, &mut timings);
            assert_eq!(report.timings, timings, "{label}");
            let rows = self.table.ds.clone();
            let derived = self.derives.derive(&mut self.one, rows, &mut timings);
            assert_eq!(derived.timings, timings, "{label}");

            let resolver = ConflictResolver::new(MAX_EXHAUSTIVE_FUSION);
            let (repaired, record) = resolver.resolve(&self.table.ds, self.one.cleaned());
            for (report, driver) in [(&report, "report"), (&derived, "derive")] {
                assert_eq!(
                    csv::to_csv(&report.repaired),
                    csv::to_csv(&repaired),
                    "{label}, {driver}"
                );
                assert_eq!(report.fscr, record, "{label}, {driver}");
                assert_eq!(
                    csv::to_csv(report.deduplicated()),
                    csv::to_csv(&repaired.deduplicated()),
                    "{label}, {driver}"
                );
            }
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
                        stream.derives.enforce_budget(&mut stream.one);
                    }
                    let (fused, rewritten) = (stream.two.fused, stream.two.rewritten);
                    stream.report(&format!("{name}, {memory_budget:?}: step {step}"));
                    let (fused, rewritten) =
                        (stream.two.fused - fused, stream.two.rewritten - rewritten);
                    assert!(
                        rewritten <= fused,
                        "{name}, {memory_budget:?}: step {step} rewrote {rewritten} rows, \
                         refilled {fused} slots"
                    );
                    rows_reported += stream.table.ds.len() as u64;
                    stream.two.enforce_budget(&mut stream.one);
                    stream.derives.enforce_budget(&mut stream.one);
                    assert_eq!(stream.derives.view.rows, 0, "derive keeps no view");
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

    /// A report after nothing changed refills no slot, rewrites no row and
    /// hands out the previous report again, byte for byte.
    #[test]
    fn a_report_with_nothing_dirty_rewrites_no_row_and_equals_the_last() {
        let (_, ds, rules, config) = workloads().remove(1);
        let mut stream = Stream::open(&config, &ds, &rules);
        let (first, _) = stream.report("first report");
        assert_eq!(stream.two.rewritten_rows(), ds.len() as u64, "all new");
        let (fused, rewritten) = (stream.two.fused_tuples(), stream.two.rewritten_rows());
        let (again, _) = stream.report("again");
        assert_eq!(stream.two.fused_tuples(), fused);
        assert_eq!(stream.two.rewritten_rows(), rewritten);
        assert_eq!(csv::to_csv(&again.repaired), csv::to_csv(&first.repaired));
        assert_eq!(
            csv::to_csv(again.deduplicated()),
            csv::to_csv(first.deduplicated())
        );
        assert_eq!(again.fscr, first.fscr);
        assert_eq!(mlnw::to_bytes(&again.fscr), mlnw::to_bytes(&first.fscr));
    }

    /// A one-cell update rewrites the row it wrote and, of the other slots
    /// it refilled, exactly those whose assignment moved; every other row
    /// and its cell changes are copied out as they stood.
    #[test]
    fn a_one_cell_update_rewrites_only_refilled_slots_whose_row_or_assignment_moved() {
        let (_, ds, rules, config) = workloads().remove(1);
        let mut stream = Stream::open(&config, &ds, &rules);
        let (first, _) = stream.report("first report");
        let city = ds.schema().attr_id("City").unwrap();
        let other = (1..ds.len())
            .map(|t| ds.value(TupleId(t), city))
            .find(|c| *c != ds.value(TupleId(0), city))
            .unwrap();
        let change = stream.table.update(TupleId(0), city, other);
        stream.absorb(vec![change]);
        let (fused, rewritten) = (stream.two.fused_tuples(), stream.two.rewritten_rows());
        let (second, _) = stream.report("after the update");
        let fused = stream.two.fused_tuples() - fused;
        let rewritten = stream.two.rewritten_rows() - rewritten;

        // A refilled slot holds a new fusion; row 0 was written.
        let pairs = first.fscr.outcomes.iter().zip(&second.fscr.outcomes);
        let refilled: Vec<(usize, bool)> = pairs
            .enumerate()
            .filter(|(_, (a, b))| !Arc::ptr_eq(&a.fused, &b.fused))
            .map(|(t, (a, b))| (t, t == 0 || a.fused != b.fused))
            .collect();
        assert_eq!(refilled.len() as u64, fused);
        assert_eq!(refilled[0], (0, true), "the written row is rewritten");
        let moved = refilled.iter().filter(|&&(_, moved)| moved).count() as u64;
        assert_eq!(rewritten, moved);
        assert!(
            rewritten < fused,
            "{rewritten} rewritten of {fused} refilled"
        );
    }

    /// The dedup index's three hand-offs, each checked against
    /// `Dataset::deduplicated` from scratch by `Stream::report`: a class's
    /// first occurrence changes its values (first place passes to the next
    /// member), a later row changes into an earlier class (and an earlier
    /// row into a class ahead of its first), and a first occurrence is
    /// deleted.
    #[test]
    fn the_dedup_index_hands_first_place_on() {
        // `A -> B` holds everywhere, so the fusion changes no cell.
        let mut ds = Dataset::new(Schema::new(&["A", "B", "C"]));
        for row in [
            ["a1", "b1", "c1"],
            ["a1", "b1", "c1"],
            ["a2", "b2", "c2"],
            ["a1", "b1", "c1"],
            ["a2", "b2", "c3"],
            ["a2", "b2", "c2"],
        ] {
            ds.push_row(row.map(String::from).to_vec()).unwrap();
        }
        let rules = parse_rules("FD: A -> B").unwrap();
        let mut stream = Stream::open(&CleanConfig::default().with_tau(0), &ds, &rules);
        let firsts = |report: &Report| -> Vec<String> {
            let rows = report.deduplicated().tuples();
            rows.map(|t| t.owned_values().join(" ")).collect()
        };
        let (report, _) = stream.report("first report");
        assert!(report.fscr.changes.is_empty());
        assert_eq!(firsts(&report), ["a1 b1 c1", "a2 b2 c2", "a2 b2 c3"]);
        let step = |stream: &mut Stream,
                    label: &str,
                    change: fn(&mut Evolving) -> Change,
                    expected: &[&str]| {
            let change = change(&mut stream.table);
            stream.absorb(vec![change]);
            let (report, _) = stream.report(label);
            assert_eq!(firsts(&report), expected, "{label}");
        };
        step(
            &mut stream,
            "row 0 leaves its class: row 1 is first now",
            |table| table.update(TupleId(0), AttrId(2), "c9"),
            &["a1 b1 c9", "a1 b1 c1", "a2 b2 c2", "a2 b2 c3"],
        );
        step(
            &mut stream,
            "row 4 joins row 2's class behind it",
            |table| table.update(TupleId(4), AttrId(2), "c2"),
            &["a1 b1 c9", "a1 b1 c1", "a2 b2 c2"],
        );
        step(
            &mut stream,
            "row 0 rejoins its class ahead of row 1",
            |table| table.update(TupleId(0), AttrId(2), "c1"),
            &["a1 b1 c1", "a2 b2 c2"],
        );
        step(
            &mut stream,
            "row 2, a first occurrence, is deleted: row 4 (now 3) is first",
            |table| table.delete(&[TupleId(2)]),
            &["a1 b1 c1", "a2 b2 c2"],
        );
        let classes = &mut stream.two.view.classes;
        assert_eq!(classes.firsts(), [TupleId(0), TupleId(3)]);
        let (report, _) = stream.report("again");
        assert_eq!(report.deduplicated().len(), 2);
        assert_eq!(report.repaired.len(), 5);
    }

    /// The dedup index tells colliding classes apart by their values: with
    /// every row hashed alike, patches in any order still flag the first
    /// occurrence of each class exactly as `Dataset::deduplicated` keeps it,
    /// and right after rows are taken out, the first occurrence of each class
    /// among the rows left — a first occurrence that leaves hands its place
    /// to the next member.
    #[test]
    fn classes_whose_hashes_collide_stay_apart() {
        let mut rng = Rng::labelled(concat!(
            module_path!(),
            "::classes_whose_hashes_collide_stay_apart"
        ));
        for _ in 0..40 {
            let rows = 1 + rng.below(30);
            let value = |rng: &mut Rng| ValueId(rng.below(3) as u32);
            let mut columns: Vec<Vec<ValueId>> = (0..2)
                .map(|_| (0..rows).map(|_| value(&mut rng)).collect())
                .collect();
            let mut classes = Classes::new();
            // Every row hashes alike: one probe run holds every class.
            let put_in = |classes: &mut Classes, rows: &[usize], columns: &[Vec<ValueId>]| {
                classes.place(rows, &vec![7; rows.len()], columns, columns[0].len());
            };
            let all: Vec<usize> = (0..rows).collect();
            put_in(&mut classes, &all, &columns);
            for _ in 0..10 {
                let mut ds = Dataset::new(Schema::new(&["X", "Y"]));
                for t in 0..rows {
                    let row = columns.iter().map(|c| format!("v{}", c[t].0)).collect();
                    ds.push_row(row).unwrap();
                }
                let firsts: Vec<String> = classes
                    .firsts()
                    .iter()
                    .map(|&t| ds.tuple(t).owned_values().join(" "))
                    .collect();
                let expected: Vec<String> = ds
                    .deduplicated()
                    .tuples()
                    .map(|t| t.owned_values().join(" "))
                    .collect();
                assert_eq!(firsts, expected);
                // Rewrite a few rows.
                let mut moved: Vec<usize> = (0..3).map(|_| rng.below(rows)).collect();
                moved.sort_unstable();
                moved.dedup();
                classes.take_out(moved.iter().copied(), &columns);
                let left: Vec<usize> = all.iter().copied().filter(|t| !moved.contains(t)).collect();
                let heads: Vec<TupleId> = (left.iter().enumerate())
                    .filter(|&(i, &t)| left[..i].iter().all(|&u| !same_row(&columns, u, t)))
                    .map(|(_, &t)| TupleId(t))
                    .collect();
                assert_eq!(classes.firsts(), heads);
                for &t in &moved {
                    columns[rng.below(2)][t] = value(&mut rng);
                }
                put_in(&mut classes, &moved, &columns);
            }
        }
    }

    /// Dropping removed rows run by run keeps exactly the other items, in
    /// order: no removed row, adjacent removed rows, both ends.
    #[test]
    fn drop_removed_keeps_the_other_items_in_order() {
        let mut rng = Rng::labelled(concat!(
            module_path!(),
            "::drop_removed_keeps_the_other_items_in_order"
        ));
        for _ in 0..200 {
            let items: Vec<usize> = (0..rng.below(20)).collect();
            let removed: Vec<usize> = items
                .iter()
                .copied()
                .filter(|_| rng.below(3) == 0)
                .collect();
            let mut dropped = items.clone();
            drop_removed(&mut dropped, &removed);
            let expected: Vec<usize> = items.into_iter().filter(|i| !removed.contains(i)).collect();
            assert_eq!(dropped, expected, "{removed:?}");
        }
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
        // The shared cell, and 16 bytes a pair.
        assert_eq!(size_of::<(AttrId, ValueId)>(), 16);
        let expected: usize = distinct
            .map(|o| SharedFusion::CELL_BYTES + 16 * o.fused.len())
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
