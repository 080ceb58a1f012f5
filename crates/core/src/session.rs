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
//!   of the last refresh, plus the per-block provenance records.
//!
//! [`CleaningSession::apply`] is the one ingest path: it consumes a typed
//! [`ChangeSet`] of [`Mutation`]s — inserts, cell updates and row deletions —
//! splices each into the pristine blocks/groups
//! ([`MlnIndex::insert_tuples`], [`MlnIndex::update_tuple`],
//! [`MlnIndex::remove_tuples`]) and records the dirtiness **per group**, not
//! per block: a pure cell update marks only the group keys it rehomed the
//! tuple across, while structural changes (inserts, deletes, injected
//! weights, any change to a block's total support) fall back to marking the
//! whole block dirty.  Deletions compact the dataset (later tuple ids shift
//! down by one), and the session remaps its cached cleaned index, per-block
//! provenance and per-group clean state in step, so untouched state keeps
//! serving from cache.
//!
//! Producing a [`Report`] then re-runs Stage I **only on the affected
//! groups** of dirty blocks: AGP merge *decisions* are re-planned per block
//! (they are cheap and order-independent), but the expensive
//! part — merging γs, the closed-form block softmax
//! ([`crate::weights::assign_group_weights`], whose denominator is the
//! block's total support and therefore survives any within-block merge) and
//! RSC's pairwise γ scoring — is recomputed only for output groups whose
//! sources changed, everything else reuses the cached per-group entry.  Stage
//! II re-fuses **only the invalidated tuples** against a fusion plan
//! restricted to their covering blocks
//! ([`crate::fscr::ConflictResolver::plan_for`]), folds the new fusions into
//! an incrementally maintained repaired dataset, and replays memoised
//! fusions into the provenance record without cloning anything but the
//! output snapshot itself.  The result is byte-identical — output CSV and
//! AGP/RSC/FSCR provenance — to a single batch run over the **net surviving
//! rows**, which is what [`crate::MlnClean::clean`] now is: one bulk ingest
//! plus [`CleaningSession::finish`].

use crate::agp::{AgpPlan, AgpRecord};
use crate::cache::{CacheStats, DistanceCache};
use crate::changeset::{ChangeSet, Mutation};
use crate::engine::{Report, Timings};
use crate::error::CleanError;
use crate::fscr::{
    record_tuple_fusion, write_tuple_fusion, ConflictResolver, FscrRecord, TupleFusion,
};
use crate::index::{Block, Group, InsertReport, MlnIndex};
use crate::rsc::{ReliabilityCleaner, RscRecord, RscRepair};
use crate::stage::{AgpStage, RscStage, WeightLearningStage};
use crate::weights::{assign_group_weights, block_support, SessionWeights};
use crate::CleanConfig;
use dataset::{
    ArityMismatch, AttrId, Dataset, Schema, SpillDir, SpillSlot, TupleId, ValueId, ValuePool,
};
use distance::Metric;
use rayon::prelude::*;
use rules::RuleSet;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// What one [`CleaningSession::apply`] call changed — the dirtiness the next
/// re-clean will have to pay for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// Cached post-Stage-I provenance of one block.
#[derive(Debug, Clone, Default)]
struct BlockRecords {
    agp: AgpRecord,
    rsc: RscRecord,
}

/// The cached clean state of one **output group** of a block — the unit the
/// group-scoped refresh reuses when nothing feeding the group changed.
/// Serializable so a memory-budgeted session can spill a whole block's
/// entries to a disk segment through the `mlnw` codec.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GroupEntry {
    /// Pristine group keys fused into this output group: the group's own key
    /// first, then the AGP-merged abnormal keys in merge order.  A reuse is
    /// only sound when the fresh plan derives the exact same source list.
    sources: Vec<Vec<ValueId>>,
    /// The group's post-weights/RSC state.
    group: Group,
    /// The RSC repairs cleaning this group produced.
    repairs: Vec<RscRepair>,
}

/// Per-block dirtiness and group-scoped clean cache.
#[derive(Debug, Clone)]
struct BlockCache {
    /// The block's total tuple support (the closed-form softmax denominator,
    /// [`block_support`]) at the last refresh — `None` before the first.
    /// Every group's probabilities divide by this Z, so a support change
    /// (inserts, deletes, a CFD flipping a tuple's relevance) invalidates
    /// the whole block at once.
    last_z: Option<usize>,
    /// Pristine group keys whose content changed since the last refresh
    /// (pure cell updates only; structural changes set `fully_dirty`).
    dirty_keys: HashSet<Vec<ValueId>>,
    /// Re-clean every group at the next refresh.
    fully_dirty: bool,
    /// Cached clean state per output-group key.
    entries: HashMap<Vec<ValueId>, GroupEntry>,
    /// Persistent distance memo shared by AGP planning and RSC scoring
    /// across refreshes of this block.
    distances: DistanceCache,
    /// Disk-backed image of `entries` while the block is spilled under a
    /// memory budget.  `Some` ⇒ `entries` is empty and must be faulted back
    /// in before the block is refreshed or id-remapped.  The dirtiness
    /// fields (`last_z`, `dirty_keys`, `fully_dirty`) always stay resident:
    /// marking a spilled block dirty never touches the segment.
    spilled: Option<SpillSlot>,
    /// LRU tick of the last refresh that rebuilt or reused this block's
    /// entries — the spill victim order (coldest first).
    last_touch: u64,
}

impl BlockCache {
    fn new(metric: Metric) -> Self {
        BlockCache {
            last_z: None,
            dirty_keys: HashSet::new(),
            fully_dirty: false,
            entries: HashMap::new(),
            distances: DistanceCache::new(metric),
            spilled: None,
            last_touch: 0,
        }
    }

    /// Whether the next refresh must revisit this block at all.
    fn is_dirty(&self) -> bool {
        self.fully_dirty || !self.dirty_keys.is_empty()
    }
}

/// What refreshing one dirty block produced.
struct RefreshedBlock {
    block_idx: usize,
    block: Block,
    records: BlockRecords,
    cache: BlockCache,
    /// Tuples whose memoised fusion must be invalidated (their data versions
    /// changed: they sit in a recomputed output group, or in a cache entry
    /// that no longer exists).
    invalidated: Vec<TupleId>,
    /// Output groups Stage I actually recomputed (vs reused from cache).
    recleaned: u64,
}

/// Counters of the out-of-core machinery of a memory-budgeted session —
/// see [`CleaningSession::memory_stats`].  All zero when no
/// [`CleanConfig::memory_budget`] is set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Block caches spilled to disk segments (cumulative; a block spilled,
    /// faulted in and re-spilled counts twice).
    pub spilled_blocks: u64,
    /// Spilled block caches faulted back in (the block went dirty, or a
    /// delete had to remap its tuple ids).
    pub faulted_blocks: u64,
    /// Total bytes written to spill segments (cumulative).
    pub spilled_bytes: u64,
    /// Memoised per-tuple fusions evicted by the budget (each is re-derived
    /// deterministically at the next outcome).
    pub evicted_fusions: u64,
    /// Spill attempts abandoned because the segment write failed; the block
    /// stayed resident (graceful degradation, never a correctness loss).
    pub spill_errors: u64,
}

/// A compacting suspend image of a [`CleaningSession`]: the net surviving
/// rows, the injected weight overrides and the batch ordinal — everything a
/// fresh session needs to continue the stream with byte-identical outputs.
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The net surviving rows at the suspend point.
    pub dataset: Dataset,
    /// The injected γ-weight overrides in force (empty = none).
    pub injected: SessionWeights,
    /// Change sets applied before the suspend point (the resumed session
    /// continues the [`BatchReport`] ordinals from here).
    pub batches: usize,
}

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
    /// Per block: the post-AGP/weights/RSC state of the last refresh.
    /// Shared with every [`Report`] handed out so far (copy-on-write: the
    /// next refresh that must mutate it clones only then).
    cleaned: Arc<MlnIndex>,
    block_records: Vec<BlockRecords>,
    /// Per block: group-scoped dirtiness and the reusable clean state.
    caches: Vec<BlockCache>,
    /// Per tuple: the memoised FSCR fusion (`None` = must be (re)fused).
    fusions: Vec<Option<TupleFusion>>,
    /// The repaired dataset, maintained incrementally: every row holds its
    /// memoised fusion's image (or its dirty values while its fusion is
    /// pending — [`CleaningSession::ensure_fusions`] settles those before
    /// any report reads this).
    repaired: Dataset,
    /// Externally injected γ-weight overrides (empty = none) — see
    /// [`CleaningSession::inject_weights`].
    injected: SessionWeights,
    /// O(index) id-compaction passes performed so far (at most one per
    /// change set containing deletes) — see
    /// [`CleaningSession::remap_passes`].
    remap_passes: usize,
    /// Cumulative output groups Stage I recomputed across all refreshes —
    /// see [`CleaningSession::recleaned_groups`].
    recleaned_groups: u64,
    timings: Timings,
    batches: usize,
    /// Spill directory backing the memory budget, created lazily on the
    /// first spill (sessions without a budget never touch the filesystem).
    spill: Option<SpillDir>,
    /// Monotonic clock stamping block refreshes for LRU victim selection.
    lru_clock: u64,
    /// Number of `Some` slots in `fusions` — kept exact so the budget
    /// enforcement never has to scan the O(rows) memo to size it.
    memoised_fusions: usize,
    /// Out-of-core accounting — see [`CleaningSession::memory_stats`].
    memory: MemoryStats,
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
        let cleaned = Arc::new(pristine.clone());
        let blocks = pristine.block_count();
        let metric = config.metric;
        Ok(CleaningSession {
            config,
            rules,
            repaired: dataset.clone(),
            dataset,
            pristine,
            cleaned,
            block_records: vec![BlockRecords::default(); blocks],
            caches: vec![BlockCache::new(metric); blocks],
            fusions: Vec::new(),
            injected: SessionWeights::default(),
            remap_passes: 0,
            recleaned_groups: 0,
            timings: Timings::default(),
            batches: 0,
            spill: None,
            lru_clock: 0,
            memoised_fusions: 0,
            memory: MemoryStats::default(),
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
        self.caches.iter().filter(|c| c.is_dirty()).count()
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
        self.recleaned_groups
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

    /// Snapshot the per-γ weights of the last re-clean (the cleaned index)
    /// as a pool-independent [`SessionWeights`] table — the export half of
    /// the session weight hooks.
    pub fn export_weights(&self) -> SessionWeights {
        SessionWeights::from_index(&self.cleaned)
    }

    /// Inject externally merged γ weights — the import half of the session
    /// weight hooks.
    ///
    /// A distributed coordinator learns weights over evidence this session
    /// cannot see (the other partitions); injecting the merged table makes
    /// the **next** re-clean override the locally learned weight of every
    /// matching γ (and re-normalize each block's probabilities) right after
    /// weight learning, before RSC runs — the per-partition half of the
    /// paper's Eq. 6 phase.  Every block is marked fully dirty so the
    /// injected weights take effect on the next
    /// [`CleaningSession::outcome`] (injected weights renormalize whole
    /// blocks, so the group-scoped fast path does not apply).  The injection
    /// persists across re-cleans until replaced; injecting an empty table
    /// clears it.  Note that a session with injected weights intentionally
    /// diverges from the single-node batch run it is otherwise
    /// byte-identical to.
    pub fn inject_weights(&mut self, weights: SessionWeights) {
        self.injected = weights;
        if !self.injected.is_empty() {
            for cache in &mut self.caches {
                cache.fully_dirty = true;
            }
        }
    }

    /// Cumulative per-stage wall-clock timings across all ingests and
    /// re-cleans of this session.
    pub fn timings(&self) -> Timings {
        self.timings
    }

    /// Counters of the out-of-core machinery (spills, fault-ins, fusion
    /// evictions).  All zero unless [`CleanConfig::memory_budget`] is set.
    pub fn memory_stats(&self) -> MemoryStats {
        self.memory
    }

    /// Estimated resident bytes of the session's **evictable working
    /// state** — the pool [`CleanConfig::memory_budget`] bounds: per-block
    /// γ clean caches, their distance memos, and the heap of the per-tuple
    /// fusion memo.  A count-based heuristic (exact sizing would cost more
    /// than the state is worth), consistent across calls, which is all the
    /// spill policy needs.
    pub fn resident_estimate(&self) -> usize {
        let mut bytes = self.memoised_fusions * FUSION_SLOT_BYTES;
        for cache in &self.caches {
            bytes += approx_cache_bytes(cache);
        }
        bytes
    }

    /// Capture a compacting suspend image of the session: the net surviving
    /// rows, the injected weights and the batch ordinal.  See
    /// [`SessionSnapshot`] for what is (and deliberately is not) captured,
    /// and [`CleaningSession::resume`] for the other half.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            dataset: self.dataset.clone(),
            injected: self.injected.clone(),
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
        if !snapshot.injected.is_empty() {
            session.inject_weights(snapshot.injected);
        }
        Ok(session)
    }

    /// Spill one clean resident block's cache entries to a disk segment.
    /// Returns whether the block is now spilled.  The distance memo is
    /// dropped with the entries: it is a pure accelerator whose hit/miss
    /// statistics are excluded from provenance equality, so faulting back
    /// in with a cold memo is byte-identity-safe.
    fn spill_block(&mut self, i: usize) -> bool {
        {
            let cache = &self.caches[i];
            if cache.spilled.is_some() || cache.is_dirty() || cache.entries.is_empty() {
                return false;
            }
        }
        if self.spill.is_none() {
            match SpillDir::new() {
                Ok(dir) => self.spill = Some(dir),
                Err(_) => {
                    self.memory.spill_errors += 1;
                    return false;
                }
            }
        }
        let entries: Vec<(Vec<ValueId>, GroupEntry)> = std::mem::take(&mut self.caches[i].entries)
            .into_iter()
            .collect();
        let bytes = mlnw::to_bytes(&entries).expect("in-memory γ state always encodes");
        match self
            .spill
            .as_ref()
            .expect("created just above")
            .store(&bytes)
        {
            Ok(slot) => {
                self.memory.spilled_blocks += 1;
                self.memory.spilled_bytes += bytes.len() as u64;
                let metric = self.config.metric;
                let cache = &mut self.caches[i];
                cache.spilled = Some(slot);
                cache.distances = DistanceCache::new(metric);
                true
            }
            Err(_) => {
                // Keep the block resident — the budget is advisory, the
                // entries are not (dropping them would break the fusion
                // invalidation the next refresh derives from them).
                self.memory.spill_errors += 1;
                self.caches[i].entries = entries.into_iter().collect();
                false
            }
        }
    }

    /// Fault a spilled block's cache entries back in (no-op when resident).
    ///
    /// Panics when the segment cannot be read back or no longer decodes:
    /// the segment lives in a directory this session owns exclusively, so a
    /// failure means the environment broke underneath us — and proceeding
    /// without the entries would *silently* skip the fusion invalidation
    /// the refresh derives from them, corrupting output instead of failing.
    fn fault_in_block(&mut self, i: usize) {
        let Some(slot) = self.caches[i].spilled.take() else {
            return;
        };
        let bytes = slot.load().expect("spill segment must be readable");
        let entries: Vec<(Vec<ValueId>, GroupEntry)> =
            mlnw::from_bytes(&bytes).expect("spill segment must decode");
        self.caches[i].entries = entries.into_iter().collect();
        self.memory.faulted_blocks += 1;
    }

    /// Shed evictable state until [`CleaningSession::resident_estimate`]
    /// fits the configured budget: spill clean block caches coldest-first,
    /// then (when `evict_fusions` and still over) window the fusion memo by
    /// evicting the oldest memoised fusions.  No-op without a budget.
    fn enforce_budget(&mut self, evict_fusions: bool) {
        let Some(budget) = self.config.memory_budget else {
            return;
        };
        let mut resident = self.resident_estimate();
        if resident <= budget {
            return;
        }

        let mut victims: Vec<(u64, usize)> = self
            .caches
            .iter()
            .enumerate()
            .filter(|(_, c)| c.spilled.is_none() && !c.is_dirty() && !c.entries.is_empty())
            .map(|(i, c)| (c.last_touch, i))
            .collect();
        victims.sort_unstable();
        for (_, i) in victims {
            let freed = approx_cache_bytes(&self.caches[i]);
            if self.spill_block(i) {
                resident = resident.saturating_sub(freed);
                if resident <= budget {
                    return;
                }
            }
        }

        if !evict_fusions {
            return;
        }
        // Window the memo: evict front-to-back, so in an append-mostly
        // stream the oldest (coldest) tuples lose their memo first and the
        // recent tail survives.  `ensure_fusions` re-derives evicted
        // entries deterministically, so outputs are unaffected.
        for slot in self.fusions.iter_mut() {
            if resident <= budget {
                break;
            }
            if slot.take().is_some() {
                self.memoised_fusions -= 1;
                self.memory.evicted_fusions += 1;
                resident = resident.saturating_sub(FUSION_SLOT_BYTES);
            }
        }
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
        self.validate(&changes)?;
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
                    self.fusions.resize(self.dataset.len(), None);
                    // Mirror the new rows (still dirty; their pending
                    // fusions settle them) into the maintained repaired
                    // dataset.
                    self.repaired.sync_pool_from(self.dataset.pool());
                    for t in from..self.dataset.len() {
                        let row = self.dataset.row_ids(TupleId(t));
                        self.repaired
                            .push_row_ids(&row)
                            .expect("repaired shares the dataset schema");
                    }
                    inserted += report.rows;
                    touched_groups += report.total_touched_groups();
                    self.mark_fully_dirty(&report.touched_groups);
                    record_touched(&mut touched_blocks, &report.touched_groups);
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
                    self.mark_dirty_keys(&touched);
                    record_touched_keys(&mut touched_blocks, &touched);
                    // The tuple's own versions may have moved even when no
                    // other tuple's did; always re-fuse it.
                    if self.fusions[t.index()].take().is_some() {
                        self.memoised_fusions -= 1;
                    }
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
                    .remove_tuples(&self.dataset, &self.rules, &removed_ids, parallel);
            self.dataset.remove_rows(&removed_ids);
            self.repaired.remove_rows(&removed_ids);
            let mut idx = 0usize;
            let mut dropped_fusions = 0usize;
            self.fusions.retain(|f| {
                let keep = removed.binary_search(&idx).is_err();
                idx += 1;
                if !keep && f.is_some() {
                    dropped_fusions += 1;
                }
                keep
            });
            self.memoised_fusions -= dropped_fusions;
            // Cached cleaned blocks, provenance and per-group clean state
            // live in tuple-id space: shift them down past the removed
            // rows.  Dirty blocks get rebuilt from pristine at the next
            // refresh; untouched blocks never contained the tuples, so the
            // shift alone keeps their cache byte-identical to what a batch
            // run over the survivors would produce.  Spilled blocks hold
            // entries in the same id space, so they must fault in for the
            // shift (the budget re-spills them at the end of the call).
            for i in 0..self.caches.len() {
                self.fault_in_block(i);
            }
            Arc::make_mut(&mut self.cleaned).remap_removed(&removed);
            for records in &mut self.block_records {
                remap_records_after_removal(records, &removed);
            }
            for cache in &mut self.caches {
                remap_cache_after_removal(cache, &removed);
            }
            self.remap_passes += 1;
            touched_groups += report.touched_groups.iter().sum::<usize>();
            self.mark_fully_dirty(&report.touched_groups);
            record_touched(&mut touched_blocks, &report.touched_groups);
        }

        self.enforce_budget(true);
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
    /// [`CleaningSession::ingest_dataset`]: catch the cleaned index's and
    /// the repaired dataset's pool snapshots up to the dataset pool (new
    /// values interned by the change must resolve there even when no block
    /// went dirty; pools are append-only, so only the new tail is copied),
    /// account the wall time, bump the batch ordinal and assemble the
    /// [`BatchReport`].
    fn finalize_change(
        &mut self,
        started: Instant,
        rows: usize,
        updated_cells: usize,
        deleted_rows: usize,
        touched_groups: usize,
        touched_blocks: Vec<bool>,
    ) -> BatchReport {
        if self.dataset.pool().len() != self.cleaned.pool().len() {
            Arc::make_mut(&mut self.cleaned).sync_pool_from(self.dataset.pool());
        }
        self.repaired.sync_pool_from(self.dataset.pool());
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

    /// Ingest a whole dataset (the batch special case) — a convenience kept
    /// for its bulk fast path.
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
            self.repaired = ds.clone();
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
            let report =
                self.pristine
                    .insert_tuples(&self.dataset, &self.rules, from, self.config.parallel);
            self.repaired.sync_pool_from(self.dataset.pool());
            for t in from..self.dataset.len() {
                let row = self.dataset.row_ids(TupleId(t));
                self.repaired
                    .push_row_ids(&row)
                    .expect("repaired shares the dataset schema");
            }
            report
        };
        self.fusions.resize(self.dataset.len(), None);
        self.mark_fully_dirty(&report.touched_groups);
        let mut touched_blocks = vec![false; self.pristine.block_count()];
        record_touched(&mut touched_blocks, &report.touched_groups);
        self.enforce_budget(true);
        Ok(self.finalize_change(
            started,
            report.rows,
            0,
            0,
            report.total_touched_groups(),
            touched_blocks,
        ))
    }

    /// Pre-validate a change set against the session schema, tracking the
    /// row count through the sequence's own inserts and deletes.
    fn validate(&self, changes: &ChangeSet) -> Result<(), CleanError> {
        let arity = self.dataset.schema().arity();
        let mut rows = self.dataset.len();
        for mutation in changes.iter() {
            match mutation {
                Mutation::Insert(batch) => {
                    for row in batch {
                        if row.len() != arity {
                            return Err(CleanError::Arity(ArityMismatch {
                                expected: arity,
                                actual: row.len(),
                            }));
                        }
                    }
                    rows += batch.len();
                }
                Mutation::Update(t, attr, _) => {
                    if t.index() >= rows {
                        return Err(CleanError::UnknownTuple { tuple: *t, rows });
                    }
                    if attr.index() >= arity {
                        return Err(CleanError::UnknownAttribute { attr: *attr, arity });
                    }
                }
                Mutation::Delete(t) => {
                    if t.index() >= rows {
                        return Err(CleanError::UnknownTuple { tuple: *t, rows });
                    }
                    rows -= 1;
                }
            }
        }
        Ok(())
    }

    /// Mark every block with a non-zero touched-group count **fully** dirty
    /// (structural changes: inserts, deletes).
    fn mark_fully_dirty(&mut self, touched_groups: &[usize]) {
        for (cache, &touched) in self.caches.iter_mut().zip(touched_groups) {
            if touched > 0 {
                cache.fully_dirty = true;
            }
        }
    }

    /// Mark the specific group keys a pure cell update touched (per block:
    /// the tuple's old group key, plus its new one when it rehomed).
    fn mark_dirty_keys(&mut self, touched: &[Vec<Vec<ValueId>>]) {
        for (cache, keys) in self.caches.iter_mut().zip(touched) {
            for key in keys {
                cache.dirty_keys.insert(key.clone());
            }
        }
    }

    /// Re-run Stage I on the dirty blocks' affected groups, from their
    /// pristine state, and refresh the cleaned index, the per-block
    /// provenance and the per-group clean cache.  Clean blocks — and clean
    /// groups of dirty blocks — keep their cached state: their pristine
    /// content is exactly what a full rebuild would produce, so the cached
    /// cleaned state is too.
    fn refresh(&mut self) {
        // A dirty block between the two refresh passes: index, owned cache,
        // fresh softmax support Z, and the AGP plan (`None` when injected
        // weights force the traditional whole-block path).
        type PlannedBlock = (usize, BlockCache, usize, Option<(AgpPlan, CacheStats)>);

        let dirty_idx: Vec<usize> = (0..self.caches.len())
            .filter(|&i| self.caches[i].is_dirty())
            .collect();
        if dirty_idx.is_empty() {
            return;
        }

        // Dirty spilled blocks must be resident: the rebuild both reuses
        // their entries and derives fusion invalidation from the ones that
        // vanish.  (Clean spilled blocks stay on disk — that is the point.)
        self.lru_clock += 1;
        for &i in &dirty_idx {
            self.fault_in_block(i);
        }

        let parallel = self.config.parallel;
        let config = &self.config;
        let pristine = &self.pristine;
        let pool = pristine.pool();
        let injected = &self.injected;
        let metric = self.config.metric;

        // Take each dirty block's cache out so the worker owns it (the slot
        // keeps a fresh placeholder until write-back).
        let work: Vec<(usize, BlockCache)> = dirty_idx
            .iter()
            .map(|&i| {
                (
                    i,
                    std::mem::replace(&mut self.caches[i], BlockCache::new(metric)),
                )
            })
            .collect();

        // Pass 1 (timed as AGP): re-plan each dirty block's merges against
        // its pristine snapshot.  Planning is order-independent and cheap
        // relative to the γ-merging/weighting/scoring it steers, and a fresh
        // plan is what lets the rebuild pass below detect — per output group
        // — whether the cached entry's sources still hold.  Sessions with
        // injected weights skip planning: they take the traditional
        // whole-block path in pass 2.
        let started = Instant::now();
        let plan_one = |(i, mut cache): (usize, BlockCache)| {
            let block = &pristine.blocks[i];
            let z = block_support(block);
            if cache.last_z != Some(z) {
                // The block softmax denominator changed: every cached
                // group's probabilities are stale at once.
                cache.fully_dirty = true;
            }
            let plan = if injected.is_empty() {
                let before = cache.distances.stats();
                let plan =
                    AgpStage::processor(config).plan_block(block, pool, &mut cache.distances);
                let stats = stats_delta(before, cache.distances.stats());
                Some((plan, stats))
            } else {
                None
            };
            (i, cache, z, plan)
        };
        let planned: Vec<PlannedBlock> = if parallel {
            work.into_par_iter().map(plan_one).collect()
        } else {
            work.into_iter().map(plan_one).collect()
        };
        self.timings.agp += started.elapsed();

        // Pass 2 (timed as RSC; the closed-form per-group weighting rides
        // along — it is O(γs) and not worth its own wall-clock pass):
        // rebuild exactly the output groups whose sources changed, reuse
        // every other cached entry byte-for-byte.
        let started = Instant::now();
        let rebuild_one = |(i, cache, z, plan): PlannedBlock| {
            let block = &pristine.blocks[i];
            match plan {
                Some((plan, agp_stats)) => {
                    refresh_block_scoped(config, block, pool, cache, z, plan, agp_stats, i)
                }
                None => refresh_block_traditional(config, injected, block, pool, cache, z, i),
            }
        };
        let refreshed: Vec<RefreshedBlock> = if parallel {
            planned.into_par_iter().map(rebuild_one).collect()
        } else {
            planned.into_iter().map(rebuild_one).collect()
        };
        self.timings.rsc += started.elapsed();

        if self.dataset.pool().len() != self.cleaned.pool().len() {
            Arc::make_mut(&mut self.cleaned).sync_pool_from(self.dataset.pool());
        }
        let cleaned = Arc::make_mut(&mut self.cleaned);
        for refreshed in refreshed {
            cleaned.blocks[refreshed.block_idx] = refreshed.block;
            self.block_records[refreshed.block_idx] = refreshed.records;
            self.caches[refreshed.block_idx] = refreshed.cache;
            self.caches[refreshed.block_idx].last_touch = self.lru_clock;
            self.recleaned_groups += refreshed.recleaned;
            for t in refreshed.invalidated {
                if self.fusions[t.index()].take().is_some() {
                    self.memoised_fusions -= 1;
                }
            }
        }

        // Conflicted fusions read their covering blocks' substitution
        // candidate lists, which change whenever *any* group of a covering
        // block recomputes — invalidate them wholesale for every refreshed
        // block.  (Conflict-free fusions depend only on the tuple's own
        // versions, which the per-group invalidation above already covers.)
        for &i in &dirty_idx {
            for gamma in self.pristine.blocks[i].gammas() {
                for &t in &gamma.tuples {
                    if self.fusions[t.index()]
                        .as_ref()
                        .is_some_and(|f| f.conflict_detected)
                    {
                        self.fusions[t.index()] = None;
                        self.memoised_fusions -= 1;
                    }
                }
            }
        }
    }

    /// Make sure every tuple has a memoised fusion: refresh the dirty
    /// blocks, then (re)fuse exactly the invalidated tuples against a plan
    /// restricted to their covering blocks, folding each new fusion into the
    /// maintained repaired dataset.
    fn ensure_fusions(&mut self) {
        self.refresh();
        // Shed cold caches *before* the fusion allocations below, but do
        // not evict fusions here — the memo is about to be (re)filled, and
        // evicting entries just to re-derive them in the same call would
        // only churn.
        self.enforce_budget(false);
        let invalid: Vec<TupleId> = self
            .fusions
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.is_none().then_some(TupleId(i)))
            .collect();
        if invalid.is_empty() {
            return; // nothing invalidated — skip the plan build entirely
        }
        let started = Instant::now();
        let resolver = ConflictResolver::new(self.config.max_exhaustive_fusion);
        let plan = resolver.plan_for(&self.cleaned, &self.dataset, &self.rules, &invalid);
        // Fold each new fusion into the maintained repaired dataset: reset
        // the row to its dirty values (its previous fusion may have written
        // cells the new one no longer does), then write the fusion.
        for &t in &invalid {
            let fusion = resolver.fuse_tuple(&plan, t);
            for (a, &id) in self.dataset.row_ids(t).iter().enumerate() {
                self.repaired.set_value_id(t, AttrId(a), id);
            }
            write_tuple_fusion(&mut self.repaired, t, &fusion);
            self.fusions[t.index()] = Some(fusion);
        }
        self.memoised_fusions += invalid.len();
        self.timings.fscr += started.elapsed();
    }

    /// Rebuild the FSCR provenance from the memoised fusions (in tuple
    /// order, exactly like a batch run emits it) and compute the
    /// deduplicated output if configured — the shared tail of
    /// [`CleaningSession::outcome`] and [`CleaningSession::finish`].
    /// `ensure_fusions` must have run.
    fn assemble_records(&mut self) -> (FscrRecord, Option<Dataset>) {
        let started = Instant::now();
        let mut fscr = FscrRecord::default();
        for (i, fusion) in self.fusions.iter().enumerate() {
            let fusion = fusion.as_ref().expect("ensure_fusions ran");
            record_tuple_fusion(
                &self.dataset,
                self.cleaned.pool(),
                TupleId(i),
                fusion,
                &mut fscr,
            );
        }
        self.timings.fscr += started.elapsed();

        let deduplicated = if self.config.deduplicate {
            let started = Instant::now();
            let deduplicated = self.repaired.deduplicated();
            self.timings.dedup += started.elapsed();
            Some(deduplicated)
        } else {
            None
        };
        (fscr, deduplicated)
    }

    /// Re-clean whatever is dirty and produce the full [`Report`] over the
    /// net rows ingested so far — byte-identical (output CSV and
    /// AGP/RSC/FSCR provenance) to a single `MlnClean::clean` batch run on
    /// the accumulated surviving data.
    ///
    /// Can be called after every change set; only the work made necessary by
    /// the mutations since the previous call is redone, and the snapshot
    /// cost is one repaired-dataset copy plus an `Arc` bump of the cleaned
    /// index (the session maintains the repaired dataset incrementally
    /// instead of re-deriving it per call).  [`CleaningSession::finish`]
    /// moves the state out instead.
    pub fn outcome(&mut self) -> Report {
        self.ensure_fusions();
        let (fscr, deduplicated) = self.assemble_records();
        let (agp, rsc) = collect_stage_records(&self.block_records);
        // Post-outcome every block is clean and every fusion memoised — the
        // session's widest footprint.  Shed back under the budget before
        // handing the report out (the next outcome re-derives evictions).
        self.enforce_budget(true);
        Report {
            repaired: self.repaired.clone(),
            deduplicated,
            index: Some(Arc::clone(&self.cleaned)),
            agp,
            rsc,
            fscr,
            timings: self.timings,
            partitions: None,
        }
    }

    /// Close the session, producing the final [`Report`].
    ///
    /// Unlike [`CleaningSession::outcome`] this moves the maintained
    /// repaired dataset and the cleaned index into the report, so the batch
    /// wrapper [`crate::MlnClean::clean`] pays no extra copies over the
    /// historical monolithic pipeline.
    pub fn finish(mut self) -> Report {
        self.ensure_fusions();
        let (fscr, deduplicated) = self.assemble_records();
        let (agp, rsc) = collect_stage_records(&self.block_records);
        Report {
            repaired: self.repaired,
            deduplicated,
            index: Some(self.cleaned),
            agp,
            rsc,
            fscr,
            timings: self.timings,
            partitions: None,
        }
    }
}

/// Refresh one dirty block the group-scoped way: derive the post-AGP output
/// layout from the fresh plan, then rebuild only the output groups whose
/// source set changed (or whose sources are marked dirty), reusing every
/// other cached [`GroupEntry`] byte-for-byte.
///
/// Soundness of the reuse: the plan is recomputed from the current pristine
/// snapshot every refresh, so any drift in merge *decisions* shows up as a
/// changed source list; any drift in group *content* was recorded as a dirty
/// key (pure updates) or as `fully_dirty` (inserts, deletes, support
/// changes) when the mutation applied.  Weights only depend on `(own
/// support, z)` and `z` is pinned by the `last_z` check, RSC is group-local,
/// so an entry whose sources are clean and unchanged is exactly what the
/// rebuild would recompute.
#[allow(clippy::too_many_arguments)]
fn refresh_block_scoped(
    config: &CleanConfig,
    pristine: &Block,
    pool: &ValuePool,
    mut cache: BlockCache,
    z: usize,
    plan: AgpPlan,
    agp_stats: CacheStats,
    block_idx: usize,
) -> RefreshedBlock {
    // Post-AGP output layout (matching `apply_plan` exactly): surviving
    // normal groups in pristine order, each with its merged-in abnormals in
    // plan order, then target-less abnormals at the end.
    let n = pristine.groups.len();
    let mut is_abnormal = vec![false; n];
    for &ai in &plan.abnormal {
        is_abnormal[ai] = true;
    }
    let mut merged_into: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut unmerged: Vec<usize> = Vec::new();
    for (&ai, &target) in plan.abnormal.iter().zip(&plan.targets) {
        match target {
            Some(ti) => merged_into[ti].push(ai),
            None => unmerged.push(ai),
        }
    }
    let mut outputs: Vec<(usize, Vec<usize>)> = Vec::with_capacity(n);
    for lead in 0..n {
        if is_abnormal[lead] {
            continue;
        }
        let mut sources = vec![lead];
        sources.extend(merged_into[lead].iter().copied());
        outputs.push((lead, sources));
    }
    for &ai in &unmerged {
        outputs.push((ai, vec![ai]));
    }

    let cleaner = ReliabilityCleaner::new(config.metric);
    let rsc_before = cache.distances.stats();
    let mut entries: HashMap<Vec<ValueId>, GroupEntry> = HashMap::with_capacity(outputs.len());
    let mut groups: Vec<Group> = Vec::with_capacity(outputs.len());
    let mut repairs: Vec<RscRepair> = Vec::new();
    let mut invalidated: Vec<TupleId> = Vec::new();
    let mut recleaned = 0u64;

    for (lead, source_idx) in outputs {
        let key = pristine.groups[lead].key.clone();
        let sources: Vec<Vec<ValueId>> = source_idx
            .iter()
            .map(|&s| pristine.groups[s].key.clone())
            .collect();
        let reusable = !cache.fully_dirty
            && !sources.iter().any(|s| cache.dirty_keys.contains(s))
            && cache
                .entries
                .get(&key)
                .is_some_and(|entry| entry.sources == sources);
        if reusable {
            let entry = cache.entries.remove(&key).expect("probed just above");
            groups.push(entry.group.clone());
            repairs.extend(entry.repairs.iter().cloned());
            entries.insert(key, entry);
            continue;
        }

        recleaned += 1;
        // Rebuild: merge the source γs the way `apply_plan` does …
        let mut group = pristine.groups[lead].clone();
        for &ai in &source_idx[1..] {
            group.absorb_gammas(pristine.groups[ai].gammas.iter().cloned());
        }
        // … weight against the block-wide Z (AGP merges preserve it) …
        assign_group_weights(&mut group, z);
        // … and clean the group in place.
        let group_repairs =
            cleaner.clean_group(pristine.rule, &mut group, pool, &mut cache.distances);
        invalidated.extend(group.all_tuples());
        if let Some(old) = cache.entries.remove(&key) {
            invalidated.extend(old.group.all_tuples());
        }
        repairs.extend(group_repairs.iter().cloned());
        groups.push(group.clone());
        entries.insert(
            key,
            GroupEntry {
                sources,
                group,
                repairs: group_repairs,
            },
        );
    }

    // Output groups that disappeared since the last refresh: their tuples
    // live somewhere else now; re-fuse them.
    for (_, old) in cache.entries.drain() {
        invalidated.extend(old.group.all_tuples());
    }

    let rsc_stats = stats_delta(rsc_before, cache.distances.stats());
    cache.entries = entries;
    cache.last_z = Some(z);
    cache.dirty_keys.clear();
    cache.fully_dirty = false;

    let mut agp = plan.record;
    agp.cache = agp_stats;
    RefreshedBlock {
        block_idx,
        block: Block {
            rule: pristine.rule,
            reason_attrs: pristine.reason_attrs.clone(),
            result_attrs: pristine.result_attrs.clone(),
            groups,
        },
        records: BlockRecords {
            agp,
            rsc: RscRecord {
                repairs,
                cache: rsc_stats,
            },
        },
        cache,
        invalidated,
        recleaned,
    }
}

/// Refresh one dirty block the traditional whole-block way — the path for
/// sessions with injected weights, whose block-wide renormalization defeats
/// group-scoped reuse.  The group cache is dropped (it would hold
/// injected-weight state a later closed-form rebuild must not reuse) and
/// every covered tuple is invalidated.
fn refresh_block_traditional(
    config: &CleanConfig,
    injected: &SessionWeights,
    pristine: &Block,
    pool: &ValuePool,
    mut cache: BlockCache,
    z: usize,
    block_idx: usize,
) -> RefreshedBlock {
    let mut block = pristine.clone();
    let agp = AgpStage::run_block(config, &mut block, pool);
    WeightLearningStage::run_block(&mut block);
    injected.apply_to_block(&mut block, pool);
    let rsc = RscStage::run_block(config, &mut block, pool);

    let mut invalidated: Vec<TupleId> = pristine
        .gammas()
        .flat_map(|g| g.tuples.iter().copied())
        .collect();
    for (_, old) in cache.entries.drain() {
        invalidated.extend(old.group.all_tuples());
    }
    let recleaned = block.group_count() as u64;
    cache.last_z = Some(z);
    cache.dirty_keys.clear();
    cache.fully_dirty = false;

    RefreshedBlock {
        block_idx,
        block,
        records: BlockRecords { agp, rsc },
        cache,
        invalidated,
        recleaned,
    }
}

/// Estimated evictable heap per memoised fusion: the `Option<TupleFusion>`
/// slot's fused-assignment buffer plus allocator slack.  The slots
/// themselves (the `Vec`'s inline buffer) are not evictable and therefore
/// not budgeted.
const FUSION_SLOT_BYTES: usize = 64;

/// Hash-table overhead per cache entry (control bytes plus slack).
const HASH_SLOT_BYTES: usize = 16;

/// Estimated bytes per memoised distance pair: the memo's entry (exact
/// distance or lower bound, whatever shape it has) plus hash-table overhead.
const DISTANCE_PAIR_BYTES: usize = DistanceCache::ENTRY_BYTES + HASH_SLOT_BYTES;

/// Estimated resident bytes of one block cache (zero once spilled): the
/// distance memo plus every [`GroupEntry`]'s owned buffers.  Counts what
/// spilling the block would free, which is all the budget policy needs.
fn approx_cache_bytes(cache: &BlockCache) -> usize {
    let mut bytes = cache.distances.len() * DISTANCE_PAIR_BYTES;
    for (key, entry) in &cache.entries {
        bytes += approx_entry_bytes(key, entry);
    }
    bytes
}

/// Estimated bytes of one cached output-group entry.
fn approx_entry_bytes(key: &[ValueId], entry: &GroupEntry) -> usize {
    let mut bytes = std::mem::size_of::<GroupEntry>()
        + std::mem::size_of::<Vec<ValueId>>()
        + HASH_SLOT_BYTES
        + std::mem::size_of_val(key);
    for source in &entry.sources {
        bytes += std::mem::size_of::<Vec<ValueId>>() + std::mem::size_of_val(source.as_slice());
    }
    bytes += approx_group_bytes(&entry.group);
    for repair in &entry.repairs {
        bytes += std::mem::size_of_val(repair)
            + std::mem::size_of_val(repair.tuples.as_slice())
            + repair
                .group_key
                .iter()
                .chain(&repair.from_values)
                .chain(&repair.to_values)
                .map(|s| std::mem::size_of::<String>() + s.len())
                .sum::<usize>();
    }
    bytes
}

/// Estimated bytes of one [`Group`]'s owned buffers.
fn approx_group_bytes(group: &Group) -> usize {
    let mut bytes = std::mem::size_of_val(group.key.as_slice());
    for gamma in &group.gammas {
        bytes += std::mem::size_of_val(gamma)
            + std::mem::size_of_val(gamma.reason_values.as_slice())
            + std::mem::size_of_val(gamma.result_values.as_slice())
            + std::mem::size_of_val(gamma.tuples.as_slice());
    }
    bytes
}

/// The growth of a [`DistanceCache`]'s counters between two snapshots.
fn stats_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
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

/// Accumulate which blocks a mutation touched (non-zero touched-group
/// count) into the change set's per-block flags.
fn record_touched(touched_blocks: &mut [bool], touched_groups: &[usize]) {
    for (flag, &touched) in touched_blocks.iter_mut().zip(touched_groups) {
        if touched > 0 {
            *flag = true;
        }
    }
}

/// Accumulate which blocks a cell update touched (non-empty touched-key
/// list) into the change set's per-block flags.
fn record_touched_keys(touched_blocks: &mut [bool], touched: &[Vec<Vec<ValueId>>]) {
    for (flag, keys) in touched_blocks.iter_mut().zip(touched) {
        if !keys.is_empty() {
            *flag = true;
        }
    }
}

/// Shift the cached per-block provenance past removed rows: tuple ids in AGP
/// merges and RSC repairs decrement by the number of removed ids below them
/// (exact matches are dropped; they only occur in records of blocks that are
/// dirty and about to be regenerated anyway).  `removed` must be sorted,
/// deduplicated pre-removal row indices.
fn remap_records_after_removal(records: &mut BlockRecords, removed: &[usize]) {
    for merge in &mut records.agp.merges {
        dataset::remap_ids_after_removal(&mut merge.tuples, removed);
    }
    for repair in &mut records.rsc.repairs {
        dataset::remap_ids_after_removal(&mut repair.tuples, removed);
    }
}

/// Shift a block cache's per-group clean state past removed rows, like
/// [`remap_records_after_removal`] does for the provenance.  Blocks the
/// removal touched are fully dirty and will rebuild from pristine anyway;
/// untouched blocks never contained the removed tuples, so the shift keeps
/// their entries byte-identical to a post-removal rebuild.
fn remap_cache_after_removal(cache: &mut BlockCache, removed: &[usize]) {
    for entry in cache.entries.values_mut() {
        for gamma in &mut entry.group.gammas {
            dataset::remap_ids_after_removal(&mut gamma.tuples, removed);
        }
        for repair in &mut entry.repairs {
            dataset::remap_ids_after_removal(&mut repair.tuples, removed);
        }
    }
}

/// Concatenate the cached per-block provenance in block order — exactly the
/// order the whole-index stage runs emit their records in.
fn collect_stage_records(block_records: &[BlockRecords]) -> (AgpRecord, RscRecord) {
    let mut agp = AgpRecord::default();
    let mut rsc = RscRecord::default();
    for records in block_records {
        agp.merges.extend_from_slice(&records.agp.merges);
        agp.cache.absorb(records.agp.cache);
        rsc.repairs.extend_from_slice(&records.rsc.repairs);
        rsc.cache.absorb(records.rsc.cache);
    }
    (agp, rsc)
}
