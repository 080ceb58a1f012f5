//! The one per-block Stage-I driver: [`StageOne`] owns the **cleaned** index
//! — per block, the post-AGP/weights/RSC state of its last refresh — with
//! the per-block provenance and the per-block clean caches, and
//! [`StageOne::refresh`] is the only place the per-block sequence of the
//! paper's first stage (AGP §5.1.1 → Eq. 3 weights → RSC §5.1.2) is driven.
//!
//! The paper cleans "multiple data versions separately": blocks never see
//! each other, so a caller only has to say *which* blocks changed and hand
//! over their **pristine** (pre-Stage-I) state.  Two callers do:
//!
//! * [`crate::CleaningSession`] passes the blocks of its incrementally
//!   maintained pristine index, marking dirty the group keys each update,
//!   insert and delete touched;
//! * the distributed streaming coordinator passes the global blocks it
//!   merged from its partitions' pristine blocks, marked fully dirty.
//!
//! A refresh re-plans the dirty block's AGP merges — order-independent, and
//! against the block's plan memo, so the distance probes it makes are
//! proportional to the groups whose signature changed since the last
//! refresh, not to the block (see `AbnormalGroupProcessor::plan_block`;
//! only a block's *first* plan searches for every abnormal group from
//! nothing) — lays the post-AGP output groups out, and then rebuilds
//! **only** the output groups whose sources changed: merge the source γs,
//! weight them in closed form ([`assign_group_weights`], whose denominator
//! is the block's total support and therefore survives any within-block
//! merge), clean the group with RSC.
//! Every other output group is moved over from the block's last refresh
//! byte for byte, with its repairs — when an insert or a delete moved the
//! block's total support `Z`, with its probability rewritten from the
//! support it was weighted with ([`probability`]).  Its tuples keep their
//! versions, so they are not handed to Stage II: the block is listed in
//! [`Refreshed::rescaled`], and Stage II re-scores the fusions a new `Z`
//! cannot change and re-fuses only those it can.  RSC reads `Z` only
//! through the factor `1/Z` every score of a group shares, so its choice
//! stands at any `Z`, up to float rounding: a group whose winner sat within
//! a rounding margin of a loser's is flagged when cleaned and rebuilt
//! whenever `Z` moves.  There is one
//! mode: a fully dirty block is the same refresh with every group rebuilt.
//! Either way the refreshed block is exactly what the whole-block
//! composition (AGP, then block weights, then RSC) produces; the tests pin
//! that block for block.
//!
//! **One copy of the output.**  A block's cleaned groups live only in the
//! cleaned index, and its repairs only in its RSC record.  The per-group
//! cache keeps what decides a reuse (the group's sources) and where the
//! group's state lives: its slot in the cleaned block and its range of the
//! block's repairs.  A refresh takes a dirty block's last groups and repairs
//! out of the index — made unique once, when a report still held shares it
//! — and moves each reused group and its repairs into the new block.  A
//! rebuilt or vanished group's tuples are read from its old slot.
//!
//! Under a [`CleanConfig::memory_budget`] the driver also estimates the
//! resident size of its blocks' distance and plan memos and resets those of
//! clean blocks, coldest first ([`StageOne::enforce_budget`]).  The memos are
//! accelerators, not state: a block whose memos were dropped re-plans as if
//! for the first time, to the same output.  The reuse entries are state —
//! the next refresh derives fusion invalidation from them — so they stay
//! resident, like the cleaned index and the provenance.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::agp::{AbnormalGroupProcessor, AgpPlan, AgpRecord, PlanMemo};
use crate::cache::{CacheStats, DistanceCache};
use crate::engine::Timings;
use crate::index::{Block, Group, MlnIndex};
use crate::map_ordered;
use crate::rsc::{ReliabilityCleaner, RscRecord, RscRepair};
use crate::weights::{assign_group_weights, block_support, probability};
use crate::CleanConfig;
use dataset::{TupleId, ValueId, ValuePool};
use distance::Metric;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cached post-Stage-I provenance of one block.
#[derive(Debug, Clone, Default)]
struct BlockRecords {
    agp: AgpRecord,
    rsc: RscRecord,
}

/// The cache entry of one **output group** of a block — what the
/// group-scoped refresh needs to reuse the group when nothing feeding it
/// changed.  The group's cleaned state is not here: it is the cleaned
/// block's group at `slot`, and the block's repairs
/// `repairs_start..repairs_end`.
#[derive(Debug, Clone)]
#[deny(clippy::disallowed_types)] // One copy of Stage I's output (clippy.toml).
struct GroupEntry {
    /// Pristine group keys fused into this output group: the group's own key
    /// first, then the AGP-merged abnormal keys in merge order.  A reuse is
    /// only sound when the fresh plan derives the exact same source list.
    sources: Vec<Vec<ValueId>>,
    /// The output group's position in the cleaned block.
    slot: usize,
    /// The repairs cleaning this group produced: this range of the block's
    /// RSC record.
    repairs_start: usize,
    repairs_end: usize,
    /// The surviving γ's support when it was weighted (before RSC merged the
    /// losers' tuples in): a reuse under a moved block total `Z` rewrites
    /// its probability as `evidence / Z` ([`probability`]).
    evidence: usize,
    /// RSC's winner sat within a float margin of a loser's, so it may
    /// change with `Z`: a reuse under a moved `Z` rebuilds the group instead.
    z_sensitive: bool,
}

/// A dirty block's output as its last refresh left it, taken out of the
/// cleaned index and the block's RSC record for the rebuild to move from.
#[derive(Debug, Default)]
struct OldOutput {
    groups: Vec<Group>,
    repairs: Vec<RscRepair>,
}

/// Per-block dirtiness and group-scoped clean cache.
#[derive(Debug, Clone)]
struct BlockCache {
    /// The block's total tuple support (the closed-form softmax denominator,
    /// [`block_support`]) at the last refresh — `None` before the first.
    /// Every group's probabilities divide by this Z: when a support change
    /// (inserts, deletes, a CFD flipping a tuple's relevance) moves it, a
    /// reused group's probability is rewritten from its entry's `evidence`
    /// and the block is reported [`Refreshed::rescaled`].
    last_z: Option<usize>,
    /// Pristine group keys whose content changed since the last refresh —
    /// the groups an update, an insert or a delete touched.
    dirty_keys: HashSet<Vec<ValueId>>,
    /// Re-clean every group at the next refresh (a block never refreshed,
    /// or merged evidence the caller cannot name keys for).
    fully_dirty: bool,
    /// Reuse state per output-group key.
    entries: HashMap<Vec<ValueId>, GroupEntry>,
    /// Persistent distance memo shared by AGP planning and RSC scoring
    /// across refreshes of this block.
    distances: DistanceCache,
    /// What the last AGP plan of this block decided, so the next one probes
    /// only around the groups whose signature changed.
    plan: PlanMemo,
    /// LRU tick of the block's last refresh — the order the budget drops
    /// memos in (coldest first).
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
            plan: PlanMemo::default(),
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
    block: Block,
    records: BlockRecords,
    cache: BlockCache,
    /// Tuples whose data versions changed: they sit in a recomputed output
    /// group, or sat in an old one that was rebuilt or no longer exists.
    invalidated: Vec<TupleId>,
    /// The block's total support moved: its reused groups were rescaled.
    rescaled: bool,
    /// Output groups Stage I actually recomputed (vs reused from cache).
    recleaned: u64,
    /// Abnormal groups the plan searched for from nothing.
    rescanned: u64,
    /// Time spent weighting the recomputed groups.
    weighting: Duration,
}

/// What one [`StageOne::refresh`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Refreshed {
    /// The blocks that were refreshed, ascending.
    pub blocks: Vec<usize>,
    /// Tuples whose data versions may have changed — [`crate::StageTwo`]
    /// re-fuses them.  An over-approximation (every tuple of every
    /// recomputed output group and of cache entries that vanished), possibly
    /// with repeats.  A reused group's tuples are not listed, also where a
    /// moved total support rescaled its probabilities: their versions are
    /// the same γs, and Stage II tells from `rescaled` which fusions a new
    /// `Z` can change.
    pub invalidated: Vec<TupleId>,
    /// The refreshed blocks whose total support `Z` moved (every reused
    /// group's probability was rewritten), ascending.
    pub rescaled: Vec<usize>,
}

/// What the memory budget of a session or streaming coordinator shed — see
/// [`crate::CleaningSession::memory_stats`].  All zero when no
/// [`CleanConfig::memory_budget`] is set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Blocks whose distance and plan memos the budget reset (cumulative; a
    /// block dropped, re-planned and dropped again counts twice).
    pub dropped_memos: u64,
    /// Memoised per-tuple fusions evicted by the budget (each is re-derived
    /// deterministically at the next outcome).
    pub evicted_fusions: u64,
}

/// The per-block Stage-I driver — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct StageOne {
    config: CleanConfig,
    /// Per block: the post-AGP/weights/RSC state of the last refresh — the
    /// one copy of the cleaned groups.  Shared with every report handed out
    /// so far (copy-on-write: the next refresh that must mutate it clones
    /// only then).
    cleaned: Arc<MlnIndex>,
    /// Per block: its provenance — the one copy of its repairs.
    records: Vec<BlockRecords>,
    /// Per block: group-scoped dirtiness and the reuse entries.
    caches: Vec<BlockCache>,
    /// Cumulative output groups recomputed — see
    /// [`StageOne::recleaned_groups`].
    recleaned_groups: u64,
    /// Cumulative nearest-normal searches from nothing — see
    /// [`StageOne::rescanned_groups`].
    rescanned_groups: u64,
    /// Monotonic clock stamping block refreshes for LRU victim selection.
    lru_clock: u64,
    /// Budget accounting (`evicted_fusions` is [`crate::StageTwo`]'s to
    /// count).
    memory: MemoryStats,
}

impl StageOne {
    /// A driver over `empty`'s blocks — the index of the caller's rule set
    /// over no rows, so the cleaned index carries one (group-less) block per
    /// rule from the start.  Nothing is dirty yet.
    pub fn new(config: CleanConfig, empty: MlnIndex) -> Self {
        let blocks = empty.block_count();
        StageOne {
            records: vec![BlockRecords::default(); blocks],
            caches: vec![BlockCache::new(config.metric); blocks],
            config,
            cleaned: Arc::new(empty),
            recleaned_groups: 0,
            rescanned_groups: 0,
            lru_clock: 0,
            memory: MemoryStats::default(),
        }
    }

    /// The cleaned index: per block, the state of its last refresh.
    pub fn cleaned(&self) -> &Arc<MlnIndex> {
        &self.cleaned
    }

    /// Catch the cleaned index's pool snapshot up to `pool`, an append-only
    /// descendant of it (values interned since must resolve there even when
    /// no block went dirty).  The first call adopts `pool`'s id table — a
    /// reference bump — and later ones append only the new tail
    /// ([`ValuePool::sync_from`]); nothing is hashed.
    pub fn sync_pool(&mut self, pool: &ValuePool) {
        if pool.len() != self.cleaned.pool().len() {
            Arc::make_mut(&mut self.cleaned).sync_pool_from(pool);
        }
    }

    /// Mark a block **fully** dirty: every group is rebuilt at the next
    /// refresh (merged evidence whose keys the caller does not track).
    pub fn mark_block_dirty(&mut self, block: usize) {
        self.caches[block].fully_dirty = true;
    }

    /// Mark specific pristine group keys of a block dirty — the groups an
    /// update re-homed a tuple across, or an insert or a delete added a
    /// tuple to or took one from: only the output groups they feed are
    /// rebuilt.  A block that was never refreshed, or is fully dirty
    /// already, rebuilds every group anyway, so it takes any key as fully
    /// dirty and stores none (a bulk load keeps no key set).
    pub fn mark_keys_dirty(&mut self, block: usize, keys: &[Vec<ValueId>]) {
        if keys.is_empty() {
            return;
        }
        let cache = &mut self.caches[block];
        if cache.fully_dirty || cache.last_z.is_none() {
            cache.fully_dirty = true;
        } else {
            cache.dirty_keys.extend(keys.iter().cloned());
        }
    }

    /// The blocks the next refresh must revisit, ascending.
    pub fn dirty_blocks(&self) -> Vec<usize> {
        (0..self.caches.len())
            .filter(|&i| self.caches[i].is_dirty())
            .collect()
    }

    /// Cumulative number of output groups actually recomputed across all
    /// refreshes (vs served from cache) — the incrementality probe.
    pub fn recleaned_groups(&self) -> u64 {
        self.recleaned_groups
    }

    /// Cumulative number of abnormal groups whose nearest-normal search
    /// started from nothing (no standing incumbent), vs from the group the
    /// last plan found — [`StageOne::recleaned_groups`]' sibling for the AGP
    /// plan: every abnormal group on a block's first refresh, afterwards
    /// only those whose own signature, or whose remembered target's, changed.
    pub fn rescanned_groups(&self) -> u64 {
        self.rescanned_groups
    }

    /// The memo-drop counter (`evicted_fusions` stays zero here: the fusion
    /// memo is [`crate::StageTwo`]'s, whose `memory_stats` adds it).
    pub fn memory_stats(&self) -> MemoryStats {
        self.memory
    }

    /// The per-block provenance concatenated in block order — exactly the
    /// order the whole-index stage runs emit their records in.
    pub fn records(&self) -> (AgpRecord, RscRecord) {
        concat_records(self.records.clone())
    }

    /// [`StageOne::records`] on the driver's last use: the records move out,
    /// uncopied.
    pub fn into_records(self) -> (AgpRecord, RscRecord) {
        concat_records(self.records)
    }

    /// Re-run Stage I on the listed blocks that are dirty — `(block index,
    /// its pristine state)`, ascending, ids resolving through `pool` — and
    /// refresh the cleaned index, the per-block provenance and the per-group
    /// caches.  Clean blocks, and clean groups of dirty blocks, keep their
    /// cleaned state, moved rather than copied: their pristine content is
    /// exactly what a full rebuild would see, so their cleaned state is too.
    /// The AGP pass is added to `timings.agp`; of the rebuild pass, the
    /// closed-form weighting of the rebuilt groups (one clock per block) to
    /// `timings.weight_learning` and the rest to `timings.rsc`.  A call with
    /// nothing dirty is free.
    pub fn refresh(
        &mut self,
        pristine: &[(usize, &Block)],
        pool: &ValuePool,
        timings: &mut Timings,
    ) -> Refreshed {
        let mut out = Refreshed::default();
        // Take each dirty block's cache out so the worker owns it (the slot
        // keeps a fresh placeholder until write-back).
        let mut work: Vec<(usize, &Block, BlockCache, OldOutput)> = Vec::new();
        for &(i, block) in pristine {
            if self.caches[i].is_dirty() {
                let placeholder = BlockCache::new(self.config.metric);
                let cache = std::mem::replace(&mut self.caches[i], placeholder);
                work.push((i, block, cache, OldOutput::default()));
            }
        }
        if work.is_empty() {
            return out;
        }
        self.lru_clock += 1;
        // Each dirty block's last output leaves the cleaned index — made
        // unique here, once, when a report still holds it — and the block's
        // record, so the rebuild moves the groups and repairs it reuses.
        self.sync_pool(pool);
        let cleaned = Arc::make_mut(&mut self.cleaned);
        for (i, _, _, old) in &mut work {
            old.groups = std::mem::take(&mut cleaned.blocks[*i].groups);
            old.repairs = std::mem::take(&mut *self.records[*i].rsc.repairs);
        }
        let config = &self.config;

        // Pass 1 (timed as AGP): re-plan each dirty block's merges against
        // its pristine snapshot.  Planning is order-independent, and through
        // the block's plan memo its searches are proportional to the groups
        // whose signature changed — the memo checks itself against the
        // snapshot, so a fully dirty block is planned no differently; a
        // fresh plan is what lets the rebuild pass below detect — per output
        // group — whether the cached entry's sources still hold.
        let started = Instant::now();
        let planned = map_ordered(config.parallel, work, |(i, block, mut cache, old)| {
            let z = block_support(block);
            let before = cache.distances.stats();
            let mut plan = AbnormalGroupProcessor::from_config(config).plan_block(
                block,
                pool,
                &mut cache.distances,
                &mut cache.plan,
            );
            plan.record.cache = stats_delta(before, cache.distances.stats());
            (i, block, cache, old, z, plan)
        });
        timings.agp += started.elapsed();

        // Pass 2 (timed as RSC, less the closed-form weighting each block
        // clocks on its own): rebuild exactly the output groups whose
        // sources changed, move every other one over byte-for-byte.
        let started = Instant::now();
        let refreshed = map_ordered(
            config.parallel,
            planned,
            |(i, block, cache, old, z, plan)| {
                (i, refresh_block(config, block, pool, cache, old, z, plan))
            },
        );
        let weighting: Duration = refreshed.iter().map(|(_, r)| r.weighting).sum();
        timings.weight_learning += weighting;
        timings.rsc += started.elapsed().saturating_sub(weighting);

        for (i, refreshed) in refreshed {
            cleaned.blocks[i] = refreshed.block;
            self.records[i] = refreshed.records;
            self.caches[i] = refreshed.cache;
            self.caches[i].last_touch = self.lru_clock;
            self.recleaned_groups += refreshed.recleaned;
            self.rescanned_groups += refreshed.rescanned;
            out.blocks.push(i);
            if refreshed.rescaled {
                out.rescaled.push(i);
            }
            out.invalidated.extend(refreshed.invalidated);
        }
        out
    }

    /// Shift the cleaned blocks and the provenance — which live in tuple-id
    /// space — down past removed rows (`removed`: sorted, deduplicated
    /// pre-removal row indices; exact matches are dropped).  The caller
    /// marks the group keys the removal touched dirty, and the output groups
    /// they feed get rebuilt from pristine at the next refresh; untouched
    /// groups never contained the tuples, so the shift alone keeps their
    /// state what a run over the survivors would produce, up to the
    /// probabilities the refresh rescales.  The shift moves no group and no
    /// repair, so every cache entry still names its slot and its repairs;
    /// the entries and the distance and plan memos hold value ids only.
    pub fn remap_removed(&mut self, removed: &[usize]) {
        Arc::make_mut(&mut self.cleaned).remap_removed(removed);
        for records in &mut self.records {
            for merge in records.agp.merges.iter_mut() {
                dataset::remap_ids_after_removal(&mut merge.tuples, removed);
            }
            for repair in records.rsc.repairs.iter_mut() {
                dataset::remap_ids_after_removal(&mut repair.tuples, removed);
            }
        }
    }

    /// Estimated resident bytes of the blocks' distance and plan memos —
    /// what the budget can free.  A count-based heuristic (exact sizing
    /// would cost more than the memos are worth), consistent across calls,
    /// which is all the budget policy needs.
    pub fn resident_estimate(&self) -> usize {
        self.caches.iter().map(approx_memo_bytes).sum()
    }

    /// Drop clean blocks' distance and plan memos, coldest first, until
    /// `outside` (the fusion memo's evictable bytes under the same budget)
    /// plus [`StageOne::resident_estimate`] fits
    /// [`CleanConfig::memory_budget`] or no clean block holds a memo.
    /// Returns the estimated total still resident (`outside` included);
    /// no-op without a budget.  The memos are pure accelerators whose
    /// hit/miss statistics are excluded from provenance equality, so a block
    /// that re-plans over cold memos is byte-identity-safe.
    pub fn enforce_budget(&mut self, outside: usize) -> usize {
        let mut resident = outside + self.resident_estimate();
        let Some(budget) = self.config.memory_budget else {
            return resident;
        };
        if resident <= budget {
            return resident;
        }
        let mut victims: Vec<(u64, usize, usize)> = self
            .caches
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_dirty())
            .map(|(i, c)| (c.last_touch, i, approx_memo_bytes(c)))
            .filter(|&(_, _, bytes)| bytes > 0)
            .collect();
        victims.sort_unstable();
        for (_, i, freed) in victims {
            let cache = &mut self.caches[i];
            cache.distances = DistanceCache::new(self.config.metric);
            cache.plan = PlanMemo::default();
            self.memory.dropped_memos += 1;
            resident -= freed;
            if resident <= budget {
                break;
            }
        }
        resident
    }
}

/// Refresh one dirty block: derive the post-AGP output layout from the fresh
/// plan, then rebuild only the output groups whose source set changed (or
/// whose sources are marked dirty), and move every other group of `old` —
/// the block's last output — over with its repairs, byte-for-byte.
///
/// Soundness of the reuse: the plan is recomputed from the current pristine
/// snapshot every refresh, so any drift in merge *decisions* shows up as a
/// changed source list; any drift in group *content* was recorded as a dirty
/// key when the mutation applied (the keys an update, insert or delete
/// touched).  RSC is group-local and its decision reads `Z` only through the
/// factor `1/Z` every score of the group shares — up to float rounding,
/// which the entry's `z_sensitive` flag rules out (such a group is rebuilt
/// whenever `Z` moved).  Weights depend on the γ's own support alone, and
/// probabilities on `(own support, z)`: a reused group under a moved `z`
/// gets `evidence / z` written through the one expression the rebuild uses,
/// bit for bit.  So an old group whose sources are clean and unchanged is
/// exactly what the rebuild would recompute — and its tuples keep their
/// versions: only rebuilt and vanished groups invalidate tuples.  Its entry
/// names where it sits in `old`: the cleaned block and its record change
/// only here, where the entries are rewritten with them, and a delete's id
/// shift moves no group or repair.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)] // Provenance holds ids.
fn refresh_block(
    config: &CleanConfig,
    pristine: &Block,
    pool: &ValuePool,
    mut cache: BlockCache,
    mut old: OldOutput,
    z: usize,
    plan: AgpPlan,
) -> RefreshedBlock {
    // A reused group's probability divides by Z: did it move since then?
    let z_moved = cache.last_z != Some(z);

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

    // An output group between the steps below: moved over from `old` under
    // its key and entry, or merged from these sources and still to be
    // weighted and cleaned.
    enum Slot {
        Reused(Vec<ValueId>, GroupEntry),
        Rebuilt(Vec<Vec<ValueId>>),
    }

    // Step 1: lay every output group out.
    let mut block = Block {
        rule: pristine.rule,
        reason_attrs: pristine.reason_attrs.clone(),
        result_attrs: pristine.result_attrs.clone(),
        groups: Vec::with_capacity(outputs.len()),
    };
    let mut slots: Vec<Slot> = Vec::with_capacity(outputs.len());
    for (lead, source_idx) in outputs {
        let key = pristine.groups[lead].key.as_slice();
        let sources = || {
            source_idx
                .iter()
                .map(|&s| pristine.groups[s].key.as_slice())
        };
        let reusable = !cache.fully_dirty
            && !sources().any(|s| cache.dirty_keys.contains(s))
            && cache.entries.get(key).is_some_and(|entry| {
                !(z_moved && entry.z_sensitive)
                    && entry.sources.iter().map(Vec::as_slice).eq(sources())
            });
        let reused = if reusable {
            cache.entries.remove_entry(key)
        } else {
            None
        };
        if let Some((key, entry)) = reused {
            block
                .groups
                .push(std::mem::take(&mut old.groups[entry.slot]));
            slots.push(Slot::Reused(key, entry));
            continue;
        }
        // Rebuild: merge the source γs the way `apply_plan` does.
        let mut group = pristine.groups[lead].clone();
        for &ai in &source_idx[1..] {
            group.absorb_gammas(pristine.groups[ai].gammas.iter().cloned());
        }
        block.groups.push(group);
        slots.push(Slot::Rebuilt(sources().map(<[ValueId]>::to_vec).collect()));
    }

    // Step 2: weight the rebuilt groups against the block-wide Z (AGP
    // merges preserve it), on the block's weight-learning clock.
    let started = Instant::now();
    for (group, slot) in block.groups.iter_mut().zip(&slots) {
        if let Slot::Rebuilt(_) = slot {
            assign_group_weights(group, z);
        }
    }
    let weighting = started.elapsed();

    // Step 3: clean the rebuilt groups in place, and lay the block's repairs
    // out in group order — a reused group's move over from `old`.
    let cleaner = ReliabilityCleaner::new(config.metric);
    let rsc_before = cache.distances.stats();
    let mut entries: HashMap<Vec<ValueId>, GroupEntry> = HashMap::with_capacity(slots.len());
    let mut repairs: Vec<RscRepair> = Vec::with_capacity(old.repairs.len());
    let mut invalidated: Vec<TupleId> = Vec::new();
    let mut recleaned = 0u64;
    for (slot, (group, kind)) in block.groups.iter_mut().zip(slots).enumerate() {
        let repairs_start = repairs.len();
        let (key, sources, evidence, z_sensitive) = match kind {
            Slot::Reused(key, entry) => {
                let moved = &mut old.repairs[entry.repairs_start..entry.repairs_end];
                repairs.extend(moved.iter_mut().map(std::mem::take));
                if z_moved {
                    // Same versions under a new Z: rescale.  Stage II
                    // re-scores the fusions that read them (`rescaled`).
                    for gamma in &mut group.gammas {
                        gamma.probability = probability(entry.evidence, z);
                    }
                }
                (key, entry.sources, entry.evidence, entry.z_sensitive)
            }
            Slot::Rebuilt(sources) => {
                recleaned += 1;
                let cleaned = cleaner.clean_group(block.rule, group, pool, &mut cache.distances);
                repairs.extend(cleaned.repairs);
                invalidated.extend(group.all_tuples());
                (
                    group.key.clone(),
                    sources,
                    cleaned.evidence,
                    cleaned.z_sensitive,
                )
            }
        };
        let entry = GroupEntry {
            sources,
            slot,
            repairs_start,
            repairs_end: repairs.len(),
            evidence,
            z_sensitive,
        };
        entries.insert(key, entry);
    }

    // Old output groups not moved over — rebuilt, or gone since the last
    // refresh: their tuples may live somewhere else now; re-fuse them.
    for (_, entry) in cache.entries.drain() {
        invalidated.extend(old.groups[entry.slot].all_tuples());
    }

    let rsc_stats = stats_delta(rsc_before, cache.distances.stats());
    cache.entries = entries;
    cache.last_z = Some(z);
    cache.dirty_keys.clear();
    cache.fully_dirty = false;

    let rescanned = plan.rescanned;
    RefreshedBlock {
        block,
        records: BlockRecords {
            agp: plan.record,
            rsc: RscRecord {
                repairs: repairs.into(),
                cache: rsc_stats,
            },
        },
        cache,
        invalidated,
        rescaled: z_moved,
        recleaned,
        rescanned,
        weighting,
    }
}

/// Hash-table overhead per cache entry (control bytes plus slack).
const HASH_SLOT_BYTES: usize = 16;

/// Estimated resident bytes of one block's memos (zero once dropped): the
/// distance memo (pairs and sketches) and the plan memo — what dropping
/// them frees, which is all the budget policy needs.
fn approx_memo_bytes(cache: &BlockCache) -> usize {
    cache.distances.approx_bytes(HASH_SLOT_BYTES) + cache.plan.approx_bytes(HASH_SLOT_BYTES)
}

/// Per-block provenance concatenated in block order, moved out of `blocks`.
fn concat_records(blocks: Vec<BlockRecords>) -> (AgpRecord, RscRecord) {
    let mut agp = AgpRecord::default();
    let mut rsc = RscRecord::default();
    agp.merges
        .reserve(blocks.iter().map(|b| b.agp.merges.len()).sum());
    rsc.repairs
        .reserve(blocks.iter().map(|b| b.rsc.repairs.len()).sum());
    for records in blocks {
        agp.merges.extend(records.agp.merges);
        agp.cache.absorb(records.agp.cache);
        agp.bounds_computed += records.agp.bounds_computed;
        rsc.repairs.extend(records.rsc.repairs);
        rsc.cache.absorb(records.rsc.cache);
    }
    (agp, rsc)
}

/// The growth of a [`DistanceCache`]'s counters between two snapshots.
fn stats_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::weights::assign_block_weights;
    use datagen::{CarGenerator, HaiGenerator};
    use dataset::{sample_hospital_dataset, Dataset, Schema};
    use rules::{sample_hospital_rules, RuleSet};
    use std::collections::{BTreeMap, BTreeSet};

    /// The whole-block composition the driver replaced (the coordinator's
    /// merge round was built from it), kept as the oracle: AGP over the
    /// whole block, block weights, RSC over the whole block — each on cold
    /// caches.
    mod reference {
        use super::*;

        pub fn refresh_block(
            config: &CleanConfig,
            pristine: &Block,
            pool: &ValuePool,
        ) -> (Block, AgpRecord, RscRecord) {
            let mut block = pristine.clone();
            let agp = AbnormalGroupProcessor::from_config(config).process_block(&mut block, pool);
            assign_block_weights(&mut block);
            let rsc = ReliabilityCleaner::new(config.metric).clean_block(&mut block, pool);
            (block, agp, rsc)
        }
    }

    /// Hospital, seeded HAI (seven rules) and seeded CAR, with the τ and
    /// guard the benchmark runs them under.
    pub(crate) fn workloads() -> Vec<(&'static str, Dataset, RuleSet, CleanConfig)> {
        let hai = HaiGenerator::default().with_rows(700).with_providers(25);
        let car = CarGenerator::default().with_rows(900);
        let guarded = |tau| {
            CleanConfig::default()
                .with_tau(tau)
                .with_agp_distance_guard(0.15)
        };
        vec![
            (
                "hospital",
                sample_hospital_dataset(),
                sample_hospital_rules(),
                CleanConfig::default().with_tau(1),
            ),
            (
                "hai",
                hai.dirty(0.02, 0.5, 12).dirty,
                HaiGenerator::rules(),
                guarded(2),
            ),
            (
                "car",
                car.dirty(0.02, 0.5, 13).dirty,
                CarGenerator::rules(),
                guarded(1),
            ),
        ]
    }

    /// A driver over `index`'s rule blocks, nothing refreshed yet.
    fn driver_over(config: &CleanConfig, index: &MlnIndex) -> StageOne {
        let empty = index
            .blocks
            .iter()
            .map(|b| Block {
                groups: Vec::new(),
                ..b.clone()
            })
            .collect();
        StageOne::new(
            config.clone(),
            MlnIndex::from_parts(empty, ValuePool::new()),
        )
    }

    /// Refresh whatever is dirty from `index`'s blocks.
    fn refresh(stage: &mut StageOne, index: &MlnIndex) -> Refreshed {
        let pristine: Vec<(usize, &Block)> = index.blocks.iter().enumerate().collect();
        stage.refresh(&pristine, index.pool(), &mut Timings::default())
    }

    fn mark_all_dirty(stage: &mut StageOne) {
        for block in 0..stage.caches.len() {
            stage.mark_block_dirty(block);
        }
    }

    /// Every block of the driver equals the oracle's: groups (γ weight and
    /// probability compared by bits), AGP record, RSC record.
    fn assert_matches_reference(label: &str, stage: &StageOne, index: &MlnIndex) {
        for (i, pristine) in index.blocks.iter().enumerate() {
            let (block, agp, rsc) = reference::refresh_block(&stage.config, pristine, index.pool());
            let ours = &stage.cleaned.blocks[i];
            assert_eq!(ours, &block, "{label}: block {i} diverged");
            for (a, b) in ours.gammas().zip(block.gammas()) {
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{label}: block {i}");
                assert_eq!(
                    a.probability.to_bits(),
                    b.probability.to_bits(),
                    "{label}: block {i}"
                );
            }
            assert_eq!(stage.records[i].agp, agp, "{label}: block {i} AGP record");
            assert_eq!(stage.records[i].rsc, rsc, "{label}: block {i} RSC record");
        }
    }

    #[test]
    fn a_fully_dirty_refresh_equals_the_whole_block_composition() {
        for (name, dirty, rules, config) in workloads() {
            let index = MlnIndex::build(&dirty, &rules).unwrap();
            let covered: BTreeSet<TupleId> = index
                .blocks
                .iter()
                .flat_map(|b| b.gammas())
                .flat_map(|g| g.tuples.iter().copied())
                .collect();
            for parallel in [false, true] {
                let config = config.clone().with_parallel(parallel);
                let label = format!("{name}, parallel={parallel}");
                let mut stage = driver_over(&config, &index);
                mark_all_dirty(&mut stage);
                let refreshed = refresh(&mut stage, &index);
                let every_block: Vec<usize> = (0..index.block_count()).collect();
                assert_eq!(refreshed.blocks, every_block, "{label}");
                assert!(stage.dirty_blocks().is_empty(), "{label}");
                assert_matches_reference(&label, &stage, &index);
                // Everything was rebuilt, so everything comes back
                // invalidated — what the coordinator relies on.
                let invalidated: BTreeSet<TupleId> = refreshed.invalidated.into_iter().collect();
                assert_eq!(invalidated, covered, "{label}");
                let groups: usize = stage.cleaned.blocks.iter().map(Block::group_count).sum();
                assert_eq!(stage.recleaned_groups(), groups as u64, "{label}");
                // …and every rebuilt group is retained for the next refresh.
                let retained: usize = stage.caches.iter().map(|c| c.entries.len()).sum();
                assert_eq!(retained, groups, "{label}");

                // Again, over warm distance and plan memos this time.
                mark_all_dirty(&mut stage);
                refresh(&mut stage, &index);
                assert_matches_reference(&format!("{label}, again"), &stage, &index);
            }
        }
    }

    /// What makes the closed-form Z sound — the block's total support, read
    /// off the *pristine* block, is the softmax denominator after AGP too:
    /// an AGP merge moves γs between groups, it never combines two of them
    /// (a group's key is its γs' reason values, so γs of different groups
    /// always differ), so every γ keeps its support through AGP.
    #[test]
    fn agp_never_changes_a_gamma_support() {
        for (name, dirty, rules, config) in workloads() {
            let index = MlnIndex::build(&dirty, &rules).unwrap();
            let pool = index.pool();
            let supports = |block: &Block| -> BTreeMap<(Vec<&str>, Vec<&str>), usize> {
                block
                    .gammas()
                    .map(|g| {
                        let values = (g.resolve_reason_values(pool), g.resolve_result_values(pool));
                        (values, g.support())
                    })
                    .collect()
            };
            let mut merges = 0;
            for pristine in &index.blocks {
                let mut block = pristine.clone();
                let record = AbnormalGroupProcessor::from_config(&config)
                    .process_block(&mut block, index.pool());
                merges += record
                    .merges
                    .iter()
                    .filter(|m| m.target_key.is_some())
                    .count();
                assert_eq!(block.gamma_count(), pristine.gamma_count(), "{name}");
                assert_eq!(supports(&block), supports(pristine), "{name}");
            }
            assert!(merges > 0, "{name}: no merge was exercised");
        }
    }

    /// The closed-form weighting runs on its own clock, one per block, and
    /// leaves the RSC clock; a refresh with nothing dirty clocks nothing.
    #[test]
    fn a_refresh_clocks_the_weighting_apart_from_rsc() {
        let (_, ds, rules, config) = workloads().remove(1);
        let index = MlnIndex::build(&ds, &rules).unwrap();
        let mut stage = driver_over(&config, &index);
        mark_all_dirty(&mut stage);
        let pristine: Vec<(usize, &Block)> = index.blocks.iter().enumerate().collect();
        let mut timings = Timings::default();
        stage.refresh(&pristine, index.pool(), &mut timings);
        assert!(timings.weight_learning > Duration::ZERO, "{timings:?}");
        assert!(timings.rsc > Duration::ZERO, "{timings:?}");
        let before = timings;
        stage.refresh(&pristine, index.pool(), &mut timings);
        assert_eq!(timings, before);
    }

    /// `FD: CT -> ST` over two three-tuple cities and a one-tuple typo of the
    /// first, which AGP (τ = 1) merges into it.
    fn typo_table() -> (Dataset, RuleSet) {
        let mut ds = Dataset::new(Schema::new(&["CT", "ST"]));
        for city in ["DOTHAN", "BOAZ"] {
            for _ in 0..3 {
                ds.push_row(vec![city.into(), "AL".into()]).unwrap();
            }
        }
        ds.push_row(vec!["DOTHA".into(), "AL".into()]).unwrap();
        (ds, rules::parse_rules("FD: CT -> ST").unwrap())
    }

    /// Mark the keys a mutation touched, refresh, and check the refreshed
    /// state against both the oracle and a from-scratch driver.  Returns how
    /// many output groups the refresh recomputed, what it invalidated and
    /// which blocks it rescaled.
    fn refresh_touched(
        stage: &mut StageOne,
        index: &MlnIndex,
        touched: &[Vec<Vec<ValueId>>],
    ) -> (u64, BTreeSet<TupleId>, Vec<usize>) {
        for (block, keys) in touched.iter().enumerate() {
            stage.mark_keys_dirty(block, keys);
        }
        let before = stage.recleaned_groups();
        let refreshed = refresh(stage, index);
        assert_matches_reference("after the mutation", stage, index);
        let mut scratch = driver_over(&stage.config, index);
        mark_all_dirty(&mut scratch);
        refresh(&mut scratch, index);
        assert_eq!(stage.cleaned.blocks, scratch.cleaned.blocks);
        assert_eq!(stage.records(), scratch.records());
        let invalidated = refreshed.invalidated.into_iter().collect();
        (
            stage.recleaned_groups() - before,
            invalidated,
            refreshed.rescaled,
        )
    }

    /// Apply one cell update to the dataset and the pristine index, then
    /// [`refresh_touched`]; returns how many output groups were recomputed.
    fn update_and_refresh(
        stage: &mut StageOne,
        ds: &mut Dataset,
        index: &mut MlnIndex,
        rules: &RuleSet,
        (t, attr, value): (usize, &str, &str),
    ) -> u64 {
        let t = TupleId(t);
        let attr = ds.schema().attr_id(attr).unwrap();
        let old_row = ds.row_ids(t);
        ds.set_value(t, attr, value.to_string());
        let touched = index.update_tuple(ds, rules, t, &old_row, false);
        refresh_touched(stage, index, &touched).0
    }

    #[test]
    fn a_one_cell_update_rebuilds_only_the_touched_output_groups() {
        let (mut ds, rules) = typo_table();
        let config = CleanConfig::default().with_tau(1);
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        let mut stage = driver_over(&config, &index);
        mark_all_dirty(&mut stage);
        refresh(&mut stage, &index);
        assert_eq!(stage.recleaned_groups(), 2, "DOTHAN (with DOTHA) and BOAZ");

        // A result-part update inside BOAZ: one dirty key, one group.
        let rebuilt = update_and_refresh(&mut stage, &mut ds, &mut index, &rules, (3, "ST", "AK"));
        assert_eq!(rebuilt, 1);

        // The typo moves next to the other city.  BOAZ gains a source (the
        // new key is dirty); DOTHAN only *loses* one — neither its key nor
        // any source it still has is dirty, so only the changed source list
        // says its cached entry is stale.
        let rebuilt =
            update_and_refresh(&mut stage, &mut ds, &mut index, &rules, (6, "CT", "BOAZZ"));
        assert_eq!(rebuilt, 2);

        // Nothing dirty: free.
        let before = stage.recleaned_groups();
        let refreshed = refresh(&mut stage, &index);
        assert_eq!(refreshed, Refreshed::default());
        assert_eq!(stage.recleaned_groups(), before);
    }

    /// A refresh moves the groups it reuses, with their repairs: with no
    /// report holding the cleaned index, a group a one-cell update left alone
    /// is the very buffer the last refresh built, and so is its repair.
    #[test]
    fn a_reused_group_is_moved_not_copied() {
        let (mut ds, rules) = typo_table();
        let config = CleanConfig::default().with_tau(1);
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        let mut stage = driver_over(&config, &index);
        mark_all_dirty(&mut stage);
        refresh(&mut stage, &index);
        let dothan = index.pool().lookup("DOTHAN").unwrap();
        let buffers = |stage: &StageOne| {
            let groups = &stage.cleaned().blocks[0].groups;
            let g = groups.iter().position(|g| g.key == [dothan]).unwrap();
            let repairs = &stage.records[0].rsc.repairs;
            let repair = repairs.iter().find(|r| r.group_key == [dothan]).unwrap();
            assert!(!groups[g].gammas.is_empty() && !repair.tuples.is_empty());
            (g, groups[g].gammas.as_ptr(), repair.tuples.as_ptr())
        };
        let before = buffers(&stage);

        // A result-part update inside BOAZ leaves DOTHAN, and the typo AGP
        // merged into it, alone.
        let rebuilt = update_and_refresh(&mut stage, &mut ds, &mut index, &rules, (3, "ST", "AK"));
        assert_eq!(rebuilt, 1);
        assert_eq!(buffers(&stage), before);
    }

    /// A fully dirty block — every group rebuilt, as the streaming
    /// coordinator's merged blocks are — has its AGP plan maintained all
    /// the same across inserts and deletes: the memo validates itself
    /// against the snapshot, whatever the dirtiness says.
    #[test]
    fn a_fully_dirty_block_replans_from_its_memo() {
        let (_, mut ds, rules, config) = workloads().remove(2);
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        let mut stage = driver_over(&config, &index);
        mark_all_dirty(&mut stage);
        refresh(&mut stage, &index);
        let abnormal = stage.rescanned_groups();
        assert!(abnormal > 20 && abnormal == stage.records().0.merges.len() as u64);

        // Insert a copy of row 0 with a typo in every cell: at most one new
        // (abnormal) group a block.
        let from = ds.len();
        let row = ds.tuple(TupleId(0)).owned_values();
        ds.push_row(row.into_iter().map(|v| v + "~").collect())
            .unwrap();
        index.insert_tuples(&ds, &rules, from, false);
        mark_all_dirty(&mut stage);
        refresh(&mut stage, &index);
        assert_matches_reference("after the insert", &stage, &index);
        let after_insert = stage.rescanned_groups();
        assert!((1..=index.block_count() as u64).contains(&(after_insert - abnormal)));

        // Delete it again: the groups that remain kept their signatures.
        index
            .remove_tuples(&ds, &rules, &[TupleId(from)], false)
            .unwrap();
        ds.remove_rows(&[TupleId(from)]);
        stage.remap_removed(&[from]);
        mark_all_dirty(&mut stage);
        refresh(&mut stage, &index);
        assert_matches_reference("after the delete", &stage, &index);
        assert_eq!(stage.rescanned_groups(), after_insert);
        // …so the re-plans of this refresh asked for no distance at all.
        assert_eq!(stage.records().0.cache, CacheStats::default());
    }

    /// The plan memo and the sketch memo are what the budget counts and
    /// drops; a block whose memos the budget dropped re-plans as if for the
    /// first time: the same searches from nothing, the same sketch bounds,
    /// the same sketches fetched — only those of the groups some search
    /// bounded (5 of the CFD block's 12 values; 86 of the FD block's 91,
    /// where many searches fall through past the postings).
    #[test]
    fn a_block_whose_memos_the_budget_dropped_replans_cold() {
        let (_, ds, rules, config) = workloads().remove(2);
        let index = MlnIndex::build(&ds, &rules).unwrap();
        let mut stage = driver_over(&config.with_memory_budget(1), &index);
        mark_all_dirty(&mut stage);
        refresh(&mut stage, &index);
        let abnormal = stage.rescanned_groups();
        let cost = |stage: &StageOne| {
            let sketches: Vec<usize> = stage
                .caches
                .iter()
                .map(|c| c.distances.sketch_count())
                .collect();
            (stage.records().0.bounds_computed, sketches)
        };
        let cold = cost(&stage);
        assert_eq!(
            cold,
            (7734, vec![5, 86]),
            "pinned: bounds, sketches per block"
        );
        let values: Vec<usize> = index
            .blocks
            .iter()
            .map(|b| {
                b.gammas()
                    .flat_map(|g| g.values())
                    .collect::<HashSet<_>>()
                    .len()
            })
            .collect();
        assert_eq!(values, [12, 91], "distinct values per block");

        // Both memos are in the estimate: the plan memo, and each sketch at
        // its entry and a slot.
        let mut bare = stage.caches[0].clone();
        bare.plan = PlanMemo::default();
        assert!(approx_memo_bytes(&bare) < approx_memo_bytes(&stage.caches[0]));
        let with_sketches = approx_memo_bytes(&bare);
        bare.distances = bare.distances.without_sketches();
        let sketch_entry = std::mem::size_of::<(ValueId, distance::EditSketch)>() + HASH_SLOT_BYTES;
        assert_eq!(
            with_sketches - approx_memo_bytes(&bare),
            cold.1[0] * sketch_entry
        );
        assert_eq!(stage.enforce_budget(0), 0, "every memo drops");
        assert_eq!(
            stage.memory_stats().dropped_memos,
            index.block_count() as u64
        );

        mark_all_dirty(&mut stage);
        refresh(&mut stage, &index);
        assert_matches_reference("after the drop", &stage, &index);
        assert_eq!(stage.rescanned_groups(), 2 * abnormal);
        assert_eq!(cost(&stage), cold);
    }

    /// `FD: K -> V` over three groups: `g`, an RSC near tie — `aaaaaaaaa`
    /// (s = 1, d = 9) against `bbbbbbbbb` (s = 3, d = 1), see `rsc`'s tests —
    /// and the clear groups `h` and `k`.
    fn near_tie_table() -> (Dataset, RuleSet) {
        let mut ds = Dataset::new(Schema::new(&["K", "V"]));
        let rows = [
            ("g", "aaaaaaaaa", 1),
            ("g", "bbbbbbbbb", 3),
            ("g", "bbbbbbbbc", 2),
            ("h", "x", 4),
            ("h", "xy", 1),
            ("k", "y", 5),
        ];
        for (key, value, copies) in rows {
            for _ in 0..copies {
                ds.push_row(vec![key.into(), value.into()]).unwrap();
            }
        }
        (ds, rules::parse_rules("FD: K -> V").unwrap())
    }

    /// An insert and a delete dirty the keys they touch, not the block: the
    /// refresh reuses every other output group under the block's moved
    /// total support — its probability rewritten, the block reported
    /// rescaled, its tuples not handed to Stage II — but rebuilds the near
    /// tie, whose winner could move with `Z`.
    #[test]
    fn a_moved_z_reuses_the_untouched_groups_but_a_near_tie() {
        let (mut ds, rules) = near_tie_table();
        let config = CleanConfig::default().with_tau(1);
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        let mut stage = driver_over(&config, &index);
        mark_all_dirty(&mut stage);
        refresh(&mut stage, &index);
        assert_eq!(stage.recleaned_groups(), 3);
        let flagged = |stage: &StageOne| -> Vec<String> {
            let entries = &stage.caches[0].entries;
            let mut keys: Vec<String> = entries
                .iter()
                .filter(|(_, entry)| entry.z_sensitive)
                .map(|(key, _)| stage.cleaned.pool().resolve(key[0]).to_string())
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(flagged(&stage), ["g"]);
        let tuples_of = |index: &MlnIndex, keys: &[&str]| -> BTreeSet<TupleId> {
            let groups = keys.iter().map(|key| {
                let key = index.pool().lookup(key).unwrap();
                index.blocks[0].group_by_key_ids(&[key]).unwrap()
            });
            groups.flat_map(|group| group.all_tuples()).collect()
        };

        // Another `h` row: `h` is touched, `g` is a near tie, `k` is reused:
        // only the rebuilt groups' tuples re-fuse.
        let from = ds.len();
        ds.push_row(vec!["h".into(), "x".into()]).unwrap();
        let inserted = index.insert_tuples(&ds, &rules, from, false);
        let (rebuilt, invalidated, rescaled) =
            refresh_touched(&mut stage, &index, &inserted.touched_keys);
        assert_eq!((rebuilt, rescaled), (2, vec![0]));
        assert_eq!(invalidated, tuples_of(&index, &["g", "h"]), "k is rescaled");

        // A `k` row goes: `k` is touched and `g` rebuilt again; `h` is reused.
        let gone = TupleId(ds.len() - 2);
        assert_eq!(ds.value(gone, dataset::AttrId(0)), "k");
        let removed = index.remove_tuples(&ds, &rules, &[gone], false).unwrap();
        ds.remove_rows(&[gone]);
        stage.remap_removed(&[gone.index()]);
        let (rebuilt, invalidated, rescaled) =
            refresh_touched(&mut stage, &index, &removed.touched_keys);
        assert_eq!((rebuilt, rescaled), (2, vec![0]));
        assert_eq!(invalidated, tuples_of(&index, &["g", "k"]), "h is rescaled");
        assert_eq!(flagged(&stage), ["g"]);

        // An update inside `h` leaves Z alone: only `h` is rebuilt, and only
        // its tuples re-fuse — the near tie stands.
        let v = ds.schema().attr_id("V").unwrap();
        let t = TupleId(
            (0..ds.len())
                .find(|&t| ds.value(TupleId(t), v) == "xy")
                .unwrap(),
        );
        let old_row = ds.row_ids(t);
        ds.set_value(t, v, "x".to_string());
        let touched = index.update_tuple(&ds, &rules, t, &old_row, false);
        let (rebuilt, invalidated, rescaled) = refresh_touched(&mut stage, &index, &touched);
        assert_eq!((rebuilt, rescaled), (1, vec![]));
        let h = index.pool().lookup("h").unwrap();
        let h_tuples = index.blocks[0].group_by_key_ids(&[h]).unwrap().all_tuples();
        assert_eq!(invalidated, h_tuples.into_iter().collect());
    }

    /// A block never refreshed — or already fully dirty — takes keys as
    /// fully dirty and stores none: a bulk load keeps no key set.
    #[test]
    fn keys_on_a_block_never_refreshed_mark_it_fully_dirty() {
        let (ds, rules) = near_tie_table();
        let index = MlnIndex::build(&ds, &rules).unwrap();
        let mut stage = driver_over(&CleanConfig::default(), &index);
        let keys: Vec<Vec<ValueId>> = index.blocks[0]
            .groups
            .iter()
            .map(|g| g.key.clone())
            .collect();
        stage.mark_keys_dirty(0, &[]);
        assert!(stage.dirty_blocks().is_empty(), "no key, nothing dirty");
        stage.mark_keys_dirty(0, &keys);
        assert!(stage.caches[0].fully_dirty && stage.caches[0].dirty_keys.is_empty());
        refresh(&mut stage, &index);
        stage.mark_keys_dirty(0, &keys[..1]);
        assert_eq!(stage.caches[0].dirty_keys.len(), 1);
        stage.mark_block_dirty(0);
        stage.mark_keys_dirty(0, &keys[1..]);
        assert_eq!(stage.caches[0].dirty_keys.len(), 1);
    }

    #[test]
    fn a_one_cell_update_on_seeded_hai_recleans_a_strict_subset() {
        let (_, mut ds, rules, config) = workloads().remove(1);
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        let mut stage = driver_over(&config, &index);
        mark_all_dirty(&mut stage);
        refresh(&mut stage, &index);
        let total = stage.recleaned_groups();

        // Give row 0 another row's city: the result part of two FDs.
        let city = ds.schema().attr_id("City").unwrap();
        let own = ds.value(TupleId(0), city).to_string();
        let other = (1..ds.len())
            .map(|t| ds.value(TupleId(t), city).to_string())
            .find(|c| *c != own)
            .unwrap();
        // Entitled to a full nearest-normal search: row 0's own group in the
        // blocks that see the city, and the groups AGP had merged into it.
        let (agp, _) = stage.records();
        let abnormal = stage.rescanned_groups();
        assert_eq!(abnormal, agp.merges.len() as u64, "the first plan is cold");
        let entitled: usize = index
            .blocks
            .iter()
            .filter(|block| block.result_attrs.contains(&city))
            .map(|block| {
                let key: Vec<String> = block
                    .reason_attrs
                    .iter()
                    .map(|&a| ds.value(TupleId(0), a).to_string())
                    .collect();
                let merged_in = agp
                    .merges
                    .iter()
                    .filter(|m| m.rule == block.rule)
                    .filter(|m| {
                        let target = m.target_key.as_ref();
                        target.is_some_and(|target| index.pool().resolve_all(target) == key)
                    });
                1 + merged_in.count()
            })
            .sum();
        let rebuilt =
            update_and_refresh(&mut stage, &mut ds, &mut index, &rules, (0, "City", &other));
        assert!(
            (2..total / 10).contains(&rebuilt),
            "{rebuilt} of {total} groups rebuilt"
        );
        let rescanned = stage.rescanned_groups() - abnormal;
        assert!(
            rescanned as usize <= entitled && entitled < agp.merges.len() / 4,
            "{rescanned} full searches, {entitled} entitled, {abnormal} abnormal groups"
        );
    }
}
