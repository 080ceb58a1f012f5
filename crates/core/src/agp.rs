//! AGP — Abnormal Group Processing (Section 5.1.1).
//!
//! A group whose tuples were placed there because of an error in the rule's
//! *reason part* (e.g. the typo "DOTH" instead of "DOTHAN") erroneously forms
//! its own group.  AGP identifies such groups with a simple size heuristic —
//! a group related to at most τ tuples is considered abnormal — and merges
//! each abnormal group into its nearest *normal* group within the same block,
//! where the distance between two groups is the distance between their
//! dominant γs (the γ related to the most tuples).
//!
//! The nearest-normal search is exact, and it is lookup → filter → seed →
//! refine.  *Lookup*: under the edit metrics a record distance is a sum of
//! per-attribute whole numbers, each `0` only for the identical string —
//! hence, values being interned, only for the identical [`ValueId`] — and
//! at least `1` otherwise ([`Metric::counts_edits`]).  So a normal group
//! that shares `s` of an abnormal group's `arity` dominant-γ values is at
//! least `arity − s` away, and once the incumbent is `d` away, a group that
//! shares fewer than `arity − d` values can neither beat it nor tie it
//! (count filtering, Gravano et al., VLDB 2001; the pigeonhole of Pass-Join,
//! Li et al., PVLDB 2011 — per attribute instead of per q-gram).  A search
//! from nothing therefore first looks its values up in per-block postings
//! (`(attribute position, value)` → the normal groups whose dominant γ holds
//! it) and refines the groups that share any, most-shared first.  If that
//! leaves an incumbent under `arity`, no group that shares nothing can
//! reach it and the search is over — almost every search on the benchmark's
//! data, where a typo'd key is one edit from its true group and shares the
//! rest.  Otherwise the search falls through to the other three steps over
//! the normal groups that share nothing, each at least `arity` away.  Under
//! cosine, Jaccard and Jaro-Winkler two different strings can be closer
//! than `1`, even at `0`: no lookup, the other three steps over every
//! normal group.
//!
//! *Filter*: every value carries a sketch — its char count and the set of
//! character classes it uses ([`EditSketch`]) — and two sketches bound the
//! edit distance of their values from below without a look at either string;
//! summed over the attributes that bounds the record distance of two
//! dominant γs.  Sketches are fetched a group at a time, the first time a
//! search bounds the group.  *Seed*: a search from nothing measures the
//! candidate of least bound (among the most-shared, in a lookup) first, in
//! full, so it starts from a near neighbour instead of whichever group leads
//! the block.  *Refine*: every other candidate is skipped when what it
//! shares or its bound already reaches the limit the incumbent sets, and is
//! otherwise asked "closer than that limit?" rather than "how far?": its
//! record distance is summed attribute by attribute and abandoned the moment
//! the partial sum reaches the limit, and under the edit metrics each
//! attribute is answered by a bounded dynamic program that gives up after a
//! few cells.  Under the metrics without a sketch bound the bound is the
//! constant `0`, the filter passes everything and the seed is the block's
//! first normal group: the plain scan.
//!
//! Merges, tie-breaks (first minimal candidate in block order) and guard
//! decisions are those of the exhaustive scan, whatever order the probes run
//! in: a candidate takes over iff it sorts before the incumbent in (distance,
//! block position) — strictly closer from further down the block, closer or
//! as close from further up — so after any sequence of probes the incumbent
//! is the least of those probed; and a skipped candidate's distance is at
//! least what it shares or its bound says, which is at least its limit, so
//! probing it would have changed nothing.
//!
//! Distances run through a per-block [`DistanceCache`] keyed on interned
//! value pairs, which memoises what each probe proved — an exact distance or
//! a lower bound — so a block re-planned against the same cache re-runs no
//! metric at all.  A filtered pair never reaches it.  The postings and the
//! sketch buffer live for one plan, not in the memo: a re-plan that searches
//! from nothing rebuilds the postings in one sort of integer keys (≈ 70 µs
//! on `car_session`'s largest block, under the ≈ 200 µs its every sketch
//! used to cost to fetch), with nothing to patch, spill or count.
//!
//! # Re-planning a block
//!
//! A session re-plans its dirty blocks on every `outcome()`, the streaming
//! coordinator on every merge round, and between two plans of a block almost
//! nothing moves.  `plan_block` therefore takes a per-block **plan memo**
//! beside the distance cache: per pristine group key its *signature* — on
//! which side of τ it falls, and the value ids of its dominant γ, which is
//! all a search reads of a group — and per abnormal group its nearest
//! normal group *before the guard* (key, record distance, guard verdict).
//! There is one planner: an empty memo is the cold case, where every
//! abnormal group searches from nothing.
//!
//! The contract is exactness.  The scan's answer for an abnormal group is
//! the lexicographic minimum of (distance, block position) over the normal
//! groups.  A re-plan first diffs every group's signature against the memo,
//! O(groups), which splits the normal groups into *unchanged* ones — same
//! key, still normal, same dominant γ, hence the same distance to everybody
//! and, the block being sorted by key, the same relative positions — and
//! *fresh* ones.  If the abnormal group kept its own signature and the
//! group it remembers is among the unchanged, that group is still the
//! minimum over all of them (it was the minimum over a superset), so the
//! minimum over everything is the minimum over {incumbent} ∪ fresh: each
//! fresh group is asked whether it sorts before the best so far — strictly
//! closer if it sits further down the block, closer *or as close* if it sits
//! further up, and not at all if its sketch bound says it cannot — and the
//! guard's verdict, a function of the two dominant γs, is asked again only
//! for a new winner.  What invalidates a remembered
//! answer, sending the group back to a search from nothing: the group is
//! new or its signature changed; its remembered target left the block,
//! turned abnormal or changed its dominant γ.  Nobody has to mark
//! anything — the diff runs against whatever snapshot the planner is
//! handed, fully dirty blocks included — and the `AgpMerge` records are
//! rebuilt for every abnormal group on every plan (tuple ids move).

use crate::cache::{CacheStats, DistanceCache};
use crate::gamma::Gamma;
use crate::index::{Block, Group, MlnIndex};
use crate::map_ordered;
use dataset::{TupleId, ValueId, ValuePool};
use distance::{EditSketch, Metric};
use rules::RuleId;
use std::collections::{HashMap, HashSet};

/// One merge performed (or attempted) by AGP.
#[derive(Debug, Clone, PartialEq)]
pub struct AgpMerge {
    /// Block in which the merge happened.
    pub rule: RuleId,
    /// Reason-part key of the abnormal group (resolved strings).
    pub abnormal_key: Vec<String>,
    /// Reason-part key of the normal group it was merged into, or `None` if
    /// the block had no normal group to merge into.
    pub target_key: Option<Vec<String>>,
    /// Tuples carried by the abnormal group.
    pub tuples: Vec<TupleId>,
    /// Number of γs the abnormal group contained.
    pub gamma_count: usize,
}

mlnw::codec! { struct AgpMerge { rule, abnormal_key, target_key, tuples, gamma_count } }

/// The full AGP record of one cleaning run, used both for reporting and for
/// the Precision-A / Recall-A evaluation.
#[derive(Debug, Clone, Default)]
pub struct AgpRecord {
    /// Every detected abnormal group, in processing order.
    pub merges: Vec<AgpMerge>,
    /// Distance-cache counters accumulated over all blocks.
    pub cache: CacheStats,
    /// Sketch lower bounds the nearest-normal searches evaluated, over all
    /// blocks: what the filter cost, beside what it let through to the
    /// cache.  A process-local counter like the cache's, it is not encoded
    /// (a decoded record reads `0`).
    pub bounds_computed: u64,
}

mlnw::codec! { struct AgpRecord { merges, cache; skip bounds_computed } }

/// Equality compares the *decisions* (the merges), not the distance-cache
/// or bound counters: the incremental [`crate::CleaningSession`] keeps a
/// persistent per-block cache and plan memo across refreshes, so its counts
/// legitimately differ from a cold batch run even when the merges are
/// byte-identical.
impl PartialEq for AgpRecord {
    fn eq(&self, other: &Self) -> bool {
        self.merges == other.merges
    }
}

impl AgpRecord {
    /// Number of detected abnormal groups.
    pub fn detected_count(&self) -> usize {
        self.merges.len()
    }

    /// Total number of tuples related to γs inside detected abnormal groups —
    /// the `#dag` series of Figure 8.
    pub fn detected_gamma_tuples(&self) -> usize {
        self.merges.iter().map(|m| m.tuples.len()).sum()
    }
}

/// The AGP strategy.
#[derive(Debug, Clone)]
pub struct AbnormalGroupProcessor {
    /// Size threshold τ: groups with at most this many related tuples are
    /// treated as abnormal.
    pub tau: usize,
    /// Distance metric for the nearest-normal-group search.
    pub metric: Metric,
    /// Optional merge guard: skip the merge when the normalized distance to
    /// the nearest normal group exceeds this bound (see
    /// [`crate::CleanConfig::agp_distance_guard`]).
    pub distance_guard: Option<f64>,
}

impl AbnormalGroupProcessor {
    /// Create an AGP processor with the paper's always-merge behaviour.
    pub fn new(tau: usize, metric: Metric) -> Self {
        AbnormalGroupProcessor {
            tau,
            metric,
            distance_guard: None,
        }
    }

    /// Enable the merge distance guard.
    pub fn with_distance_guard(mut self, guard: f64) -> Self {
        self.distance_guard = Some(guard);
        self
    }

    /// Process every block of the index in place, on the rayon pool, and
    /// return the merge record — [`AbnormalGroupProcessor::process_with`] at
    /// `parallel = true`.
    pub fn process(&self, index: &mut MlnIndex) -> AgpRecord {
        self.process_with(index, true)
    }

    /// Process every block of the index in place and return the merge record.
    ///
    /// Blocks are independent (one per rule): the one per-block body runs
    /// over the rayon pool when `parallel` is set and on the calling thread
    /// otherwise, and per-block results are reassembled in block order, so
    /// the outcome is the same either way.
    pub fn process_with(&self, index: &mut MlnIndex, parallel: bool) -> AgpRecord {
        let (blocks, pool) = index.split_mut();
        let processed = map_ordered(parallel, std::mem::take(blocks), |mut block| {
            let record = self.process_block(&mut block, pool);
            (block, record)
        });
        let mut record = AgpRecord::default();
        for (block, block_record) in processed {
            blocks.push(block);
            record.merges.extend(block_record.merges);
            record.cache.absorb(block_record.cache);
            record.bounds_computed += block_record.bounds_computed;
        }
        record
    }

    /// Process a single block: detect abnormal groups (size ≤ τ) and merge
    /// each into its nearest normal group.  This is the per-block unit of
    /// the whole-index pass above, expressed as plan + apply: the per-block
    /// driver ([`crate::StageOne`]) runs the same plan but applies it group
    /// by group, to scope a refresh to the affected groups.
    pub(crate) fn process_block(&self, block: &mut Block, pool: &ValuePool) -> AgpRecord {
        // One distance memo per block: every group comparison below shares it.
        let mut cache = DistanceCache::new(self.metric);
        let plan = self.plan_block(block, pool, &mut cache, &mut PlanMemo::default());
        Self::apply_plan(block, &plan);
        let mut record = plan.record;
        record.cache.absorb(cache.stats());
        record
    }

    /// Decide every merge of one block against the *pristine* pre-merge
    /// snapshot, without mutating the block.
    ///
    /// Because each abnormal group's nearest-normal search sees the same
    /// snapshot (the original dominant γ of every normal group), the
    /// decisions are independent of the order in which merges are later
    /// applied — the property the group-scoped incremental refresh relies on
    /// to recompute a single group without replaying its siblings.
    ///
    /// `memo` is what the previous plan of this block left behind (see
    /// [`PlanMemo`]); an empty one is the cold case.  The plan is the same
    /// either way — only the number of probes differs.
    pub(crate) fn plan_block(
        &self,
        block: &Block,
        pool: &ValuePool,
        cache: &mut DistanceCache,
        memo: &mut PlanMemo,
    ) -> AgpPlan {
        // Pass 1, O(groups): partition the groups by the size test, take
        // every group's dominant-γ value ids once from the snapshot (only
        // normal groups are merge targets — abnormal groups never merge into
        // each other — and the search below must not re-derive them per
        // abnormal × candidate pair) into the search's flat buffer, and diff
        // each signature against the memo.  `fresh` lists the normal groups
        // that are new to the block or changed signature since the last
        // plan: all of them, cold.
        let mut abnormal: Vec<usize> = Vec::new();
        let mut normals: Vec<usize> = Vec::new();
        let mut fresh: Vec<usize> = Vec::new();
        let arity = block.reason_attrs.len() + block.result_attrs.len();
        let mut search = Search::new(pool, arity);
        for (i, group) in block.groups.iter().enumerate() {
            let is_abnormal = group.tuple_count() <= self.tau;
            let dominant = search.push(group.dominant_gamma().into_iter().flat_map(Gamma::values));
            let changed = memo.observe(&group.key, i, is_abnormal, dominant);
            if is_abnormal {
                abnormal.push(i);
            } else {
                normals.push(i);
                if changed {
                    fresh.push(i);
                }
            }
        }
        memo.forget_all_but(block);

        let mut plan = AgpPlan {
            abnormal,
            targets: Vec::new(),
            record: AgpRecord::default(),
            rescanned: 0,
        };
        // Pass 2: each abnormal group's nearest normal group by dominant-γ
        // distance — the lexicographic minimum of (distance, block position)
        // over the normal groups.  A remembered answer that still stands is
        // that minimum over the *unchanged* normal groups (they kept their
        // distances and, the block being sorted by key, their relative
        // positions), so only the fresh ones can displace it; any other
        // group searches from nothing.
        for &ai in &plan.abnormal {
            let group = &block.groups[ai];
            let standing = memo.standing(&group.key);
            let mut best = standing.flatten();
            if group.gammas.is_empty() {
                // Nothing to measure from: the group stays where it is.
            } else if standing.is_some() {
                search.scan(cache, ai, &fresh, 0.0, &mut best);
            } else {
                plan.rescanned += 1;
                if self.metric.counts_edits() {
                    search.look_up(cache, ai, &normals, &mut best);
                } else {
                    search.scan(cache, ai, &normals, 0.0, &mut best);
                }
            }
            // The optional normalized-distance merge guard is a function of
            // the two dominant γs alone, so a standing incumbent keeps its
            // verdict; a new winner was measured to the end, so the guard's
            // normalized distances are already in the distance memo.
            let target_idx = best.and_then(|best| {
                let within_guard = best.within_guard.unwrap_or_else(|| {
                    let target = &block.groups[best.index];
                    let within_guard = self.distance_guard.is_none_or(|guard| {
                        let (own, theirs) = (search.of(ai), search.of(best.index));
                        cache.normalized_record_distance(pool, own, theirs) <= guard
                    });
                    memo.remember(&group.key, &target.key, best.distance, within_guard);
                    within_guard
                });
                within_guard.then_some(best.index)
            });

            plan.record.merges.push(AgpMerge {
                rule: block.rule,
                abnormal_key: group
                    .resolve_key(pool)
                    .into_iter()
                    .map(str::to_string)
                    .collect(),
                target_key: target_idx.map(|ci| {
                    block.groups[ci]
                        .key
                        .iter()
                        .map(|&v| pool.resolve(v).to_string())
                        .collect()
                }),
                tuples: group.all_tuples(),
                gamma_count: group.gamma_count(),
            });
            plan.targets.push(target_idx);
        }
        plan.record.bounds_computed = search.bounds_computed;
        plan
    }

    /// Execute a plan produced by [`AbnormalGroupProcessor::plan_block`] on
    /// the same block it was planned against.
    ///
    /// The resulting group layout matches the historical in-place merge loop
    /// byte for byte: surviving normal groups keep their relative order,
    /// merged-in γs land in abnormal order (extending value-identical γs,
    /// appending new ones), and abnormal groups without a target are put
    /// back at the end of the block.
    pub(crate) fn apply_plan(block: &mut Block, plan: &AgpPlan) {
        if plan.abnormal.is_empty() {
            return;
        }
        let mut slots: Vec<Option<Group>> = std::mem::take(&mut block.groups)
            .into_iter()
            .map(Some)
            .collect();
        let mut unmerged: Vec<Group> = Vec::new();
        for (&ai, &target) in plan.abnormal.iter().zip(&plan.targets) {
            let group = slots[ai].take().expect("abnormal indices are distinct");
            match target {
                Some(ti) => slots[ti]
                    .as_mut()
                    .expect("targets are normal groups, never taken")
                    .absorb_gammas(group.gammas),
                // No normal group exists in this block (e.g. every group is
                // tiny); the group goes back untouched, after the survivors.
                None => unmerged.push(group),
            }
        }
        block.groups = slots.into_iter().flatten().chain(unmerged).collect();
    }
}

/// The decisions AGP would make for one block, computed against the pristine
/// pre-merge snapshot by [`AbnormalGroupProcessor::plan_block`].
#[derive(Debug, Clone)]
pub(crate) struct AgpPlan {
    /// Indices (ascending, into the snapshot's group list) of the abnormal
    /// groups.
    pub(crate) abnormal: Vec<usize>,
    /// For each abnormal group (in `abnormal` order), the snapshot index of
    /// the normal group it merges into — `None` when the block has no
    /// normal group or the distance guard vetoed the merge.
    pub(crate) targets: Vec<Option<usize>>,
    /// The [`AgpMerge`] entries describing the planned merges (cache
    /// counters are left to the caller, who owns the [`DistanceCache`]).
    pub(crate) record: AgpRecord,
    /// Abnormal groups whose nearest-normal search started from nothing —
    /// no standing incumbent (all of them on a cold plan) — instead of from
    /// the [`PlanMemo`]'s.
    pub(crate) rescanned: u64,
}

/// What [`AbnormalGroupProcessor::plan_block`] remembers of a block between
/// two plans, so that a re-plan probes in proportion to what changed — see
/// the [module docs](self) for the exactness argument.
///
/// An accelerator like the [`DistanceCache`] it sits beside: dropping it
/// only costs probes.  It validates itself against whatever snapshot it is
/// handed (τ included — the size test is part of every signature), so no
/// caller marks anything; it does belong to one block and one processor,
/// whose metric and guard it takes for granted.  It holds value ids only,
/// never tuple ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanMemo {
    groups: HashMap<Vec<ValueId>, Remembered>,
}

/// One pristine group as the last plan saw it.
#[derive(Debug, Clone)]
struct Remembered {
    /// The group's *signature* — all a nearest-normal search reads of it:
    /// which side of the size test it is on, and its dominant γ's value ids.
    abnormal: bool,
    dominant: Vec<ValueId>,
    /// Its index in the last plan's snapshot.
    position: usize,
    /// Whether that plan found the signature new or changed.
    changed: bool,
    /// For an abnormal group: its nearest normal group **before the guard**
    /// (`None`: the block had no normal group).
    nearest: Option<Nearest>,
}

#[derive(Debug, Clone)]
struct Nearest {
    target: Vec<ValueId>,
    distance: f64,
    within_guard: bool,
}

/// The best candidate of a nearest-normal search so far.
#[derive(Debug, Clone, Copy)]
struct Incumbent {
    /// Index of the normal group in the snapshot being planned.
    index: usize,
    distance: f64,
    /// The guard's verdict on it, when the memo still vouches for one.
    within_guard: Option<bool>,
}

/// What the nearest-normal searches of one plan share: every group's
/// dominant-γ value ids, the sketches of the groups a search has bounded,
/// and the postings of the normal groups' values once a lookup needed them.
struct Search<'p> {
    pool: &'p ValuePool,
    arity: usize,
    /// Group `i`'s dominant-γ value ids are `ids[offsets[i]..offsets[i + 1]]`.
    ids: Vec<ValueId>,
    offsets: Vec<usize>,
    /// The sketches of `ids`, in the same layout; group `i`'s are filled in
    /// once `sketched[i]`.  Both empty until the plan's first bound.
    sketches: Vec<EditSketch>,
    sketched: Vec<bool>,
    /// `(posting key, normal group)` for every value of every normal
    /// group's dominant γ, sorted by key, so one value's groups are a
    /// contiguous run; and per group, how many values it shares with the
    /// group looking up (zero between searches).  Both built by the plan's
    /// first lookup (`shared` is never empty afterwards: the group looking
    /// up is one of the block's).
    postings: Vec<(u64, usize)>,
    shared: Vec<usize>,
    /// Sketch bounds evaluated so far — [`AgpRecord::bounds_computed`].
    bounds_computed: u64,
}

impl<'p> Search<'p> {
    fn new(pool: &'p ValuePool, arity: usize) -> Self {
        Search {
            pool,
            arity,
            ids: Vec::new(),
            offsets: vec![0],
            sketches: Vec::new(),
            sketched: Vec::new(),
            postings: Vec::new(),
            shared: Vec::new(),
            bounds_computed: 0,
        }
    }

    /// Append the next group's dominant-γ value ids and return them.
    fn push(&mut self, dominant: impl IntoIterator<Item = ValueId>) -> &[ValueId] {
        let from = self.ids.len();
        self.ids.extend(dominant);
        self.offsets.push(self.ids.len());
        &self.ids[from..]
    }

    fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Group `i`'s dominant-γ value ids.
    fn of(&self, i: usize) -> &[ValueId] {
        &self.ids[self.span(i)]
    }

    /// What the record distance of groups `a` and `b` is at least, from
    /// their sketches — fetched from the cache the first time a bound
    /// involves the group.
    fn bound(&mut self, cache: &mut DistanceCache, a: usize, b: usize) -> f64 {
        if self.sketched.is_empty() {
            self.sketches = vec![EditSketch::default(); self.ids.len()];
            self.sketched = vec![false; self.offsets.len() - 1];
        }
        for i in [a, b] {
            if !self.sketched[i] {
                self.sketched[i] = true;
                for k in self.span(i) {
                    self.sketches[k] = cache.sketch(self.pool, self.ids[k]);
                }
            }
        }
        self.bounds_computed += 1;
        cache.record_lower_bound(&self.sketches[self.span(a)], &self.sketches[self.span(b)])
    }

    /// Refine: ask normal group `ci` whether it sorts before `best` — one
    /// further down the block must be strictly closer, one further up wins a
    /// tie as well, which keeps the *first* minimal candidate (the
    /// historical `Iterator::min_by` tie-break) whatever order the
    /// candidates are asked in — and make it the incumbent if so.
    ///
    /// `ci` is dropped unmeasured when `floor` (what the caller knows its
    /// distance to be at least) or its sketch bound (`bound`, or computed
    /// now) already reaches the limit; otherwise it is measured only until
    /// its partial distance does.
    fn refine(
        &mut self,
        cache: &mut DistanceCache,
        ai: usize,
        ci: usize,
        floor: f64,
        bound: Option<f64>,
        best: &mut Option<Incumbent>,
    ) {
        let limit = match best {
            None => f64::INFINITY,
            Some(b) if ci < b.index => b.distance.next_up(),
            Some(b) => b.distance,
        };
        if floor >= limit {
            return;
        }
        let bound = bound.unwrap_or_else(|| self.bound(cache, ai, ci));
        if bound >= limit {
            return;
        }
        if let Some(d) = cache.record_distance_below(self.pool, self.of(ai), self.of(ci), limit) {
            *best = Some(Incumbent {
                index: ci,
                distance: d,
                within_guard: None,
            });
        }
    }

    /// Filter → seed → refine over `candidates`, each at least `floor` from
    /// group `ai`.  A search from nothing first bounds every candidate and
    /// measures the one of least bound (the first such in block order) in
    /// full, so that every other one meets a tight limit; then the rest in
    /// block order.  Against an incumbent, each candidate is bounded only
    /// when `floor` lets it through.
    fn scan(
        &mut self,
        cache: &mut DistanceCache,
        ai: usize,
        candidates: &[usize],
        floor: f64,
        best: &mut Option<Incumbent>,
    ) {
        let bounds: Vec<f64> = match best {
            None => candidates
                .iter()
                .map(|&c| self.bound(cache, ai, c))
                .collect(),
            Some(_) => Vec::new(),
        };
        for k in seed_first(&bounds, candidates.len()) {
            let bound = bounds.get(k).copied();
            self.refine(cache, ai, candidates[k], floor, bound, best);
        }
    }

    /// A search from nothing under an edit-counting metric (see the [module
    /// docs](self)): look up the normal groups that share a value with group
    /// `ai`'s dominant γ and refine them most-shared first, each at least
    /// `arity − shared` away — so one that shares fewer than `arity − d`
    /// values is dropped unbounded against an incumbent `d` away — seeded,
    /// among the most-shared, as a scan is among all.  Once the incumbent is
    /// under `arity`, no group that shares nothing can tie it and the search
    /// is over; otherwise those groups are refined too, `arity` away each.
    fn look_up(
        &mut self,
        cache: &mut DistanceCache,
        ai: usize,
        normals: &[usize],
        best: &mut Option<Incumbent>,
    ) {
        // A value's posting key: its attribute position, then its id.
        let key = |at: usize, value: ValueId| (at as u64) << 32 | u64::from(value.0);
        if self.shared.is_empty() {
            for &ci in normals {
                for (at, k) in self.span(ci).enumerate() {
                    self.postings.push((key(at, self.ids[k]), ci));
                }
            }
            self.postings.sort_unstable_by_key(|&(key, _)| key);
            self.shared = vec![0; self.offsets.len() - 1];
        }
        // Every group that shares a value, in postings order…
        let mut found: Vec<usize> = Vec::new();
        for (at, k) in self.span(ai).enumerate() {
            let wanted = key(at, self.ids[k]);
            let from = self.postings.partition_point(|&(key, _)| key < wanted);
            for &(key, ci) in &self.postings[from..] {
                if key != wanted {
                    break;
                }
                if self.shared[ci] == 0 {
                    found.push(ci);
                }
                self.shared[ci] += 1;
            }
        }
        // …then as `(shared, group)`, most-shared first: a counting sort,
        // since no group shares more than `arity` values.
        let shared = &self.shared;
        let sharing: Vec<(usize, usize)> = (1..=self.arity)
            .rev()
            .flat_map(|s| found.iter().filter(move |&&ci| shared[ci] == s))
            .map(|&ci| (shared[ci], ci))
            .collect();

        let top = sharing.first().map_or(0, |&(shared, _)| shared);
        let tier = sharing.partition_point(|&(shared, _)| shared == top);
        let bounds: Vec<f64> = (0..tier)
            .map(|k| self.bound(cache, ai, sharing[k].1))
            .collect();
        let arity = self.arity;
        for k in seed_first(&bounds, sharing.len()) {
            let (shared, ci) = sharing[k];
            let floor = (arity - shared) as f64;
            self.refine(cache, ai, ci, floor, bounds.get(k).copied(), best);
        }

        // Every group that shares nothing is at least `arity` away.
        let floor = arity as f64;
        match *best {
            // Nobody shares a value: the seeded scan.
            None => self.scan(cache, ai, normals, floor, best),
            Some(b) if b.distance >= floor => {
                for &ci in normals {
                    if self.shared[ci] == 0 {
                        self.refine(cache, ai, ci, floor, None, best);
                    }
                }
            }
            // Under arity: settled.
            Some(_) => {}
        }
        for (_, ci) in sharing {
            self.shared[ci] = 0;
        }
    }
}

/// `0..n`, a search's seed first — the `k` of least `bounds[k]` (the first
/// such) among the candidates `bounds` covers — then the rest in order.
fn seed_first(bounds: &[f64], n: usize) -> impl Iterator<Item = usize> {
    let seed = (0..bounds.len()).min_by(|&j, &k| bounds[j].total_cmp(&bounds[k]));
    seed.into_iter()
        .chain((0..n).filter(move |&k| Some(k) != seed))
}

impl PlanMemo {
    /// Note group `key`'s position and signature in the snapshot being
    /// planned.  Returns whether the signature is new or changed, which
    /// also forgets what the group's own search had found.
    fn observe(
        &mut self,
        key: &[ValueId],
        position: usize,
        abnormal: bool,
        dominant: &[ValueId],
    ) -> bool {
        let Some(known) = self.groups.get_mut(key) else {
            self.groups.insert(
                key.to_vec(),
                Remembered {
                    abnormal,
                    dominant: dominant.to_vec(),
                    position,
                    changed: true,
                    nearest: None,
                },
            );
            return true;
        };
        known.position = position;
        known.changed = known.abnormal != abnormal || known.dominant != dominant;
        if known.changed {
            known.abnormal = abnormal;
            known.dominant = dominant.to_vec();
            known.nearest = None;
        }
        known.changed
    }

    /// Drop the groups that left the block; call once every group of
    /// `block` has been [`observed`](Self::observe).
    fn forget_all_but(&mut self, block: &Block) {
        if self.groups.len() > block.groups.len() {
            let live: HashSet<&[ValueId]> = block.groups.iter().map(|g| &g.key[..]).collect();
            self.groups.retain(|key, _| live.contains(&key[..]));
        }
    }

    /// Where abnormal group `key`'s search may start from, once the whole
    /// snapshot has been observed.  `None`: from nothing, over every normal
    /// group — the group is new or changed signature, or the group it
    /// remembers as nearest left the block, turned abnormal or changed its
    /// dominant γ.  `Some`: from the remembered nearest group (`Some(None)`:
    /// there was no normal group to remember), which only the normal groups
    /// that are themselves new or changed can displace.
    fn standing(&self, key: &[ValueId]) -> Option<Option<Incumbent>> {
        let known = self.groups.get(key).filter(|known| !known.changed)?;
        let Some(nearest) = &known.nearest else {
            return Some(None);
        };
        let target = self.groups.get(&nearest.target)?;
        (!target.abnormal && !target.changed).then_some(Some(Incumbent {
            index: target.position,
            distance: nearest.distance,
            within_guard: Some(nearest.within_guard),
        }))
    }

    /// Record the winner of abnormal group `key`'s search.
    fn remember(&mut self, key: &[ValueId], target: &[ValueId], distance: f64, within_guard: bool) {
        let known = self.groups.get_mut(key).expect("observed by this plan");
        known.nearest = Some(Nearest {
            target: target.to_vec(),
            distance,
            within_guard,
        });
    }

    /// Estimated resident bytes, `slot` of them per entry for the hash
    /// table's own overhead — for the memory-budget accounting.
    pub(crate) fn approx_bytes(&self, slot: usize) -> usize {
        let ids = |v: &[ValueId]| std::mem::size_of_val(v);
        self.groups
            .iter()
            .map(|(key, known)| {
                let target = known.nearest.as_ref().map_or(0, |n| ids(&n.target));
                std::mem::size_of::<(Vec<ValueId>, Remembered)>()
                    + slot
                    + ids(key)
                    + ids(&known.dominant)
                    + target
            })
            .sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::index::MlnIndex;
    use dataset::{sample_hospital_dataset, AttrId, Dataset, Schema};
    use proptest::prelude::{proptest, ProptestConfig};
    use rules::{sample_hospital_rules, RuleSet};

    fn sample_index() -> MlnIndex {
        MlnIndex::build(&sample_hospital_dataset(), &sample_hospital_rules()).unwrap()
    }

    #[test]
    fn paper_example_merges_g12_g22_g31() {
        // With τ = 1 the paper identifies G12 (DOTH), G22 (PN 2567638410) and
        // G31 (ELIZA/DOTHAN) as abnormal and merges them into G11, G23, G32.
        let mut index = sample_index();
        let agp = AbnormalGroupProcessor::new(1, Metric::Levenshtein);
        let record = agp.process(&mut index);

        assert_eq!(record.detected_count(), 3);
        assert_eq!(
            record.detected_gamma_tuples(),
            3,
            "each abnormal group held one tuple"
        );

        // B1: DOTH merged into DOTHAN.
        let merge_b1 = record.merges.iter().find(|m| m.rule == RuleId(0)).unwrap();
        assert_eq!(merge_b1.abnormal_key, vec!["DOTH"]);
        assert_eq!(merge_b1.target_key, Some(vec!["DOTHAN".to_string()]));

        // B2: the lone phone number merged into the 2567688400 group (closest
        // by Levenshtein distance).
        let merge_b2 = record.merges.iter().find(|m| m.rule == RuleId(1)).unwrap();
        assert_eq!(merge_b2.abnormal_key, vec!["2567638410"]);
        assert_eq!(merge_b2.target_key, Some(vec!["2567688400".to_string()]));

        // B3: (ELIZA, DOTHAN) merged into (ELIZA, BOAZ).
        let merge_b3 = record.merges.iter().find(|m| m.rule == RuleId(2)).unwrap();
        assert_eq!(merge_b3.abnormal_key, vec!["ELIZA", "DOTHAN"]);
        assert_eq!(
            merge_b3.target_key,
            Some(vec!["ELIZA".to_string(), "BOAZ".to_string()])
        );

        // After AGP, block B1 has two groups left (DOTHAN and BOAZ).
        assert_eq!(index.block(RuleId(0)).group_count(), 2);
    }

    #[test]
    fn tau_zero_detects_nothing() {
        let mut index = sample_index();
        let agp = AbnormalGroupProcessor::new(0, Metric::Levenshtein);
        let record = agp.process(&mut index);
        assert_eq!(record.detected_count(), 0);
        assert_eq!(index.block(RuleId(0)).group_count(), 3);
    }

    #[test]
    fn huge_tau_leaves_groups_unmerged_when_no_normal_group_exists() {
        let mut index = sample_index();
        let agp = AbnormalGroupProcessor::new(100, Metric::Levenshtein);
        let record = agp.process(&mut index);
        // Every group is "abnormal" but no normal group exists, so nothing
        // can be merged and the index keeps all groups.
        assert!(record.merges.iter().all(|m| m.target_key.is_none()));
        assert_eq!(index.block(RuleId(0)).group_count(), 3);
    }

    #[test]
    fn merging_combines_identical_gammas() {
        // Build a situation where the abnormal group's γ is value-identical
        // to one already in the target group: supports must be combined, not
        // duplicated.
        let mut ds = Dataset::new(Schema::new(&["CT", "ST"]));
        for _ in 0..5 {
            ds.push_row(vec!["DOTHAN".into(), "AL".into()]).unwrap();
        }
        // One tuple whose CT got replaced with a *valid but wrong* city that
        // is closest to DOTHAN, keeping the same ST.
        ds.push_row(vec!["DOTHA".into(), "AL".into()]).unwrap();
        let rules = rules::parse_rules("FD: CT -> ST").unwrap();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        let agp = AbnormalGroupProcessor::new(1, Metric::Levenshtein);
        agp.process(&mut index);
        let block = index.block(RuleId(0));
        assert_eq!(block.group_count(), 1);
        let group = &block.groups[0];
        // The merged group keeps two γs (DOTHAN/AL and DOTHA/AL) because their
        // full values differ; total tuples = 6.
        assert_eq!(group.tuple_count(), 6);
        assert_eq!(group.gamma_count(), 2);
    }

    #[test]
    fn parallel_and_serial_processing_are_identical() {
        for tau in [0usize, 1, 3, 100] {
            let mut par_index = sample_index();
            let mut ser_index = sample_index();
            let agp = AbnormalGroupProcessor::new(tau, Metric::Levenshtein);
            let par_record = agp.process_with(&mut par_index, true);
            let ser_record = agp.process_with(&mut ser_index, false);
            assert_eq!(par_record, ser_record, "AGP records diverged at tau={tau}");
            assert_eq!(
                format!("{par_index:?}"),
                format!("{ser_index:?}"),
                "AGP index state diverged at tau={tau}"
            );
        }
    }

    #[test]
    fn cache_counters_are_recorded() {
        let mut index = sample_index();
        let record = AbnormalGroupProcessor::new(1, Metric::Levenshtein).process(&mut index);
        let stats = record.cache;
        assert!(
            stats.misses > 0,
            "AGP on the sample must compute some distances"
        );
        assert!((0.0..=1.0).contains(&stats.hit_rate()));
    }

    /// The exhaustive scan `plan_block` replaces, kept as the oracle: every
    /// normal candidate's full un-memoised record distance, `min_by` (first
    /// minimal candidate), then the guard on the un-memoised normalized
    /// distance.  Returns the targets and how many merges the guard vetoed.
    fn reference_targets(
        agp: &AbnormalGroupProcessor,
        block: &Block,
        pool: &ValuePool,
    ) -> (Vec<Option<usize>>, usize) {
        let dominant_strs = |g: &Group| g.dominant_gamma().map(|d| d.resolve_values(pool));
        let is_abnormal = |g: &Group| g.tuple_count() <= agp.tau;
        let mut vetoes = 0;
        let targets = block
            .groups
            .iter()
            .filter(|g| is_abnormal(g))
            .map(|group| {
                let own = dominant_strs(group)?;
                let (nearest, _) = block
                    .groups
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| !is_abnormal(g))
                    .filter_map(|(ci, g)| {
                        let d = distance::record_distance(&agp.metric, &own, &dominant_strs(g)?);
                        Some((ci, d))
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are never NaN"))?;
                let theirs = dominant_strs(&block.groups[nearest]).expect("a candidate has γs");
                let vetoed = agp.distance_guard.is_some_and(|guard| {
                    distance::normalized_record_distance(&agp.metric, &own, &theirs) > guard
                });
                vetoes += usize::from(vetoed);
                (!vetoed).then_some(nearest)
            })
            .collect();
        (targets, vetoes)
    }

    /// Distance lookups a cache has answered so far, hits and misses alike.
    fn lookups(cache: &DistanceCache) -> u64 {
        cache.stats().hits + cache.stats().misses
    }

    /// A cold plan: nothing measured, nothing remembered.
    fn cold_plan(agp: &AbnormalGroupProcessor, block: &Block, pool: &ValuePool) -> AgpPlan {
        agp.plan_block(
            block,
            pool,
            &mut DistanceCache::new(agp.metric),
            &mut PlanMemo::default(),
        )
    }

    /// `plan_block` against the oracle on one block: same abnormal set, same
    /// targets (hence same guard vetoes), and `AgpMerge` records that name
    /// exactly those groups.  Returns (merges, vetoes) for the callers'
    /// non-vacuity checks.
    fn assert_plan_matches_reference(
        agp: &AbnormalGroupProcessor,
        block: &Block,
        pool: &ValuePool,
    ) -> (usize, usize) {
        let context = format!(
            "rule {:?}, {:?}, tau {}, guard {:?}",
            block.rule, agp.metric, agp.tau, agp.distance_guard
        );
        let plan = cold_plan(agp, block, pool);
        let (targets, vetoes) = reference_targets(agp, block, pool);
        assert_eq!(plan.targets, targets, "targets diverged: {context}");
        let merges: Vec<AgpMerge> = plan
            .abnormal
            .iter()
            .zip(&targets)
            .map(|(&ai, target)| {
                let resolve = |g: &Group| -> Vec<String> {
                    g.resolve_key(pool)
                        .into_iter()
                        .map(str::to_string)
                        .collect()
                };
                let group = &block.groups[ai];
                assert!(group.tuple_count() <= agp.tau, "not abnormal: {context}");
                AgpMerge {
                    rule: block.rule,
                    abnormal_key: resolve(group),
                    target_key: target.map(|ci| resolve(&block.groups[ci])),
                    tuples: group.all_tuples(),
                    gamma_count: group.gamma_count(),
                }
            })
            .collect();
        assert_eq!(
            plan.record.merges, merges,
            "merge records diverged: {context}"
        );
        (targets.iter().flatten().count(), vetoes)
    }

    #[test]
    fn bounded_search_matches_exhaustive_reference_on_seeded_workloads() {
        use datagen::{CarGenerator, HaiGenerator, TpchGenerator};
        // The benchmark's workloads in miniature: error rate, replacement
        // ratio and τ as `benchmark/src/inputs.rs` sets them.
        let tpch = TpchGenerator::default().with_rows(900).with_customers(60);
        let hai = HaiGenerator::default().with_rows(700).with_providers(25);
        let car = CarGenerator::default().with_rows(900);
        let workloads = [
            (tpch.dirty(0.02, 0.5, 11).dirty, TpchGenerator::rules(), 2),
            (hai.dirty(0.02, 0.5, 12).dirty, HaiGenerator::rules(), 2),
            (car.dirty(0.02, 0.5, 13).dirty, CarGenerator::rules(), 1),
        ];
        for (dirty, rules, tau) in workloads {
            let index = MlnIndex::build(&dirty, &rules).unwrap();
            for metric in Metric::ALL {
                let (mut merges, mut vetoes) = (0, 0);
                // No guard, the benchmark's, and one that vetoes every merge.
                for guard in [None, Some(0.15), Some(0.0)] {
                    let mut agp = AbnormalGroupProcessor::new(tau, metric);
                    agp.distance_guard = guard;
                    for block in &index.blocks {
                        let (m, v) = assert_plan_matches_reference(&agp, block, index.pool());
                        merges += m;
                        vetoes += v;
                    }
                }
                assert!(merges > 0, "{metric:?}: no merge was exercised");
                assert!(vetoes > 0, "{metric:?}: no guard veto was exercised");
            }
        }
    }

    /// Four spellings per attribute, a character or two apart, so random
    /// rows share values often and are often a few edits apart.
    const SPELLINGS: [[&str; 4]; 3] = [
        ["AB", "AC", "BC", "ABC"],
        ["x", "y", "xy", "yx"],
        ["p", "q", "pq", "qqp"],
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn the_lookup_plans_what_the_exhaustive_scan_plans_on_small_random_blocks(
            arity in 1usize..4,
            tau in 1usize..3,
            damerau in 0usize..2,
            guarded in 0usize..2,
            rows in proptest::collection::vec(0usize..256, 1..30),
        ) {
            // Arity 1 is a reason part alone: a DC whose result repeats it.
            let rules = ["DC: A = A, A != A", "FD: A -> B", "FD: A, B -> C"][arity - 1];
            let mut ds = Dataset::new(Schema::new(&["A", "B", "C"]));
            // Each code: a spelling per attribute (two bits each), then one
            // to four copies of the row.
            for code in rows {
                let row: Vec<String> = (0..3)
                    .map(|at| SPELLINGS[at][(code >> (2 * at)) & 3].to_string())
                    .collect();
                for _ in 0..=code >> 6 {
                    ds.push_row(row.clone()).unwrap();
                }
            }
            let index = MlnIndex::build(&ds, &rules::parse_rules(rules).unwrap()).unwrap();
            assert_eq!(index.blocks[0].reason_attrs.len() + index.blocks[0].result_attrs.len(), arity);
            let metric = [Metric::Levenshtein, Metric::DamerauLevenshtein][damerau];
            let mut agp = AbnormalGroupProcessor::new(tau, metric);
            agp.distance_guard = [None, Some(0.3)][guarded];
            for block in &index.blocks {
                assert_plan_matches_reference(&agp, block, index.pool());
            }
        }
    }

    #[test]
    fn equidistant_candidates_keep_the_first_in_block_order() {
        // "AAB" is one edit from each of three normal keys, and every γ has
        // the same result value: a three-way tie under every metric.
        let mut ds = Dataset::new(Schema::new(&["CT", "ST"]));
        for key in ["AAE", "AAC", "AAD"] {
            for _ in 0..3 {
                ds.push_row(vec![key.into(), "AL".into()]).unwrap();
            }
        }
        ds.push_row(vec!["AAB".into(), "AL".into()]).unwrap();
        let rules = rules::parse_rules("FD: CT -> ST").unwrap();
        let index = MlnIndex::build(&ds, &rules).unwrap();
        let block = index.block(RuleId(0));
        let first_normal = block
            .groups
            .iter()
            .position(|g| g.tuple_count() > 1)
            .unwrap();
        for metric in Metric::ALL {
            for guard in [None, Some(0.15), Some(0.9)] {
                let mut agp = AbnormalGroupProcessor::new(1, metric);
                agp.distance_guard = guard;
                assert_plan_matches_reference(&agp, block, index.pool());
            }
            let agp = AbnormalGroupProcessor::new(1, metric);
            let plan = cold_plan(&agp, block, index.pool());
            assert_eq!(plan.targets, vec![Some(first_normal)], "{metric:?}");
        }
    }

    /// Two blocks, each one abnormal key with two normal neighbours one
    /// substitution away — one spelt with the abnormal key's own characters
    /// (bound 0: the search's seed), one that brings a new character (bound
    /// 1).  In `.0` the seed sits below the other neighbour, in `.1` above.
    fn seed_below_and_seed_above() -> (Evolving, Evolving) {
        let bound = |a, b| EditSketch::of(a).lower_bound(EditSketch::of(b));
        assert_eq!((bound("AAB", "ABB"), bound("AAB", "AAC")), (0, 1));
        assert_eq!((bound("ABB", "AAB"), bound("ABB", "ABC")), (0, 1));
        (
            Evolving::cities(&[("AAB", "AL", 1), ("AAC", "AL", 3), ("ABB", "AL", 3)]),
            Evolving::cities(&[("AAB", "AL", 3), ("ABB", "AL", 1), ("ABC", "AL", 3)]),
        )
    }

    /// What a cold plan of one block cost: distance lookups (hits and
    /// misses) and sketch bounds.
    #[derive(Debug, PartialEq)]
    struct Cost {
        lookups: u64,
        bounds: u64,
    }

    /// A cold plan of `table`'s one block, held to the oracle: its merges
    /// and what it cost.
    fn cold_homes(agp: &AbnormalGroupProcessor, table: &Evolving) -> (Vec<(String, String)>, Cost) {
        let (block, pool) = (table.index.block(RuleId(0)), table.index.pool());
        assert_plan_matches_reference(agp, block, pool);
        let mut cache = DistanceCache::new(agp.metric);
        let plan = agp.plan_block(block, pool, &mut cache, &mut PlanMemo::default());
        let homes = homes(&plan)
            .into_iter()
            .map(|(from, to)| (from.to_string(), to.expect("a normal group").to_string()))
            .collect();
        let cost = Cost {
            lookups: lookups(&cache),
            bounds: plan.record.bounds_computed,
        };
        (homes, cost)
    }

    #[test]
    fn the_least_bound_candidate_does_not_steal_a_tie_from_an_earlier_group() {
        let (below, above) = seed_below_and_seed_above();
        for metric in [Metric::Levenshtein, Metric::DamerauLevenshtein] {
            let agp = AbnormalGroupProcessor::new(1, metric);
            // Measured first, from below: the equidistant group further up
            // takes the tie, as in a scan from the top.
            let (homes, _) = cold_homes(&agp, &below);
            assert_eq!(homes, [("AAB".into(), "AAC".into())], "{metric:?}");
            // From above: it was first anyway.
            let (homes, _) = cold_homes(&agp, &above);
            assert_eq!(homes, [("ABB".into(), "AAB".into())], "{metric:?}");
        }
    }

    #[test]
    fn a_candidate_whose_bound_equals_the_limit_is_still_probed_from_further_up() {
        let (_, above) = seed_below_and_seed_above();
        // "AAAC" is *two* edits from "AAB" with a bound of one — the seed's
        // distance — and sorts before it.
        let far_above = Evolving::cities(&[("AAAC", "AL", 3), ("AAB", "AL", 1), ("ABB", "AL", 3)]);
        let bound = EditSketch::of("AAB").lower_bound(EditSketch::of("AAAC"));
        assert_eq!(
            (bound, distance::damerau_levenshtein("AAB", "AAAC")),
            (1, 2)
        );
        for metric in [Metric::Levenshtein, Metric::DamerauLevenshtein] {
            let agp = AbnormalGroupProcessor::new(1, metric);
            // Both neighbours share "AL", one of two values: each is at least
            // one edit away, and both are bounded to pick the seed.  Further
            // up a tie would win, so neither that count nor the bound — both
            // one, the seed's distance — is proof: the seed's two
            // attributes, then the key that settles it.
            let (homes, cost) = cold_homes(&agp, &far_above);
            assert_eq!(homes, [("AAB".into(), "ABB".into())], "{metric:?}");
            let cost_far_above = Cost {
                lookups: 3,
                bounds: 2,
            };
            assert_eq!(cost, cost_far_above, "{metric:?}");
            // Further down the count is: "ABC" is never looked up.
            let (homes, cost) = cold_homes(&agp, &above);
            assert_eq!(homes, [("ABB".into(), "AAB".into())], "{metric:?}");
            let cost_above = Cost {
                lookups: 2,
                bounds: 2,
            };
            assert_eq!(cost, cost_above, "{metric:?}");
        }
    }

    /// `FD: CT -> ST` (arity 2): the abnormal "AAB"/"AL" among `normals`,
    /// each three tuples strong.  A cold plan's one home, and its cost.
    fn lone_typo(metric: Metric, normals: &[(&str, &str)]) -> (String, Cost) {
        let mut rows = vec![("AAB", "AL", 1)];
        rows.extend(normals.iter().map(|&(city, state)| (city, state, 3)));
        let (homes, cost) = cold_homes(
            &AbnormalGroupProcessor::new(1, metric),
            &Evolving::cities(&rows),
        );
        let [(from, to)] = &homes[..] else {
            panic!("one abnormal group: {homes:?}");
        };
        assert_eq!(from, "AAB");
        (to.clone(), cost)
    }

    #[test]
    fn an_incumbent_one_below_arity_settles_the_search_in_the_postings() {
        for metric in [Metric::Levenshtein, Metric::DamerauLevenshtein] {
            // "AAC"/"AL" shares "AL" and is one edit away, under arity 2:
            // no group that shares nothing is bounded, let alone measured —
            // not even "AAA"/"AK", as near as a non-sharing group can be.
            let (home, cost) = lone_typo(metric, &[("AAA", "AK"), ("AAC", "AL"), ("ZZ", "AK")]);
            assert_eq!(home, "AAC", "{metric:?}");
            let cost_settled = Cost {
                lookups: 2,
                bounds: 1,
            };
            assert_eq!(cost, cost_settled, "{metric:?}");
        }
    }

    #[test]
    fn a_group_that_shares_too_few_values_is_never_bounded() {
        // `FD: A, B -> C`, arity 3.  "AAC"/"x"/"p" shares two of the
        // abnormal group's values and is one edit away.  "AAA"/"y"/"p" sorts
        // first but shares one: at least 3 − 1 = 2 away, past a tie with
        // 1, so it is dropped on its count, never bounded; "ZZZ"/"z"/"q"
        // shares nothing and is never even visited.
        let ds = Dataset::new(Schema::new(&["A", "B", "C"]));
        let mut table = Evolving::new(ds, rules::parse_rules("FD: A, B -> C").unwrap());
        for (a, b, c, copies) in [
            ("AAA", "y", "p", 3),
            ("AAB", "x", "p", 1),
            ("AAC", "x", "p", 3),
            ("ZZZ", "z", "q", 3),
        ] {
            table.insert(vec![vec![a.into(), b.into(), c.into()]; copies]);
        }
        for metric in [Metric::Levenshtein, Metric::DamerauLevenshtein] {
            let (homes, cost) = cold_homes(&AbnormalGroupProcessor::new(1, metric), &table);
            assert_eq!(homes, [("AAB".into(), "AAC".into())], "{metric:?}");
            // The seed's three attributes; its one bound.
            let cost_counted = Cost {
                lookups: 3,
                bounds: 1,
            };
            assert_eq!(cost, cost_counted, "{metric:?}");
        }
    }

    #[test]
    fn an_incumbent_at_arity_falls_through_and_loses_a_tie_from_further_up() {
        for metric in [Metric::Levenshtein, Metric::DamerauLevenshtein] {
            // The one sharing group, "ABC"/"AL", is two edits away — arity.
            // "AAA"/"AK" shares nothing, is two edits away too and sorts
            // first: the search has to fall through to it, and it wins.
            let (home, cost) = lone_typo(metric, &[("AAA", "AK"), ("ABC", "AL")]);
            assert_eq!(home, "AAA", "{metric:?}");
            // Both bounded; "ABC" in full, "AAA" to the tie.
            let cost_fell_through = Cost {
                lookups: 4,
                bounds: 2,
            };
            assert_eq!(cost, cost_fell_through, "{metric:?}");
        }
    }

    #[test]
    fn a_search_with_no_sharing_candidate_is_the_seeded_scan() {
        for metric in [Metric::Levenshtein, Metric::DamerauLevenshtein] {
            // Nobody shares a value: every normal group is bounded, the one
            // of least bound ("AAC", a class apart in each attribute) is the
            // seed, two edits away; "ZZZ" shares nothing either, so it is
            // at least arity = two edits away and never looked up.
            let (home, cost) = lone_typo(metric, &[("AAC", "AK"), ("ZZZ", "AK")]);
            assert_eq!(home, "AAC", "{metric:?}");
            let cost_scanned = Cost {
                lookups: 2,
                bounds: 2,
            };
            assert_eq!(cost, cost_scanned, "{metric:?}");
        }
    }

    #[test]
    fn an_equidistant_group_that_shares_nothing_further_up_takes_the_tie() {
        for metric in [Metric::Levenshtein, Metric::DamerauLevenshtein] {
            // "BBC"/"AL" shares "AL" and is three edits away, past arity;
            // "A"/"AK" shares nothing, sorts first, and is three edits away
            // too.  Sharing more is no tie-break: block order is.
            let (home, _) = lone_typo(metric, &[("A", "AK"), ("BBC", "AL")]);
            assert_eq!(home, "A", "{metric:?}");
            // When the sharing group comes first, it keeps the tie at arity:
            // "A"/"AL" and "AABB"/"AK" are both two edits away.
            let (home, cost) = lone_typo(metric, &[("A", "AL"), ("AABB", "AK")]);
            assert_eq!(home, "A", "{metric:?}");
            // …and the group further down, sharing nothing and hence at
            // least arity away, is dropped on that alone, never bounded.
            let cost_kept = Cost {
                lookups: 2,
                bounds: 1,
            };
            assert_eq!(cost, cost_kept, "{metric:?}");
        }
    }

    #[test]
    fn a_block_of_only_abnormal_groups_plans_no_merge_and_probes_nothing() {
        let index = sample_index();
        for metric in Metric::ALL {
            let agp = AbnormalGroupProcessor::new(100, metric).with_distance_guard(0.15);
            for block in &index.blocks {
                let mut cache = DistanceCache::new(metric);
                let plan =
                    agp.plan_block(block, index.pool(), &mut cache, &mut PlanMemo::default());
                assert_eq!(plan.abnormal.len(), block.group_count());
                assert!(plan.targets.iter().all(Option::is_none));
                assert_eq!(cache.stats(), CacheStats::default());
                assert_plan_matches_reference(&agp, block, index.pool());
            }
        }
    }

    /// One processor's planning state across re-plans of an index — per
    /// block, the distance cache and the plan memo `StageOne` keeps.
    struct Warm {
        agp: AbnormalGroupProcessor,
        state: Vec<(DistanceCache, PlanMemo)>,
    }

    impl Warm {
        fn new(agp: AbnormalGroupProcessor, index: &MlnIndex) -> Self {
            let state = index
                .blocks
                .iter()
                .map(|_| (DistanceCache::new(agp.metric), PlanMemo::default()))
                .collect();
            Warm { agp, state }
        }

        /// Re-plan block `b` against the state the earlier plans left, and
        /// hold the plan to a cold one and to the oracle.  Returns the plan
        /// and how many distance lookups (hits + misses) it made.
        fn replan(&mut self, index: &MlnIndex, b: usize, context: &str) -> (AgpPlan, u64) {
            let (block, pool) = (&index.blocks[b], index.pool());
            let context = format!(
                "{context}: block {b}, {:?}, tau {}, guard {:?}",
                self.agp.metric, self.agp.tau, self.agp.distance_guard
            );
            let (cache, memo) = &mut self.state[b];
            let before = lookups(cache);
            let plan = self.agp.plan_block(block, pool, cache, memo);
            let probes = lookups(cache) - before;
            let cold = cold_plan(&self.agp, block, pool);
            assert_eq!(plan.abnormal, cold.abnormal, "abnormal set: {context}");
            assert_eq!(plan.targets, cold.targets, "targets: {context}");
            assert_eq!(plan.record, cold.record, "merge records: {context}");
            let (targets, _) = reference_targets(&self.agp, block, pool);
            assert_eq!(plan.targets, targets, "targets vs oracle: {context}");
            (plan, probes)
        }
    }

    /// A dataset and its pristine index kept in step through the index's
    /// own splice paths — what a session's `apply` does.
    pub(crate) struct Evolving {
        pub(crate) ds: Dataset,
        pub(crate) rules: RuleSet,
        pub(crate) index: MlnIndex,
    }

    /// What one mutation of an [`Evolving`] table told its caller — what a
    /// session's `apply` keeps its stage drivers in step with.
    pub(crate) enum Change {
        Inserted(crate::InsertReport),
        /// The tuple written, and per block the group keys it moved across.
        Updated(TupleId, Vec<Vec<Vec<ValueId>>>),
        /// The removed rows (pre-removal, sorted, deduplicated).
        Deleted(Vec<usize>, crate::RemoveReport),
    }

    impl Evolving {
        pub(crate) fn new(ds: Dataset, rules: RuleSet) -> Self {
            let index = MlnIndex::build(&ds, &rules).unwrap();
            Evolving { ds, rules, index }
        }

        /// `FD: CT -> ST` over `(city, state, copies)` rows.
        fn cities(rows: &[(&str, &str, usize)]) -> Self {
            let ds = Dataset::new(Schema::new(&["CT", "ST"]));
            let mut table = Self::new(ds, rules::parse_rules("FD: CT -> ST").unwrap());
            for &(city, state, copies) in rows {
                table.insert(vec![vec![city.into(), state.into()]; copies]);
            }
            table
        }

        pub(crate) fn insert(&mut self, rows: Vec<Vec<String>>) -> Change {
            let from = self.ds.len();
            self.ds.extend_rows(rows).unwrap();
            Change::Inserted(self.index.insert_tuples(&self.ds, &self.rules, from, false))
        }

        pub(crate) fn update(&mut self, t: TupleId, attr: AttrId, value: &str) -> Change {
            let mut touched = Vec::new();
            if self.ds.value(t, attr) != value {
                let old_row = self.ds.row_ids(t);
                self.ds.set_value(t, attr, value);
                touched = self
                    .index
                    .update_tuple(&self.ds, &self.rules, t, &old_row, false);
            }
            Change::Updated(t, touched)
        }

        pub(crate) fn delete(&mut self, ids: &[TupleId]) -> Change {
            let report = self
                .index
                .remove_tuples(&self.ds, &self.rules, ids, false)
                .unwrap();
            self.ds.remove_rows(ids);
            let mut removed: Vec<usize> = ids.iter().map(|t| t.index()).collect();
            removed.sort_unstable();
            removed.dedup();
            Change::Deleted(removed, report)
        }

        /// Delete every row whose first attribute is `key`.
        fn delete_key(&mut self, key: &str) {
            let ids: Vec<TupleId> = self
                .ds
                .tuple_ids()
                .filter(|&t| self.ds.value(t, AttrId(0)) == key)
                .collect();
            self.delete(&ids);
        }
    }

    /// The `(abnormal key, target key)` pairs of a single-attribute-key plan.
    fn homes(plan: &AgpPlan) -> Vec<(&str, Option<&str>)> {
        let merges = plan.record.merges.iter();
        merges
            .map(|m| {
                let target = m.target_key.as_ref().map(|key| key[0].as_str());
                (m.abnormal_key[0].as_str(), target)
            })
            .collect()
    }

    /// SplitMix64, for the seeded streams below.
    pub(crate) struct StreamRng(pub(crate) u64);

    impl StreamRng {
        pub(crate) fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
        }
    }

    /// One random change set over `table`: one to four mutations — in-domain
    /// or typo'd updates of rule attributes (reason and result parts alike),
    /// inserts of perturbed copies of live rows, deletes.  Returns what each
    /// did, in order.
    pub(crate) fn random_change_set(table: &mut Evolving, rng: &mut StreamRng) -> Vec<Change> {
        let mut changes = Vec::new();
        let attrs: Vec<AttrId> = table
            .index
            .blocks
            .iter()
            .flat_map(|b| b.reason_attrs.iter().chain(&b.result_attrs).copied())
            .collect();
        for _ in 0..1 + rng.below(4) {
            let rows = table.ds.len();
            let attr = attrs[rng.below(attrs.len())];
            let donor = TupleId(rng.below(rows));
            let mut value = table.ds.value(donor, attr).to_string();
            if rng.below(3) == 0 {
                value.push('~');
            }
            match rng.below(10) {
                0..=4 => changes.push(table.update(TupleId(rng.below(rows)), attr, &value)),
                5..=7 => {
                    let mut batch = Vec::new();
                    for _ in 0..1 + rng.below(3) {
                        let mut row = table.ds.tuple(TupleId(rng.below(rows))).owned_values();
                        if rng.below(2) == 0 {
                            row[attr.index()] = value.clone();
                        }
                        batch.push(row);
                    }
                    changes.push(table.insert(batch));
                }
                _ if rows > 8 => {
                    let mut ids = vec![TupleId(rng.below(rows)), TupleId(rng.below(rows))];
                    ids.truncate(1 + rng.below(2));
                    changes.push(table.delete(&ids));
                }
                _ => {}
            }
        }
        changes
    }

    #[test]
    fn the_maintained_plan_equals_a_cold_one_after_every_change_set_of_seeded_streams() {
        use datagen::{CarGenerator, HaiGenerator, TpchGenerator};
        let tpch = TpchGenerator::default().with_rows(240).with_customers(16);
        let hai = HaiGenerator::default().with_rows(200).with_providers(8);
        let car = CarGenerator::default().with_rows(80);
        let workloads = [
            (
                "hospital",
                sample_hospital_dataset(),
                sample_hospital_rules(),
                1,
            ),
            (
                "tpch",
                tpch.dirty(0.03, 0.5, 21).dirty,
                TpchGenerator::rules(),
                2,
            ),
            (
                "hai",
                hai.dirty(0.03, 0.5, 22).dirty,
                HaiGenerator::rules(),
                2,
            ),
            (
                "car",
                car.dirty(0.03, 0.5, 23).dirty,
                CarGenerator::rules(),
                1,
            ),
        ];
        for (name, dirty, rules, tau) in workloads {
            let mut table = Evolving::new(dirty, rules);
            let blocks = table.index.block_count();
            // Every metric × {no guard, the benchmark's, one that vetoes
            // every merge} rides the same stream, each on its own state.
            let mut planners: Vec<Warm> = Metric::ALL
                .into_iter()
                .flat_map(|metric| [None, Some(0.15), Some(0.0)].map(|guard| (metric, guard)))
                .map(|(metric, guard)| {
                    let mut agp = AbnormalGroupProcessor::new(tau, metric);
                    agp.distance_guard = guard;
                    Warm::new(agp, &table.index)
                })
                .collect();
            let mut rng = StreamRng(0xA6B + tau as u64);
            let (mut abnormal, mut rescanned) = (0, 0);
            for step in 0..12 {
                if step > 0 {
                    random_change_set(&mut table, &mut rng);
                    let rebuilt = MlnIndex::build(&table.ds, &table.rules).unwrap();
                    assert_eq!(table.index.blocks, rebuilt.blocks, "{name}: the harness");
                }
                for planner in &mut planners {
                    for b in 0..blocks {
                        let context = format!("{name}, step {step}");
                        let (plan, _) = planner.replan(&table.index, b, &context);
                        if step == 0 {
                            assert_eq!(plan.rescanned, plan.abnormal.len() as u64, "{context}");
                        } else {
                            abnormal += plan.abnormal.len() as u64;
                            rescanned += plan.rescanned;
                        }
                    }
                }
            }
            // The streams invalidate some remembered answers, not all.
            assert!(
                0 < rescanned && rescanned < abnormal / 2,
                "{name}: {rescanned} full scans for {abnormal} abnormal groups re-planned"
            );
        }
    }

    #[test]
    fn a_new_equidistant_normal_group_takes_over_only_from_an_earlier_position() {
        // "AAB" is one edit from "AAC", "AAD" and "AAE" alike, with the same
        // result value: ties under every metric, edit and unit alike.
        for metric in Metric::ALL {
            for guard in [None, Some(0.9)] {
                let mut table = Evolving::cities(&[("AAD", "AL", 3), ("AAB", "AL", 1)]);
                let mut agp = AbnormalGroupProcessor::new(1, metric);
                agp.distance_guard = guard;
                let mut warm = Warm::new(agp, &table.index);
                let (plan, _) = warm.replan(&table.index, 0, "alone");
                assert_eq!(homes(&plan), [("AAB", Some("AAD"))], "{metric:?}");

                // Sorts before the incumbent: wins the tie, as it would have
                // in a scan from the top.
                table.insert(vec![vec!["AAC".into(), "AL".into()]; 3]);
                let (plan, probes) = warm.replan(&table.index, 0, "an earlier tie");
                assert_eq!(homes(&plan), [("AAB", Some("AAC"))], "{metric:?}");
                assert_eq!(plan.rescanned, 0, "{metric:?}");
                assert!(probes > 0, "{metric:?}");

                // Sorts after it: has to be strictly closer, and is not.
                table.insert(vec![vec!["AAE".into(), "AL".into()]; 3]);
                let (plan, _) = warm.replan(&table.index, 0, "a later tie");
                assert_eq!(homes(&plan), [("AAB", Some("AAC"))], "{metric:?}");
                assert_eq!(plan.rescanned, 0, "{metric:?}");
            }
        }
    }

    #[test]
    fn an_incumbent_that_left_or_changed_its_dominant_gamma_is_not_trusted() {
        // "AAD" ties between its three neighbours under every metric; the
        // first of them sits right before it in the block.
        let rows = [
            ("AAC", "AL", 3),
            ("AAD", "AL", 1),
            ("AAE", "AL", 3),
            ("AAF", "AL", 3),
        ];
        for metric in Metric::ALL {
            let mut table = Evolving::cities(&rows);
            let mut warm = Warm::new(AbnormalGroupProcessor::new(1, metric), &table.index);
            let (plan, _) = warm.replan(&table.index, 0, "all three");
            assert_eq!(homes(&plan), [("AAD", Some("AAC"))], "{metric:?}");
            let (plan, probes) = warm.replan(&table.index, 0, "unchanged");
            assert_eq!((plan.rescanned, probes), (0, 0), "{metric:?}");

            // The incumbent is deleted: nothing fresh, yet a full scan (its
            // old position now holds "AAD" itself).
            table.delete_key("AAC");
            let (plan, _) = warm.replan(&table.index, 0, "incumbent deleted");
            assert_eq!(homes(&plan), [("AAD", Some("AAE"))], "{metric:?}");
            assert_eq!(plan.rescanned, 1, "{metric:?}");

            // The incumbent's dominant γ flips to another state: the
            // remembered distance no longer describes it.
            table.insert(vec![vec!["AAE".into(), "AK".into()]; 4]);
            let (plan, _) = warm.replan(&table.index, 0, "incumbent flipped");
            assert_eq!(homes(&plan), [("AAD", Some("AAF"))], "{metric:?}");
            assert_eq!(plan.rescanned, 1, "{metric:?}");

            // A change that leaves every signature alone costs nothing.
            table.insert(vec![vec!["AAF".into(), "AK".into()]]);
            let (plan, probes) = warm.replan(&table.index, 0, "a minority γ");
            assert_eq!(homes(&plan), [("AAD", Some("AAF"))], "{metric:?}");
            assert_eq!((plan.rescanned, probes), (0, 0), "{metric:?}");
        }
    }

    #[test]
    fn groups_crossing_tau_join_and_leave_the_candidates() {
        for metric in Metric::ALL {
            let mut table =
                Evolving::cities(&[("AAA", "AL", 1), ("AAB", "AL", 1), ("AAD", "AL", 3)]);
            let mut warm = Warm::new(AbnormalGroupProcessor::new(1, metric), &table.index);
            let (plan, _) = warm.replan(&table.index, 0, "two abnormal groups");
            let both = [("AAA", Some("AAD")), ("AAB", Some("AAD"))];
            assert_eq!(homes(&plan), both, "{metric:?}");

            // "AAA" grows past τ: a candidate for "AAB", ahead of "AAD".
            table.insert(vec![vec!["AAA".into(), "AL".into()]]);
            let (plan, _) = warm.replan(&table.index, 0, "grown past tau");
            assert_eq!(homes(&plan), [("AAB", Some("AAA"))], "{metric:?}");
            assert_eq!(plan.rescanned, 0, "{metric:?}");

            // It shrinks back: it needs a target itself, and the group that
            // had merged into it needs another one.
            let last = TupleId(table.ds.len() - 1);
            table.delete(&[last]);
            let (plan, _) = warm.replan(&table.index, 0, "shrunk to tau");
            assert_eq!(homes(&plan), both, "{metric:?}");
            assert_eq!(plan.rescanned, 2, "{metric:?}");
        }
    }

    #[test]
    fn a_guard_verdict_is_kept_only_while_group_and_target_stand() {
        // Normalized distances to "AAAAAAAB"/AL: (8/8 + 0) / 2 from the far
        // key, (1/8 + 0) / 2 from the near one.
        let mut table = Evolving::cities(&[("AAAAAAAB", "AL", 1), ("ZZZZZZZZ", "AL", 3)]);
        let agp = AbnormalGroupProcessor::new(1, Metric::Levenshtein).with_distance_guard(0.15);
        let mut warm = Warm::new(agp, &table.index);
        let (plan, _) = warm.replan(&table.index, 0, "far only");
        assert_eq!(homes(&plan), [("AAAAAAAB", None)], "vetoed");

        // Group and target stand: the verdict is not asked for again.
        let (plan, probes) = warm.replan(&table.index, 0, "unchanged");
        assert_eq!(homes(&plan), [("AAAAAAAB", None)]);
        assert_eq!((plan.rescanned, probes), (0, 0));

        // A new winner gets its own verdict, not the old target's veto…
        table.insert(vec![vec!["AAAAAAAC".into(), "AL".into()]; 3]);
        let (plan, _) = warm.replan(&table.index, 0, "near appears");
        assert_eq!(homes(&plan), [("AAAAAAAB", Some("AAAAAAAC"))]);
        assert_eq!(plan.rescanned, 0);

        // …and the far group, nearest again, not the near one's pass.
        table.delete_key("AAAAAAAC");
        let (plan, _) = warm.replan(&table.index, 0, "near leaves");
        assert_eq!(homes(&plan), [("AAAAAAAB", None)]);
        assert_eq!(plan.rescanned, 1);
    }

    #[test]
    fn a_block_without_a_normal_group_then_its_first_one() {
        for metric in Metric::ALL {
            let mut table =
                Evolving::cities(&[("AAB", "AL", 1), ("AAC", "AL", 1), ("AAD", "AL", 1)]);
            let agp = AbnormalGroupProcessor::new(1, metric).with_distance_guard(0.9);
            let mut warm = Warm::new(agp, &table.index);
            let homeless = [("AAB", None), ("AAC", None), ("AAD", None)];
            let (plan, probes) = warm.replan(&table.index, 0, "no normal group");
            assert_eq!(homes(&plan), homeless, "{metric:?}");
            assert_eq!((plan.rescanned, probes), (3, 0), "{metric:?}");
            let (plan, probes) = warm.replan(&table.index, 0, "still none");
            assert_eq!(homes(&plan), homeless, "{metric:?}");
            assert_eq!((plan.rescanned, probes), (0, 0), "{metric:?}");

            table.insert(vec![vec!["AAD".into(), "AL".into()]]);
            let (plan, probes) = warm.replan(&table.index, 0, "the first one");
            let housed = [("AAB", Some("AAD")), ("AAC", Some("AAD"))];
            assert_eq!(homes(&plan), housed, "{metric:?}");
            assert_eq!(plan.rescanned, 0, "{metric:?}");
            assert!(probes > 0, "{metric:?}");
        }
    }

    /// The lookups of the scan without a filter: every abnormal group asks
    /// every normal group in block order "closer than the best so far?",
    /// then the guard about the winner.
    fn plain_scan_lookups(agp: &AbnormalGroupProcessor, block: &Block, pool: &ValuePool) -> u64 {
        let mut cache = DistanceCache::new(agp.metric);
        let dominant = |g: &Group| g.dominant_gamma().map(Gamma::value_ids);
        let (abnormal, normal): (Vec<&Group>, Vec<&Group>) = block
            .groups
            .iter()
            .partition(|g| g.tuple_count() <= agp.tau);
        for own in abnormal.into_iter().filter_map(dominant) {
            let mut best: Option<(f64, Vec<ValueId>)> = None;
            for theirs in normal.iter().copied().filter_map(dominant) {
                let limit = best.as_ref().map_or(f64::INFINITY, |(d, _)| *d);
                if let Some(d) = cache.record_distance_below(pool, &own, &theirs, limit) {
                    best = Some((d, theirs));
                }
            }
            if let (Some(_), Some((_, theirs))) = (agp.distance_guard, best) {
                cache.normalized_record_distance(pool, &own, &theirs);
            }
        }
        lookups(&cache)
    }

    /// What `car_session` does on every `outcome()`: re-plan a block against
    /// the distance cache and the memo that served the previous plan.
    #[test]
    fn replanning_against_a_persistent_cache_reruns_only_what_changed() {
        use datagen::TpchGenerator;
        let generator = TpchGenerator::default().with_rows(900).with_customers(60);
        let mut table = Evolving::new(generator.dirty(0.02, 0.5, 11).dirty, TpchGenerator::rules());
        let agp = AbnormalGroupProcessor::new(2, Metric::Levenshtein).with_distance_guard(0.15);
        let mut warm = Warm::new(agp, &table.index);

        let (first, probes) = warm.replan(&table.index, 0, "cold");
        let cold = warm.state[0].0.stats();
        assert_eq!(probes, cold.hits + cold.misses);
        assert!(cold.misses > 0 && first.targets.iter().any(Option::is_some));
        assert_eq!(first.rescanned, first.abnormal.len() as u64);
        // The sketch filter keeps most abnormal × normal pairs from the memo…
        let block = &table.index.blocks[0];
        let arity = block.reason_attrs.len() + block.result_attrs.len();
        let normal_groups = block.group_count() - first.abnormal.len();
        let pairs = (first.abnormal.len() * normal_groups * arity) as u64;
        assert!(
            probes * 5 < pairs,
            "{probes} lookups for {pairs} value pairs"
        );
        // …and the lookup keeps most of them from even being bounded…
        let searched = (first.abnormal.len() * normal_groups) as u64;
        let bounded = first.record.bounds_computed;
        assert!(
            0 < bounded && bounded * 20 < searched,
            "{bounded} bounds for {searched} abnormal × normal pairs"
        );
        // …while both are vacuous where the metric has no bound and does
        // not count edits: every pair bounded, the plain scan's lookups to
        // the last one.
        for metric in [Metric::Cosine, Metric::Jaccard, Metric::JaroWinkler] {
            let agp = AbnormalGroupProcessor::new(2, metric).with_distance_guard(0.15);
            let pool = table.index.pool();
            let mut cache = DistanceCache::new(metric);
            let plan = agp.plan_block(block, pool, &mut cache, &mut PlanMemo::default());
            assert_eq!(plan.record.bounds_computed, searched, "{metric:?}");
            let plain = plain_scan_lookups(&agp, block, pool);
            assert_eq!(lookups(&cache), plain, "{metric:?}");
        }
        // Most give-ups are memoised as lower bounds, not dropped.
        assert_eq!(warm.state[0].0.len() as u64, cold.misses);

        // Same block, same state: same plan, without a single probe.
        let (second, probes) = warm.replan(&table.index, 0, "unchanged");
        assert_eq!(second.targets, first.targets);
        assert_eq!(second.record, first.record);
        assert_eq!((second.rescanned, probes), (0, 0));

        // Splice one new abnormal group in: a typo of an existing key with
        // values no other group has.
        let donor = block.groups.iter().find(|g| g.tuple_count() > 2).unwrap();
        let mut row = table.ds.tuple(donor.all_tuples()[0]).owned_values();
        for attr in block.reason_attrs.iter().chain(&block.result_attrs) {
            row[attr.index()].push('~');
        }
        table.insert(vec![row]);

        // Only the new group searches: once over the normal groups, plus
        // the guard's question about the winner.
        let (third, probes) = warm.replan(&table.index, 0, "one group spliced in");
        assert_eq!(third.abnormal.len(), first.abnormal.len() + 1);
        assert_eq!(third.rescanned, 1);
        assert!(
            warm.state[0].0.stats().misses > cold.misses,
            "never measured"
        );
        assert!(
            probes <= ((normal_groups + 1) * arity) as u64,
            "{probes} lookups for one new group against {normal_groups} candidates"
        );
    }

    #[test]
    fn higher_tau_detects_more_groups() {
        let metric = Metric::Levenshtein;
        let mut small = sample_index();
        let mut large = sample_index();
        let detected_small = AbnormalGroupProcessor::new(1, metric)
            .process(&mut small)
            .detected_count();
        let detected_large = AbnormalGroupProcessor::new(3, metric)
            .process(&mut large)
            .detected_count();
        assert!(detected_large >= detected_small);
    }
}
