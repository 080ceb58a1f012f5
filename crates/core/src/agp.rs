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
//! The nearest-normal search is exact, and it is filter → seed → refine.
//! *Filter*: every value carries a sketch — its char count and the set of
//! character classes it uses ([`EditSketch`]) — and two sketches bound the
//! edit distance of their values from below without a look at either string;
//! summed over the attributes that bounds the record distance of two
//! dominant γs.  *Seed*: a group that searches from nothing measures the
//! candidate of least bound first, in full, so the search starts from a
//! near neighbour instead of whichever normal group leads the block.
//! *Refine*: every other candidate, in block order, is skipped when its
//! bound already reaches the limit the incumbent sets, and is otherwise
//! asked "closer than that limit?" rather than "how far?": its record
//! distance is summed attribute by attribute and abandoned the moment the
//! partial sum reaches the limit, and under the edit metrics each attribute
//! is answered by a bounded dynamic program that gives up after a few cells.
//! A typo'd key whose true neighbour is one or two edits away therefore
//! never looks most other candidates up at all.  Under the metrics without
//! a sketch bound the bound is the constant `0`, the filter passes
//! everything and the seed is the block's first normal group: the plain scan.
//!
//! Merges, tie-breaks (first minimal candidate in block order) and guard
//! decisions are those of the exhaustive scan, whatever order the probes run
//! in: a candidate takes over iff it sorts before the incumbent in (distance,
//! block position) — strictly closer from further down the block, closer or
//! as close from further up — so after any sequence of probes the incumbent
//! is the least of those probed; and a skipped candidate's distance is at
//! least its bound, which is at least its limit, so probing it would have
//! changed nothing.
//!
//! Distances run through a per-block [`DistanceCache`] keyed on interned
//! value pairs, which memoises what each probe proved — an exact distance or
//! a lower bound — so a block re-planned against the same cache re-runs no
//! metric at all.  A filtered pair never reaches it.
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
//! answer, sending the group back to a scan of every normal group: the
//! group is new or its signature changed; its remembered target left the
//! block, turned abnormal or changed its dominant γ.  Nobody has to mark
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
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One merge performed (or attempted) by AGP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The full AGP record of one cleaning run, used both for reporting and for
/// the Precision-A / Recall-A evaluation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AgpRecord {
    /// Every detected abnormal group, in processing order.
    pub merges: Vec<AgpMerge>,
    /// Distance-cache counters accumulated over all blocks.
    pub cache: CacheStats,
}

/// Equality compares the *decisions* (the merges), not the distance-cache
/// counters: the incremental [`crate::CleaningSession`] keeps a persistent
/// per-block cache across refreshes, so its hit/miss split legitimately
/// differs from a cold batch run even when the merges are byte-identical.
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
        // abnormal × candidate pair) into one flat buffer, group `i`'s at
        // `ids[span(i)]`, and diff each signature against the memo.  `fresh`
        // lists the normal groups that are new to the block or changed
        // signature since the last plan: all of them, cold.
        let mut abnormal: Vec<usize> = Vec::new();
        let mut normals: Vec<usize> = Vec::new();
        let mut fresh: Vec<usize> = Vec::new();
        let arity = block.reason_attrs.len() + block.result_attrs.len();
        let mut ids: Vec<ValueId> = Vec::with_capacity(block.groups.len() * arity);
        let mut offsets: Vec<usize> = Vec::with_capacity(block.groups.len() + 1);
        offsets.push(0);
        for (i, group) in block.groups.iter().enumerate() {
            let is_abnormal = group.tuple_count() <= self.tau;
            let from = ids.len();
            ids.extend(group.dominant_gamma().into_iter().flat_map(Gamma::values));
            offsets.push(ids.len());
            let changed = memo.observe(&group.key, i, is_abnormal, &ids[from..]);
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
        let span = |i: usize| offsets[i]..offsets[i + 1];

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
        // group scans every normal group from nothing.
        //
        // The sketches of `ids`, in the same layout, from the first search
        // on; the candidates' lower bounds, one buffer for every search.
        let mut sketches: Vec<EditSketch> = Vec::new();
        let mut bounds: Vec<f64> = Vec::new();
        for &ai in &plan.abnormal {
            let group = &block.groups[ai];
            let standing = memo.standing(&group.key);
            let candidates = if group.gammas.is_empty() {
                // Nothing to measure from: the group stays where it is.
                &[][..]
            } else if standing.is_some() {
                &fresh[..]
            } else {
                plan.rescanned += 1;
                &normals[..]
            };
            let mut best = standing.flatten();
            if sketches.is_empty() && !candidates.is_empty() {
                sketches.extend(ids.iter().map(|&v| cache.sketch(pool, v)));
            }
            let own = &ids[span(ai)];
            // Filter: what each candidate's distance is at least.
            let bound =
                |ci: &usize| cache.record_lower_bound(&sketches[span(ai)], &sketches[span(*ci)]);
            bounds.clear();
            bounds.extend(candidates.iter().map(bound));
            // Seed: a search from nothing measures the candidate of least
            // bound first (the first such in block order), so that every
            // other one meets a tight limit; then block order.
            let seed = match best {
                None => (0..bounds.len()).min_by(|&j, &k| bounds[j].total_cmp(&bounds[k])),
                Some(_) => None,
            };
            let rest = (0..candidates.len()).filter(|&k| Some(k) != seed);
            for k in seed.into_iter().chain(rest) {
                // Refine.  Each candidate is asked "does it sort before the
                // best so far?", not "how far?": the first one is measured
                // in full, every later one only until its partial distance
                // reaches its limit — and not at all when its bound already
                // does.  One further down the block must be strictly closer,
                // one further up wins a tie as well, which keeps the *first*
                // minimal candidate (the historical `Iterator::min_by`
                // tie-break) whatever order the candidates are asked in.
                let ci = candidates[k];
                let limit = match &best {
                    None => f64::INFINITY,
                    Some(b) if ci < b.index => b.distance.next_up(),
                    Some(b) => b.distance,
                };
                if bounds[k] >= limit {
                    continue;
                }
                if let Some(d) = cache.record_distance_below(pool, own, &ids[span(ci)], limit) {
                    best = Some(Incumbent {
                        index: ci,
                        distance: d,
                        within_guard: None,
                    });
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
                        let theirs = &ids[span(best.index)];
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
    /// Abnormal groups whose nearest-normal search ran over every normal
    /// group of the block (all of them on a cold plan) instead of starting
    /// from the [`PlanMemo`]'s incumbent.
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

    /// A cold plan of `table`'s one block: its merges and its lookups.
    fn cold_homes(agp: &AbnormalGroupProcessor, table: &Evolving) -> (Vec<(String, String)>, u64) {
        let (block, pool) = (table.index.block(RuleId(0)), table.index.pool());
        assert_plan_matches_reference(agp, block, pool);
        let mut cache = DistanceCache::new(agp.metric);
        let plan = agp.plan_block(block, pool, &mut cache, &mut PlanMemo::default());
        let homes = homes(&plan)
            .into_iter()
            .map(|(from, to)| (from.to_string(), to.expect("a normal group").to_string()))
            .collect();
        (homes, lookups(&cache))
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
            // Further up a tie would win, so bound = incumbent is no proof:
            // the seed's two attributes, then the key that settles it.
            let (homes, lookups) = cold_homes(&agp, &far_above);
            assert_eq!(homes, [("AAB".into(), "ABB".into())], "{metric:?}");
            assert_eq!(lookups, 3, "{metric:?}");
            // Further down it is: "ABC" is never looked up.
            let (homes, lookups) = cold_homes(&agp, &above);
            assert_eq!(homes, [("ABB".into(), "AAB".into())], "{metric:?}");
            assert_eq!(lookups, 2, "{metric:?}");
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
        // …and is vacuous where the metric has no bound — by construction,
        // not by a branch: the plain scan's lookups, to the last one.
        for metric in [Metric::Cosine, Metric::Jaccard, Metric::JaroWinkler] {
            let agp = AbnormalGroupProcessor::new(2, metric).with_distance_guard(0.15);
            let pool = table.index.pool();
            let mut cache = DistanceCache::new(metric);
            agp.plan_block(block, pool, &mut cache, &mut PlanMemo::default());
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
