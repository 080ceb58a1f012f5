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
//! The nearest-normal search is exact and bounded.  Every candidate after
//! the first is asked "strictly closer than the best so far?" rather than
//! "how far?": its record distance is summed attribute by attribute and
//! abandoned the moment the partial sum reaches the incumbent, and under the
//! edit metrics each attribute is answered by a bounded dynamic program that
//! gives up after a few cells.  A typo'd key whose true neighbour is one or
//! two edits away therefore rejects almost every other candidate on its first
//! attribute.  Merges, tie-breaks (first minimal candidate in block order)
//! and guard decisions are those of the exhaustive scan.
//!
//! Distances run through a per-block [`DistanceCache`] keyed on interned
//! value pairs, which memoises what each probe proved — an exact distance or
//! a lower bound — so a block re-planned against the same cache (every
//! `outcome()` of a session) re-runs no metric at all.

use crate::cache::{CacheStats, DistanceCache};
use crate::index::{Block, Group, MlnIndex};
use crate::map_ordered;
use dataset::{TupleId, ValueId, ValuePool};
use distance::Metric;
use rules::RuleId;
use serde::{Deserialize, Serialize};

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
        let plan = self.plan_block(block, pool, &mut cache);
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
    pub(crate) fn plan_block(
        &self,
        block: &Block,
        pool: &ValuePool,
        cache: &mut DistanceCache,
    ) -> AgpPlan {
        // Partition group indices into abnormal and normal by the size test.
        let abnormal: Vec<usize> = block
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.tuple_count() <= self.tau)
            .map(|(i, _)| i)
            .collect();
        let mut plan = AgpPlan {
            abnormal,
            targets: Vec::new(),
            record: AgpRecord::default(),
        };
        if plan.abnormal.is_empty() {
            return plan;
        }
        // Dominant-γ value ids of every *normal* group, in block order,
        // computed once from the snapshot: only normal groups are valid merge
        // targets (abnormal groups never merge into each other), and
        // computing them up front keeps the nearest-normal search below from
        // re-deriving (and re-allocating) them per abnormal × candidate pair.
        // `plan.abnormal` is ascending by construction, so binary search
        // works for the membership test.
        let normals: Vec<(usize, Vec<ValueId>)> = block
            .groups
            .iter()
            .enumerate()
            .filter(|(i, _)| plan.abnormal.binary_search(i).is_err())
            .filter_map(|(i, g)| Some((i, g.dominant_gamma()?.value_ids())))
            .collect();

        for &ai in &plan.abnormal {
            let group = &block.groups[ai];
            // Nearest normal group by dominant-γ distance, optionally subject
            // to the normalized-distance merge guard.
            let target_idx: Option<usize> = group.dominant_gamma().and_then(|dominant| {
                let dominant_ids = dominant.value_ids();
                // Each candidate is asked "strictly closer than the best so
                // far?", not "how far?": the first candidate is measured in
                // full, every later one only until its partial distance
                // reaches the incumbent.  Strict `<` keeps the *first*
                // minimal candidate, matching the historical
                // `Iterator::min_by` tie-breaking exactly.
                let mut nearest: Option<&(usize, Vec<ValueId>)> = None;
                let mut nearest_d = f64::INFINITY;
                for candidate in &normals {
                    let closer =
                        cache.record_distance_below(pool, &dominant_ids, &candidate.1, nearest_d);
                    if let Some(d) = closer {
                        nearest = Some(candidate);
                        nearest_d = d;
                    }
                }
                // The winner was measured to the end, so the guard's
                // normalized distances are already in the memo.
                let (ci, nearest_ids) = nearest?;
                let within_guard = self.distance_guard.is_none_or(|guard| {
                    cache.normalized_record_distance(pool, &dominant_ids, nearest_ids) <= guard
                });
                within_guard.then_some(*ci)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::MlnIndex;
    use dataset::sample_hospital_dataset;
    use rules::sample_hospital_rules;

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
        use dataset::{Dataset, Schema};
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
        let plan = agp.plan_block(block, pool, &mut DistanceCache::new(agp.metric));
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
        use dataset::{Dataset, Schema};
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
            let plan = agp.plan_block(block, index.pool(), &mut DistanceCache::new(metric));
            assert_eq!(plan.targets, vec![Some(first_normal)], "{metric:?}");
        }
    }

    #[test]
    fn a_block_of_only_abnormal_groups_plans_no_merge_and_probes_nothing() {
        let index = sample_index();
        for metric in Metric::ALL {
            let agp = AbnormalGroupProcessor::new(100, metric).with_distance_guard(0.15);
            for block in &index.blocks {
                let mut cache = DistanceCache::new(metric);
                let plan = agp.plan_block(block, index.pool(), &mut cache);
                assert_eq!(plan.abnormal.len(), block.group_count());
                assert!(plan.targets.iter().all(Option::is_none));
                assert_eq!(cache.stats(), CacheStats::default());
                assert_plan_matches_reference(&agp, block, index.pool());
            }
        }
    }

    /// What `car_session` does on every `outcome()`: re-plan a block against
    /// the cache that served the previous plan.
    #[test]
    fn replanning_against_a_persistent_cache_reruns_only_what_changed() {
        use datagen::TpchGenerator;
        let generator = TpchGenerator::default().with_rows(900).with_customers(60);
        let mut dirty = generator.dirty(0.02, 0.5, 11).dirty;
        let rules = TpchGenerator::rules();
        let mut index = MlnIndex::build(&dirty, &rules).unwrap();
        let agp = AbnormalGroupProcessor::new(2, Metric::Levenshtein).with_distance_guard(0.15);
        let mut cache = DistanceCache::new(agp.metric);

        let first = agp.plan_block(&index.blocks[0], index.pool(), &mut cache);
        let cold = cache.stats();
        assert!(cold.misses > 0 && first.targets.iter().any(Option::is_some));
        // Most give-ups are memoised as lower bounds, not dropped.
        assert_eq!(cache.len() as u64, cold.misses);

        // Same block, same cache: same plan, and every probe — exact or
        // bounded — is answered by the memo.
        let second = agp.plan_block(&index.blocks[0], index.pool(), &mut cache);
        assert_eq!(second.abnormal, first.abnormal);
        assert_eq!(second.targets, first.targets);
        assert_eq!(second.record, first.record);
        let warm = cache.stats();
        assert_eq!(warm.misses, cold.misses, "a re-plan re-ran the metric");
        assert_eq!(warm.hits - cold.hits, cold.hits + cold.misses);

        // Splice one new abnormal group in: a typo of an existing key with
        // values no other group has.
        let block = &index.blocks[0];
        let donor = block.groups.iter().find(|g| g.tuple_count() > 2).unwrap();
        let donor_row = dirty.tuple(donor.all_tuples()[0]).values();
        let mut row: Vec<String> = donor_row.into_iter().map(str::to_string).collect();
        for attr in block.reason_attrs.iter().chain(&block.result_attrs) {
            row[attr.index()].push('~');
        }
        let from = dirty.len();
        dirty.push_row(row).unwrap();
        let report = index.insert_tuples(&dirty, &rules, from, false);
        assert_eq!(report.created_groups, vec![1]);

        // Only the new group's probes can miss: every other abnormal group
        // faces the same candidates with the same limits as before.
        let block = &index.blocks[0];
        let normal_groups = block.group_count() - first.abnormal.len() - 1;
        let arity = block.reason_attrs.len() + block.result_attrs.len();
        let third = agp.plan_block(block, index.pool(), &mut cache);
        assert_eq!(third.abnormal.len(), first.abnormal.len() + 1);
        let spliced = cache.stats();
        let new_misses = spliced.misses - warm.misses;
        assert!(new_misses > 0, "the new group was never measured");
        assert!(
            new_misses <= (normal_groups * arity) as u64,
            "{new_misses} misses for one new group against {normal_groups} candidates"
        );
        assert_plan_matches_reference(&agp, block, index.pool());
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
