//! RSC — Reliability-Score-based Cleaning (Section 5.1.2).
//!
//! Within a group, all γs share the same reason-part values; if more than one
//! γ exists, the result parts disagree and at least one of them is dirty.
//! RSC keeps the γ with the highest **reliability score**
//!
//! ```text
//! r-score(γᵢ) = min_{γ* ∈ G∖{γᵢ}} dist(γᵢ, γ*) × Pr(γᵢ)
//! dist(γᵢ, γ*) = n · d(γᵢ, γ*) / Z
//! ```
//!
//! (Definition 2) where `n` is the number of tuples related to γᵢ, `d` the
//! string-record distance, `Z` a normalization constant keeping `dist` in
//! `[0, 1]`, and `Pr(γᵢ)` the block-softmaxed learned weight (Eq. 3).  Every
//! other γ of the group is replaced by the winner, so each group ends up with
//! exactly one piece of data.
//!
//! Each group's pairwise γ distances are computed once into a small matrix
//! (they are needed twice: for the normalization constant and for the score
//! minima), and the underlying string metric is memoised per block in a
//! [`DistanceCache`] keyed on interned value pairs.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::cache::{CacheStats, DistanceCache};
use crate::gamma::Gamma;
use crate::index::{Block, MlnIndex};
use crate::map_ordered;
use crate::provenance::{Interner, Names, Provenance, Records};
use dataset::{TupleId, ValueId, ValuePool};
use distance::Metric;
use mlnw::{CodecError, Decode, Decoder};
use rules::RuleId;

/// One repair performed by RSC: the tuples of a losing γ are rewritten to the
/// winning γ's values.
// Provenance holds ids (clippy.toml): each field denies the banned types,
// and a new field takes the same `deny`.  It sits on the fields, not the
// struct, because a derive copies a struct's `deny` onto its impls, and
// they name `RscRepair`, which the same list bans for `GroupEntry`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RscRepair {
    /// Block in which the repair happened.
    #[deny(clippy::disallowed_types)]
    pub rule: RuleId,
    /// Group key (shared reason-part values at the time of cleaning).
    #[deny(clippy::disallowed_types)]
    pub group_key: Vec<ValueId>,
    /// The replaced γ's values (reason part then result part).
    #[deny(clippy::disallowed_types)]
    pub from_values: Vec<ValueId>,
    /// The winning γ's values (reason part then result part).
    #[deny(clippy::disallowed_types)]
    pub to_values: Vec<ValueId>,
    /// Tuples that were rewritten.
    #[deny(clippy::disallowed_types)]
    pub tuples: Vec<TupleId>,
}

mod text {
    use crate::provenance::Values;
    use dataset::TupleId;
    use rules::RuleId;

    /// An [`super::RscRepair`] with its values as text.
    #[derive(Debug, PartialEq)]
    pub struct RscRepair<'a> {
        pub rule: RuleId,
        pub group_key: Values<'a>,
        pub from_values: Values<'a>,
        pub to_values: Values<'a>,
        pub tuples: &'a [TupleId],
    }

    mlnw::codec! { encode struct RscRepair<'a> { rule, group_key, from_values, to_values, tuples } }
}

impl Provenance for RscRepair {
    type Text<'a> = text::RscRepair<'a>;

    fn text<'a>(&'a self, names: &'a Names) -> text::RscRepair<'a> {
        text::RscRepair {
            rule: self.rule,
            group_key: names.values(&self.group_key),
            from_values: names.values(&self.from_values),
            to_values: names.values(&self.to_values),
            tuples: &self.tuples,
        }
    }

    fn decode_text(dec: &mut Decoder<'_>, names: &mut Interner) -> Result<Self, CodecError> {
        dec.fields(5)?;
        Ok(RscRepair {
            rule: RuleId::decode(dec)?,
            group_key: names.values(dec)?,
            from_values: names.values(dec)?,
            to_values: names.values(dec)?,
            tuples: Vec::decode(dec)?,
        })
    }
}

/// The full RSC record of one run.
#[derive(Debug, Clone, Default)]
pub struct RscRecord {
    /// Every γ replacement, in processing order.
    pub repairs: Records<RscRepair>,
    /// Distance-cache counters accumulated over all blocks.
    pub cache: CacheStats,
}

mlnw::codec! { encode struct RscRecord { repairs, cache } }

impl RscRecord {
    /// Read a record back, interning its values into `names`.
    pub(crate) fn decode_with(
        dec: &mut Decoder<'_>,
        names: &mut Interner,
    ) -> Result<Self, CodecError> {
        dec.fields(2)?;
        Ok(RscRecord {
            repairs: Records::decode_with(dec, names)?,
            cache: CacheStats::decode(dec)?,
        })
    }
}

/// Equality compares the *repairs*, not the distance-cache counters: the
/// incremental [`crate::CleaningSession`] keeps a persistent per-block cache
/// across refreshes, so its hit/miss split legitimately differs from a cold
/// batch run even when the repairs are byte-identical.
impl PartialEq for RscRecord {
    fn eq(&self, other: &Self) -> bool {
        self.repairs == other.repairs
    }
}

impl RscRecord {
    /// Number of γs that were repaired (replaced).
    pub fn repaired_count(&self) -> usize {
        self.repairs.len()
    }
}

/// The RSC strategy.
#[derive(Debug, Clone)]
pub struct ReliabilityCleaner {
    /// Distance metric used in the reliability score.
    pub metric: Metric,
}

impl ReliabilityCleaner {
    /// Create an RSC cleaner.
    pub fn new(metric: Metric) -> Self {
        ReliabilityCleaner { metric }
    }

    /// Compute the reliability score of `gamma` against the other γs of its
    /// group.  `z` is the group's normalization constant.
    ///
    /// This is the one-off (non-memoising) form of the score; the cleaning
    /// loop itself computes each group's pairwise distance matrix once and
    /// scores from that, so changes to the scoring formula belong in the
    /// private `score_from_min_distance` helper, which both paths share.
    pub fn reliability_score(
        &self,
        pool: &ValuePool,
        gamma: &Gamma,
        others: &[&Gamma],
        z: f64,
    ) -> f64 {
        let mut cache = DistanceCache::new(self.metric);
        let ids = gamma.value_ids();
        let min_distance = others
            .iter()
            .map(|o| cache.record_distance(pool, &ids, &o.value_ids()))
            .fold(f64::INFINITY, f64::min);
        score_from_min_distance(gamma, min_distance, z)
    }

    /// Clean every group of every block in place, on the rayon pool —
    /// [`ReliabilityCleaner::clean_with`] at `parallel = true`.
    pub fn clean(&self, index: &mut MlnIndex) -> RscRecord {
        self.clean_with(index, true)
    }

    /// Clean every group of every block in place; groups end up with exactly
    /// one γ.  Returns the record of replacements.
    ///
    /// Blocks are independent (one per rule): the one per-block body runs
    /// over the rayon pool when `parallel` is set and on the calling thread
    /// otherwise, and per-block results are reassembled in block order, so
    /// the outcome is the same either way.
    pub fn clean_with(&self, index: &mut MlnIndex, parallel: bool) -> RscRecord {
        let (blocks, pool) = index.split_mut();
        let cleaned = map_ordered(parallel, std::mem::take(blocks), |mut block| {
            let record = self.clean_block(&mut block, pool);
            (block, record)
        });
        let mut record = RscRecord::default();
        for (block, block_record) in cleaned {
            blocks.push(block);
            record.repairs.extend(block_record.repairs);
            record.cache.absorb(block_record.cache);
        }
        record
    }

    /// Clean a single block in place — the per-block unit of the
    /// whole-index pass above.
    pub(crate) fn clean_block(&self, block: &mut Block, pool: &ValuePool) -> RscRecord {
        let mut record = RscRecord::default();
        let mut cache = DistanceCache::new(self.metric);
        let rule = block.rule;
        for group in &mut block.groups {
            let cleaned = self.clean_group(rule, group, pool, &mut cache);
            record.repairs.extend(cleaned.repairs);
        }
        record.cache.absorb(cache.stats());
        record
    }

    /// Clean a single group in place, returning the repairs it produced
    /// and what the per-block driver needs to reuse the result when only
    /// the block's total support moves ([`CleanedGroup`]).
    ///
    /// Groups are scored independently (the distance normalizer is
    /// group-local: the largest support-scaled pair distance among the
    /// group's own γs), so this is the unit the per-block driver
    /// ([`crate::StageOne`]) re-runs for a dirty group without touching its
    /// siblings.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)] // Provenance holds ids.
    pub(crate) fn clean_group(
        &self,
        rule: RuleId,
        group: &mut crate::index::Group,
        pool: &ValuePool,
        cache: &mut DistanceCache,
    ) -> CleanedGroup {
        if group.gammas.len() <= 1 {
            // Already the ideal state; skipped like G21 in the paper.
            return CleanedGroup {
                repairs: Vec::new(),
                evidence: group.gammas.first().map_or(0, Gamma::support),
                z_sensitive: false,
            };
        }
        let mut repairs = Vec::new();
        {
            // Pairwise γ distances, each pair computed once (the matrix is
            // symmetric; the value-pair memo additionally dedups across
            // groups of the block).
            let n = group.gammas.len();
            let ids: Vec<Vec<ValueId>> = group.gammas.iter().map(|g| g.value_ids()).collect();
            let mut dist = vec![vec![0.0f64; n]; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = cache.record_distance(pool, &ids[i], &ids[j]);
                    dist[i][j] = d;
                    dist[j][i] = d;
                }
            }

            // Normalization constant Z: the largest support-scaled pair
            // distance in the group, so every dist lands in [0, 1].
            let mut z: f64 = 0.0;
            for (i, gi) in group.gammas.iter().enumerate() {
                for (j, &d) in dist[i].iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    z = z.max(gi.support() as f64 * d);
                }
            }
            if z == 0.0 {
                z = 1.0;
            }

            // Pick the winner by reliability score (ties broken by
            // support, then by string value order for determinism).
            let mut best_idx = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            let mut pairs: Vec<(usize, f64)> = Vec::with_capacity(n);
            for (i, gamma) in group.gammas.iter().enumerate() {
                let min_distance = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| dist[i][j])
                    .fold(f64::INFINITY, f64::min);
                pairs.push((gamma.support(), min_distance));
                let score = score_from_min_distance(gamma, min_distance, z);
                let better = score > best_score
                    || (score == best_score
                        && (gamma.support() > group.gammas[best_idx].support()
                            || (gamma.support() == group.gammas[best_idx].support()
                                && gamma.resolve_values(pool)
                                    < group.gammas[best_idx].resolve_values(pool))));
                if better {
                    best_idx = i;
                    best_score = score;
                }
            }

            let evidence = group.gammas[best_idx].support();
            let z_sensitive = near_tie(&pairs, best_idx);

            // Replace every losing γ with the winner.
            let winner = group.gammas[best_idx].clone();
            let mut merged_tuples = winner.tuples.clone();
            let to_values = winner.value_ids();
            for (i, gamma) in group.gammas.iter().enumerate() {
                if i == best_idx {
                    continue;
                }
                repairs.push(RscRepair {
                    rule,
                    group_key: group.key.clone(),
                    from_values: gamma.value_ids(),
                    to_values: to_values.clone(),
                    tuples: gamma.tuples.clone(),
                });
                merged_tuples.extend(gamma.tuples.iter().cloned());
            }
            merged_tuples.sort();
            merged_tuples.dedup();

            let mut final_gamma = winner;
            final_gamma.tuples = merged_tuples;
            group.gammas = vec![final_gamma];
            CleanedGroup {
                repairs,
                evidence,
                z_sensitive,
            }
        }
    }
}

/// What [`ReliabilityCleaner::clean_group`] decided for one group.
#[derive(Debug)]
pub(crate) struct CleanedGroup {
    /// The repairs, in γ order.
    pub repairs: Vec<RscRepair>,
    /// The surviving γ's support when it was weighted: its own tuples, before
    /// the losers' were merged in.  Its probability is `evidence / Z` of the
    /// block it was weighted in (Eq. 3).
    pub evidence: usize,
    /// Whether the winner could change with the block's total support `Z`:
    /// see [`near_tie`].  Never set for a group of one γ.
    pub z_sensitive: bool,
}

/// Relative margin within which two γs' `Z`-free keys count as tied.
const Z_TIE_MARGIN: f64 = 1e-9;

/// Whether some losing γ's `Z`-free key `s²·d` (its support `s` and minimum
/// distance `d`, as `pairs` lists them) lies within [`Z_TIE_MARGIN`] of the
/// winner's, from a different `(s, d)` pair.
///
/// The score is `fl(fl(s·d) / z_g) · fl(s / Z)`, within about four ulps of
/// `s²·d / (z_g·Z)`, and `z_g` is the group's own; so a key gap past the
/// margin keeps the winner at every `Z`.  A loser with the winner's exact
/// `(s, d)` scores bit-identically at every `Z` and falls to the same
/// support / value tie-break, so it never flags.  A non-finite key flags.
fn near_tie(pairs: &[(usize, f64)], winner: usize) -> bool {
    let key = |(s, d): (usize, f64)| s as f64 * s as f64 * d;
    let best = pairs[winner];
    let best_key = key(best);
    pairs.iter().any(|&pair| {
        let k = key(pair);
        let margin = Z_TIE_MARGIN * best_key.abs().max(k.abs());
        let clear = (best_key - k).abs().partial_cmp(&margin) == Some(std::cmp::Ordering::Greater);
        pair != best && !clear
    })
}

/// `r-score` from a precomputed minimum pair distance (Definition 2).
fn score_from_min_distance(gamma: &Gamma, min_distance: f64, z: f64) -> f64 {
    if !min_distance.is_finite() {
        // Lone γ in its group: nothing to compare against, the group is
        // already clean and the score is irrelevant.
        return gamma.probability;
    }
    let dist = gamma.support() as f64 * min_distance / z;
    dist * gamma.probability
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agp::AbnormalGroupProcessor;
    use crate::index::MlnIndex;
    use crate::weights::assign_weights;
    use dataset::sample_hospital_dataset;
    use rules::sample_hospital_rules;
    use std::collections::BTreeSet;

    /// Index after AGP(τ=1) + weight learning, ready for RSC — the state of
    /// the paper's running example entering Section 5.1.2.
    fn prepared_index() -> MlnIndex {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        AbnormalGroupProcessor::new(1, Metric::Levenshtein).process(&mut index);
        assign_weights(&mut index);
        index
    }

    #[test]
    fn example2_boaz_group_keeps_al() {
        // Example 2: in G13, {BOAZ, AL} (2 tuples) beats {BOAZ, AK} (1 tuple).
        let mut index = prepared_index();
        let record = ReliabilityCleaner::new(Metric::Levenshtein).clean(&mut index);

        let boaz = index.group_by_key(RuleId(0), &["BOAZ"]).unwrap();
        assert_eq!(boaz.gamma_count(), 1);
        assert_eq!(
            boaz.gammas[0].resolve_result_values(index.pool()),
            vec!["AL"]
        );
        assert_eq!(
            boaz.gammas[0].support(),
            3,
            "all three BOAZ tuples end on the winner"
        );

        // The AK γ was repaired.
        let pool = index.pool();
        assert!(record.repairs.iter().any(|r| {
            r.rule == RuleId(0)
                && pool.resolve_all(&r.from_values) == ["BOAZ", "AK"]
                && pool.resolve_all(&r.to_values) == ["BOAZ", "AL"]
        }));
    }

    #[test]
    fn figure4_clean_versions() {
        // After AGP + RSC the three clean data versions of Figure 4 emerge.
        let mut index = prepared_index();
        ReliabilityCleaner::new(Metric::Levenshtein).clean(&mut index);
        let pool = index.pool().clone();

        // Version 1 (block B1): {DOTHAN, AL} for t1–t3 and {BOAZ, AL} for t4–t6.
        let b1 = index.block(RuleId(0));
        assert_eq!(b1.group_count(), 2);
        for group in &b1.groups {
            assert!(group.is_clean());
            assert_eq!(group.gammas[0].resolve_result_values(&pool), vec!["AL"]);
        }
        let dothan = index.group_by_key(RuleId(0), &["DOTHAN"]).unwrap();
        assert_eq!(dothan.gammas[0].support(), 3);

        // Version 2 (block B2): {3347938701, AL} and {2567688400, AL}.
        let b2 = index.block(RuleId(1));
        for group in &b2.groups {
            assert!(group.is_clean());
            assert_eq!(group.gammas[0].resolve_result_values(&pool), vec!["AL"]);
        }

        // Version 3 (block B3): a single group {ELIZA, BOAZ, 2567688400} for t3–t6.
        let b3 = index.block(RuleId(2));
        assert_eq!(b3.group_count(), 1);
        let g = &b3.groups[0];
        assert!(g.is_clean());
        assert_eq!(g.gammas[0].resolve_result_values(&pool), vec!["2567688400"]);
        assert_eq!(g.gammas[0].support(), 4);
    }

    #[test]
    fn every_group_is_singleton_after_rsc() {
        let mut index = prepared_index();
        ReliabilityCleaner::new(Metric::Levenshtein).clean(&mut index);
        for block in &index.blocks {
            for group in &block.groups {
                assert!(group.is_clean(), "group {group} still has multiple γs");
            }
        }
    }

    #[test]
    fn rsc_preserves_tuple_coverage() {
        let mut index = prepared_index();
        let before: Vec<usize> = index
            .blocks
            .iter()
            .map(|b| b.groups.iter().map(|g| g.all_tuples().len()).sum())
            .collect();
        ReliabilityCleaner::new(Metric::Levenshtein).clean(&mut index);
        let after: Vec<usize> = index
            .blocks
            .iter()
            .map(|b| b.groups.iter().map(|g| g.all_tuples().len()).sum())
            .collect();
        assert_eq!(before, after, "RSC must not lose or duplicate tuples");
    }

    #[test]
    fn parallel_and_serial_cleaning_are_identical() {
        let mut par_index = prepared_index();
        let mut ser_index = prepared_index();
        let cleaner = ReliabilityCleaner::new(Metric::Levenshtein);
        let par_record = cleaner.clean_with(&mut par_index, true);
        let ser_record = cleaner.clean_with(&mut ser_index, false);
        assert_eq!(par_record, ser_record);
        assert_eq!(format!("{par_index:?}"), format!("{ser_index:?}"));
    }

    #[test]
    fn reliability_score_agrees_with_the_cleaning_decision() {
        // The public one-off score must rank the BOAZ γs the same way the
        // memoised cleaning loop does: {BOAZ, AL} (support 2) beats
        // {BOAZ, AK} (support 1).
        let index = prepared_index();
        let cleaner = ReliabilityCleaner::new(Metric::Levenshtein);
        let boaz = index.group_by_key(RuleId(0), &["BOAZ"]).unwrap();
        let al = boaz
            .gammas
            .iter()
            .find(|g| g.resolve_result_values(index.pool()) == vec!["AL"])
            .unwrap();
        let ak = boaz
            .gammas
            .iter()
            .find(|g| g.resolve_result_values(index.pool()) == vec!["AK"])
            .unwrap();
        // Z as the cleaning loop computes it: max support-scaled pair distance.
        let d = distance::levenshtein("AL", "AK") as f64;
        let z = (al.support() as f64 * d).max(ak.support() as f64 * d);
        let al_score = cleaner.reliability_score(index.pool(), al, &[ak], z);
        let ak_score = cleaner.reliability_score(index.pool(), ak, &[al], z);
        assert!(
            al_score > ak_score,
            "{al_score} must beat {ak_score} so RSC keeps AL"
        );
    }

    /// One group of `FD: K -> V` whose γs have these result values and
    /// supports, weighted as a block of total support `z` would weight it.
    fn weighted_group(gammas: &[(&str, usize)], z: usize) -> (crate::index::Group, ValuePool) {
        let mut ds = dataset::Dataset::new(dataset::Schema::new(&["K", "V"]));
        for &(value, copies) in gammas {
            for _ in 0..copies {
                ds.push_row(vec!["k".into(), value.into()]).unwrap();
            }
        }
        let rules = rules::parse_rules("FD: K -> V").unwrap();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        let (blocks, pool) = index.split_mut();
        let mut group = blocks[0].groups.remove(0);
        crate::weights::assign_group_weights(&mut group, z);
        (group, pool.clone())
    }

    /// Clean the group; its winner's result value and what RSC said.
    fn clean_one(mut group: crate::index::Group, pool: &ValuePool) -> (String, CleanedGroup) {
        let mut cache = DistanceCache::new(Metric::Levenshtein);
        let cleaner = ReliabilityCleaner::new(Metric::Levenshtein);
        let cleaned = cleaner.clean_group(RuleId(0), &mut group, pool, &mut cache);
        let winner = group.gammas[0].resolve_result_values(pool)[0].to_string();
        (winner, cleaned)
    }

    /// A near tie on the `Z`-free key `s²·d`: `aaaaaaaaa` (s = 1, nearest
    /// γ at d = 9) against `bbbbbbbbb` (s = 3, d = 1 to `bbbbbbbbc`), both
    /// keyed 9.  The block's total support `Z` reaches the score through a
    /// rounded `s / Z`, so which of the two wins depends on `Z` — the reason
    /// a reuse under a moved `Z` rebuilds a flagged group.
    #[test]
    fn a_near_tie_is_flagged_z_sensitive_and_its_winner_moves_with_z() {
        let near_tie = [("aaaaaaaaa", 1), ("bbbbbbbbb", 3), ("bbbbbbbbc", 2)];
        let (group, pool) = weighted_group(&near_tie, 6);
        let (_, cleaned) = clean_one(group, &pool);
        assert!(cleaned.z_sensitive);

        let winners: BTreeSet<String> = (2..200)
            .map(|z| {
                let (group, pool) = weighted_group(&near_tie, z);
                let (winner, cleaned) = clean_one(group, &pool);
                assert!(cleaned.z_sensitive, "Z = {z}");
                let support = near_tie.iter().find(|(v, _)| *v == winner).unwrap().1;
                assert_eq!(cleaned.evidence, support, "Z = {z}");
                winner
            })
            .collect();
        assert_eq!(
            winners,
            BTreeSet::from(["aaaaaaaaa".to_string(), "bbbbbbbbb".to_string()]),
            "today's winner changes with Z"
        );
    }

    /// A clear margin keeps its winner at every `Z`, and so does a tie on an
    /// identical `(s, d)` pair — the scores are bit-identical and fall to
    /// the support / value tie-break — so neither is flagged.
    #[test]
    fn a_clear_margin_and_an_identical_pair_tie_are_not_flagged() {
        let cases = [
            ([("AL", 3), ("AK", 1)], "AL", 3),
            ([("AL", 2), ("AK", 2)], "AK", 2),
        ];
        for (gammas, expected, evidence) in cases {
            for z in [4, 5, 97] {
                let (group, pool) = weighted_group(&gammas, z);
                let (winner, cleaned) = clean_one(group, &pool);
                assert!(!cleaned.z_sensitive, "{gammas:?} at Z = {z}");
                assert_eq!((winner.as_str(), cleaned.evidence), (expected, evidence));
            }
        }
        // A lone γ is already clean: its own support, never flagged.
        let (group, pool) = weighted_group(&[("AL", 4)], 4);
        let (_, cleaned) = clean_one(group, &pool);
        assert_eq!((cleaned.evidence, cleaned.z_sensitive), (4, false));
        assert!(cleaned.repairs.is_empty());
    }

    #[test]
    fn clean_groups_are_untouched() {
        let truth = dataset::sample_hospital_truth();
        let rules = sample_hospital_rules();
        let mut index = MlnIndex::build(&truth, &rules).unwrap();
        assign_weights(&mut index);
        let record = ReliabilityCleaner::new(Metric::Levenshtein).clean(&mut index);
        assert_eq!(record.repaired_count(), 0);
    }
}
