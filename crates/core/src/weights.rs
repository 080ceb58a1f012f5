//! Block-level MLN weights in closed form: the Eq. 3 block softmax of the
//! Eq. 4 support evidence, `Pr(γᵢ) = softmax(w)ᵢ` with `wᵢ = ln c(γᵢ)`,
//! which collapses algebraically to `Pr(γᵢ) = c(γᵢ) / Σⱼ c(γⱼ)` — the fixed
//! point of maximising the block's likelihood over the γ weights, so no
//! iterative learner runs.
//!
//! The closed form is what makes the softmax *incrementally maintainable*:
//! a γ's weight depends only on its own support and its probability only on
//! that support and the block total `Z = Σⱼ c(γⱼ)`, which AGP merges
//! preserve (merging moves tuples between γs of the same block, it never
//! changes their total).  The group-scoped [`crate::CleaningSession`]
//! re-clean exploits exactly this — a recomputed group gets byte-identical
//! weights to a whole-block pass without touching the other groups, and
//! when an insert or a delete moves `Z`, every group it did not touch keeps
//! its weight and has its probability rewritten through [`probability`]
//! from the support it was weighted with.

use crate::index::{Block, Group, MlnIndex};

/// Assign weights/probabilities for every γ of every block.
pub fn assign_weights(index: &mut MlnIndex) {
    for block in &mut index.blocks {
        assign_block_weights(block);
    }
}

/// The closed-form weight of a γ with support `c`: `w = ln c` (Eq. 4
/// evidence on the Eq. 3 log scale).  Supports below 1 are clamped — the
/// pipeline never produces a tuple-less γ, but a clamp beats `-∞`.
pub fn gamma_weight(support: usize) -> f64 {
    (support.max(1) as f64).ln()
}

/// Total support of a block — the softmax denominator `Z = Σⱼ c(γⱼ)` of
/// Eq. 3 under the closed-form weights.  AGP merges preserve this total
/// (tuples only move between γs of the block), which is what lets the
/// incremental session weight a single recomputed group without reading the
/// rest of the block.
pub fn block_support(block: &Block) -> usize {
    block.gammas().map(|g| g.support()).sum()
}

/// The closed-form probability of a γ with support `evidence` in a block of
/// total support `z`: `Pr = c / Z` (Eq. 3).  The one expression every γ
/// probability of the cleaning path is written through — by
/// [`assign_group_weights`], and by the incremental driver when it rescales
/// a cleaned group it reuses under a moved `Z` — so the two agree bit for
/// bit.  A `z` of 0 (a block without γs, whose groups hold no support
/// either) divides by 1, so no build, debug or release, writes a NaN.
pub fn probability(evidence: usize, z: usize) -> f64 {
    evidence as f64 / z.max(1) as f64
}

/// Assign closed-form weights/probabilities to every γ of one group, given
/// the block's total support `z` (see [`block_support`]).  The per-group
/// entry point of the incremental block softmax: byte-identical to
/// [`assign_block_weights`] for that group because both are the same pure
/// function of `(own support, z)` ([`gamma_weight`], [`probability`]).
pub fn assign_group_weights(group: &mut Group, z: usize) {
    for gamma in &mut group.gammas {
        gamma.weight = gamma_weight(gamma.support());
        gamma.probability = probability(gamma.support(), z);
    }
}

/// Assign weights/probabilities for every γ of one block.
///
/// Weights are a pure function of the block's own support counts (the
/// softmax of Eq. 3 normalizes within the block), so re-weighting a single
/// dirty block — or, through [`assign_group_weights`], a single dirty group
/// — gives exactly the weights a whole-index pass would.
pub fn assign_block_weights(block: &mut Block) {
    let z = block_support(block);
    if z == 0 {
        // Degenerate (no γ holds a tuple): fall back to a uniform block so
        // probabilities still sum to one.
        let n = block.gammas().count();
        for group in &mut block.groups {
            for gamma in &mut group.gammas {
                gamma.weight = 0.0;
                gamma.probability = 1.0 / n as f64;
            }
        }
        return;
    }
    for group in &mut block.groups {
        assign_group_weights(group, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::sample_hospital_dataset;
    use rules::{sample_hospital_rules, RuleId};

    #[test]
    fn weights_follow_support_within_block() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        assign_weights(&mut index);

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
        assert!(
            al.weight > ak.weight,
            "2-tuple support must outweigh 1-tuple support"
        );
        assert!(al.probability > ak.probability);
    }

    #[test]
    fn probabilities_sum_to_one_per_block() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        assign_weights(&mut index);
        for block in &index.blocks {
            let total: f64 = block.gammas().map(|g| g.probability).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "block {:?} sums to {}",
                block.rule,
                total
            );
            for g in block.gammas() {
                assert!(g.probability > 0.0 && g.probability <= 1.0);
            }
        }
    }

    #[test]
    fn prior_of_paper_example_is_one_sixth() {
        // The paper: for {CT: BOAZ, ST: AK} in G13 of block B1 the initial
        // weight is 1/6 — one supporting tuple out of six γ-related tuples in
        // the block.  Our learned weight starts from that prior; here we just
        // verify the support bookkeeping that feeds Eq. 4.
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let index = MlnIndex::build(&ds, &rules).unwrap();
        let b1 = index.block(RuleId(0));
        let total: usize = b1.gammas().map(|g| g.support()).sum();
        assert_eq!(total, 6);
        let ak = b1
            .gammas()
            .find(|g| g.resolve_result_values(index.pool()) == vec!["AK"])
            .unwrap();
        assert_eq!(ak.support(), 1);
    }
}
