//! Candidate-domain generation: the possible repairs considered for a noisy
//! cell.
//!
//! Like HoloClean, candidates come from the attribute's active domain and are
//! pruned by co-occurrence: a value is a candidate for cell `t.[A]` if it
//! co-occurs (in the clean partition) with at least one of the tuple's other
//! attribute values, or if it is among the globally most frequent values of
//! `A`.  The current (possibly dirty) value is always kept as a candidate so
//! "no repair" remains an option.
//!
//! Candidates are interned [`ValueId`]s: the whole generate-score-prune loop
//! runs without materializing a single string.

use crate::features::CooccurrenceModel;
use dataset::{AttrId, CellRef, Dataset, ValueId};

/// Candidate generator.
#[derive(Debug, Clone)]
pub struct CandidateDomain {
    /// Maximum number of candidates kept per cell (the pruning budget).
    pub max_candidates: usize,
}

impl Default for CandidateDomain {
    fn default() -> Self {
        CandidateDomain { max_candidates: 50 }
    }
}

impl CandidateDomain {
    /// Create a generator with a candidate budget.
    pub fn new(max_candidates: usize) -> Self {
        CandidateDomain {
            max_candidates: max_candidates.max(1),
        }
    }

    /// Candidate repair values for `cell`, ranked by their co-occurrence
    /// support with the rest of the tuple.
    pub fn candidates(
        &self,
        ds: &Dataset,
        model: &CooccurrenceModel,
        cell: CellRef,
    ) -> Vec<ValueId> {
        let attr = cell.attr;
        let tuple = ds.tuple(cell.tuple);
        let current = tuple.value_id(attr);

        // Score every value observed for the attribute in the clean part by
        // the sum of its conditional probabilities given the tuple's other
        // attribute values.
        let mut scored: Vec<(ValueId, f64)> = model
            .observed_values(attr)
            .into_iter()
            .map(|candidate| {
                let score: f64 = ds
                    .schema()
                    .attr_ids()
                    .filter(|&b| b != attr)
                    .map(|b| model.conditional(attr, candidate, b, tuple.value_id(b)))
                    .sum();
                (candidate, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(self.max_candidates);

        let mut out: Vec<ValueId> = scored.into_iter().map(|(v, _)| v).collect();
        if !out.contains(&current) {
            out.push(current);
        }
        out
    }

    /// The candidate budget.
    pub fn budget(&self) -> usize {
        self.max_candidates
    }

    /// Internal helper shared with the repairer: whether the attribute has
    /// any observed values at all (an all-noisy column cannot be repaired).
    pub fn has_candidates(&self, model: &CooccurrenceModel, attr: AttrId) -> bool {
        !model.observed_values(attr).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{sample_hospital_dataset, TupleId};
    use std::collections::BTreeSet;

    #[test]
    fn candidates_come_from_the_clean_domain_and_keep_current() {
        let ds = sample_hospital_dataset();
        let model = CooccurrenceModel::train(&ds, &BTreeSet::new());
        let ct = ds.schema().attr_id("CT").unwrap();
        let gen = CandidateDomain::default();
        // t2.CT = "DOTH" (a typo).
        let cands = gen.candidates(&ds, &model, CellRef::new(TupleId(1), ct));
        assert!(cands.contains(&ds.pool().lookup("DOTHAN").unwrap()));
        assert!(cands.contains(&ds.pool().lookup("BOAZ").unwrap()));
        assert!(
            cands.contains(&ds.pool().lookup("DOTH").unwrap()),
            "the current value is always kept"
        );
    }

    #[test]
    fn best_ranked_candidate_matches_tuple_context() {
        let ds = sample_hospital_dataset();
        let model = CooccurrenceModel::train(&ds, &BTreeSet::new());
        let st = ds.schema().attr_id("ST").unwrap();
        let gen = CandidateDomain::default();
        // t4.ST = "AK"; the context (BOAZ, 2567688400, ELIZA) co-occurs with AL.
        let cands = gen.candidates(&ds, &model, CellRef::new(TupleId(3), st));
        assert_eq!(ds.pool().resolve(cands[0]), "AL");
    }

    #[test]
    fn budget_is_enforced() {
        let gen = CandidateDomain::new(2);
        assert_eq!(gen.budget(), 2);
    }
}
