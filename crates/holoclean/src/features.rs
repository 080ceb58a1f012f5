//! Co-occurrence statistics estimated from the clean partition of the data.
//!
//! For every ordered attribute pair (A, B) the model stores how often value
//! `a` of A co-occurs with value `b` of B among tuples whose cells were *not*
//! flagged as noisy.  At repair time the conditional probability
//! `P(A = a | B = b)` (with add-one smoothing) scores repair candidates.
//!
//! All statistics are keyed on interned [`ValueId`]s from the training
//! dataset's pool: training is integer hashing, and the per-candidate scoring
//! loop of the repairer never materializes a string.

use dataset::{AttrId, CellRef, Dataset, IdMap, ValueId};
use std::collections::BTreeSet;

/// Co-occurrence model over the clean partition.
#[derive(Debug, Clone)]
pub struct CooccurrenceModel {
    /// `(target attr, evidence attr) -> (target value, evidence value) -> count`
    pair_counts: IdMap<(AttrId, AttrId), IdMap<(ValueId, ValueId), usize>>,
    /// `(evidence attr) -> evidence value -> count` (marginals of the clean part).
    evidence_counts: IdMap<AttrId, IdMap<ValueId, usize>>,
    /// Distinct values per target attribute in the clean partition (for
    /// smoothing denominators).
    domain_sizes: IdMap<AttrId, usize>,
}

impl CooccurrenceModel {
    /// Train the model on every tuple of `ds`, skipping any (tuple, attr)
    /// cell that appears in `noisy` — HoloClean learns its parameters from
    /// the part of the data the detector considers clean.
    pub fn train(ds: &Dataset, noisy: &BTreeSet<CellRef>) -> Self {
        let mut pair_counts: IdMap<(AttrId, AttrId), IdMap<(ValueId, ValueId), usize>> =
            IdMap::default();
        let mut evidence_counts: IdMap<AttrId, IdMap<ValueId, usize>> = IdMap::default();
        let mut domains: IdMap<AttrId, BTreeSet<ValueId>> = IdMap::default();

        for t in ds.tuples() {
            let clean_attrs: Vec<AttrId> = ds
                .schema()
                .attr_ids()
                .filter(|&a| !noisy.contains(&CellRef::new(t.id(), a)))
                .collect();
            for &a in &clean_attrs {
                let va = t.value_id(a);
                domains.entry(a).or_default().insert(va);
                *evidence_counts.entry(a).or_default().entry(va).or_insert(0) += 1;
                for &b in &clean_attrs {
                    if a == b {
                        continue;
                    }
                    let vb = t.value_id(b);
                    *pair_counts
                        .entry((a, b))
                        .or_default()
                        .entry((va, vb))
                        .or_insert(0) += 1;
                }
            }
        }

        let domain_sizes = domains
            .into_iter()
            .map(|(a, d)| (a, d.len().max(1)))
            .collect();
        CooccurrenceModel {
            pair_counts,
            evidence_counts,
            domain_sizes,
        }
    }

    /// Smoothed conditional probability `P(target_attr = candidate |
    /// evidence_attr = evidence_value)` estimated from the clean partition.
    pub fn conditional(
        &self,
        target_attr: AttrId,
        candidate: ValueId,
        evidence_attr: AttrId,
        evidence_value: ValueId,
    ) -> f64 {
        let joint = self
            .pair_counts
            .get(&(target_attr, evidence_attr))
            .and_then(|m| m.get(&(candidate, evidence_value)))
            .copied()
            .unwrap_or(0);
        let evidence = self
            .evidence_counts
            .get(&evidence_attr)
            .and_then(|m| m.get(&evidence_value))
            .copied()
            .unwrap_or(0);
        let domain = self.domain_sizes.get(&target_attr).copied().unwrap_or(1);
        (joint as f64 + 1.0) / (evidence as f64 + domain as f64)
    }

    /// How often `value` appears in the clean partition of `attr` (its prior
    /// support).
    pub fn support(&self, attr: AttrId, value: ValueId) -> usize {
        self.evidence_counts
            .get(&attr)
            .and_then(|m| m.get(&value))
            .copied()
            .unwrap_or(0)
    }

    /// The values observed for `attr` in the clean partition, in id order
    /// (deterministic regardless of hash-map iteration).
    pub fn observed_values(&self, attr: AttrId) -> Vec<ValueId> {
        let mut out: Vec<ValueId> = self
            .evidence_counts
            .get(&attr)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::sample_hospital_dataset;

    #[test]
    fn conditionals_reflect_cooccurrence() {
        let ds = sample_hospital_dataset();
        let model = CooccurrenceModel::train(&ds, &BTreeSet::new());
        let ct = ds.schema().attr_id("CT").unwrap();
        let st = ds.schema().attr_id("ST").unwrap();
        let dothan = ds.pool().lookup("DOTHAN").unwrap();
        // P(ST=AL | CT=DOTHAN) should dominate P(ST=AK | CT=DOTHAN).
        let al = model.conditional(st, ds.pool().lookup("AL").unwrap(), ct, dothan);
        let ak = model.conditional(st, ds.pool().lookup("AK").unwrap(), ct, dothan);
        assert!(al > ak);
    }

    #[test]
    fn noisy_cells_are_excluded_from_training() {
        let ds = sample_hospital_dataset();
        let st = ds.schema().attr_id("ST").unwrap();
        let ak = ds.pool().lookup("AK").unwrap();
        let al = ds.pool().lookup("AL").unwrap();
        // Mark t4.ST (the AK error) noisy: AK should vanish from the model.
        let noisy: BTreeSet<CellRef> = [CellRef::new(dataset::TupleId(3), st)]
            .into_iter()
            .collect();
        let model = CooccurrenceModel::train(&ds, &noisy);
        assert_eq!(model.support(st, ak), 0);
        assert!(model.support(st, al) > 0);
        assert!(!model.observed_values(st).contains(&ak));
    }

    #[test]
    fn smoothing_keeps_probabilities_positive() {
        let mut ds = sample_hospital_dataset();
        let model = CooccurrenceModel::train(&ds, &BTreeSet::new());
        let ct = ds.schema().attr_id("CT").unwrap();
        let st = ds.schema().attr_id("ST").unwrap();
        // Values the model never saw (interned after training).
        let unseen_a = ds.intern("NEVERSEEN");
        let unseen_b = ds.intern("ALSONEVERSEEN");
        let p = model.conditional(st, unseen_a, ct, unseen_b);
        assert!(p > 0.0 && p < 1.0);
    }
}
