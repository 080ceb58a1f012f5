//! Block-level MLN weights in closed form: the Eq. 3 block softmax of the
//! Eq. 4 support evidence, `Pr(γᵢ) = softmax(w)ᵢ` with `wᵢ = ln c(γᵢ)`,
//! which collapses algebraically to `Pr(γᵢ) = c(γᵢ) / Σⱼ c(γⱼ)` — the fixed
//! point of maximising the block's likelihood over the γ weights, so no
//! iterative learner runs.
//!
//! The closed form is what makes the softmax *incrementally maintainable*:
//! a γ's weight depends only on its own support and its probability only on
//! the block total `Z = Σⱼ c(γⱼ)`, which AGP merges preserve (merging moves
//! tuples between γs of the same block, it never changes their total).  The
//! group-scoped [`crate::CleaningSession`] re-clean exploits exactly this —
//! a recomputed group gets byte-identical weights to a whole-block pass as
//! long as `Z` is unchanged, without touching the other groups.

use crate::gamma::Gamma;
use crate::index::{Block, Group, MlnIndex};
use dataset::ValuePool;
use serde::de::SeqAccess;
use serde::ser::SerializeSeq;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::HashMap;

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

/// Assign closed-form weights/probabilities to every γ of one group, given
/// the block's total support `z` (see [`block_support`]).  The per-group
/// entry point of the incremental block softmax: byte-identical to
/// [`assign_block_weights`] for that group because both are the same pure
/// function of `(own support, z)`.
pub fn assign_group_weights(group: &mut Group, z: usize) {
    debug_assert!(z > 0, "a non-empty block has positive total support");
    for gamma in &mut group.gammas {
        gamma.weight = gamma_weight(gamma.support());
        gamma.probability = gamma.support() as f64 / z as f64;
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

/// Recompute every γ probability of a block from its current weights — the
/// block-level softmax of Eq. 3 (`Pr(γ) ∝ exp(w)`).  Used after weight
/// learning and after any external weight override
/// ([`SessionWeights::apply_to_block`], the distributed Eq. 6 merge).
pub fn renormalize_block(block: &mut Block) {
    let weights: Vec<f64> = block.gammas().map(|g| g.weight).collect();
    if weights.is_empty() {
        return;
    }
    let max_w = weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = weights.iter().map(|w| (w - max_w).exp()).collect();
    let z: f64 = exps.iter().sum();
    let mut idx = 0;
    for group in &mut block.groups {
        for gamma in &mut group.gammas {
            gamma.probability = exps[idx] / z;
            idx += 1;
        }
    }
}

/// Pool-independent identity of a γ: same rule, same resolved reason values,
/// same resolved result values.  Two sessions (or two distributed
/// partitions) built over different [`ValuePool`]s agree on a γ's signature
/// even though their raw [`dataset::ValueId`]s differ — this is what makes a
/// [`SessionWeights`] table transferable between engines.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GammaSignature {
    /// Index of the rule whose block the γ belongs to.
    pub rule: usize,
    /// Resolved reason-part values.
    pub reason: Vec<String>,
    /// Resolved result-part values.
    pub result: Vec<String>,
}

impl GammaSignature {
    /// The signature of a γ, resolving its interned values through `pool`.
    pub fn of(gamma: &Gamma, pool: &ValuePool) -> Self {
        GammaSignature {
            rule: gamma.rule.index(),
            reason: gamma
                .resolve_reason_values(pool)
                .into_iter()
                .map(str::to_string)
                .collect(),
            result: gamma
                .resolve_result_values(pool)
                .into_iter()
                .map(str::to_string)
                .collect(),
        }
    }
}

/// A transferable per-γ weight table — the vocabulary of the session weight
/// hooks ([`crate::CleaningSession::export_weights`] /
/// [`crate::CleaningSession::inject_weights`]).
///
/// A distributed coordinator merges the weights of identical γs across
/// partitions (the paper's Eq. 6 phase) and pushes the merged table back
/// into each partition's session before its next re-clean; the table is
/// keyed by [`GammaSignature`], so it crosses [`ValuePool`] boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionWeights {
    weights: HashMap<GammaSignature, f64>,
}

impl SessionWeights {
    /// An empty table (injecting it clears any previous injection).
    pub fn new() -> Self {
        SessionWeights::default()
    }

    /// Number of γ entries.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Set (or replace) the weight of a γ.
    pub fn set(&mut self, signature: GammaSignature, weight: f64) {
        self.weights.insert(signature, weight);
    }

    /// The weight recorded for a γ, if any.
    pub fn get(&self, signature: &GammaSignature) -> Option<f64> {
        self.weights.get(signature).copied()
    }

    /// Record every γ weight of one block (later entries replace earlier
    /// ones with the same signature).
    pub fn absorb_block(&mut self, block: &Block, pool: &ValuePool) {
        for gamma in block.gammas() {
            self.weights
                .insert(GammaSignature::of(gamma, pool), gamma.weight);
        }
    }

    /// Snapshot every γ weight of an index.
    pub fn from_index(index: &MlnIndex) -> Self {
        let mut out = SessionWeights::default();
        for block in &index.blocks {
            out.absorb_block(block, index.pool());
        }
        out
    }

    /// Override the weight of every γ of `block` found in the table, then
    /// refresh the block's probabilities (Eq. 3 softmax).  Returns the number
    /// of γs overridden; a block without matches is left untouched.
    pub fn apply_to_block(&self, block: &mut Block, pool: &ValuePool) -> usize {
        if self.weights.is_empty() {
            return 0;
        }
        let mut overridden = 0usize;
        for group in &mut block.groups {
            for gamma in &mut group.gammas {
                if let Some(&w) = self.weights.get(&GammaSignature::of(gamma, pool)) {
                    gamma.weight = w;
                    overridden += 1;
                }
            }
        }
        if overridden > 0 {
            renormalize_block(block);
        }
        overridden
    }
}

// Serialized as a `(signature, weight)` entry list sorted by signature, so
// the same table always yields the same wire bytes regardless of the hash
// map's iteration order — merge-round messages must be byte-deterministic
// for the transport replay/chaos harnesses to compare runs.
impl Serialize for SessionWeights {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut entries: Vec<(&GammaSignature, f64)> =
            self.weights.iter().map(|(s, &w)| (s, w)).collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut seq = serializer.serialize_seq(Some(entries.len()))?;
        for entry in &entries {
            seq.serialize_element(entry)?;
        }
        seq.end()
    }
}

impl<'de> Deserialize<'de> for SessionWeights {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct TableVisitor;
        impl<'de> serde::de::Visitor<'de> for TableVisitor {
            type Value = SessionWeights;
            fn expecting(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
                write!(f, "a sequence of (signature, weight) entries")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                let mut out = SessionWeights::new();
                while let Some((signature, weight)) = seq.next_element::<(GammaSignature, f64)>()? {
                    out.set(signature, weight);
                }
                Ok(out)
            }
        }
        deserializer.deserialize_seq(TableVisitor)
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
    fn session_weights_export_and_inject_round_trip() {
        use crate::{CleanConfig, CleaningSession};
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let mut session = CleaningSession::new(
            CleanConfig::default().with_tau(1),
            ds.schema().clone(),
            rules,
        )
        .unwrap();
        session
            .ingest_batch(ds.tuples().map(|t| t.owned_values()).collect())
            .unwrap();
        let _ = session.outcome();

        // Export the learned weights and look up one γ through its
        // pool-independent signature.
        let exported = session.export_weights();
        assert!(!exported.is_empty());
        let outcome = session.outcome();
        let index = outcome.index.as_ref().unwrap();
        let gamma = index.blocks[0].gammas().next().unwrap();
        let signature = GammaSignature::of(gamma, index.pool());
        assert_eq!(exported.get(&signature), Some(gamma.weight));

        // Inject an override: the next re-clean must carry it and
        // re-normalize the block's probabilities around it.
        let mut table = SessionWeights::new();
        table.set(signature.clone(), 42.0);
        session.inject_weights(table);
        assert!(
            session.dirty_block_count() > 0,
            "injection forces a re-clean"
        );
        let outcome = session.outcome();
        let index = outcome.index.as_ref().unwrap();
        let gamma = index.blocks[0]
            .gammas()
            .find(|g| GammaSignature::of(g, index.pool()) == signature)
            .expect("the overridden γ survives Stage I");
        assert!((gamma.weight - 42.0).abs() < 1e-12);
        let total: f64 = index.blocks[0].gammas().map(|g| g.probability).sum();
        assert!((total - 1.0).abs() < 1e-9, "probabilities re-normalized");

        // Injecting an empty table clears the override.
        session.inject_weights(SessionWeights::new());
        assert_eq!(
            session.dirty_block_count(),
            0,
            "empty table dirties nothing"
        );
    }

    #[test]
    fn apply_to_block_overrides_only_matching_gammas() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        assign_weights(&mut index);
        let pool = index.pool().clone();
        let block = &mut index.blocks[0];

        let miss = SessionWeights::new();
        assert_eq!(miss.apply_to_block(block, &pool), 0);

        let target = GammaSignature::of(block.gammas().next().unwrap(), &pool);
        let untouched: Vec<f64> = block.gammas().skip(1).map(|g| g.weight).collect();
        let mut table = SessionWeights::new();
        table.set(target.clone(), 7.5);
        table.set(
            GammaSignature {
                rule: 99,
                reason: vec!["nowhere".into()],
                result: vec![],
            },
            1.0,
        );
        assert_eq!(table.len(), 2);
        assert_eq!(table.apply_to_block(block, &pool), 1);
        assert!((block.gammas().next().unwrap().weight - 7.5).abs() < 1e-12);
        let after: Vec<f64> = block.gammas().skip(1).map(|g| g.weight).collect();
        assert_eq!(untouched, after, "non-matching γ weights stay put");
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
