//! Eq. 6: evidence-weighted merging of per-partition γ weights.
//!
//! Weight learning inside a small partition can be unreliable — a γ may have
//! no corroborating evidence locally even though other partitions hold
//! plenty.  The coordinator therefore merges the locally learned weights of
//! identical γs across partitions,
//!
//! ```text
//! w(γ) = Σᵢ nᵢ · wᵢ  /  Σᵢ nᵢ
//! ```
//!
//! where `nᵢ` is the number of tuples related to γ in partition `Pᵢ` and `wᵢ`
//! the weight learned there, and pushes the merged weight back into every
//! partition's index before RSC/FSCR run.  This in-place merge of the batch
//! runner ([`crate::DistributedMlnClean`]) is the one weight override in the
//! tree: the streaming coordinator merges exact evidence instead and never
//! overrides a weight (see [`crate::streaming`]).

use mlnclean::weights::renormalize_block;
use mlnclean::{GammaSignature, MlnIndex};
use std::collections::HashMap;

/// Merge the γ weights of every partition index in place (Eq. 6) and refresh
/// the per-block probabilities.  Returns the number of distinct γs that
/// appeared in more than one partition (i.e. actually benefited from global
/// evidence).
pub fn merge_weights(indices: &mut [MlnIndex]) -> usize {
    // Pass 1: accumulate `(Σ n·w, Σ n, #partitions)` per γ identity.
    // Identities are resolved strings: partitions built by the runner share
    // one pool snapshot, but indexes over unrelated pools (e.g. hand-built
    // partitions in tests) merge too, where raw ids would not be comparable.
    let mut accum: HashMap<GammaSignature, (f64, f64, usize)> = HashMap::new();
    for index in indices.iter() {
        for gamma in index.blocks.iter().flat_map(|block| block.gammas()) {
            let n = gamma.support() as f64;
            let entry = accum
                .entry(GammaSignature::of(gamma, index.pool()))
                .or_insert((0.0, 0.0, 0));
            entry.0 += n * gamma.weight;
            entry.1 += n;
            entry.2 += 1;
        }
    }
    let shared = accum.values().filter(|(_, _, parts)| *parts > 1).count();

    // Pass 2: write the merged weight back and recompute each block's softmax
    // probabilities.
    for index in indices.iter_mut() {
        let (blocks, pool) = index.split_mut();
        for block in blocks.iter_mut() {
            for group in &mut block.groups {
                for gamma in &mut group.gammas {
                    if let Some((num, den, _)) = accum.get(&GammaSignature::of(gamma, pool)) {
                        if *den > 0.0 {
                            gamma.weight = num / den;
                        }
                    }
                }
            }
            renormalize_block(block);
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{Dataset, Schema};
    use mlnclean::MlnIndex;

    fn part(rows: &[(&str, &str)]) -> MlnIndex {
        let mut ds = Dataset::new(Schema::new(&["CT", "ST"]));
        for (c, s) in rows {
            ds.push_row(vec![c.to_string(), s.to_string()]).unwrap();
        }
        let rules = rules::parse_rules("FD: CT -> ST").unwrap();
        let mut index = MlnIndex::build(&ds, &rules).unwrap();
        mlnclean::weights::assign_weights(&mut index);
        index
    }

    #[test]
    fn merged_weight_is_the_evidence_weighted_average() {
        // Partition 1 has three DOTHAN/AL tuples, partition 2 has one.
        let mut indices = vec![
            part(&[
                ("DOTHAN", "AL"),
                ("DOTHAN", "AL"),
                ("DOTHAN", "AL"),
                ("BOAZ", "AL"),
            ]),
            part(&[("DOTHAN", "AL"), ("BOAZ", "AK")]),
        ];
        let dothan_weight = |index: &MlnIndex| -> f64 {
            index.blocks[0]
                .gammas()
                .find(|g| g.resolve_reason_values(index.pool()) == vec!["DOTHAN"])
                .unwrap()
                .weight
        };
        let w1 = dothan_weight(&indices[0]);
        let w2 = dothan_weight(&indices[1]);
        let shared = merge_weights(&mut indices);
        assert!(shared >= 1, "the DOTHAN/AL γ appears in both partitions");

        let expected = (3.0 * w1 + 1.0 * w2) / 4.0;
        for index in &indices {
            let merged = dothan_weight(index);
            assert!(
                (merged - expected).abs() < 1e-12,
                "got {merged}, want {expected}"
            );
        }
    }

    #[test]
    fn probabilities_are_renormalized_after_merge() {
        let mut indices = vec![
            part(&[("DOTHAN", "AL"), ("BOAZ", "AL"), ("BOAZ", "AK")]),
            part(&[("DOTHAN", "AL"), ("DOTHAN", "AL")]),
        ];
        merge_weights(&mut indices);
        for index in &indices {
            for block in &index.blocks {
                let total: f64 = block.gammas().map(|g| g.probability).sum();
                assert!((total - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gamma_unique_to_one_part_keeps_its_weight() {
        let mut indices = vec![
            part(&[("DOTHAN", "AL"), ("DOTHAN", "AL")]),
            part(&[("BOAZ", "AK")]),
        ];
        let before = indices[1].blocks[0].gammas().next().unwrap().weight;
        merge_weights(&mut indices);
        let after = indices[1].blocks[0].gammas().next().unwrap().weight;
        assert!((before - after).abs() < 1e-12);
    }
}
