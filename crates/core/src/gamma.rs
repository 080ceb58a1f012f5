//! Pieces of data (γ): the unit of cleaning in MLNClean.
//!
//! A γ is the projection of one or more tuples onto the attributes of one
//! rule — its reason-part values plus its result-part values.  All tuples
//! carrying exactly the same projected values share one γ, and the number of
//! such tuples is the γ's *support* `c(γ)` (the prior-weight numerator of
//! Eq. 4 in the paper).
//!
//! Values are stored as interned [`ValueId`]s and attributes as [`AttrId`]s,
//! so γ-to-γ equality and conflict checks are pure integer comparisons; the
//! strings only materialize when a distance must be computed (through the
//! index's [`ValuePool`]) or when provenance records are emitted.

use dataset::{AttrId, Schema, TupleId, ValueId, ValuePool};
use rules::RuleId;
use std::fmt;

/// A piece of data: one distinct (reason values, result values) combination
/// within a block, together with its supporting tuples and learned weight.
/// Only this crate builds one: every writer goes through
/// [`crate::Block::merge_runs`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Gamma {
    /// The rule whose block this γ belongs to.
    pub rule: RuleId,
    /// Attributes of the reason part, in rule order.
    pub reason_attrs: Vec<AttrId>,
    /// Interned values of the reason part.
    pub reason_values: Vec<ValueId>,
    /// Attributes of the result part, in rule order.
    pub result_attrs: Vec<AttrId>,
    /// Interned values of the result part.
    pub result_values: Vec<ValueId>,
    /// Tuples carrying exactly these values (the support `c(γ)`).
    pub tuples: Vec<TupleId>,
    /// Raw weight learned by the block's MLN weight learning.
    pub weight: f64,
    /// `Pr(γ)` — the weight mapped through the block softmax (Eq. 3): a
    /// positive, block-normalized probability used by the reliability and
    /// fusion scores.
    pub probability: f64,
}

mlnw::codec! { struct Gamma { rule, reason_attrs, reason_values, result_attrs, result_values, tuples, weight, probability } }

impl Gamma {
    /// Create a γ with no learned weight yet (weight learning fills the
    /// `weight`/`probability` fields later).
    pub(crate) fn new(
        rule: RuleId,
        reason_attrs: Vec<AttrId>,
        reason_values: Vec<ValueId>,
        result_attrs: Vec<AttrId>,
        result_values: Vec<ValueId>,
    ) -> Self {
        debug_assert_eq!(reason_attrs.len(), reason_values.len());
        debug_assert_eq!(result_attrs.len(), result_values.len());
        Gamma {
            rule,
            reason_attrs,
            reason_values,
            result_attrs,
            result_values,
            tuples: Vec::new(),
            weight: 0.0,
            probability: 0.0,
        }
    }

    /// Number of tuples supporting this γ (`c(γ)`).
    pub fn support(&self) -> usize {
        self.tuples.len()
    }

    /// All value ids of the γ, reason part first — the record compared by the
    /// distance cache in AGP and RSC.
    pub fn value_ids(&self) -> Vec<ValueId> {
        self.values().collect()
    }

    /// [`Self::value_ids`] without the `Vec`.
    pub(crate) fn values(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.reason_values
            .iter()
            .chain(&self.result_values)
            .copied()
    }

    /// All values of the γ resolved through `pool`, reason part first.
    pub fn resolve_values<'p>(&self, pool: &'p ValuePool) -> Vec<&'p str> {
        self.reason_values
            .iter()
            .chain(self.result_values.iter())
            .map(|&v| pool.resolve(v))
            .collect()
    }

    /// Resolve only the reason-part values.
    pub fn resolve_reason_values<'p>(&self, pool: &'p ValuePool) -> Vec<&'p str> {
        pool.resolve_all(&self.reason_values)
    }

    /// Resolve only the result-part values.
    pub fn resolve_result_values<'p>(&self, pool: &'p ValuePool) -> Vec<&'p str> {
        pool.resolve_all(&self.result_values)
    }

    /// `(attribute, value)` id pairs of the whole γ, reason part first.  If
    /// an attribute appears in both parts (possible for some DCs) the reason
    /// occurrence wins.
    pub fn attr_value_pairs(&self) -> Vec<(AttrId, ValueId)> {
        self.pairs().collect()
    }

    /// [`Self::attr_value_pairs`] without the `Vec`: every occurrence whose
    /// attribute no earlier occurrence carries.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (AttrId, ValueId)> + '_ {
        self.occurrences()
            .enumerate()
            .filter(|&(i, (a, _))| !self.occurrences().take(i).any(|(x, _)| x == a))
            .map(|(_, pair)| pair)
    }

    /// Every `(attribute, value)` occurrence, reason part first, repeated
    /// attributes included.
    fn occurrences(&self) -> impl Iterator<Item = (AttrId, ValueId)> + '_ {
        let reason = self.reason_attrs.iter().zip(&self.reason_values);
        let result = self.result_attrs.iter().zip(&self.result_values);
        reason.chain(result).map(|(&a, &v)| (a, v))
    }

    /// The value id this γ assigns to `attr`, if the γ covers that attribute
    /// (its first occurrence — the one [`Self::attr_value_pairs`] keeps).
    pub fn value_of(&self, attr: AttrId) -> Option<ValueId> {
        self.occurrences().find(|&(a, _)| a == attr).map(|(_, v)| v)
    }

    /// Whether two γs conflict: they share at least one attribute and
    /// disagree on at least one shared attribute (the conflict test of
    /// Algorithm 2).  Pure integer comparisons — no strings are resolved
    /// and nothing is allocated.
    pub fn conflicts_with(&self, other: &Gamma) -> bool {
        self.pairs()
            .any(|(attr, value)| other.value_of(attr).is_some_and(|v| v != value))
    }

    /// Render the γ in the paper's `{CT: BOAZ, ST: AL}` notation, resolving
    /// attribute names and values through the given schema and pool.
    pub fn display_in(&self, schema: &Schema, pool: &ValuePool) -> String {
        let pairs: Vec<String> = self
            .attr_value_pairs()
            .into_iter()
            .map(|(a, v)| format!("{}: {}", schema.attr_name(a), pool.resolve(v)))
            .collect();
        format!("{{{}}}", pairs.join(", "))
    }
}

impl fmt::Display for Gamma {
    /// Pool-free rendering with raw ids (`{A1: v3, A2: v0}`); use
    /// [`Gamma::display_in`] for resolved output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pairs: Vec<String> = self
            .attr_value_pairs()
            .into_iter()
            .map(|(a, v)| format!("{a}: {v}"))
            .collect();
        write!(f, "{{{}}}", pairs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::Schema;

    /// Test pool over the running example's constants plus a helper building
    /// γs the way the index does.
    fn pool() -> (Schema, ValuePool) {
        let schema = Schema::new(&["HN", "CT", "ST", "PN"]);
        let mut pool = ValuePool::new();
        for value in ["ELIZA", "DOTHAN", "BOAZ", "AL", "AK", "2567688400"] {
            pool.intern(value);
        }
        (schema, pool)
    }

    fn gamma(
        schema: &Schema,
        pool: &mut ValuePool,
        reason: &[(&str, &str)],
        result: &[(&str, &str)],
    ) -> Gamma {
        Gamma::new(
            RuleId(0),
            reason
                .iter()
                .map(|(a, _)| schema.attr_id(a).unwrap())
                .collect(),
            reason.iter().map(|(_, v)| pool.intern(v)).collect(),
            result
                .iter()
                .map(|(a, _)| schema.attr_id(a).unwrap())
                .collect(),
            result.iter().map(|(_, v)| pool.intern(v)).collect(),
        )
    }

    #[test]
    fn values_and_pairs() {
        let (schema, mut pool) = pool();
        let g = gamma(&schema, &mut pool, &[("CT", "BOAZ")], &[("ST", "AL")]);
        assert_eq!(g.resolve_values(&pool), vec!["BOAZ", "AL"]);
        let ct = schema.attr_id("CT").unwrap();
        let st = schema.attr_id("ST").unwrap();
        let pn = schema.attr_id("PN").unwrap();
        assert_eq!(
            g.attr_value_pairs(),
            vec![
                (ct, pool.lookup("BOAZ").unwrap()),
                (st, pool.lookup("AL").unwrap())
            ]
        );
        assert_eq!(g.value_of(st), pool.lookup("AL"));
        assert_eq!(g.value_of(pn), None);
        assert_eq!(g.value_ids().len(), 2);
    }

    #[test]
    fn conflict_detection_matches_example3() {
        // γ1 from B1, γ2 from B2, γ3 from B3 of the paper's Example 3.
        let (schema, mut pool) = pool();
        let g1 = gamma(&schema, &mut pool, &[("CT", "DOTHAN")], &[("ST", "AL")]);
        let g2 = gamma(&schema, &mut pool, &[("PN", "2567688400")], &[("ST", "AL")]);
        let g3 = gamma(
            &schema,
            &mut pool,
            &[("HN", "ELIZA"), ("CT", "BOAZ")],
            &[("PN", "2567688400")],
        );
        assert!(!g1.conflicts_with(&g2), "no shared attribute disagrees");
        assert!(!g2.conflicts_with(&g3), "PN agrees");
        assert!(g1.conflicts_with(&g3), "CT: DOTHAN vs BOAZ");
        assert!(g3.conflicts_with(&g1), "conflict is symmetric");
    }

    #[test]
    fn no_shared_attributes_means_no_conflict() {
        let schema = Schema::new(&["A", "B", "C", "D"]);
        let mut pool = ValuePool::new();
        let a = gamma(&schema, &mut pool, &[("A", "1")], &[("B", "2")]);
        let b = gamma(&schema, &mut pool, &[("C", "3")], &[("D", "4")]);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn allocation_free_tests_match_the_pair_list_definition() {
        // The definitions `value_of` / `conflicts_with` had when they
        // materialised `attr_value_pairs()` per call.
        fn value_of(g: &Gamma, attr: AttrId) -> Option<ValueId> {
            let pairs = g.attr_value_pairs();
            pairs.into_iter().find(|(a, _)| *a == attr).map(|(_, v)| v)
        }
        fn conflicts(a: &Gamma, b: &Gamma) -> bool {
            a.attr_value_pairs()
                .into_iter()
                .any(|(attr, v)| value_of(b, attr).is_some_and(|o| o != v))
        }
        let (schema, mut pool) = pool();
        // The DC case: CT sits in both parts with different values — the
        // reason occurrence (BOAZ) is the γ's CT.
        let both = gamma(
            &schema,
            &mut pool,
            &[("CT", "BOAZ"), ("ST", "AL")],
            &[("CT", "DOTHAN"), ("PN", "2567688400")],
        );
        let ct = schema.attr_id("CT").unwrap();
        assert_eq!(both.attr_value_pairs().len(), 3);
        assert_eq!(both.value_of(ct), pool.lookup("BOAZ"));
        let gammas = [
            both,
            gamma(&schema, &mut pool, &[("CT", "BOAZ")], &[("ST", "AL")]),
            gamma(&schema, &mut pool, &[("CT", "DOTHAN")], &[("ST", "AL")]),
            gamma(&schema, &mut pool, &[("CT", "BOAZ")], &[("ST", "AK")]),
            gamma(
                &schema,
                &mut pool,
                &[("HN", "ELIZA")],
                &[("PN", "2567688400")],
            ),
            gamma(&schema, &mut pool, &[("HN", "ELIZA")], &[("HN", "BOAZ")]),
        ];
        let mut conflicting = 0;
        for a in &gammas {
            for attr in schema.attr_ids() {
                assert_eq!(a.value_of(attr), value_of(a, attr), "{a} on {attr}");
            }
            for b in &gammas {
                assert_eq!(a.conflicts_with(b), conflicts(a, b), "{a} vs {b}");
                conflicting += usize::from(a.conflicts_with(b));
            }
        }
        // Disjoint, agreeing and disagreeing pairs all occur; the result-part
        // DOTHAN of the first γ conflicts with nothing.
        assert!(!gammas[0].conflicts_with(&gammas[1]));
        assert!(gammas[0].conflicts_with(&gammas[2]));
        assert!(!gammas[1].conflicts_with(&gammas[4]));
        assert!(conflicting > 0 && conflicting < gammas.len() * gammas.len());
    }

    #[test]
    fn display_matches_paper_notation() {
        let (schema, mut pool) = pool();
        let g = gamma(&schema, &mut pool, &[("CT", "BOAZ")], &[("ST", "AL")]);
        assert_eq!(g.display_in(&schema, &pool), "{CT: BOAZ, ST: AL}");
    }

    #[test]
    fn support_counts_tuples() {
        let (schema, mut pool) = pool();
        let mut g = gamma(&schema, &mut pool, &[("CT", "BOAZ")], &[("ST", "AL")]);
        assert_eq!(g.support(), 0);
        g.tuples.push(TupleId(4));
        g.tuples.push(TupleId(5));
        assert_eq!(g.support(), 2);
    }
}
