//! Denial constraints (DCs): `∀ t, t' ∈ T, ¬(p₁ ∧ p₂ ∧ … ∧ pₙ)` — no pair of
//! tuples may satisfy all predicates simultaneously.
//!
//! The paper's example r2 is `∀t,t' ¬(PN(t)=PN(t') ∧ ST(t)≠ST(t'))`: two
//! tuples with the same phone number must not be in different states.

use crate::ops::Op;
use std::fmt;

/// One predicate of a two-tuple denial constraint, comparing an attribute of
/// the first tuple with an attribute of the second.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DcPredicate {
    /// Attribute of the first tuple.
    pub left_attr: String,
    /// Comparison operator.
    pub op: Op,
    /// Attribute of the second tuple.
    pub right_attr: String,
}

impl DcPredicate {
    /// A predicate comparing the two tuples on the *same* attribute (the
    /// common case, e.g. `PN(t) = PN(t')`).
    pub fn same_attr(attr: impl Into<String>, op: Op) -> Self {
        let attr = attr.into();
        DcPredicate {
            left_attr: attr.clone(),
            op,
            right_attr: attr,
        }
    }

    /// A predicate comparing different attributes of the two tuples.
    pub fn new(left_attr: impl Into<String>, op: Op, right_attr: impl Into<String>) -> Self {
        DcPredicate {
            left_attr: left_attr.into(),
            op,
            right_attr: right_attr.into(),
        }
    }
}

impl fmt::Display for DcPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(t){}{}(t')", self.left_attr, self.op, self.right_attr)
    }
}

/// A two-tuple denial constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenialConstraint {
    predicates: Vec<DcPredicate>,
}

impl DenialConstraint {
    /// Create a DC from its predicates.
    ///
    /// # Panics
    /// Panics with fewer than two predicates: a single-predicate DC has no
    /// reason part under the paper's reason/result split.
    pub fn new(predicates: Vec<DcPredicate>) -> Self {
        assert!(
            predicates.len() >= 2,
            "a denial constraint needs at least two predicates"
        );
        DenialConstraint { predicates }
    }

    /// All predicates in order.
    pub fn predicates(&self) -> &[DcPredicate] {
        &self.predicates
    }

    /// Reason-part predicates: every predicate except the last.
    pub fn reason_predicates(&self) -> &[DcPredicate] {
        &self.predicates[..self.predicates.len() - 1]
    }

    /// The result-part predicate: the last one (paper Section 4).
    #[allow(clippy::expect_used, reason = "`new` asserts at least two predicates")]
    pub fn result_predicate(&self) -> &DcPredicate {
        self.predicates.last().expect("at least two predicates")
    }

    /// Attribute names mentioned in the reason part (deduplicated, in order).
    pub fn reason_attrs(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in self.reason_predicates() {
            for a in [&p.left_attr, &p.right_attr] {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
        }
        out
    }

    /// Attribute names mentioned in the result part (deduplicated, in order,
    /// excluding attributes already in the reason part).
    pub fn result_attrs(&self) -> Vec<String> {
        let reason = self.reason_attrs();
        let mut out = Vec::new();
        let p = self.result_predicate();
        for a in [&p.left_attr, &p.right_attr] {
            if !reason.contains(a) && !out.contains(a) {
                out.push(a.clone());
            }
        }
        out
    }
}

impl fmt::Display for DenialConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preds: Vec<String> = self.predicates.iter().map(|p| p.to_string()).collect();
        write!(f, "DC: not({})", preds.join(" and "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;
    use dataset::sample_hospital_dataset;

    fn r2() -> DenialConstraint {
        DenialConstraint::new(vec![
            DcPredicate::same_attr("PN", Op::Eq),
            DcPredicate::same_attr("ST", Op::Neq),
        ])
    }

    #[test]
    fn reason_result_split() {
        let dc = r2();
        assert_eq!(dc.reason_attrs(), vec!["PN"]);
        assert_eq!(dc.result_attrs(), vec!["ST"]);
    }

    #[test]
    fn ordering_predicates() {
        let ds = sample_hospital_dataset();
        // The index groups on attributes, not operators: with `>` / `<` the
        // DC splits as r2 does.
        let dc = DenialConstraint::new(vec![
            DcPredicate::same_attr("PN", Op::Gt),
            DcPredicate::same_attr("ST", Op::Lt),
        ]);
        assert!(Rule::Dc(dc.clone()).is_valid_for(ds.schema()));
        assert_eq!(dc.reason_attrs(), vec!["PN"]);
        assert_eq!(dc.result_attrs(), vec!["ST"]);
        assert_eq!(dc.to_string(), "DC: not(PN(t)>PN(t') and ST(t)<ST(t'))");
    }

    #[test]
    fn cross_attribute_predicate() {
        // Both sides of a cross-attribute predicate are reason attributes,
        // and the result part leaves out any the reason part already holds.
        let dc = DenialConstraint::new(vec![
            DcPredicate::new("CT", Op::Eq, "ST"),
            DcPredicate::new("ST", Op::Neq, "PN"),
        ]);
        assert_eq!(dc.reason_attrs(), vec!["CT", "ST"]);
        assert_eq!(dc.result_attrs(), vec!["PN"]);
    }

    #[test]
    #[should_panic(expected = "at least two predicates")]
    fn single_predicate_panics() {
        DenialConstraint::new(vec![DcPredicate::same_attr("PN", Op::Eq)]);
    }

    #[test]
    fn display() {
        assert_eq!(r2().to_string(), "DC: not(PN(t)=PN(t') and ST(t)!=ST(t'))");
    }
}
