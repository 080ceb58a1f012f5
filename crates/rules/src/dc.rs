//! Denial constraints (DCs): `∀ t, t' ∈ T, ¬(p₁ ∧ p₂ ∧ … ∧ pₙ)` — no pair of
//! tuples may satisfy all predicates simultaneously.
//!
//! The paper's example r2 is `∀t,t' ¬(PN(t)=PN(t') ∧ ST(t)≠ST(t'))`: two
//! tuples with the same phone number must not be in different states.

use crate::ops::Op;
use crate::rule::validated_attr;
use dataset::{Dataset, Schema, Tuple, ValueId};
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

    /// Evaluate the predicate on a pair of tuples.  Equality-flavoured
    /// operators compare interned ids — both tuples must come from the same
    /// dataset (or datasets sharing a pool snapshot); ordering operators fall
    /// back to the resolved strings.
    pub fn eval(&self, schema: &Schema, a: &Tuple, b: &Tuple) -> bool {
        let l = validated_attr(schema, &self.left_attr);
        let r = validated_attr(schema, &self.right_attr);
        match self.op {
            Op::Eq => a.value_id(l) == b.value_id(r),
            Op::Neq => a.value_id(l) != b.value_id(r),
            _ => self.op.eval(a.value(l), b.value(r)),
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

    /// Whether all attributes exist in `schema`.
    pub fn is_valid_for(&self, schema: &Schema) -> bool {
        self.predicates.iter().all(|p| {
            schema.attr_id(&p.left_attr).is_some() && schema.attr_id(&p.right_attr).is_some()
        })
    }

    /// Project a tuple onto the reason-part attribute values.
    pub fn reason_values(&self, schema: &Schema, tuple: &Tuple) -> Vec<String> {
        self.reason_attrs()
            .iter()
            .map(|a| tuple.value(validated_attr(schema, a)).to_string())
            .collect()
    }

    /// Project a tuple onto the result-part attribute values.
    pub fn result_values(&self, schema: &Schema, tuple: &Tuple) -> Vec<String> {
        self.result_attrs()
            .iter()
            .map(|a| tuple.value(validated_attr(schema, a)).to_string())
            .collect()
    }

    /// Project a tuple onto the reason-part value ids (no string cloning).
    pub fn reason_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        self.reason_attrs()
            .iter()
            .map(|a| tuple.value_id(validated_attr(schema, a)))
            .collect()
    }

    /// Project a tuple onto the result-part value ids (no string cloning).
    pub fn result_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        self.result_attrs()
            .iter()
            .map(|a| tuple.value_id(validated_attr(schema, a)))
            .collect()
    }

    /// Whether an *ordered* pair of distinct tuples violates the DC (all
    /// predicates evaluate to true).
    pub fn violated_by(&self, ds: &Dataset, a: &Tuple, b: &Tuple) -> bool {
        if a.id() == b.id() {
            return false;
        }
        self.predicates.iter().all(|p| p.eval(ds.schema(), a, b))
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
    use dataset::{sample_hospital_dataset, TupleId};

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
    fn violation_on_table1() {
        let ds = sample_hospital_dataset();
        let dc = r2();
        let t4 = ds.tuple(TupleId(3)); // PN 2567688400, ST AK
        let t5 = ds.tuple(TupleId(4)); // PN 2567688400, ST AL
        let t1 = ds.tuple(TupleId(0)); // PN 3347938701, ST AL
        assert!(dc.violated_by(&ds, &t4, &t5));
        assert!(dc.violated_by(&ds, &t5, &t4), "symmetric for this DC");
        assert!(!dc.violated_by(&ds, &t1, &t5), "different phone numbers");
        assert!(!dc.violated_by(&ds, &t4, &t4), "never violated with itself");
    }

    #[test]
    fn ordering_predicates() {
        let ds = sample_hospital_dataset();
        // "No two tuples where t has a greater phone number but a smaller state"
        // — a nonsensical rule, but exercises <, > evaluation over pairs.
        let dc = DenialConstraint::new(vec![
            DcPredicate::same_attr("PN", Op::Gt),
            DcPredicate::same_attr("ST", Op::Lt),
        ]);
        assert!(dc.is_valid_for(ds.schema()));
        let t1 = ds.tuple(TupleId(0)); // 3347938701 / AL
        let t4 = ds.tuple(TupleId(3)); // 2567688400 / AK
                                       // t1.PN > t4.PN but t1.ST(AL) > t4.ST(AK) → second predicate false.
        assert!(!dc.violated_by(&ds, &t1, &t4));
        // t4.PN < t1.PN → first predicate false.
        assert!(!dc.violated_by(&ds, &t4, &t1));
    }

    #[test]
    fn cross_attribute_predicate() {
        let p = DcPredicate::new("CT", Op::Eq, "ST");
        let ds = sample_hospital_dataset();
        let t1 = ds.tuple(TupleId(0));
        assert!(!p.eval(ds.schema(), &t1, &t1), "DOTHAN != AL");
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
