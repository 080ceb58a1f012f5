//! Violation detection: find the schema-level errors — tuples (or tuple
//! pairs) that break an integrity constraint.
//!
//! Detection is hash-partitioned: tuples are bucketed by their reason-part
//! values (for FDs/CFDs) or the reason attributes (for DCs) before pairwise
//! checks, so an FD over a dataset with many distinct reason values is far
//! cheaper than the naive `O(n²)` scan.

use crate::rule::{validated_attr, Rule, RuleId, RuleSet, UnknownAttribute};
use dataset::{AttrId, CellRef, Dataset, IdMap, TupleId};

/// Which flavour of violation was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two tuples jointly break the rule (FD / variable CFD / DC).
    Pair,
    /// A single tuple breaks a constant CFD consequent.
    Single,
}

/// A detected violation: the rule, the participating tuples, and the cells of
/// the rule's result part (the usual repair targets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: RuleId,
    /// Whether the violation involves one tuple or a pair.
    pub kind: ViolationKind,
    /// Participating tuples (one or two).
    pub tuples: Vec<TupleId>,
    /// Result-part cells of the participating tuples.
    pub cells: Vec<CellRef>,
}

/// Detect every violation of `rules` in `ds`; a rule naming an attribute
/// `ds` lacks is an error, checked before any tuple is read.
pub fn detect_violations(
    ds: &Dataset,
    rules: &RuleSet,
) -> Result<Vec<Violation>, UnknownAttribute> {
    rules.check(ds.schema())?;
    let mut out = Vec::new();
    for (rule_id, rule) in rules.iter_with_ids() {
        // Resolved once per rule; `check` found every attribute.
        let result: Vec<AttrId> = rule
            .result_attrs()
            .iter()
            .map(|attr| validated_attr(ds.schema(), attr))
            .collect();
        match rule {
            Rule::Fd(fd) => {
                detect_grouped_pairs(ds, rule_id, &result, rule, &mut out, |a, b| {
                    fd.violated_by(ds, a, b)
                });
            }
            Rule::Cfd(cfd) => {
                // Single-tuple violations of constant consequents.
                for t in ds.tuples() {
                    if cfd.violated_by_tuple(ds, &t) {
                        out.push(Violation {
                            rule: rule_id,
                            kind: ViolationKind::Single,
                            tuples: vec![t.id()],
                            cells: result_cells(&result, &[t.id()]),
                        });
                    }
                }
                // Pairwise violations of the variable part.
                detect_grouped_pairs(ds, rule_id, &result, rule, &mut out, |a, b| {
                    cfd.violated_by_pair(ds, a, b)
                });
            }
            Rule::Dc(dc) => {
                detect_grouped_pairs(ds, rule_id, &result, rule, &mut out, |a, b| {
                    dc.violated_by(ds, a, b)
                });
            }
        }
    }
    Ok(out)
}

/// Group tuples by their reason-part values and run the pairwise check within
/// each group.  All three rule kinds only relate tuples agreeing on the
/// reason part (for the equality-style DCs of the paper the reason attributes
/// play that role), so bucketing is sound for them; the fallback of a whole-
/// dataset bucket keeps correctness for exotic DCs whose reason predicates
/// are not equalities.
fn detect_grouped_pairs<F>(
    ds: &Dataset,
    rule_id: RuleId,
    result: &[AttrId],
    rule: &Rule,
    out: &mut Vec<Violation>,
    violates: F,
) where
    F: Fn(&dataset::Tuple, &dataset::Tuple) -> bool,
{
    let schema = ds.schema();
    let groupable = match rule {
        Rule::Fd(_) | Rule::Cfd(_) => true,
        Rule::Dc(dc) => dc
            .reason_predicates()
            .iter()
            .all(|p| p.op == crate::ops::Op::Eq && p.left_attr == p.right_attr),
    };

    // Buckets are keyed on interned ids: building a key is a handful of u32
    // copies per tuple instead of string clones, and hashing is integer work.
    let mut buckets: IdMap<Vec<dataset::ValueId>, Vec<TupleId>> = IdMap::default();
    for t in ds.tuples() {
        if !rule.is_relevant(schema, &t) {
            continue;
        }
        let key = if groupable {
            rule.reason_value_ids(schema, &t)
        } else {
            Vec::new()
        };
        buckets.entry(key).or_default().push(t.id());
    }

    for ids in buckets.values() {
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let a = ds.tuple(ids[i]);
                let b = ds.tuple(ids[j]);
                if violates(&a, &b) || violates(&b, &a) {
                    out.push(Violation {
                        rule: rule_id,
                        kind: ViolationKind::Pair,
                        tuples: vec![ids[i], ids[j]],
                        cells: result_cells(result, &[ids[i], ids[j]]),
                    });
                }
            }
        }
    }
}

/// The cells of `result` (a rule's result attributes) in `tuples`.
fn result_cells(result: &[AttrId], tuples: &[TupleId]) -> Vec<CellRef> {
    let cells = |&t: &TupleId| result.iter().map(move |&attr| CellRef::new(t, attr));
    tuples.iter().flat_map(cells).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_hospital_rules;
    use dataset::sample_hospital_dataset;
    use std::collections::BTreeSet;

    #[test]
    fn table1_violations() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let violations = detect_violations(&ds, &rules).unwrap();

        // r1 (CT -> ST): BOAZ maps to both AK (t4) and AL (t5, t6) → pairs
        // (t4,t5) and (t4,t6).
        let r1: Vec<&Violation> = violations.iter().filter(|v| v.rule == RuleId(0)).collect();
        assert_eq!(r1.len(), 2);

        // r2 (same PN → same ST): PN 2567688400 appears with AK and AL →
        // pairs (t4,t5) and (t4,t6).
        let r2: Vec<&Violation> = violations.iter().filter(|v| v.rule == RuleId(1)).collect();
        assert_eq!(r2.len(), 2);

        // r3 (ELIZA ∧ BOAZ ⇒ 2567688400): all matching tuples already carry
        // that phone number, so no violation.
        let r3: Vec<&Violation> = violations.iter().filter(|v| v.rule == RuleId(2)).collect();
        assert!(r3.is_empty());
    }

    #[test]
    fn violating_cells_point_at_result_attrs() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let violations = detect_violations(&ds, &rules).unwrap();
        let cells: BTreeSet<CellRef> = violations.into_iter().flat_map(|v| v.cells).collect();
        let st = ds.schema().attr_id("ST").unwrap();
        // The ST column of t4, t5, t6 is implicated by r1/r2 violations.
        assert!(cells.contains(&CellRef::new(TupleId(3), st)));
        assert!(cells.contains(&CellRef::new(TupleId(4), st)));
        assert!(cells.contains(&CellRef::new(TupleId(5), st)));
        // t1 is not implicated at all.
        assert!(!cells.iter().any(|c| c.tuple == TupleId(0)));
    }

    #[test]
    fn clean_data_has_no_violations() {
        let truth = dataset::sample_hospital_truth();
        let rules = sample_hospital_rules();
        assert!(detect_violations(&truth, &rules).unwrap().is_empty());
    }

    #[test]
    fn single_tuple_cfd_violation_detected() {
        let mut ds = sample_hospital_dataset();
        let pn = ds.schema().attr_id("PN").unwrap();
        ds.set_value(TupleId(4), pn, "0000000000");
        let rules = sample_hospital_rules();
        let violations = detect_violations(&ds, &rules).unwrap();
        assert!(violations
            .iter()
            .any(|v| v.rule == RuleId(2) && v.kind == ViolationKind::Single));
    }

    /// A rule set naming an attribute the table lacks is a typed error, not
    /// a panic in the first projection: a two-column `HN,PN` table under
    /// `FD: CT -> ST`.
    #[test]
    fn a_rule_naming_a_missing_attribute_is_an_error() {
        let ds = dataset::csv::parse_csv("HN,PN\nELIZA,2567688400\nELIZA,2567688400\n").unwrap();
        let rules = crate::parse_rules("FD: CT -> ST").unwrap();
        let missing = UnknownAttribute {
            rule: RuleId(0),
            attribute: "CT".into(),
        };
        assert_eq!(detect_violations(&ds, &rules), Err(missing));
    }

    #[test]
    fn dc_with_non_equality_reason_falls_back_to_full_scan() {
        use crate::dc::{DcPredicate, DenialConstraint};
        use crate::ops::Op;
        // ¬(PN(t) > PN(t') ∧ ST(t) ≠ ST(t')) — reason predicate is not an
        // equality, so detection must not bucket by PN.
        let dc = DenialConstraint::new(vec![
            DcPredicate::same_attr("PN", Op::Gt),
            DcPredicate::same_attr("ST", Op::Neq),
        ]);
        let rules = RuleSet::new(vec![Rule::Dc(dc)]);
        let ds = sample_hospital_dataset();
        let violations = detect_violations(&ds, &rules).unwrap();
        // t1.PN(334...) > t4.PN(256...) and AL != AK, so at least that pair
        // must be caught even though the phone numbers differ.
        assert!(violations
            .iter()
            .any(|v| v.tuples.contains(&TupleId(0)) && v.tuples.contains(&TupleId(3))));
    }
}
