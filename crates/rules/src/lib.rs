//! Integrity-constraint language for MLNClean: functional dependencies (FDs),
//! conditional functional dependencies (CFDs), and denial constraints (DCs).
//!
//! Every rule is split into a **reason part** and a **result part** (the
//! paper's terminology): the reason part determines the result part, i.e. the
//! same reason values may not co-exist with different result values.
//!
//! * For implication formulas (FDs and CFDs) the antecedent is the reason
//!   part and the consequent the result part.
//! * For DCs (`∀ t, t' ¬(p₁ ∧ … ∧ pₙ)`), the last predicate is the result
//!   part and the remaining predicates the reason part.
//!
//! The crate also provides violation detection over a [`dataset::Dataset`]
//! and a small textual parser so rule sets can be written down in experiment
//! configuration and tests.
//!
//! Rule text reaches every module through the parser, so none panics on
//! it: the crate denies `unwrap`, `expect` and `panic!` outside its tests,
//! and the few `allow`s each name their invariant.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cfd;
pub mod dc;
pub mod fd;
pub mod ops;
pub mod parser;
pub mod rule;
pub mod violations;

pub use cfd::{CfdClause, ConditionalFd};
pub use dc::{DcPredicate, DenialConstraint};
pub use fd::FunctionalDependency;
pub use ops::Op;
pub use parser::{parse_rule, parse_rules, ParseError};
pub use rule::{Rule, RuleId, RuleSet};
pub use violations::{detect_violations, violating_cells, Violation, ViolationKind};

/// Build the paper's three running-example rules over the Table 1 hospital
/// schema (`HN`, `CT`, `ST`, `PN`):
///
/// * r1 (FD): `CT → ST`
/// * r2 (DC): `∀t,t' ¬(PN(t)=PN(t') ∧ ST(t)≠ST(t'))`
/// * r3 (CFD): `HN="ELIZA", CT="BOAZ" → PN="2567688400"`
pub fn sample_hospital_rules() -> RuleSet {
    let r1 = Rule::Fd(FunctionalDependency::new(vec!["CT"], vec!["ST"]));
    let r2 = Rule::Dc(DenialConstraint::new(vec![
        DcPredicate::same_attr("PN", Op::Eq),
        DcPredicate::same_attr("ST", Op::Neq),
    ]));
    let r3 = Rule::Cfd(ConditionalFd::new(
        vec![
            CfdClause::constant("HN", "ELIZA"),
            CfdClause::constant("CT", "BOAZ"),
        ],
        vec![CfdClause::constant("PN", "2567688400")],
    ));
    RuleSet::new(vec![r1, r2, r3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::sample_hospital_dataset;

    #[test]
    fn sample_rules_have_expected_shape() {
        let rules = sample_hospital_rules();
        assert_eq!(rules.len(), 3);
        let ds = sample_hospital_dataset();
        for rule in rules.iter() {
            // Every attribute mentioned by the rules exists in the schema.
            for attr in rule.all_attrs() {
                assert!(
                    ds.schema().attr_id(&attr).is_some(),
                    "unknown attribute {attr}"
                );
            }
        }
    }

    #[test]
    fn sample_rules_detect_table1_violations() {
        let rules = sample_hospital_rules();
        let ds = sample_hospital_dataset();
        let violations = detect_violations(&ds, &rules);
        // r1 is violated by (t4, t5)/(t4, t6) pairs on CT=BOAZ; r2 by the
        // same pairs on PN; r3 by t4 (ELIZA/BOAZ but PN matches → actually
        // satisfied) — the exact counts are covered in violations::tests;
        // here we only require that the dirty sample is not violation-free.
        assert!(!violations.is_empty());
    }
}
