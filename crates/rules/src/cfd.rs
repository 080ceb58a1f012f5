//! Conditional functional dependencies (CFDs): an FD that only applies to
//! tuples matching a constant pattern, and/or that forces constant values in
//! its consequent.
//!
//! The paper's example r3 is `HN("ELIZA"), CT("BOAZ") ⇒ PN("2567688400")`:
//! a hospital named ELIZA in city BOAZ must have that exact phone number.

use crate::rule::validated_attr;
use dataset::{Schema, Tuple, ValueId};
use std::fmt;

/// One clause of a CFD: an attribute that is either bound to a constant or
/// left as a variable (`_` in the CFD pattern-tableau notation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfdClause {
    /// The attribute name.
    pub attr: String,
    /// `Some(v)` if the clause requires/forces the constant `v`, `None` for a
    /// variable clause (behaves like a plain FD attribute).
    pub constant: Option<String>,
}

impl CfdClause {
    /// A variable clause (`attr = _`).
    pub fn variable(attr: impl Into<String>) -> Self {
        CfdClause {
            attr: attr.into(),
            constant: None,
        }
    }

    /// A constant clause (`attr = value`).
    pub fn constant(attr: impl Into<String>, value: impl Into<String>) -> Self {
        CfdClause {
            attr: attr.into(),
            constant: Some(value.into()),
        }
    }

    /// Whether a tuple matches this clause (variable clauses match anything).
    pub fn matches(&self, schema: &Schema, tuple: &Tuple) -> bool {
        match &self.constant {
            None => true,
            Some(v) => {
                let id = validated_attr(schema, &self.attr);
                tuple.value(id) == v
            }
        }
    }
}

impl fmt::Display for CfdClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.constant {
            Some(v) => write!(f, "{}=\"{}\"", self.attr, v),
            None => write!(f, "{}", self.attr),
        }
    }
}

/// A conditional functional dependency: `conditions ⇒ consequents`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionalFd {
    conditions: Vec<CfdClause>,
    consequents: Vec<CfdClause>,
}

impl ConditionalFd {
    /// Create a CFD.
    ///
    /// # Panics
    /// Panics if either side is empty.
    pub fn new(conditions: Vec<CfdClause>, consequents: Vec<CfdClause>) -> Self {
        assert!(
            !conditions.is_empty(),
            "CFD must have a non-empty condition part"
        );
        assert!(
            !consequents.is_empty(),
            "CFD must have a non-empty consequent part"
        );
        ConditionalFd {
            conditions,
            consequents,
        }
    }

    /// The condition (reason-part) clauses.
    pub fn conditions(&self) -> &[CfdClause] {
        &self.conditions
    }

    /// The consequent (result-part) clauses.
    pub fn consequents(&self) -> &[CfdClause] {
        &self.consequents
    }

    /// Whether `tuple` is *relevant* to this CFD, i.e. whether it should be
    /// placed in the CFD's block of the MLN index.
    ///
    /// Following the paper's Figure 2 (block B3 of rule r3 contains t3–t6 but
    /// not t1/t2): a tuple is relevant when it matches **at least one**
    /// constant clause of the condition part, or when the condition part has
    /// no constant clauses at all (a pure variable CFD behaves like an FD).
    /// Matching *all* constants is not required — a tuple with a dirty value
    /// on one conditioned attribute (t3's CT="DOTHAN") must still enter the
    /// block so the cleaning stage can repair it.
    pub fn is_relevant(&self, schema: &Schema, tuple: &Tuple) -> bool {
        let constants: Vec<&CfdClause> = self
            .conditions
            .iter()
            .filter(|c| c.constant.is_some())
            .collect();
        if constants.is_empty() {
            return true;
        }
        constants.iter().any(|c| c.matches(schema, tuple))
    }

    /// Id-row form of [`ConditionalFd::is_relevant`], for callers holding a
    /// raw `Vec<ValueId>` row image (e.g. the pre-update snapshot of a tuple
    /// that has already been overwritten in its dataset) instead of a live
    /// [`Tuple`] view.  `row` must be in schema order and resolve in `pool`.
    pub fn is_relevant_ids(
        &self,
        schema: &Schema,
        pool: &dataset::ValuePool,
        row: &[ValueId],
    ) -> bool {
        let mut any_constant = false;
        for c in &self.conditions {
            if let Some(v) = &c.constant {
                any_constant = true;
                let id = validated_attr(schema, &c.attr);
                if pool.resolve(row[id.index()]) == v {
                    return true;
                }
            }
        }
        !any_constant
    }
}

impl fmt::Display for ConditionalFd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lhs: Vec<String> = self.conditions.iter().map(|c| c.to_string()).collect();
        let rhs: Vec<String> = self.consequents.iter().map(|c| c.to_string()).collect();
        write!(f, "CFD: {} -> {}", lhs.join(", "), rhs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{sample_hospital_dataset, TupleId};

    fn r3() -> ConditionalFd {
        ConditionalFd::new(
            vec![
                CfdClause::constant("HN", "ELIZA"),
                CfdClause::constant("CT", "BOAZ"),
            ],
            vec![CfdClause::constant("PN", "2567688400")],
        )
    }

    #[test]
    fn relevance_matches_paper_block_b3() {
        let ds = sample_hospital_dataset();
        let cfd = r3();
        // t1, t2 (ALABAMA/DOTHAN) are not relevant; t3..t6 are (HN=ELIZA).
        let relevant: Vec<bool> = ds
            .tuples()
            .map(|t| cfd.is_relevant(ds.schema(), &t))
            .collect();
        assert_eq!(relevant, vec![false, false, true, true, true, true]);
    }

    #[test]
    fn pattern_matching() {
        let ds = sample_hospital_dataset();
        let boaz = CfdClause::constant("CT", "BOAZ");
        assert!(!boaz.matches(ds.schema(), &ds.tuple(TupleId(2)))); // t3: CT=DOTHAN
        assert!(boaz.matches(ds.schema(), &ds.tuple(TupleId(4)))); // t5: ELIZA/BOAZ
        assert!(CfdClause::variable("CT").matches(ds.schema(), &ds.tuple(TupleId(2))));
    }

    #[test]
    fn variable_cfd_behaves_like_fd_on_matching_tuples() {
        let ds = sample_hospital_dataset();
        // "CT determines ST": no constant condition, so every tuple enters
        // the block, as under the FD `CT -> ST`.
        let variable = ConditionalFd::new(
            vec![CfdClause::variable("CT")],
            vec![CfdClause::variable("ST")],
        );
        assert!(ds.tuples().all(|t| variable.is_relevant(ds.schema(), &t)));
        // "For ELIZA hospitals, CT determines ST": only ELIZA tuples enter.
        let eliza = ConditionalFd::new(
            vec![
                CfdClause::constant("HN", "ELIZA"),
                CfdClause::variable("CT"),
            ],
            vec![CfdClause::variable("ST")],
        );
        let relevant: Vec<bool> = ds
            .tuples()
            .map(|t| eliza.is_relevant(ds.schema(), &t))
            .collect();
        assert_eq!(relevant, vec![false, false, true, true, true, true]);
    }

    #[test]
    fn reason_result_projection() {
        let ds = sample_hospital_dataset();
        let cfd = crate::Rule::Cfd(r3());
        let t3 = ds.tuple(TupleId(2));
        assert_eq!(cfd.reason_values(ds.schema(), &t3), vec!["ELIZA", "DOTHAN"]);
        assert_eq!(cfd.result_values(ds.schema(), &t3), vec!["2567638410"]);
        let ids = |values: &[&str]| -> Vec<ValueId> {
            values
                .iter()
                .map(|v| ds.pool().lookup(v).unwrap())
                .collect()
        };
        assert_eq!(
            cfd.reason_value_ids(ds.schema(), &t3),
            ids(&["ELIZA", "DOTHAN"])
        );
        assert_eq!(cfd.result_value_ids(ds.schema(), &t3), ids(&["2567638410"]));
    }

    #[test]
    fn display() {
        assert_eq!(
            r3().to_string(),
            "CFD: HN=\"ELIZA\", CT=\"BOAZ\" -> PN=\"2567688400\""
        );
    }
}
