//! Conditional functional dependencies (CFDs): an FD that only applies to
//! tuples matching a constant pattern, and/or that forces constant values in
//! its consequent.
//!
//! The paper's example r3 is `HN("ELIZA"), CT("BOAZ") ⇒ PN("2567688400")`:
//! a hospital named ELIZA in city BOAZ must have that exact phone number.

use dataset::{Dataset, Schema, Tuple, ValueId};
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
                let id = schema.attr_id(&self.attr).expect("validated attribute");
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

    /// Whether all attributes exist in `schema`.
    pub fn is_valid_for(&self, schema: &Schema) -> bool {
        self.conditions
            .iter()
            .chain(self.consequents.iter())
            .all(|c| schema.attr_id(&c.attr).is_some())
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
                let id = schema.attr_id(&c.attr).expect("validated attribute");
                if pool.resolve(row[id.index()]) == v {
                    return true;
                }
            }
        }
        !any_constant
    }

    /// Whether `tuple` fully matches the constant pattern of the conditions.
    pub fn matches_pattern(&self, schema: &Schema, tuple: &Tuple) -> bool {
        self.conditions.iter().all(|c| c.matches(schema, tuple))
    }

    /// Project a tuple onto the reason-part (condition-attribute) values.
    pub fn reason_values(&self, schema: &Schema, tuple: &Tuple) -> Vec<String> {
        self.conditions
            .iter()
            .map(|c| {
                tuple
                    .value(schema.attr_id(&c.attr).expect("validated attribute"))
                    .to_string()
            })
            .collect()
    }

    /// Project a tuple onto the result-part (consequent-attribute) values.
    pub fn result_values(&self, schema: &Schema, tuple: &Tuple) -> Vec<String> {
        self.consequents
            .iter()
            .map(|c| {
                tuple
                    .value(schema.attr_id(&c.attr).expect("validated attribute"))
                    .to_string()
            })
            .collect()
    }

    /// Project a tuple onto the reason-part value ids (no string cloning).
    pub fn reason_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        self.conditions
            .iter()
            .map(|c| tuple.value_id(schema.attr_id(&c.attr).expect("validated attribute")))
            .collect()
    }

    /// Project a tuple onto the result-part value ids (no string cloning).
    pub fn result_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        self.consequents
            .iter()
            .map(|c| tuple.value_id(schema.attr_id(&c.attr).expect("validated attribute")))
            .collect()
    }

    /// Whether a single tuple violates the CFD: it matches the full constant
    /// pattern of the conditions but disagrees with a constant consequent.
    pub fn violated_by_tuple(&self, ds: &Dataset, tuple: &Tuple) -> bool {
        if !self.matches_pattern(ds.schema(), tuple) {
            return false;
        }
        self.consequents.iter().any(|c| match &c.constant {
            Some(v) => {
                let id = ds.schema().attr_id(&c.attr).expect("validated attribute");
                tuple.value(id) != v
            }
            None => false,
        })
    }

    /// Whether a pair of tuples violates the CFD's variable (FD-like) part:
    /// both match the constant pattern, agree on all variable condition
    /// attributes, but disagree on a variable consequent attribute.  The
    /// variable-part checks compare interned ids, so both tuples must come
    /// from the same dataset (or datasets sharing a pool snapshot).
    pub fn violated_by_pair(&self, ds: &Dataset, a: &Tuple, b: &Tuple) -> bool {
        let schema = ds.schema();
        if !self.matches_pattern(schema, a) || !self.matches_pattern(schema, b) {
            return false;
        }
        let same_variables = self
            .conditions
            .iter()
            .filter(|c| c.constant.is_none())
            .all(|c| {
                let id = schema.attr_id(&c.attr).expect("validated attribute");
                a.value_id(id) == b.value_id(id)
            });
        if !same_variables {
            return false;
        }
        self.consequents
            .iter()
            .filter(|c| c.constant.is_none())
            .any(|c| {
                let id = schema.attr_id(&c.attr).expect("validated attribute");
                a.value_id(id) != b.value_id(id)
            })
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
        let cfd = r3();
        assert!(!cfd.matches_pattern(ds.schema(), &ds.tuple(TupleId(2)))); // t3: CT=DOTHAN
        assert!(cfd.matches_pattern(ds.schema(), &ds.tuple(TupleId(4)))); // t5: ELIZA/BOAZ
    }

    #[test]
    fn single_tuple_violation() {
        let ds = sample_hospital_dataset();
        let cfd = r3();
        // All ELIZA/BOAZ tuples in Table 1 already carry the right phone
        // number, so none violates the constant consequent.
        assert!(ds.tuples().all(|t| !cfd.violated_by_tuple(&ds, &t)));

        // Corrupt t5's phone number and the violation appears.
        let mut dirty = ds.clone();
        let pn = dirty.schema().attr_id("PN").unwrap();
        dirty.set_value(TupleId(4), pn, "1111111111");
        assert!(cfd.violated_by_tuple(&dirty, &dirty.tuple(TupleId(4))));
    }

    #[test]
    fn variable_cfd_behaves_like_fd_on_matching_tuples() {
        let ds = sample_hospital_dataset();
        // "For ELIZA hospitals, CT determines ST".
        let cfd = ConditionalFd::new(
            vec![
                CfdClause::constant("HN", "ELIZA"),
                CfdClause::variable("CT"),
            ],
            vec![CfdClause::variable("ST")],
        );
        let t4 = ds.tuple(TupleId(3)); // ELIZA BOAZ AK
        let t5 = ds.tuple(TupleId(4)); // ELIZA BOAZ AL
        let t1 = ds.tuple(TupleId(0)); // ALABAMA DOTHAN AL
        assert!(cfd.violated_by_pair(&ds, &t4, &t5));
        assert!(
            !cfd.violated_by_pair(&ds, &t1, &t5),
            "t1 does not match the pattern"
        );
    }

    #[test]
    fn reason_result_projection() {
        let ds = sample_hospital_dataset();
        let cfd = r3();
        let t3 = ds.tuple(TupleId(2));
        assert_eq!(cfd.reason_values(ds.schema(), &t3), vec!["ELIZA", "DOTHAN"]);
        assert_eq!(cfd.result_values(ds.schema(), &t3), vec!["2567638410"]);
    }

    #[test]
    fn display() {
        assert_eq!(
            r3().to_string(),
            "CFD: HN=\"ELIZA\", CT=\"BOAZ\" -> PN=\"2567688400\""
        );
    }
}
