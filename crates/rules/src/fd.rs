//! Functional dependencies `X → Y`: the values on X uniquely determine the
//! values on Y.

use crate::rule::validated_attr;
use dataset::{Dataset, Schema, Tuple, ValueId};
use std::fmt;

/// A functional dependency over attribute names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalDependency {
    lhs: Vec<String>,
    rhs: Vec<String>,
}

impl FunctionalDependency {
    /// Create an FD `lhs → rhs`.
    ///
    /// # Panics
    /// Panics if either side is empty; an FD needs at least one attribute on
    /// each side.
    pub fn new<S: AsRef<str>>(lhs: Vec<S>, rhs: Vec<S>) -> Self {
        assert!(!lhs.is_empty(), "FD must have a non-empty left-hand side");
        assert!(!rhs.is_empty(), "FD must have a non-empty right-hand side");
        FunctionalDependency {
            lhs: lhs.into_iter().map(|s| s.as_ref().to_string()).collect(),
            rhs: rhs.into_iter().map(|s| s.as_ref().to_string()).collect(),
        }
    }

    /// Attributes of the reason part (the determinant).
    pub fn lhs(&self) -> &[String] {
        &self.lhs
    }

    /// Attributes of the result part (the dependent).
    pub fn rhs(&self) -> &[String] {
        &self.rhs
    }

    /// Project a tuple onto the reason-part values.
    pub fn reason_values(&self, schema: &Schema, tuple: &Tuple) -> Vec<String> {
        self.lhs
            .iter()
            .map(|a| tuple.value(validated_attr(schema, a)).to_string())
            .collect()
    }

    /// Project a tuple onto the result-part values.
    pub fn result_values(&self, schema: &Schema, tuple: &Tuple) -> Vec<String> {
        self.rhs
            .iter()
            .map(|a| tuple.value(validated_attr(schema, a)).to_string())
            .collect()
    }

    /// Project a tuple onto the reason-part value ids (no string cloning).
    pub fn reason_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        self.lhs
            .iter()
            .map(|a| tuple.value_id(validated_attr(schema, a)))
            .collect()
    }

    /// Project a tuple onto the result-part value ids (no string cloning).
    pub fn result_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        self.rhs
            .iter()
            .map(|a| tuple.value_id(validated_attr(schema, a)))
            .collect()
    }

    /// Whether a pair of tuples violates this FD: they agree on every LHS
    /// attribute but disagree on at least one RHS attribute.  Both checks are
    /// pure [`ValueId`] comparisons — no string is touched — so both tuples
    /// must be views of `ds` (or of datasets sharing its pool snapshot); ids
    /// from unrelated pools are not comparable.
    pub fn violated_by(&self, ds: &Dataset, a: &Tuple, b: &Tuple) -> bool {
        let schema = ds.schema();
        let same_lhs = self.lhs.iter().all(|attr| {
            let id = validated_attr(schema, attr);
            a.value_id(id) == b.value_id(id)
        });
        if !same_lhs {
            return false;
        }
        self.rhs.iter().any(|attr| {
            let id = validated_attr(schema, attr);
            a.value_id(id) != b.value_id(id)
        })
    }
}

impl fmt::Display for FunctionalDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FD: {} -> {}", self.lhs.join(", "), self.rhs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;
    use dataset::{sample_hospital_dataset, TupleId};

    #[test]
    fn reason_and_result_projection() {
        let ds = sample_hospital_dataset();
        let fd = FunctionalDependency::new(vec!["CT"], vec!["ST"]);
        let t4 = ds.tuple(TupleId(3));
        assert_eq!(fd.reason_values(ds.schema(), &t4), vec!["BOAZ"]);
        assert_eq!(fd.result_values(ds.schema(), &t4), vec!["AK"]);
        assert_eq!(
            fd.reason_value_ids(ds.schema(), &t4),
            vec![ds.pool().lookup("BOAZ").unwrap()]
        );
    }

    #[test]
    fn violation_detection_on_table1() {
        let ds = sample_hospital_dataset();
        let fd = FunctionalDependency::new(vec!["CT"], vec!["ST"]);
        let t4 = ds.tuple(TupleId(3)); // BOAZ, AK
        let t5 = ds.tuple(TupleId(4)); // BOAZ, AL
        let t1 = ds.tuple(TupleId(0)); // DOTHAN, AL
        assert!(fd.violated_by(&ds, &t4, &t5));
        assert!(
            !fd.violated_by(&ds, &t1, &t5),
            "different cities cannot violate CT->ST"
        );
        assert!(
            !fd.violated_by(&ds, &t5, &t5),
            "a tuple never violates an FD with itself"
        );
    }

    #[test]
    fn multi_attribute_fd() {
        let ds = sample_hospital_dataset();
        let fd = FunctionalDependency::new(vec!["HN", "CT"], vec!["PN", "ST"]);
        assert!(Rule::Fd(fd.clone()).is_valid_for(ds.schema()));
        let t5 = ds.tuple(TupleId(4));
        assert_eq!(fd.reason_values(ds.schema(), &t5), vec!["ELIZA", "BOAZ"]);
        assert_eq!(fd.result_values(ds.schema(), &t5), vec!["2567688400", "AL"]);
    }

    #[test]
    fn validity_check() {
        let ds = sample_hospital_dataset();
        let bad = FunctionalDependency::new(vec!["NOPE"], vec!["ST"]);
        assert!(!Rule::Fd(bad).is_valid_for(ds.schema()));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_lhs_panics() {
        FunctionalDependency::new(Vec::<&str>::new(), vec!["ST"]);
    }

    #[test]
    fn display() {
        let fd = FunctionalDependency::new(vec!["CT"], vec!["ST"]);
        assert_eq!(fd.to_string(), "FD: CT -> ST");
    }
}
