//! Functional dependencies `X → Y`: the values on X uniquely determine the
//! values on Y.

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
        let fd = Rule::Fd(FunctionalDependency::new(vec!["CT"], vec!["ST"]));
        let t4 = ds.tuple(TupleId(3));
        assert_eq!(fd.reason_values(ds.schema(), &t4), vec!["BOAZ"]);
        assert_eq!(fd.result_values(ds.schema(), &t4), vec!["AK"]);
        assert_eq!(
            fd.reason_value_ids(ds.schema(), &t4),
            vec![ds.pool().lookup("BOAZ").unwrap()]
        );
        assert_eq!(
            fd.result_value_ids(ds.schema(), &t4),
            vec![ds.pool().lookup("AK").unwrap()]
        );
    }

    #[test]
    fn multi_attribute_fd() {
        let ds = sample_hospital_dataset();
        let fd = Rule::Fd(FunctionalDependency::new(
            vec!["HN", "CT"],
            vec!["PN", "ST"],
        ));
        assert!(fd.is_valid_for(ds.schema()));
        assert_eq!(fd.reason_attrs(), vec!["HN", "CT"]);
        assert_eq!(fd.result_attrs(), vec!["PN", "ST"]);
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
