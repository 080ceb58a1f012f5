//! The unified [`Rule`] type and [`RuleSet`] collections.

use crate::cfd::ConditionalFd;
use crate::dc::DenialConstraint;
use crate::fd::FunctionalDependency;
use dataset::{AttrId, Schema, Tuple, ValueId};
use std::fmt;

/// The id of `attr` in `schema`, which the rule must be valid for
/// ([`Rule::is_valid_for`]) — every rule method requires that, and the index
/// build checks it with a typed error before any of them runs.
#[allow(clippy::expect_used, reason = "the rule is valid for the schema")]
pub(crate) fn validated_attr(schema: &Schema, attr: &str) -> AttrId {
    schema.attr_id(attr).expect("validated attribute")
}

/// Identifier of a rule within a [`RuleSet`] (its position).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub usize);

mlnw::codec! { struct RuleId { 0 } }

impl RuleId {
    /// Position of the rule in its rule set.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0 + 1)
    }
}

/// An integrity constraint of any of the three supported kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// Functional dependency.
    Fd(FunctionalDependency),
    /// Conditional functional dependency.
    Cfd(ConditionalFd),
    /// Denial constraint.
    Dc(DenialConstraint),
}

impl Rule {
    /// Short kind name ("FD" / "CFD" / "DC").
    pub fn kind(&self) -> &'static str {
        match self {
            Rule::Fd(_) => "FD",
            Rule::Cfd(_) => "CFD",
            Rule::Dc(_) => "DC",
        }
    }

    /// Attribute names of the reason part, in rule order.
    pub fn reason_attrs(&self) -> Vec<String> {
        match self {
            Rule::Fd(fd) => fd.lhs().to_vec(),
            Rule::Cfd(cfd) => cfd.conditions().iter().map(|c| c.attr.clone()).collect(),
            Rule::Dc(dc) => dc.reason_attrs(),
        }
    }

    /// Attribute names of the result part, in rule order.
    pub fn result_attrs(&self) -> Vec<String> {
        match self {
            Rule::Fd(fd) => fd.rhs().to_vec(),
            Rule::Cfd(cfd) => cfd.consequents().iter().map(|c| c.attr.clone()).collect(),
            Rule::Dc(dc) => dc.result_attrs(),
        }
    }

    /// All attribute names the rule mentions (reason part then result part,
    /// deduplicated).
    pub fn all_attrs(&self) -> Vec<String> {
        let mut out = self.reason_attrs();
        for a in self.result_attrs() {
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }

    /// Whether every attribute the rule mentions exists in `schema`.
    pub fn is_valid_for(&self, schema: &Schema) -> bool {
        match self {
            Rule::Fd(fd) => fd.is_valid_for(schema),
            Rule::Cfd(cfd) => cfd.is_valid_for(schema),
            Rule::Dc(dc) => dc.is_valid_for(schema),
        }
    }

    /// Whether `tuple` should be placed in this rule's block of the MLN
    /// index.  FDs and DCs always apply; CFDs apply to tuples relevant to
    /// their constant pattern (see [`ConditionalFd::is_relevant`]).
    pub fn is_relevant(&self, schema: &Schema, tuple: &Tuple) -> bool {
        match self {
            Rule::Fd(_) | Rule::Dc(_) => true,
            Rule::Cfd(cfd) => cfd.is_relevant(schema, tuple),
        }
    }

    /// Id-row form of [`Rule::is_relevant`]: decide block membership from a
    /// raw schema-ordered `ValueId` row resolved through `pool`.  Used by the
    /// incremental index maintenance to evaluate the *pre-update* state of a
    /// tuple whose dataset cells have already been overwritten.
    pub fn is_relevant_ids(
        &self,
        schema: &Schema,
        pool: &dataset::ValuePool,
        row: &[ValueId],
    ) -> bool {
        match self {
            Rule::Fd(_) | Rule::Dc(_) => true,
            Rule::Cfd(cfd) => cfd.is_relevant_ids(schema, pool, row),
        }
    }

    /// Project a tuple onto its reason-part values (the `vl` of Algorithm 1).
    pub fn reason_values(&self, schema: &Schema, tuple: &Tuple) -> Vec<String> {
        match self {
            Rule::Fd(fd) => fd.reason_values(schema, tuple),
            Rule::Cfd(cfd) => cfd.reason_values(schema, tuple),
            Rule::Dc(dc) => dc.reason_values(schema, tuple),
        }
    }

    /// Project a tuple onto its result-part values (the `vr` of Algorithm 1).
    pub fn result_values(&self, schema: &Schema, tuple: &Tuple) -> Vec<String> {
        match self {
            Rule::Fd(fd) => fd.result_values(schema, tuple),
            Rule::Cfd(cfd) => cfd.result_values(schema, tuple),
            Rule::Dc(dc) => dc.result_values(schema, tuple),
        }
    }

    /// Project a tuple onto its reason-part value ids — the interned
    /// counterpart of [`Rule::reason_values`], used on every hot grouping
    /// path (index build, violation bucketing, constraint statistics).
    pub fn reason_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        match self {
            Rule::Fd(fd) => fd.reason_value_ids(schema, tuple),
            Rule::Cfd(cfd) => cfd.reason_value_ids(schema, tuple),
            Rule::Dc(dc) => dc.reason_value_ids(schema, tuple),
        }
    }

    /// Project a tuple onto its result-part value ids.
    pub fn result_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        match self {
            Rule::Fd(fd) => fd.result_value_ids(schema, tuple),
            Rule::Cfd(cfd) => cfd.result_value_ids(schema, tuple),
            Rule::Dc(dc) => dc.result_value_ids(schema, tuple),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Fd(fd) => fd.fmt(f),
            Rule::Cfd(cfd) => cfd.fmt(f),
            Rule::Dc(dc) => dc.fmt(f),
        }
    }
}

/// An ordered collection of rules; the block layer of the MLN index has one
/// block per rule in the set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// Create a rule set.
    pub fn new(rules: Vec<Rule>) -> Self {
        RuleSet { rules }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule with the given id.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0]
    }

    /// Iterate over rules in order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    /// Iterate over (id, rule) pairs.
    pub fn iter_with_ids(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules.iter().enumerate().map(|(i, r)| (RuleId(i), r))
    }

    /// Add a rule, returning its id.
    pub fn push(&mut self, rule: Rule) -> RuleId {
        let id = RuleId(self.rules.len());
        self.rules.push(rule);
        id
    }

    /// Whether every rule is valid for `schema`.
    pub fn is_valid_for(&self, schema: &Schema) -> bool {
        self.rules.iter().all(|r| r.is_valid_for(schema))
    }

    /// The union of all attributes mentioned by any rule — error injection is
    /// restricted to these attributes in the paper's protocol.
    pub fn constrained_attrs(&self) -> Vec<String> {
        let mut out = Vec::new();
        for rule in &self.rules {
            for a in rule.all_attrs() {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }
}

impl FromIterator<Rule> for RuleSet {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        RuleSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_hospital_rules;
    use dataset::sample_hospital_dataset;

    #[test]
    fn reason_result_attrs_per_rule_kind() {
        let rules = sample_hospital_rules();
        assert_eq!(rules.rule(RuleId(0)).reason_attrs(), vec!["CT"]);
        assert_eq!(rules.rule(RuleId(0)).result_attrs(), vec!["ST"]);
        assert_eq!(rules.rule(RuleId(1)).reason_attrs(), vec!["PN"]);
        assert_eq!(rules.rule(RuleId(1)).result_attrs(), vec!["ST"]);
        assert_eq!(rules.rule(RuleId(2)).reason_attrs(), vec!["HN", "CT"]);
        assert_eq!(rules.rule(RuleId(2)).result_attrs(), vec!["PN"]);
    }

    #[test]
    fn kinds() {
        let rules = sample_hospital_rules();
        let kinds: Vec<&str> = rules.iter().map(|r| r.kind()).collect();
        assert_eq!(kinds, vec!["FD", "DC", "CFD"]);
    }

    #[test]
    fn constrained_attrs_union() {
        let rules = sample_hospital_rules();
        let attrs = rules.constrained_attrs();
        assert_eq!(attrs.len(), 4);
        for a in ["CT", "ST", "PN", "HN"] {
            assert!(attrs.iter().any(|x| x == a), "missing {a}");
        }
    }

    #[test]
    fn relevance_differs_only_for_cfds() {
        let rules = sample_hospital_rules();
        let ds = sample_hospital_dataset();
        let t1 = ds.tuple(dataset::TupleId(0));
        assert!(rules.rule(RuleId(0)).is_relevant(ds.schema(), &t1));
        assert!(rules.rule(RuleId(1)).is_relevant(ds.schema(), &t1));
        assert!(!rules.rule(RuleId(2)).is_relevant(ds.schema(), &t1));
    }

    #[test]
    fn id_row_relevance_agrees_with_the_tuple_view() {
        let rules = sample_hospital_rules();
        let ds = sample_hospital_dataset();
        for rule in rules.iter() {
            for t in ds.tuples() {
                let row = ds.row_ids(t.id());
                assert_eq!(
                    rule.is_relevant_ids(ds.schema(), ds.pool(), &row),
                    rule.is_relevant(ds.schema(), &t),
                    "{rule} diverged on {:?}",
                    t.id()
                );
            }
        }
    }

    #[test]
    fn rule_ids_display_one_based() {
        assert_eq!(RuleId(0).to_string(), "r1");
        assert_eq!(RuleId(2).to_string(), "r3");
    }

    #[test]
    fn push_and_from_iterator() {
        let mut rs = RuleSet::default();
        assert!(rs.is_empty());
        let id = rs.push(Rule::Fd(FunctionalDependency::new(vec!["a"], vec!["b"])));
        assert_eq!(id, RuleId(0));
        assert_eq!(rs.len(), 1);

        let collected: RuleSet = sample_hospital_rules().iter().cloned().collect();
        assert_eq!(collected.len(), 3);
    }
}
