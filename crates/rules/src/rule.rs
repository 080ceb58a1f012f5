//! The unified [`Rule`] type and [`RuleSet`] collections.

use crate::cfd::{CfdClause, ConditionalFd};
use crate::dc::DenialConstraint;
use crate::fd::FunctionalDependency;
use dataset::{AttrId, Schema, Tuple, ValueId};
use std::fmt;

/// The id of `attr` in `schema`, which the rule must be valid for
/// ([`Rule::is_valid_for`]) — every rule method requires that, and every
/// entry point that takes a table and a rule set ([`RuleSet::check`]) checks
/// it with a typed error before any of them runs.
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

/// A rule names an attribute the table's schema lacks ([`RuleSet::check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAttribute {
    /// The offending rule.
    pub rule: RuleId,
    /// The missing attribute name.
    pub attribute: String,
}

impl fmt::Display for UnknownAttribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let UnknownAttribute { rule, attribute } = self;
        write!(f, "rule {rule} references unknown attribute {attribute:?}")
    }
}

impl std::error::Error for UnknownAttribute {}

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
        self.map_attrs(Part::Reason, str::to_string)
    }

    /// Attribute names of the result part, in rule order.
    pub fn result_attrs(&self) -> Vec<String> {
        self.map_attrs(Part::Result, str::to_string)
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
        self.missing_attr(schema).is_none()
    }

    /// The first attribute the rule mentions that `schema` lacks.
    fn missing_attr(&self, schema: &Schema) -> Option<String> {
        let mut attrs = self.all_attrs().into_iter();
        attrs.find(|a| schema.attr_id(a).is_none())
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
        self.map_attrs(Part::Reason, |a| {
            tuple.value(validated_attr(schema, a)).to_string()
        })
    }

    /// Project a tuple onto its result-part values (the `vr` of Algorithm 1).
    pub fn result_values(&self, schema: &Schema, tuple: &Tuple) -> Vec<String> {
        self.map_attrs(Part::Result, |a| {
            tuple.value(validated_attr(schema, a)).to_string()
        })
    }

    /// Project a tuple onto its reason-part value ids — the interned
    /// counterpart of [`Rule::reason_values`], with no string cloned.
    pub fn reason_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        self.map_attrs(Part::Reason, |a| tuple.value_id(validated_attr(schema, a)))
    }

    /// Project a tuple onto its result-part value ids.
    pub fn result_value_ids(&self, schema: &Schema, tuple: &Tuple) -> Vec<ValueId> {
        self.map_attrs(Part::Result, |a| tuple.value_id(validated_attr(schema, a)))
    }

    /// `f` of each attribute name of one part, in rule order.  FDs and CFDs
    /// read their sides in place, so the output is the only allocation; a DC
    /// first collects its deduplicated attributes.
    fn map_attrs<T>(&self, part: Part, f: impl FnMut(&str) -> T) -> Vec<T> {
        match (self, part) {
            (Rule::Fd(fd), Part::Reason) => names(fd.lhs()).map(f).collect(),
            (Rule::Fd(fd), Part::Result) => names(fd.rhs()).map(f).collect(),
            (Rule::Cfd(cfd), Part::Reason) => clause_names(cfd.conditions()).map(f).collect(),
            (Rule::Cfd(cfd), Part::Result) => clause_names(cfd.consequents()).map(f).collect(),
            (Rule::Dc(dc), Part::Reason) => names(&dc.reason_attrs()).map(f).collect(),
            (Rule::Dc(dc), Part::Result) => names(&dc.result_attrs()).map(f).collect(),
        }
    }
}

/// The two halves of a rule (paper §4).
#[derive(Clone, Copy)]
enum Part {
    Reason,
    Result,
}

fn names(attrs: &[String]) -> impl Iterator<Item = &str> {
    attrs.iter().map(String::as_str)
}

fn clause_names(clauses: &[CfdClause]) -> impl Iterator<Item = &str> {
    clauses.iter().map(|c| c.attr.as_str())
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
        self.check(schema).is_ok()
    }

    /// Check every rule against `schema` ([`Rule::is_valid_for`]): the first
    /// attribute, in rule order, that a rule names and `schema` lacks is an
    /// error.
    pub fn check(&self, schema: &Schema) -> Result<(), UnknownAttribute> {
        for (rule, r) in self.iter_with_ids() {
            if let Some(attribute) = r.missing_attr(schema) {
                return Err(UnknownAttribute { rule, attribute });
            }
        }
        Ok(())
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
    use crate::{sample_hospital_rules, DcPredicate, Op};
    use dataset::{sample_hospital_dataset, TupleId};

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

    /// The four projections of the DCs and of a two-attribute FD on the
    /// hospital sample: the reason and result strings, and the ids the pool
    /// interned them as.  The single-attribute FD and the CFD are pinned in
    /// `fd.rs` and `cfd.rs`.
    #[test]
    fn projections_per_rule_kind() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let two_attribute_fd = Rule::Fd(FunctionalDependency::new(
            vec!["HN", "CT"],
            vec!["PN", "ST"],
        ));
        let cross_attribute_dc = Rule::Dc(DenialConstraint::new(vec![
            DcPredicate::new("CT", Op::Eq, "HN"),
            DcPredicate::new("PN", Op::Neq, "ST"),
        ]));
        let cases: [(&Rule, usize, &[&str], &[&str]); 3] = [
            (rules.rule(RuleId(1)), 3, &["2567688400"], &["AK"]),
            (
                &two_attribute_fd,
                4,
                &["ELIZA", "BOAZ"],
                &["2567688400", "AL"],
            ),
            (
                &cross_attribute_dc,
                0,
                &["DOTHAN", "ALABAMA"],
                &["3347938701", "AL"],
            ),
        ];
        let schema = ds.schema();
        let ids = |values: &[&str]| -> Vec<ValueId> {
            values
                .iter()
                .map(|v| ds.pool().lookup(v).unwrap())
                .collect()
        };
        for (rule, t, reason, result) in cases {
            let tuple = ds.tuple(TupleId(t));
            assert_eq!(rule.reason_values(schema, &tuple), reason, "{rule}");
            assert_eq!(rule.result_values(schema, &tuple), result, "{rule}");
            assert_eq!(rule.reason_value_ids(schema, &tuple), ids(reason), "{rule}");
            assert_eq!(rule.result_value_ids(schema, &tuple), ids(result), "{rule}");
        }
    }

    /// A rule set naming an attribute the table lacks is a typed error, the
    /// first missing one in rule order: a two-column `HN,PN` table.
    #[test]
    fn a_rule_naming_a_missing_attribute_is_an_error() {
        let ds = dataset::csv::parse_csv("HN,PN\nELIZA,2567688400\n").unwrap();
        let rules = crate::parse_rules("FD: HN -> PN\nFD: CT -> ST").unwrap();
        let missing = UnknownAttribute {
            rule: RuleId(1),
            attribute: "CT".into(),
        };
        assert_eq!(rules.check(ds.schema()), Err(missing));
        assert!(!rules.is_valid_for(ds.schema()));
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
