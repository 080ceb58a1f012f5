//! A small textual syntax for writing rule sets in experiment configuration
//! files and tests.
//!
//! ```text
//! # comments start with '#'
//! FD:  CT -> ST
//! FD:  ZIPCode -> City, CountyName
//! CFD: HN="ELIZA", CT="BOAZ" -> PN="2567688400"
//! CFD: Make="acura", Type -> Doors
//! DC:  PN = PN, ST != ST        # ∀t,t' ¬(t.PN = t'.PN ∧ t.ST ≠ t'.ST)
//! ```
//!
//! * FD sides are comma-separated attribute lists.
//! * CFD clauses are `Attr` (variable) or `Attr="constant"` / `Attr=constant`.
//! * DC predicates are `Attr op Attr` comparing the attribute of tuple `t`
//!   (left) with the attribute of tuple `t'` (right); supported operators are
//!   `=`, `!=`, `<`, `<=`, `>`, `>=`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::cfd::{CfdClause, ConditionalFd};
use crate::dc::{DcPredicate, DenialConstraint};
use crate::fd::FunctionalDependency;
use crate::ops::Op;
use crate::rule::{Rule, RuleSet};
use std::fmt;

/// Parse error with the offending line (1-based) and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 when parsing a single rule string).
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "rule parse error: {}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Strip a trailing `# comment` that is not inside quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..idx],
            _ => {}
        }
    }
    line
}

/// Parse a single rule of the form `KIND: body`.
pub fn parse_rule(input: &str) -> Result<Rule, ParseError> {
    parse_rule_line(input, 0)
}

fn parse_rule_line(input: &str, line: usize) -> Result<Rule, ParseError> {
    let input = strip_comment(input).trim();
    let (kind, body) = input
        .split_once(':')
        .ok_or_else(|| err(line, "expected 'FD:', 'CFD:' or 'DC:' prefix"))?;
    let body = body.trim();
    match kind.trim().to_ascii_uppercase().as_str() {
        "FD" => parse_fd(body, line),
        "CFD" => parse_cfd(body, line),
        "DC" => parse_dc(body, line),
        other => Err(err(line, format!("unknown rule kind {other:?}"))),
    }
}

/// Parse a whole rule file (one rule per non-empty, non-comment line).
pub fn parse_rules(input: &str) -> Result<RuleSet, ParseError> {
    let mut rules = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        rules.push(parse_rule_line(line, idx + 1)?);
    }
    Ok(RuleSet::new(rules))
}

fn split_arrow(body: &str, line: usize) -> Result<(&str, &str), ParseError> {
    body.split_once("->")
        .or_else(|| body.split_once('⇒'))
        .ok_or_else(|| err(line, "expected '->' between the two rule sides"))
}

fn parse_attr_list(side: &str, line: usize) -> Result<Vec<String>, ParseError> {
    let attrs: Vec<String> = side
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if attrs.is_empty() {
        return Err(err(line, "empty attribute list"));
    }
    if attrs.iter().any(|a| a.contains('=') || a.contains(' ')) {
        return Err(err(
            line,
            "FD attributes must be plain names (no constants)",
        ));
    }
    Ok(attrs)
}

fn parse_fd(body: &str, line: usize) -> Result<Rule, ParseError> {
    let (lhs, rhs) = split_arrow(body, line)?;
    Ok(Rule::Fd(FunctionalDependency::new(
        parse_attr_list(lhs, line)?,
        parse_attr_list(rhs, line)?,
    )))
}

fn parse_cfd_clause(token: &str, line: usize) -> Result<CfdClause, ParseError> {
    let token = token.trim();
    if token.is_empty() {
        return Err(err(line, "empty CFD clause"));
    }
    match token.split_once('=') {
        None => Ok(CfdClause::variable(token)),
        Some((attr, value)) => {
            let attr = attr.trim();
            let value = value.trim().trim_matches('"');
            if attr.is_empty() || value.is_empty() {
                return Err(err(line, format!("malformed CFD clause {token:?}")));
            }
            Ok(CfdClause::constant(attr, value))
        }
    }
}

fn parse_cfd(body: &str, line: usize) -> Result<Rule, ParseError> {
    let (lhs, rhs) = split_arrow(body, line)?;
    let conditions: Result<Vec<_>, _> = lhs
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| parse_cfd_clause(t, line))
        .collect();
    let consequents: Result<Vec<_>, _> = rhs
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| parse_cfd_clause(t, line))
        .collect();
    let (conditions, consequents) = (conditions?, consequents?);
    if conditions.is_empty() || consequents.is_empty() {
        return Err(err(line, "CFD must have clauses on both sides"));
    }
    Ok(Rule::Cfd(ConditionalFd::new(conditions, consequents)))
}

/// The DC operator literals, longest first so "!=" is not split as "!" +
/// "=".
const DC_OPS: [(&str, Op); 8] = [
    ("!=", Op::Neq),
    ("<>", Op::Neq),
    ("<=", Op::Le),
    (">=", Op::Ge),
    ("==", Op::Eq),
    ("=", Op::Eq),
    ("<", Op::Lt),
    (">", Op::Gt),
];

fn parse_dc_predicate(token: &str, line: usize) -> Result<DcPredicate, ParseError> {
    let token = token.trim();
    for (literal, op) in DC_OPS {
        if let Some((left, right)) = token.split_once(literal) {
            let (left, right) = (left.trim(), right.trim());
            if left.is_empty() || right.is_empty() {
                return Err(err(line, format!("malformed DC predicate {token:?}")));
            }
            return Ok(DcPredicate::new(left, op, right));
        }
    }
    Err(err(
        line,
        format!("no comparison operator in DC predicate {token:?}"),
    ))
}

fn parse_dc(body: &str, line: usize) -> Result<Rule, ParseError> {
    let predicates: Result<Vec<_>, _> = body
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| parse_dc_predicate(t, line))
        .collect();
    let predicates = predicates?;
    if predicates.len() < 2 {
        return Err(err(line, "a DC needs at least two predicates"));
    }
    Ok(Rule::Dc(DenialConstraint::new(predicates)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleId;

    #[test]
    fn parse_fd() {
        let rule = parse_rule("FD: CT -> ST").unwrap();
        assert_eq!(rule.reason_attrs(), vec!["CT"]);
        assert_eq!(rule.result_attrs(), vec!["ST"]);
        let rule = parse_rule("FD: ProviderID -> City, PhoneNumber").unwrap();
        assert_eq!(rule.result_attrs(), vec!["City", "PhoneNumber"]);
    }

    #[test]
    fn parse_cfd_with_constants_and_variables() {
        let rule = parse_rule(r#"CFD: Make="acura", Type -> Doors"#).unwrap();
        match &rule {
            Rule::Cfd(cfd) => {
                assert_eq!(cfd.conditions().len(), 2);
                assert_eq!(cfd.conditions()[0].constant.as_deref(), Some("acura"));
                assert_eq!(cfd.conditions()[1].constant, None);
                assert_eq!(cfd.consequents()[0].constant, None);
            }
            other => panic!("expected CFD, got {other:?}"),
        }
    }

    #[test]
    fn parse_dc_predicates() {
        let rule = parse_rule("DC: PN = PN, ST != ST").unwrap();
        match &rule {
            Rule::Dc(dc) => {
                assert_eq!(dc.predicates().len(), 2);
                assert_eq!(dc.predicates()[0].op, Op::Eq);
                assert_eq!(dc.predicates()[1].op, Op::Neq);
            }
            other => panic!("expected DC, got {other:?}"),
        }
        // Every DC literal parses to the operator `Op::parse` names.
        for (literal, op) in DC_OPS {
            assert_eq!(Op::parse(literal), Some(op), "{literal}");
            let rule = parse_rule(&format!("DC: A {literal} A, B != B")).unwrap();
            match &rule {
                Rule::Dc(dc) => assert_eq!(dc.predicates()[0].op, op, "{literal}"),
                other => panic!("expected DC, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_rule_file_with_comments() {
        let text = r#"
            # the paper's running example
            FD: CT -> ST
            DC: PN = PN, ST != ST   # r2
            CFD: HN="ELIZA", CT="BOAZ" -> PN="2567688400"
        "#;
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules.rule(RuleId(0)).kind(), "FD");
        assert_eq!(rules.rule(RuleId(1)).kind(), "DC");
        assert_eq!(rules.rule(RuleId(2)).kind(), "CFD");
        // Should be semantically identical to the hand-built sample rules.
        assert_eq!(rules, crate::sample_hospital_rules());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "FD: CT -> ST\nFD: missing arrow\n";
        let e = parse_rules(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("->"));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let e = parse_rule("UC: A -> B").unwrap_err();
        assert!(e.message.contains("unknown rule kind"));
    }

    #[test]
    fn malformed_dc_is_rejected() {
        assert!(
            parse_rule("DC: PN = PN").is_err(),
            "one predicate is not enough"
        );
        let message = |text: &str| parse_rule(text).unwrap_err().to_string();
        assert_eq!(
            message("DC: PN ~ PN, ST != ST"),
            r#"rule parse error: no comparison operator in DC predicate "PN ~ PN""#,
            "bad operator"
        );
        assert_eq!(
            message("DC: = PN, ST != ST"),
            r#"rule parse error: malformed DC predicate "= PN""#
        );
        assert_eq!(
            parse_rules("FD: A -> B\nDC: PN <= , ST != ST")
                .unwrap_err()
                .to_string(),
            r#"line 2: malformed DC predicate "PN <=""#
        );
    }

    #[test]
    fn fd_with_constant_is_rejected() {
        assert!(parse_rule(r#"FD: CT="BOAZ" -> ST"#).is_err());
    }
}
