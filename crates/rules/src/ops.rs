//! Comparison operators used by denial-constraint predicates.

use std::cmp::Ordering;
use std::fmt;

/// A binary comparison operator over attribute values.
///
/// Values are compared numerically when both sides parse as numbers and
/// lexicographically otherwise, which matches how denial constraints are
/// usually evaluated over mixed string/numeric data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Equality.
    Eq,
    /// Inequality.
    Neq,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Op {
    /// Evaluate the operator on two attribute values.
    pub fn eval(self, left: &str, right: &str) -> bool {
        match self {
            Op::Eq => left == right,
            Op::Neq => left != right,
            Op::Lt => compare_values(left, right) == Ordering::Less,
            Op::Le => compare_values(left, right) != Ordering::Greater,
            Op::Gt => compare_values(left, right) == Ordering::Greater,
            Op::Ge => compare_values(left, right) != Ordering::Less,
        }
    }

    /// Parse an operator token (`=`, `==`, `!=`, `<>`, `<`, `<=`, `>`, `>=`).
    pub fn parse(token: &str) -> Option<Op> {
        match token {
            "=" | "==" => Some(Op::Eq),
            "!=" | "<>" => Some(Op::Neq),
            "<" => Some(Op::Lt),
            "<=" => Some(Op::Le),
            ">" => Some(Op::Gt),
            ">=" => Some(Op::Ge),
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq => "=",
            Op::Neq => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Compare two values numerically when possible, lexicographically otherwise.
fn compare_values(left: &str, right: &str) -> Ordering {
    match (left.parse::<f64>(), right.parse::<f64>()) {
        (Ok(l), Ok(r)) => l.partial_cmp(&r).unwrap_or(Ordering::Equal),
        _ => left.cmp(right),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_comparisons() {
        assert!(Op::Eq.eval("AL", "AL"));
        assert!(Op::Neq.eval("AL", "AK"));
        assert!(Op::Lt.eval("AK", "AL"));
        assert!(Op::Ge.eval("AL", "AK"));
    }

    #[test]
    fn numeric_comparisons() {
        assert!(Op::Lt.eval("9", "10"), "numeric, not lexicographic");
        assert!(Op::Gt.eval("10.5", "2"));
        assert!(Op::Le.eval("3", "3"));
    }

    #[test]
    fn parse_tokens() {
        assert_eq!(Op::parse("="), Some(Op::Eq));
        assert_eq!(Op::parse("=="), Some(Op::Eq));
        assert_eq!(Op::parse("!="), Some(Op::Neq));
        assert_eq!(Op::parse("<>"), Some(Op::Neq));
        assert_eq!(Op::parse("<="), Some(Op::Le));
        assert_eq!(Op::parse(">="), Some(Op::Ge));
        assert_eq!(Op::parse("~"), None);
    }

    #[test]
    fn display_round_trips_through_parse() {
        for op in [Op::Eq, Op::Neq, Op::Lt, Op::Le, Op::Gt, Op::Ge] {
            assert_eq!(Op::parse(&op.to_string()), Some(op));
        }
    }
}
