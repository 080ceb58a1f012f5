//! Comparison operators used by denial-constraint predicates.

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
            _ => {
                let ord = compare_values(left, right);
                match self {
                    Op::Lt => ord == std::cmp::Ordering::Less,
                    Op::Le => ord != std::cmp::Ordering::Greater,
                    Op::Gt => ord == std::cmp::Ordering::Greater,
                    Op::Ge => ord != std::cmp::Ordering::Less,
                    Op::Eq | Op::Neq => unreachable!(),
                }
            }
        }
    }

    /// The logically negated operator (`¬(a < b)` ⇔ `a ≥ b`, etc.).
    pub fn negated(self) -> Op {
        match self {
            Op::Eq => Op::Neq,
            Op::Neq => Op::Eq,
            Op::Lt => Op::Ge,
            Op::Le => Op::Gt,
            Op::Gt => Op::Le,
            Op::Ge => Op::Lt,
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
fn compare_values(left: &str, right: &str) -> std::cmp::Ordering {
    match (left.parse::<f64>(), right.parse::<f64>()) {
        (Ok(l), Ok(r)) => l.partial_cmp(&r).unwrap_or(std::cmp::Ordering::Equal),
        _ => left.cmp(right),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        #[test]
        fn negation_is_involutive(op_idx in 0usize..6) {
            let ops = [Op::Eq, Op::Neq, Op::Lt, Op::Le, Op::Gt, Op::Ge];
            let op = ops[op_idx];
            prop_assert_eq!(op.negated().negated(), op);
        }

        #[test]
        fn negation_flips_evaluation(a in "[0-9a-z]{0,6}", b in "[0-9a-z]{0,6}", op_idx in 0usize..6) {
            let ops = [Op::Eq, Op::Neq, Op::Lt, Op::Le, Op::Gt, Op::Ge];
            let op = ops[op_idx];
            prop_assert_eq!(op.eval(&a, &b), !op.negated().eval(&a, &b));
        }
    }
}
