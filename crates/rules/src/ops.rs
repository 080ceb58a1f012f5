//! Comparison operators used by denial-constraint predicates.

use std::fmt;

/// A binary comparison operator of a denial-constraint predicate.
///
/// It is a parsed token that round-trips through `Display`; nothing
/// evaluates it.  The MLN index groups a DC's reason predicates on their
/// attributes, whatever their operators.
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

#[cfg(test)]
mod tests {
    use super::*;

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
