//! Cell references: a (tuple, attribute) coordinate in a dataset.

use crate::schema::AttrId;
use crate::tuple::TupleId;
use std::fmt;

/// A single cell position in a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Tuple containing the cell.
    pub tuple: TupleId,
    /// Attribute (column) of the cell.
    pub attr: AttrId,
}

mlnw::codec! { struct CellRef { tuple, attr } }

impl CellRef {
    /// Create a cell reference.
    pub fn new(tuple: TupleId, attr: AttrId) -> Self {
        CellRef { tuple, attr }
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.[{}]", self.tuple, self.attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_row_major() {
        let a = CellRef::new(TupleId(0), AttrId(3));
        let b = CellRef::new(TupleId(1), AttrId(0));
        assert!(a < b);
    }

    #[test]
    fn display() {
        let c = CellRef::new(TupleId(2), AttrId(1));
        assert_eq!(c.to_string(), "t3.[A1]");
    }
}
