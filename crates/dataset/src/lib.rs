//! Relational substrate for MLNClean: schemas, tuples, datasets, cell-level
//! provenance, CSV I/O, reproducible error injection, and the cleaning
//! quality metrics used throughout the paper's evaluation (F1 as well as the
//! component-level Precision/Recall-A/R/F measures).
//!
//! The dataset model is deliberately simple — an in-memory table whose cells
//! are all strings — because MLNClean (like most constraint-based cleaners)
//! treats attribute values as strings and reasons about them through
//! integrity constraints and string distances.  Storage, however, is
//! **interned and columnar**: every distinct value lives once in a
//! [`ValuePool`] and cells are `Vec<ValueId>` columns, so equality, grouping
//! and cross-worker shipping work on `u32` ids while row-oriented call sites
//! keep the [`Tuple`] view API.

pub mod cell;
pub mod csv;
pub mod dataset;
pub mod errors;
pub mod metrics;
pub mod pool;
pub mod rng;
pub mod schema;
pub mod spill;
pub mod tuple;

pub use cell::CellRef;
pub use dataset::{ArityMismatch, Dataset, SchemaMismatch};
pub use errors::{DirtyDataset, ErrorInjector, ErrorSpec, ErrorType, InjectedError};
pub use metrics::{ComponentMetrics, RepairEvaluation, RepairReport};
pub use pool::{ValueId, ValuePool};
pub use schema::{AttrId, Schema};
pub use spill::{SpillDir, SpillSlot};
pub use tuple::{remap_ids_after_removal, Tuple, TupleId};

/// Build the six-tuple hospital sample of Table 1 in the paper, used by the
/// documentation examples and the paper-walkthrough integration tests.
pub fn sample_hospital_dataset() -> Dataset {
    let schema = Schema::new(&["HN", "CT", "ST", "PN"]);
    let rows = [
        ["ALABAMA", "DOTHAN", "AL", "3347938701"],
        ["ALABAMA", "DOTH", "AL", "3347938701"],
        ["ELIZA", "DOTHAN", "AL", "2567638410"],
        ["ELIZA", "BOAZ", "AK", "2567688400"],
        ["ELIZA", "BOAZ", "AL", "2567688400"],
        ["ELIZA", "BOAZ", "AL", "2567688400"],
    ];
    let mut ds = Dataset::new(schema);
    for row in rows {
        ds.push_row(row.iter().map(|s| s.to_string()).collect())
            .expect("sample rows match the schema");
    }
    ds
}

/// Ground-truth version of the Table 1 sample: every cell repaired to the
/// values the paper's running example treats as correct.
pub fn sample_hospital_truth() -> Dataset {
    let schema = Schema::new(&["HN", "CT", "ST", "PN"]);
    let rows = [
        ["ALABAMA", "DOTHAN", "AL", "3347938701"],
        ["ALABAMA", "DOTHAN", "AL", "3347938701"],
        ["ELIZA", "BOAZ", "AL", "2567688400"],
        ["ELIZA", "BOAZ", "AL", "2567688400"],
        ["ELIZA", "BOAZ", "AL", "2567688400"],
        ["ELIZA", "BOAZ", "AL", "2567688400"],
    ];
    let mut ds = Dataset::new(schema);
    for row in rows {
        ds.push_row(row.iter().map(|s| s.to_string()).collect())
            .expect("sample rows match the schema");
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_dataset_matches_paper_table1() {
        let ds = sample_hospital_dataset();
        assert_eq!(ds.len(), 6);
        assert_eq!(ds.schema().arity(), 4);
        assert_eq!(
            ds.value(TupleId(1), ds.schema().attr_id("CT").unwrap()),
            "DOTH"
        );
        assert_eq!(
            ds.value(TupleId(3), ds.schema().attr_id("ST").unwrap()),
            "AK"
        );
    }

    #[test]
    fn truth_and_dirty_have_same_shape() {
        let dirty = sample_hospital_dataset();
        let truth = sample_hospital_truth();
        assert_eq!(dirty.len(), truth.len());
        assert_eq!(dirty.schema(), truth.schema());
    }
}
