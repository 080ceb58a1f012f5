//! Error detection for the HoloClean-style baseline.
//!
//! HoloClean itself delegates detection to external modules and only repairs
//! the cells they flag.  Two detectors are provided:
//!
//! * [`DetectionMode::ConstraintViolations`] — the cells implicated in any
//!   integrity-constraint violation (the standard built-in detector);
//! * [`DetectionMode::Oracle`] — an externally supplied set of cells, used by
//!   the paper's protocol of "setting the detection accuracy to 100%".

use dataset::{CellRef, Dataset};
use rules::{violating_cells, RuleSet, UnknownAttribute};
use std::collections::BTreeSet;

/// How noisy cells are obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectionMode {
    /// Flag the result-part cells of every constraint violation.
    ConstraintViolations,
    /// Use exactly the given set of cells (perfect detection).
    Oracle(BTreeSet<CellRef>),
}

/// Produce the set of noisy cells for `ds` under the chosen mode; a rule
/// naming an attribute `ds` lacks is an error under
/// [`DetectionMode::ConstraintViolations`].
pub fn detect_noisy_cells(
    ds: &Dataset,
    rules: &RuleSet,
    mode: &DetectionMode,
) -> Result<BTreeSet<CellRef>, UnknownAttribute> {
    match mode {
        DetectionMode::ConstraintViolations => violating_cells(ds, rules),
        DetectionMode::Oracle(cells) => Ok(cells.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{sample_hospital_dataset, AttrId, TupleId};
    use rules::sample_hospital_rules;

    #[test]
    fn constraint_detection_flags_violation_cells() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let noisy = detect_noisy_cells(&ds, &rules, &DetectionMode::ConstraintViolations).unwrap();
        let st = ds.schema().attr_id("ST").unwrap();
        assert!(noisy.contains(&CellRef::new(TupleId(3), st)));
        // The typo t2.CT violates no rule, so constraint detection misses it —
        // exactly the limitation the paper points out for qualitative-only
        // detection.
        let ct = ds.schema().attr_id("CT").unwrap();
        assert!(!noisy.contains(&CellRef::new(TupleId(1), ct)));
    }

    #[test]
    fn oracle_detection_passes_through() {
        let ds = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let cells: BTreeSet<CellRef> = [
            CellRef::new(TupleId(0), AttrId(0)),
            CellRef::new(TupleId(1), AttrId(1)),
        ]
        .into_iter()
        .collect();
        let noisy = detect_noisy_cells(&ds, &rules, &DetectionMode::Oracle(cells.clone())).unwrap();
        assert_eq!(noisy, cells);
    }
}
