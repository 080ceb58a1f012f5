//! Cleaning-quality metrics.
//!
//! The paper's headline metric (Eq. 7) is the F1-score over repaired cells:
//!
//! * **precision** — correctly repaired attribute values / all updated
//!   attribute values;
//! * **recall** — correctly repaired attribute values / all erroneous values.
//!
//! Section 7.3 additionally defines per-component precision/recall pairs
//! (Precision-A / Recall-A for AGP, -R for RSC, -F for FSCR); those are all
//! plain count ratios, so they share the [`ComponentMetrics`] type here.

use crate::dataset::Dataset;
use crate::errors::DirtyDataset;
use std::fmt;

/// Precision / recall / F1 computed from raw counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentMetrics {
    /// Number of correct decisions (e.g. correctly repaired cells).
    pub correct: usize,
    /// Number of decisions made (e.g. cells updated) — the precision
    /// denominator.
    pub attempted: usize,
    /// Number of decisions that should have been made (e.g. truly erroneous
    /// cells) — the recall denominator.
    pub relevant: usize,
}

impl ComponentMetrics {
    /// Build metrics from counts.
    pub fn from_counts(correct: usize, attempted: usize, relevant: usize) -> Self {
        ComponentMetrics {
            correct,
            attempted,
            relevant,
        }
    }

    /// Precision (`1.0` when nothing was attempted — no wrong decision was
    /// made).
    pub fn precision(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.correct as f64 / self.attempted as f64
        }
    }

    /// Recall (`1.0` when there was nothing to find).
    pub fn recall(&self) -> f64 {
        if self.relevant == 0 {
            1.0
        } else {
            self.correct as f64 / self.relevant as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl fmt::Display for ComponentMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "precision={:.3} recall={:.3} f1={:.3} ({}/{} attempted, {} relevant)",
            self.precision(),
            self.recall(),
            self.f1(),
            self.correct,
            self.attempted,
            self.relevant
        )
    }
}

/// Full repair report: cell-level counts plus derived precision/recall/F1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairReport {
    /// Cells whose value in the repaired dataset differs from the dirty one.
    pub updated_cells: usize,
    /// Updated cells whose repaired value equals the ground truth.
    pub correctly_repaired: usize,
    /// Cells that were erroneous in the dirty dataset.
    pub erroneous_cells: usize,
    /// Erroneous cells that remain wrong after repair.
    pub remaining_errors: usize,
    /// Clean cells that the repair corrupted (false positives that also
    /// changed the value away from the truth).
    pub newly_introduced_errors: usize,
}

impl RepairReport {
    /// Precision per Eq. 7: correctly repaired / updated.
    pub fn precision(&self) -> f64 {
        ComponentMetrics::from_counts(self.correctly_repaired, self.updated_cells, 0).precision()
    }

    /// Recall per Eq. 7: correctly repaired / erroneous.
    pub fn recall(&self) -> f64 {
        if self.erroneous_cells == 0 {
            1.0
        } else {
            self.correctly_repaired as f64 / self.erroneous_cells as f64
        }
    }

    /// F1-score per Eq. 7.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl fmt::Display for RepairReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "F1={:.3} (precision={:.3}, recall={:.3}; {} updated, {} correct, {} erroneous, {} introduced)",
            self.f1(),
            self.precision(),
            self.recall(),
            self.updated_cells,
            self.correctly_repaired,
            self.erroneous_cells,
            self.newly_introduced_errors
        )
    }
}

/// Evaluator comparing a repaired dataset against the dirty/clean pair.
pub struct RepairEvaluation;

impl RepairEvaluation {
    /// Evaluate `repaired` against the ground truth of `dirty`.
    ///
    /// The repaired dataset must have the same shape (tuples × attributes) as
    /// the dirty one; evaluation happens *before* duplicate elimination so
    /// every original tuple still has a row.
    pub fn evaluate(dirty: &DirtyDataset, repaired: &Dataset) -> RepairReport {
        assert_eq!(
            dirty.dirty.len(),
            repaired.len(),
            "repaired dataset must keep one row per original tuple for evaluation"
        );
        assert_eq!(dirty.dirty.schema().arity(), repaired.schema().arity());

        let erroneous = dirty.erroneous_cells();
        let mut updated_cells = 0usize;
        let mut correctly_repaired = 0usize;
        let mut remaining_errors = 0usize;
        let mut newly_introduced = 0usize;

        for t in dirty.dirty.tuple_ids() {
            for a in dirty.dirty.schema().attr_ids() {
                let cell = crate::cell::CellRef::new(t, a);
                let dirty_v = dirty.dirty.value(t, a);
                let truth_v = dirty.clean.value(t, a);
                let repaired_v = repaired.value(t, a);

                let was_updated = repaired_v != dirty_v;
                let was_erroneous = erroneous.contains(&cell);

                if was_updated {
                    updated_cells += 1;
                    if repaired_v == truth_v {
                        // Counted as a correct repair only if the cell was
                        // actually dirty; rewriting an already-clean cell to
                        // itself cannot happen (was_updated implies change).
                        if was_erroneous {
                            correctly_repaired += 1;
                        }
                    } else if !was_erroneous {
                        newly_introduced += 1;
                    }
                }
                if was_erroneous && repaired_v != truth_v {
                    remaining_errors += 1;
                }
            }
        }

        RepairReport {
            updated_cells,
            correctly_repaired,
            erroneous_cells: erroneous.len(),
            remaining_errors,
            newly_introduced_errors: newly_introduced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::{ErrorInjector, ErrorSpec};
    use crate::rng::Rng;
    use crate::schema::Schema;

    fn toy_dataset() -> Dataset {
        let mut ds = Dataset::new(Schema::new(&["a", "b"]));
        for i in 0..20 {
            ds.push_row(vec![format!("val{}", i % 4), format!("w{}", i % 3)])
                .unwrap();
        }
        ds
    }

    #[test]
    fn perfect_repair_scores_one() {
        let clean = toy_dataset();
        let dirty = ErrorInjector::new(ErrorSpec::new(0.2, 1)).inject(&clean);
        let report = RepairEvaluation::evaluate(&dirty, &clean);
        assert_eq!(report.f1(), 1.0);
        assert_eq!(report.remaining_errors, 0);
        assert_eq!(report.newly_introduced_errors, 0);
    }

    #[test]
    fn no_repair_scores_zero_recall() {
        let clean = toy_dataset();
        let dirty = ErrorInjector::new(ErrorSpec::new(0.2, 2)).inject(&clean);
        assert!(dirty.error_count() > 0);
        let report = RepairEvaluation::evaluate(&dirty, &dirty.dirty);
        assert_eq!(report.updated_cells, 0);
        assert_eq!(report.recall(), 0.0);
        assert_eq!(report.f1(), 0.0);
        // Precision is vacuously 1 when nothing was updated.
        assert_eq!(report.precision(), 1.0);
    }

    #[test]
    fn corrupting_repair_is_penalized() {
        let clean = toy_dataset();
        let dirty = ErrorInjector::new(ErrorSpec::new(0.1, 3)).inject(&clean);
        // "Repair" by wrecking a clean cell.
        let mut repaired = dirty.dirty.clone();
        let clean_cell = dirty
            .dirty
            .cells()
            .map(|(c, _)| c)
            .find(|c| !dirty.erroneous_cells().contains(c))
            .unwrap();
        repaired.set_value(clean_cell.tuple, clean_cell.attr, "GARBAGE");
        let report = RepairEvaluation::evaluate(&dirty, &repaired);
        assert_eq!(report.newly_introduced_errors, 1);
        assert_eq!(report.correctly_repaired, 0);
        assert!(report.precision() < 1.0);
    }

    #[test]
    fn partial_repair_counts() {
        let clean = toy_dataset();
        let dirty = ErrorInjector::new(ErrorSpec::new(0.2, 4)).inject(&clean);
        let errors = dirty.errors.clone();
        assert!(errors.len() >= 2);
        // Repair exactly the first injected error.
        let mut repaired = dirty.dirty.clone();
        let e = &errors[0];
        repaired.set_value(e.cell.tuple, e.cell.attr, e.original.clone());
        let report = RepairEvaluation::evaluate(&dirty, &repaired);
        assert_eq!(report.updated_cells, 1);
        assert_eq!(report.correctly_repaired, 1);
        assert_eq!(report.precision(), 1.0);
        assert!((report.recall() - 1.0 / errors.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn component_metrics_edge_cases() {
        let empty = ComponentMetrics::from_counts(0, 0, 0);
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.f1(), 1.0);

        let hopeless = ComponentMetrics::from_counts(0, 10, 10);
        assert_eq!(hopeless.precision(), 0.0);
        assert_eq!(hopeless.recall(), 0.0);
        assert_eq!(hopeless.f1(), 0.0);

        let half = ComponentMetrics::from_counts(5, 10, 10);
        assert_eq!(half.precision(), 0.5);
        assert_eq!(half.recall(), 0.5);
        assert!((half.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f1_is_bounded() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::f1_is_bounded"));
        for _ in 0..64 {
            let correct = rng.below(50);
            let extra_attempted = rng.below(50);
            let extra_relevant = rng.below(50);
            let m = ComponentMetrics::from_counts(
                correct,
                correct + extra_attempted,
                correct + extra_relevant,
            );
            assert!((0.0..=1.0).contains(&m.precision()));
            assert!((0.0..=1.0).contains(&m.recall()));
            assert!((0.0..=1.0).contains(&m.f1()));
            assert!(m.f1() <= m.precision().max(m.recall()) + 1e-12);
            assert!(
                m.f1() + 1e-12
                    >= m.precision().min(m.recall()) * 2.0 * m.precision().max(m.recall())
                        / (m.precision() + m.recall() + 1e-12)
                        - 1e-9
            );
        }
    }
}
