//! The batch driver of the MLNClean pipeline (Algorithm 1 of the paper):
//! index construction → AGP → weight learning → RSC → FSCR → deduplication.
//!
//! [`MlnClean`] is the one-shot batch [`Engine`].  Since the incremental
//! engine landed it is a thin wrapper over [`crate::CleaningSession`]: one
//! bulk ingest of the whole dataset followed by
//! [`crate::CleaningSession::finish`] — the batch pipeline is literally the
//! one-batch special case of the streaming one.

use crate::config::CleanConfig;
use crate::engine::{Engine, Report};
use crate::error::CleanError;
use crate::session::CleaningSession;
use dataset::Dataset;
use rules::RuleSet;

/// The MLNClean batch cleaner — the one-shot [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct MlnClean {
    config: CleanConfig,
}

impl MlnClean {
    /// Create a cleaner with the given configuration.
    pub fn new(config: CleanConfig) -> Self {
        MlnClean { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CleanConfig {
        &self.config
    }

    /// Clean `dirty` against `rules`.
    ///
    /// Both error detection and error repair happen here: the index/group
    /// structure localizes suspicious data, and the two cleaning stages
    /// rewrite it.  The returned [`Report`] keeps full provenance of every
    /// decision for evaluation and debugging.
    ///
    /// This is the one-batch special case of the incremental engine: a
    /// [`CleaningSession`] is opened, the whole dataset is ingested at once
    /// (sharing its columnar storage and value pool), and
    /// [`CleaningSession::finish`] runs every stage exactly as the
    /// pre-session monolithic pipeline did.
    pub fn clean(&self, dirty: &Dataset, rules: &RuleSet) -> Result<Report, CleanError> {
        let mut session =
            CleaningSession::new(self.config.clone(), dirty.schema().clone(), rules.clone())?;
        session.ingest_dataset(dirty)?;
        Ok(session.finish())
    }
}

impl Engine for MlnClean {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn run(&self, dirty: &Dataset, rules: &RuleSet) -> Result<Report, CleanError> {
        self.clean(dirty, rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{sample_hospital_dataset, sample_hospital_truth, RepairEvaluation, TupleId};
    use rules::sample_hospital_rules;
    use std::time::Duration;

    #[test]
    fn end_to_end_on_the_paper_sample() {
        let dirty = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let cleaner = MlnClean::new(CleanConfig::default().with_tau(1));
        let outcome = cleaner.clean(&dirty, &rules).unwrap();

        assert_eq!(outcome.repaired, sample_hospital_truth());
        // t1/t2 collapse to one row, t3..t6 to another.
        assert_eq!(outcome.deduplicated().len(), 2);
        assert_eq!(outcome.agp.detected_count(), 3);
        assert!(outcome.timings.total() > Duration::ZERO);
        // Stage I's closed-form weighting is clocked, not folded into RSC.
        assert!(outcome.timings.weight_learning > Duration::ZERO);
        // Single-node runs carry the final index and no partition report.
        assert!(outcome.index.is_some());
        assert!(outcome.partitions.is_none());
    }

    #[test]
    fn repaired_keeps_one_row_per_tuple() {
        let dirty = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let outcome = MlnClean::new(CleanConfig::default())
            .clean(&dirty, &rules)
            .unwrap();
        assert_eq!(outcome.repaired.len(), dirty.len());
        for t in dirty.tuple_ids() {
            assert_eq!(outcome.repaired.tuple(t).id(), t);
        }
    }

    #[test]
    fn empty_rules_are_rejected() {
        let dirty = sample_hospital_dataset();
        let err = MlnClean::default()
            .clean(&dirty, &RuleSet::default())
            .unwrap_err();
        assert_eq!(err, CleanError::NoRules);
    }

    #[test]
    fn mismatched_rules_are_rejected() {
        let dirty = sample_hospital_dataset();
        let rules = rules::parse_rules("FD: nope -> ST").unwrap();
        let err = MlnClean::default().clean(&dirty, &rules).unwrap_err();
        assert!(matches!(err, CleanError::Index(_)));
    }

    #[test]
    fn deduplication_can_be_disabled() {
        let dirty = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let outcome = MlnClean::new(CleanConfig::default().with_deduplicate(false))
            .clean(&dirty, &rules)
            .unwrap();
        assert_eq!(outcome.deduplicated().len(), dirty.len());
    }

    #[test]
    fn f1_is_perfect_on_the_sample() {
        // Build the DirtyDataset wrapper so the standard evaluation applies.
        let clean = sample_hospital_truth();
        let dirty_data = sample_hospital_dataset();
        let errors: Vec<dataset::InjectedError> = dirty_data
            .diff_cells(&clean)
            .into_iter()
            .map(|cell| dataset::InjectedError {
                cell,
                error_type: dataset::ErrorType::Replacement,
                original: clean.cell(cell).to_string(),
                dirty: dirty_data.cell(cell).to_string(),
            })
            .collect();
        let dirty = dataset::DirtyDataset {
            dirty: dirty_data,
            clean,
            errors,
        };

        let rules = sample_hospital_rules();
        let outcome = MlnClean::new(CleanConfig::default().with_tau(1))
            .clean(&dirty.dirty, &rules)
            .unwrap();
        let report = RepairEvaluation::evaluate(&dirty, &outcome.repaired);
        assert_eq!(report.f1(), 1.0, "{report}");
    }

    #[test]
    fn parallel_and_serial_stage1_are_byte_identical_on_the_sample() {
        let dirty = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let par = MlnClean::new(CleanConfig::default().with_tau(1))
            .clean(&dirty, &rules)
            .unwrap();
        let ser = MlnClean::new(CleanConfig::default().with_tau(1).with_parallel(false))
            .clean(&dirty, &rules)
            .unwrap();

        // Cleaned output must be byte-identical, not merely equal in quality.
        assert_eq!(
            dataset::csv::to_csv(&par.repaired),
            dataset::csv::to_csv(&ser.repaired)
        );
        assert_eq!(
            dataset::csv::to_csv(par.deduplicated()),
            dataset::csv::to_csv(ser.deduplicated())
        );
        // Full provenance must match too: same merges, repairs and fusions in
        // the same order.
        assert_eq!(par.agp, ser.agp);
        assert_eq!(par.rsc, ser.rsc);
        assert_eq!(par.fscr, ser.fscr);
    }

    #[test]
    fn parallel_and_serial_stage1_report_identical_evaluation() {
        // Same check through the RepairEvaluation lens on the Table 1 sample.
        let clean = sample_hospital_truth();
        let dirty_data = sample_hospital_dataset();
        let errors: Vec<dataset::InjectedError> = dirty_data
            .diff_cells(&clean)
            .into_iter()
            .map(|cell| dataset::InjectedError {
                cell,
                error_type: dataset::ErrorType::Replacement,
                original: clean.cell(cell).to_string(),
                dirty: dirty_data.cell(cell).to_string(),
            })
            .collect();
        let dirty = dataset::DirtyDataset {
            dirty: dirty_data,
            clean,
            errors,
        };
        let rules = sample_hospital_rules();

        let par = MlnClean::new(CleanConfig::default().with_tau(1))
            .clean(&dirty.dirty, &rules)
            .unwrap();
        let ser = MlnClean::new(CleanConfig::default().with_tau(1).with_parallel(false))
            .clean(&dirty.dirty, &rules)
            .unwrap();
        let par_report = RepairEvaluation::evaluate(&dirty, &par.repaired);
        let ser_report = RepairEvaluation::evaluate(&dirty, &ser.repaired);
        assert_eq!(par_report, ser_report);
    }

    #[test]
    fn parallel_and_serial_stage1_are_identical_on_a_larger_workload() {
        // Many blocks and groups (synthetic HAI) so the parallel path really
        // splits work across more than one chunk.
        let gen = datagen::HaiGenerator::default()
            .with_rows(300)
            .with_providers(12);
        let rules = datagen::HaiGenerator::rules();
        let dirty = gen.dirty(0.08, 0.5, 11);
        let par = MlnClean::new(CleanConfig::default().with_tau(2))
            .clean(&dirty.dirty, &rules)
            .unwrap();
        let ser = MlnClean::new(CleanConfig::default().with_tau(2).with_parallel(false))
            .clean(&dirty.dirty, &rules)
            .unwrap();
        assert_eq!(
            dataset::csv::to_csv(&par.repaired),
            dataset::csv::to_csv(&ser.repaired)
        );
        assert_eq!(par.agp, ser.agp);
        assert_eq!(par.rsc, ser.rsc);
    }

    #[test]
    fn uncovered_attributes_are_left_alone() {
        // An attribute no rule mentions must never be modified.
        let dirty = sample_hospital_dataset();
        let rules = rules::parse_rules("FD: CT -> ST").unwrap();
        let outcome = MlnClean::new(CleanConfig::default())
            .clean(&dirty, &rules)
            .unwrap();
        let hn = dirty.schema().attr_id("HN").unwrap();
        let pn = dirty.schema().attr_id("PN").unwrap();
        for t in dirty.tuple_ids() {
            assert_eq!(outcome.repaired.value(t, hn), dirty.value(t, hn));
            assert_eq!(outcome.repaired.value(t, pn), dirty.value(t, pn));
        }
        let _ = TupleId(0);
    }
}
