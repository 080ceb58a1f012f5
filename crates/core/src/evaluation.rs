//! Component-level evaluation (Section 7.3 of the paper).
//!
//! Besides the end-to-end F1-score (computed by
//! [`dataset::RepairEvaluation`]), the paper evaluates each component of
//! MLNClean separately:
//!
//! * **Precision-A / Recall-A** — correctly merged abnormal groups over
//!   detected / truly abnormal groups (AGP, Figures 8 and 12);
//! * **Precision-R / Recall-R** — correctly repaired γs over repaired /
//!   erroneous γs (RSC, Figures 9 and 13);
//! * **Precision-F / Recall-F** — correctly repaired attribute values over
//!   erroneous values with detected conflicts / all erroneous values
//!   (FSCR, Figures 10 and 14).
//!
//! These evaluators need the injection ground truth, so they take the
//! [`dataset::DirtyDataset`] produced by the error injector.  They compare
//! text with text: a record's ids are resolved through the names its report
//! attached ([`crate::provenance`]), so a record not taken from a report is
//! [`CleanError::UnnamedRecords`], and rules the data's schema rejects are
//! [`CleanError::Index`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::agp::AgpRecord;
use crate::error::CleanError;
use crate::fscr::FscrRecord;
use crate::index::MlnIndex;
use crate::provenance::{Names, Records};
use crate::rsc::RscRecord;
use dataset::{ComponentMetrics, DirtyDataset, TupleId, ValueId};
use rules::RuleSet;
use std::collections::{BTreeMap, BTreeSet};

/// Alias used by the public API: every component evaluation reduces to a
/// precision/recall/F1 triple over counts.
pub type ComponentEvaluation = ComponentMetrics;

/// Ground-truth reason values of a tuple under a rule.
fn truth_reason_values(
    dirty: &DirtyDataset,
    rules: &RuleSet,
    rule: rules::RuleId,
    t: TupleId,
) -> Vec<String> {
    let rule = rules.rule(rule);
    rule.reason_values(dirty.clean.schema(), &dirty.clean.tuple(t))
}

/// Ground-truth full (reason + result) values of a tuple under a rule.
fn truth_full_values(
    dirty: &DirtyDataset,
    rules: &RuleSet,
    rule: rules::RuleId,
    t: TupleId,
) -> Vec<String> {
    let rule = rules.rule(rule);
    let mut v = rule.reason_values(dirty.clean.schema(), &dirty.clean.tuple(t));
    v.extend(rule.result_values(dirty.clean.schema(), &dirty.clean.tuple(t)));
    v
}

/// The names `records` resolve through.
fn names_of<T>(records: &Records<T>) -> Result<&Names, CleanError> {
    records.names().ok_or(CleanError::UnnamedRecords)
}

/// `ids` as owned text, to compare with the ground truth.
fn texts(names: &Names, ids: &[ValueId]) -> Vec<String> {
    ids.iter().map(|&v| names.value(v).to_string()).collect()
}

/// The majority element of an iterator of value vectors.
fn majority(values: impl Iterator<Item = Vec<String>>) -> Option<Vec<String>> {
    let mut counts: BTreeMap<Vec<String>, usize> = BTreeMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts.into_iter().max_by_key(|(_, c)| *c).map(|(v, _)| v)
}

/// Evaluate AGP: a detected abnormal group counts as correctly merged when it
/// is truly abnormal (its key matches no member tuple's ground-truth reason
/// values) and it was merged into the group matching the majority
/// ground-truth reason values of its tuples.
pub fn evaluate_agp(
    dirty: &DirtyDataset,
    rules: &RuleSet,
    record: &AgpRecord,
) -> Result<ComponentEvaluation, CleanError> {
    // Rebuild the pre-AGP index over the dirty data to know the real set of
    // abnormal groups.
    let index = MlnIndex::build(&dirty.dirty, rules)?;
    let mut real_abnormal = 0usize;
    let mut real_abnormal_keys: BTreeSet<(usize, Vec<String>)> = BTreeSet::new();
    for block in &index.blocks {
        for group in &block.groups {
            let tuples = group.all_tuples();
            let key: Vec<String> = group
                .resolve_key(index.pool())
                .into_iter()
                .map(str::to_string)
                .collect();
            let truly_abnormal = !tuples
                .iter()
                .any(|&t| truth_reason_values(dirty, rules, block.rule, t) == key);
            if truly_abnormal && !tuples.is_empty() {
                real_abnormal += 1;
                real_abnormal_keys.insert((block.rule.index(), key));
            }
        }
    }

    let mut correct = 0usize;
    for merge in &record.merges {
        let names = names_of(&record.merges)?;
        let abnormal_key = texts(names, &merge.abnormal_key);
        let truly_abnormal = real_abnormal_keys.contains(&(merge.rule.index(), abnormal_key));
        if !truly_abnormal {
            continue;
        }
        let expected_target = majority(
            merge
                .tuples
                .iter()
                .map(|&t| truth_reason_values(dirty, rules, merge.rule, t)),
        );
        if let (Some(expected), Some(actual)) = (expected_target, merge.target_key.as_ref()) {
            if expected == texts(names, actual) {
                correct += 1;
            }
        }
    }

    Ok(ComponentMetrics::from_counts(
        correct,
        record.detected_count(),
        real_abnormal,
    ))
}

/// Evaluate RSC: a repaired γ counts as correct when its new values match the
/// ground truth for the majority of its tuples; the recall denominator is the
/// number of γs (in the dirty index) whose values disagree with the ground
/// truth of at least one supporting tuple.
pub fn evaluate_rsc(
    dirty: &DirtyDataset,
    rules: &RuleSet,
    record: &RscRecord,
) -> Result<ComponentEvaluation, CleanError> {
    let index = MlnIndex::build(&dirty.dirty, rules)?;
    let mut erroneous_gammas = 0usize;
    for block in &index.blocks {
        for gamma in block.gammas() {
            let values: Vec<String> = gamma
                .resolve_values(index.pool())
                .into_iter()
                .map(str::to_string)
                .collect();
            let has_error = gamma
                .tuples
                .iter()
                .any(|&t| truth_full_values(dirty, rules, block.rule, t) != values);
            if has_error {
                erroneous_gammas += 1;
            }
        }
    }

    let mut correct = 0usize;
    for repair in &record.repairs {
        let expected = majority(
            repair
                .tuples
                .iter()
                .map(|&t| truth_full_values(dirty, rules, repair.rule, t)),
        );
        let names = names_of(&record.repairs)?;
        if expected == Some(texts(names, &repair.to_values)) {
            correct += 1;
        }
    }

    Ok(ComponentMetrics::from_counts(
        correct,
        record.repaired_count(),
        erroneous_gammas,
    ))
}

/// Evaluate FSCR, the stage that materializes the final repairs.
///
/// * `correct` — erroneous cells whose fused value equals the ground truth;
/// * `attempted` (precision denominator) — every cell the fusion stage
///   rewrote;
/// * `relevant` (recall denominator) — every erroneous cell.
///
/// The paper scopes the precision denominator to "erroneous attribute values
/// that include detected conflicts"; since FSCR is also the stage that writes
/// out the conflict-free Stage-I repairs, we use the set of cells it actually
/// rewrote, which coincides with the paper's intent (few detected conflicts
/// are wrongly repaired → high precision) while staying well-defined when a
/// repair happens without a cross-version conflict.
pub fn evaluate_fscr(
    dirty: &DirtyDataset,
    record: &FscrRecord,
) -> Result<ComponentEvaluation, CleanError> {
    let erroneous = dirty.erroneous_cells();

    let mut correct = 0usize;
    for change in &record.changes {
        if !erroneous.contains(&change.cell) {
            continue;
        }
        let names = names_of(&record.changes)?;
        if names.value(change.new) == dirty.clean.cell(change.cell) {
            correct += 1;
        }
    }

    Ok(ComponentMetrics::from_counts(
        correct,
        record.changed_cell_count(),
        erroneous.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanConfig;
    use crate::pipeline::MlnClean;
    use dataset::{ErrorInjector, ErrorSpec};
    use rules::sample_hospital_rules;

    /// Hand-built DirtyDataset for the Table 1 sample (the "injected errors"
    /// are the four wrong cells of the running example).
    fn sample_dirty() -> DirtyDataset {
        let clean = dataset::sample_hospital_truth();
        let dirty = dataset::sample_hospital_dataset();
        let mut errors = Vec::new();
        for cell in dirty.diff_cells(&clean) {
            errors.push(dataset::InjectedError {
                cell,
                error_type: dataset::ErrorType::Typo,
                original: clean.cell(cell).to_string(),
                dirty: dirty.cell(cell).to_string(),
            });
        }
        DirtyDataset {
            dirty,
            clean,
            errors,
        }
    }

    #[test]
    fn perfect_run_on_the_paper_sample() {
        let dirty = sample_dirty();
        let rules = sample_hospital_rules();
        let cleaner = MlnClean::new(CleanConfig::default().with_tau(1));
        let outcome = cleaner.clean(&dirty.dirty, &rules).unwrap();

        let agp = evaluate_agp(&dirty, &rules, &outcome.agp).unwrap();
        assert_eq!(agp.precision(), 1.0, "{agp}");
        assert_eq!(agp.recall(), 1.0, "{agp}");

        let rsc = evaluate_rsc(&dirty, &rules, &outcome.rsc).unwrap();
        assert_eq!(rsc.precision(), 1.0, "{rsc}");
        assert!(rsc.recall() > 0.0);

        let fscr = evaluate_fscr(&dirty, &outcome.fscr).unwrap();
        assert_eq!(fscr.recall(), 1.0, "{fscr}");
    }

    #[test]
    fn records_without_names_and_mismatched_rules_are_typed_errors() {
        let dirty = sample_dirty();
        let rules = sample_hospital_rules();
        let cleaner = MlnClean::new(CleanConfig::default().with_tau(1));
        let outcome = cleaner.clean(&dirty.dirty, &rules).unwrap();
        // The same records, not taken from a report: no pool names them.
        let agp = AgpRecord {
            merges: outcome.agp.merges.to_vec().into(),
            ..AgpRecord::default()
        };
        let rsc = RscRecord {
            repairs: outcome.rsc.repairs.to_vec().into(),
            ..RscRecord::default()
        };
        let fscr = FscrRecord {
            changes: outcome.fscr.changes.to_vec().into(),
            ..FscrRecord::default()
        };
        let unnamed = Err(CleanError::UnnamedRecords);
        assert_eq!(
            evaluate_agp(&dirty, &rules, &agp).map(|m| m.correct),
            unnamed
        );
        assert_eq!(
            evaluate_rsc(&dirty, &rules, &rsc).map(|m| m.correct),
            unnamed
        );
        assert_eq!(evaluate_fscr(&dirty, &fscr).map(|m| m.correct), unnamed);

        let wrong = rules::parse_rules("FD: nope -> ST").unwrap();
        let index = |e| matches!(e, Err(CleanError::Index(_)));
        assert!(index(evaluate_agp(&dirty, &wrong, &outcome.agp)));
        assert!(index(evaluate_rsc(&dirty, &wrong, &outcome.rsc)));
    }

    #[test]
    fn tau_zero_detects_no_abnormal_groups() {
        let dirty = sample_dirty();
        let rules = sample_hospital_rules();
        let cleaner = MlnClean::new(CleanConfig::default().with_tau(0));
        let outcome = cleaner.clean(&dirty.dirty, &rules).unwrap();
        let agp = evaluate_agp(&dirty, &rules, &outcome.agp).unwrap();
        // Nothing detected → nothing correct → recall 0 (there are real
        // abnormal groups), precision vacuously 1.
        assert_eq!(agp.correct, 0);
        assert_eq!(agp.attempted, 0);
        assert!(agp.relevant > 0);
        assert_eq!(agp.recall(), 0.0);
    }

    #[test]
    fn component_metrics_on_injected_errors() {
        // A slightly larger synthetic check: inject errors into a clean
        // dataset with a known FD and verify the metrics stay in range.
        use dataset::{Dataset, Schema};
        let mut clean = Dataset::new(Schema::new(&["city", "state"]));
        let cities = [
            ("SEATTLE", "WA"),
            ("PORTLAND", "OR"),
            ("AUSTIN", "TX"),
            ("DENVER", "CO"),
        ];
        for i in 0..200 {
            let (c, s) = cities[i % cities.len()];
            clean.push_row(vec![c.to_string(), s.to_string()]).unwrap();
        }
        let rules = rules::parse_rules("FD: city -> state").unwrap();
        let dirty = ErrorInjector::new(ErrorSpec::new(0.05, 11)).inject(&clean);
        let cleaner = MlnClean::new(CleanConfig::default().with_tau(3));
        let outcome = cleaner.clean(&dirty.dirty, &rules).unwrap();

        for metrics in [
            evaluate_agp(&dirty, &rules, &outcome.agp).unwrap(),
            evaluate_rsc(&dirty, &rules, &outcome.rsc).unwrap(),
            evaluate_fscr(&dirty, &outcome.fscr).unwrap(),
        ] {
            assert!((0.0..=1.0).contains(&metrics.precision()));
            assert!((0.0..=1.0).contains(&metrics.recall()));
        }
    }
}
