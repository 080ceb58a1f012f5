//! The repair engine: score every candidate of every noisy cell and apply the
//! argmax.
//!
//! The score of candidate `v` for cell `t.[A]` is a log-linear combination of
//! the signals HoloClean compiles into its factor graph:
//!
//! * **co-occurrence** — `Σ_B log P(A=v | B = t.B)` over the tuple's other
//!   attributes, estimated from the clean partition;
//! * **prior support** — `log (1 + support(v))`, the frequency of `v` in the
//!   clean partition of column A;
//! * **constraint penalty** — a fixed penalty per integrity constraint that
//!   assigning `v` would violate against the (clean-partition) rest of the
//!   dataset.
//!
//! Repairs are committed cell by cell; this per-cell, per-candidate scan is
//! the reason the baseline's runtime grows faster than MLNClean's (Figure 6c,
//! 6d).

use crate::domain::CandidateDomain;
use crate::features::CooccurrenceModel;
use dataset::{AttrId, CellRef, Dataset, IdMap, ValueId};
use rayon::prelude::*;
use rules::{CfdClause, Rule, RuleId, RuleSet, UnknownAttribute};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Candidate budget per noisy cell.
const MAX_CANDIDATES: usize = 50;
/// Weight of the co-occurrence features.
const COOCCURRENCE_WEIGHT: f64 = 1.0;
/// Weight of the prior-support feature.
const PRIOR_WEIGHT: f64 = 0.2;
/// Penalty applied per violated constraint.
const VIOLATION_PENALTY: f64 = 2.0;

/// The result of a repair run.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired dataset (same shape as the input).
    pub repaired: Dataset,
    /// Cells that were actually rewritten.
    pub repaired_cells: Vec<CellRef>,
    /// Time spent training the statistical model.
    pub training_time: Duration,
    /// Time spent scoring candidates and applying repairs.
    pub inference_time: Duration,
}

impl RepairOutcome {
    /// Total runtime of the repair phase (training + inference); the paper
    /// reports only this for HoloClean because detection is external.
    pub fn total_time(&self) -> Duration {
        self.training_time + self.inference_time
    }
}

/// The HoloClean-style cleaner.
#[derive(Debug, Clone, Copy, Default)]
pub struct HoloClean;

impl HoloClean {
    /// Create a cleaner.
    pub fn new() -> Self {
        HoloClean
    }

    /// Repair the `noisy` cells of `dirty` under `rules`; a rule naming an
    /// attribute `dirty` lacks is an error, checked before any work.
    ///
    /// Candidate scoring is independent per cell (every score reads only the
    /// dirty dataset and the trained model), so the argmax of each noisy
    /// cell is computed across cells in parallel; repairs are then applied
    /// serially in the `BTreeSet`'s cell order, which makes the outcome
    /// byte-identical to [`Self::repair_serial`].
    pub fn repair(
        &self,
        dirty: &Dataset,
        rules: &RuleSet,
        noisy: &BTreeSet<CellRef>,
    ) -> Result<RepairOutcome, UnknownAttribute> {
        let train_start = Instant::now();
        let constraints = ConstraintIndex::build(dirty, rules)?;
        let model = CooccurrenceModel::train(dirty, noisy);
        let training_time = train_start.elapsed();

        let infer_start = Instant::now();
        let generator = CandidateDomain::new(MAX_CANDIDATES);
        let mut repaired = dirty.clone();
        let mut repaired_cells = Vec::new();

        let cells: Vec<CellRef> = noisy
            .iter()
            .copied()
            .filter(|cell| generator.has_candidates(&model, cell.attr))
            .collect();
        let winners: Vec<ValueId> = cells
            .par_iter()
            .map(|&cell| self.best_candidate(dirty, rules, &constraints, &model, &generator, cell))
            .collect();
        for (&cell, &best_value) in cells.iter().zip(&winners) {
            if best_value != dirty.cell_id(cell) {
                repaired.set_value_id(cell.tuple, cell.attr, best_value);
                repaired_cells.push(cell);
            }
        }
        let inference_time = infer_start.elapsed();

        Ok(RepairOutcome {
            repaired,
            repaired_cells,
            training_time,
            inference_time,
        })
    }

    /// Serial reference path of [`Self::repair`]: one cell at a time, in the
    /// same `BTreeSet` order the parallel path applies its winners in.
    pub fn repair_serial(
        &self,
        dirty: &Dataset,
        rules: &RuleSet,
        noisy: &BTreeSet<CellRef>,
    ) -> Result<RepairOutcome, UnknownAttribute> {
        let train_start = Instant::now();
        let constraints = ConstraintIndex::build(dirty, rules)?;
        let model = CooccurrenceModel::train(dirty, noisy);
        let training_time = train_start.elapsed();

        let infer_start = Instant::now();
        let generator = CandidateDomain::new(MAX_CANDIDATES);
        let mut repaired = dirty.clone();
        let mut repaired_cells = Vec::new();

        for &cell in noisy {
            if !generator.has_candidates(&model, cell.attr) {
                continue;
            }
            let best_value =
                self.best_candidate(dirty, rules, &constraints, &model, &generator, cell);
            if best_value != dirty.cell_id(cell) {
                repaired.set_value_id(cell.tuple, cell.attr, best_value);
                repaired_cells.push(cell);
            }
        }
        let inference_time = infer_start.elapsed();

        Ok(RepairOutcome {
            repaired,
            repaired_cells,
            training_time,
            inference_time,
        })
    }

    /// Argmax over one noisy cell's candidate domain (ties keep the earlier
    /// candidate, starting from the cell's current value).
    fn best_candidate(
        &self,
        dirty: &Dataset,
        rules: &RuleSet,
        constraints: &ConstraintIndex,
        model: &CooccurrenceModel,
        generator: &CandidateDomain,
        cell: CellRef,
    ) -> ValueId {
        let candidates = generator.candidates(dirty, model, cell);
        let current = dirty.cell_id(cell);
        let mut best_value = current;
        let mut best_score = f64::NEG_INFINITY;
        for candidate in candidates {
            let score = self.score_candidate(dirty, rules, constraints, model, cell, candidate);
            if score > best_score {
                best_score = score;
                best_value = candidate;
            }
        }
        best_value
    }

    /// Log-linear score of one candidate for one cell.
    fn score_candidate(
        &self,
        dirty: &Dataset,
        rules: &RuleSet,
        constraints: &ConstraintIndex,
        model: &CooccurrenceModel,
        cell: CellRef,
        candidate: ValueId,
    ) -> f64 {
        let tuple = dirty.tuple(cell.tuple);

        // Co-occurrence with the rest of the tuple.
        let cooccurrence: f64 = dirty
            .schema()
            .attr_ids()
            .filter(|&b| b != cell.attr)
            .map(|b| {
                model
                    .conditional(cell.attr, candidate, b, tuple.value_id(b))
                    .ln()
            })
            .sum();

        // Prior support in the clean partition.
        let prior = (1.0 + model.support(cell.attr, candidate) as f64).ln();

        // Constraint penalty: how many rules the tuple would violate against
        // the rest of the dataset if the candidate were written.
        let violations = constraints.violations_with(dirty, rules, cell, candidate);

        COOCCURRENCE_WEIGHT * cooccurrence + PRIOR_WEIGHT * prior
            - VIOLATION_PENALTY * violations as f64
    }
}

/// Pre-aggregated rule statistics so the per-candidate constraint penalty is
/// a hash lookup instead of a full violation-detection pass.  For every rule
/// the index stores, per reason-part value vector, how many tuples carry each
/// result-part value vector.
/// For one rule: reason value ids → (result value ids → tuple count).
type RuleCounts = IdMap<Vec<ValueId>, IdMap<Vec<ValueId>, usize>>;

struct ConstraintIndex {
    /// `per_rule[i]` : reason values → (result values → tuple count).
    per_rule: Vec<RuleCounts>,
    /// `attrs[i]` : rule `i`'s attributes, resolved against the schema.
    attrs: Vec<RuleAttrs>,
}

/// One rule's attributes as schema ids, resolved once so the per-candidate
/// scorer never looks a name up.
struct RuleAttrs {
    reason: Vec<AttrId>,
    result: Vec<AttrId>,
    /// A CFD's constant condition clauses, as (attribute, the constant's id
    /// or `None` if no cell holds it); empty for FDs and DCs.
    pattern: Vec<(AttrId, Option<ValueId>)>,
    /// A CFD's constant consequent clauses, in the same form.
    forced: Vec<(AttrId, Option<ValueId>)>,
}

impl RuleAttrs {
    fn resolve(ds: &Dataset, id: RuleId, rule: &Rule) -> Result<Self, UnknownAttribute> {
        let attr = |attribute: &str| {
            ds.schema()
                .attr_id(attribute)
                .ok_or_else(|| UnknownAttribute {
                    rule: id,
                    attribute: attribute.to_string(),
                })
        };
        let ids = |attrs: Vec<String>| -> Result<Vec<AttrId>, _> {
            attrs.iter().map(|a| attr(a)).collect()
        };
        let constants = |clauses: &[CfdClause]| -> Result<Vec<_>, _> {
            clauses
                .iter()
                .filter_map(|c| Some((&c.attr, c.constant.as_deref()?)))
                .map(|(a, v)| Ok((attr(a)?, ds.pool().lookup(v))))
                .collect()
        };
        let reason = ids(rule.reason_attrs())?;
        let result = ids(rule.result_attrs())?;
        let (pattern, forced) = match rule {
            Rule::Cfd(cfd) => (constants(cfd.conditions())?, constants(cfd.consequents())?),
            Rule::Fd(_) | Rule::Dc(_) => (Vec::new(), Vec::new()),
        };
        Ok(RuleAttrs {
            reason,
            result,
            pattern,
            forced,
        })
    }
}

impl ConstraintIndex {
    /// Resolve every rule against `ds`'s schema — the first attribute, in
    /// rule order, that a rule names and the schema lacks is an error,
    /// returned before any tuple is read — then count the tuples.
    fn build(ds: &Dataset, rules: &RuleSet) -> Result<Self, UnknownAttribute> {
        let attrs = rules
            .iter_with_ids()
            .map(|(id, rule)| RuleAttrs::resolve(ds, id, rule))
            .collect::<Result<Vec<_>, _>>()?;
        let schema = ds.schema();
        let mut per_rule = Vec::with_capacity(rules.len());
        for (_, rule) in rules.iter_with_ids() {
            let mut map: RuleCounts = IdMap::default();
            for t in ds.tuples() {
                if !rule.is_relevant(schema, &t) {
                    continue;
                }
                let reason = rule.reason_value_ids(schema, &t);
                let result = rule.result_value_ids(schema, &t);
                *map.entry(reason).or_default().entry(result).or_insert(0) += 1;
            }
            per_rule.push(map);
        }
        Ok(ConstraintIndex { per_rule, attrs })
    }

    /// Number of rules the tuple would violate (against the other tuples'
    /// reason→result statistics) if `candidate` were written into `cell`.
    fn violations_with(
        &self,
        ds: &Dataset,
        rules: &RuleSet,
        cell: CellRef,
        candidate: ValueId,
    ) -> usize {
        let schema = ds.schema();
        let tuple = ds.tuple(cell.tuple);
        // The tuple's value ids under the hypothetical edit.
        let edited = |a: AttrId| {
            if a == cell.attr {
                candidate
            } else {
                tuple.value_id(a)
            }
        };
        let mut violations = 0usize;

        for ((rule, counts), attrs) in rules.iter().zip(&self.per_rule).zip(&self.attrs) {
            if !attrs.reason.contains(&cell.attr) && !attrs.result.contains(&cell.attr) {
                continue;
            }
            if !rule.is_relevant(schema, &tuple) {
                continue;
            }
            let reason: Vec<ValueId> = attrs.reason.iter().map(|&a| edited(a)).collect();
            let result: Vec<ValueId> = attrs.result.iter().map(|&a| edited(a)).collect();

            if let Some(results) = counts.get(&reason) {
                // The tuple's own (pre-edit) contribution must not count as a
                // conflicting witness.
                let own = |attrs: &[AttrId]| -> Vec<ValueId> {
                    attrs.iter().map(|&a| tuple.value_id(a)).collect()
                };
                let (own_reason, own_result) = (own(&attrs.reason), own(&attrs.result));
                let conflicting = results.iter().any(|(r, &count)| {
                    if *r == result {
                        return false;
                    }
                    let own_contribution = usize::from(own_reason == reason && own_result == *r);
                    count > own_contribution
                });
                if conflicting {
                    violations += 1;
                }
            }

            // Constant CFDs additionally violate when the pattern matches but
            // the consequent constant differs.
            let holds = |&(a, constant): &(AttrId, Option<ValueId>)| constant == Some(edited(a));
            if attrs.pattern.iter().all(holds) && !attrs.forced.iter().all(holds) {
                violations += 1;
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::HaiGenerator;
    use dataset::{sample_hospital_dataset, sample_hospital_truth, RepairEvaluation, TupleId};
    use rules::sample_hospital_rules;

    fn oracle_noisy(dirty: &Dataset, truth: &Dataset) -> BTreeSet<CellRef> {
        dirty.diff_cells(truth).into_iter().collect()
    }

    #[test]
    fn repairs_schema_level_error_on_sample() {
        let dirty = sample_hospital_dataset();
        let truth = sample_hospital_truth();
        let rules = sample_hospital_rules();
        let outcome = HoloClean::new()
            .repair(&dirty, &rules, &oracle_noisy(&dirty, &truth))
            .unwrap();
        let st = dirty.schema().attr_id("ST").unwrap();
        assert_eq!(outcome.repaired.value(TupleId(3), st), "AL");
        assert!(!outcome.repaired_cells.is_empty());
        assert!(outcome.total_time() >= outcome.training_time);
    }

    #[test]
    fn empty_noisy_set_changes_nothing() {
        let dirty = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let outcome = HoloClean::new()
            .repair(&dirty, &rules, &BTreeSet::new())
            .unwrap();
        assert_eq!(outcome.repaired, dirty);
        assert!(outcome.repaired_cells.is_empty());
    }

    #[test]
    fn baseline_is_sensitive_to_typos_on_sparse_data() {
        // The paper's Figure 7a rationale: on the sparse CAR dataset the
        // model trained on the clean partition has little context to recover
        // a typo'd value (typos erase the evidence), while an in-domain
        // replacement error at least leaves the co-occurrence statistics
        // intact.  Verify the direction of that gap on the synthetic CAR
        // data: an all-replacement workload must not score worse than an
        // all-typo workload.
        use datagen::CarGenerator;
        let gen = CarGenerator::default().with_rows(600);
        let rules = CarGenerator::rules();
        let cleaner = HoloClean::new();

        let typos = gen.dirty(0.05, 0.0, 41);
        let typo_outcome = cleaner
            .repair(&typos.dirty, &rules, &typos.erroneous_cells())
            .unwrap();
        let typo_f1 = RepairEvaluation::evaluate(&typos, &typo_outcome.repaired).f1();

        let repl = gen.dirty(0.05, 1.0, 41);
        let repl_outcome = cleaner
            .repair(&repl.dirty, &rules, &repl.erroneous_cells())
            .unwrap();
        let repl_f1 = RepairEvaluation::evaluate(&repl, &repl_outcome.repaired).f1();

        assert!(
            repl_f1 + 0.05 >= typo_f1,
            "replacement errors ({repl_f1:.3}) should not be much harder than typos ({typo_f1:.3}) on sparse data"
        );
    }

    /// A rule set naming an attribute the table lacks is a typed error from
    /// both entry points: a two-column `HN,PN` table under `FD: CT -> ST`.
    #[test]
    fn a_rule_naming_a_missing_attribute_is_an_error() {
        let dirty = dataset::csv::parse_csv("HN,PN\nELIZA,2567688400\nBOAZ,2567688400\n").unwrap();
        let rules = rules::parse_rules("FD: CT -> ST").unwrap();
        let noisy = dirty.cells().map(|(cell, _)| cell).collect();
        let missing = UnknownAttribute {
            rule: rules::RuleId(0),
            attribute: "CT".into(),
        };
        let cleaner = HoloClean::new();
        assert_eq!(cleaner.repair(&dirty, &rules, &noisy).unwrap_err(), missing);
        assert_eq!(
            cleaner.repair_serial(&dirty, &rules, &noisy).unwrap_err(),
            missing
        );
    }

    /// The constraint penalty of single edits on Table 1 under r3
    /// (`HN="ELIZA", CT="BOAZ" -> PN="2567688400"`), and under a CFD whose
    /// forced constant no cell holds.
    #[test]
    fn constant_cfd_consequents_are_penalised() {
        let ds = sample_hospital_dataset();
        let id = |v: &str| ds.pool().lookup(v).unwrap();
        let cell =
            |t: usize, attr: &str| CellRef::new(TupleId(t), ds.schema().attr_id(attr).unwrap());
        let violations = |rule: &str, cell: CellRef, candidate: ValueId| {
            let rules = rules::parse_rules(rule).unwrap();
            let index = ConstraintIndex::build(&ds, &rules).unwrap();
            index.violations_with(&ds, &rules, cell, candidate)
        };
        let r3 = r#"CFD: HN="ELIZA", CT="BOAZ" -> PN="2567688400""#;
        // t5 keeps its phone number: no conflict.
        assert_eq!(violations(r3, cell(4, "PN"), id("2567688400")), 0);
        // t3's phone number on t5: t4 and t6 witness another result, and the
        // forced constant breaks.
        assert_eq!(violations(r3, cell(4, "PN"), id("2567638410")), 2);
        // t5 moved to DOTHAN leaves the pattern: t3 alone witnesses.
        assert_eq!(violations(r3, cell(4, "CT"), id("DOTHAN")), 1);
        // A forced constant absent from the pool breaks on every edit of a
        // matching tuple, while the grouped part finds no conflict.
        let absent = r#"CFD: HN="ELIZA", CT="BOAZ" -> PN="0000000000""#;
        assert_eq!(violations(absent, cell(4, "PN"), id("2567688400")), 1);
    }

    #[test]
    fn parallel_repair_matches_serial_byte_for_byte() {
        let gen = HaiGenerator::default().with_rows(300);
        let rules = HaiGenerator::rules();
        let dirty = gen.dirty(0.05, 0.5, 7);
        let cleaner = HoloClean::new();
        let parallel = cleaner
            .repair(&dirty.dirty, &rules, &dirty.erroneous_cells())
            .unwrap();
        let serial = cleaner
            .repair_serial(&dirty.dirty, &rules, &dirty.erroneous_cells())
            .unwrap();
        assert_eq!(parallel.repaired, serial.repaired);
        assert_eq!(parallel.repaired_cells, serial.repaired_cells);
    }

    #[test]
    fn repairs_improve_f1_on_injected_errors() {
        let gen = HaiGenerator::default().with_rows(400);
        let rules = HaiGenerator::rules();
        let dirty = gen.dirty(0.05, 0.5, 13);
        let outcome = HoloClean::new()
            .repair(&dirty.dirty, &rules, &dirty.erroneous_cells())
            .unwrap();
        let report = RepairEvaluation::evaluate(&dirty, &outcome.repaired);
        assert!(
            report.f1() > 0.3,
            "baseline should repair a fair share: {report}"
        );
    }
}
