//! Reproducible error injection following the paper's evaluation protocol
//! (Section 7.1):
//!
//! * errors are injected on attributes related to the integrity constraints;
//! * the error rate is the fraction of erroneous attribute values over all
//!   attribute values (cells);
//! * two instance-level error types are injected: **typos** (a random letter
//!   of the value is deleted) and **replacement errors** (the value is
//!   replaced with another value drawn from the same attribute domain);
//! * by default errors are split 50/50 between the two types; the
//!   replacement-error ratio `Rret` is configurable (Figure 7 sweeps it from
//!   0 to 100%).

use crate::cell::CellRef;
use crate::dataset::Dataset;
use crate::rng::Rng;
use crate::schema::AttrId;
use std::collections::BTreeSet;

/// The kind of an injected instance-level error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorType {
    /// A random character was removed from the value (a "misprint").
    Typo,
    /// The value was replaced with a different value from the same attribute
    /// domain.
    Replacement,
}

/// One injected error, with full provenance so evaluation can compute exact
/// precision/recall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedError {
    /// Which cell was corrupted.
    pub cell: CellRef,
    /// How it was corrupted.
    pub error_type: ErrorType,
    /// The value before corruption (the ground truth).
    pub original: String,
    /// The value after corruption.
    pub dirty: String,
}

/// Specification of an injection run.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSpec {
    /// Fraction of *eligible* cells to corrupt, in `[0, 1]`.  The paper
    /// defines the error rate over attribute values of the rule-related
    /// attributes; eligible cells are those in [`ErrorSpec::attributes`].
    pub error_rate: f64,
    /// Fraction of injected errors that are replacement errors (the paper's
    /// `Rret`); the remainder are typos.  Default `0.5`.
    pub replacement_ratio: f64,
    /// Attributes eligible for corruption.  Empty means "all attributes".
    pub attributes: Vec<AttrId>,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
}

impl ErrorSpec {
    /// A 5% error rate with the paper's default 50/50 typo/replacement split.
    pub fn new(error_rate: f64, seed: u64) -> Self {
        ErrorSpec {
            error_rate,
            replacement_ratio: 0.5,
            attributes: Vec::new(),
            seed,
        }
    }

    /// Restrict injection to the given attributes (the rule-related ones).
    pub fn on_attributes(mut self, attributes: Vec<AttrId>) -> Self {
        self.attributes = attributes;
        self
    }

    /// Set the replacement-error ratio `Rret`.
    pub fn with_replacement_ratio(mut self, ratio: f64) -> Self {
        self.replacement_ratio = ratio;
        self
    }
}

/// A dirty dataset paired with its ground truth and the exact set of injected
/// errors.
#[derive(Debug, Clone)]
pub struct DirtyDataset {
    /// The corrupted dataset handed to a cleaner.
    pub dirty: Dataset,
    /// The clean dataset the corruption started from.
    pub clean: Dataset,
    /// Every injected error, in injection order.
    pub errors: Vec<InjectedError>,
}

impl DirtyDataset {
    /// The set of cells that were corrupted.
    pub fn erroneous_cells(&self) -> BTreeSet<CellRef> {
        self.errors.iter().map(|e| e.cell).collect()
    }

    /// Number of injected errors.
    pub fn error_count(&self) -> usize {
        self.errors.len()
    }

    /// The achieved error rate over the whole dataset (all cells).
    pub fn overall_error_rate(&self) -> f64 {
        if self.dirty.cell_count() == 0 {
            0.0
        } else {
            self.errors.len() as f64 / self.dirty.cell_count() as f64
        }
    }
}

/// Seeded error injector.
#[derive(Debug, Clone)]
pub struct ErrorInjector {
    spec: ErrorSpec,
}

impl ErrorInjector {
    /// Create an injector from a spec.
    pub fn new(spec: ErrorSpec) -> Self {
        ErrorInjector { spec }
    }

    /// Corrupt `clean` according to the spec and return the dirty dataset
    /// together with full error provenance.
    pub fn inject(&self, clean: &Dataset) -> DirtyDataset {
        let mut rng = Rng::seeded(self.spec.seed);
        let mut dirty = clean.clone();

        let attributes: Vec<AttrId> = if self.spec.attributes.is_empty() {
            clean.schema().attr_ids().collect()
        } else {
            self.spec.attributes.clone()
        };

        // Candidate cells: every (tuple, eligible attribute) pair.
        let mut candidates: Vec<CellRef> = clean
            .tuple_ids()
            .flat_map(|t| attributes.iter().map(move |&a| CellRef::new(t, a)))
            .collect();
        rng.shuffle(&mut candidates);

        let target =
            ((candidates.len() as f64) * self.spec.error_rate.clamp(0.0, 1.0)).round() as usize;
        let mut errors = Vec::with_capacity(target);

        // Pre-compute attribute domains from the clean data so replacement
        // errors always draw a *different* value of the same domain.
        let domains: Vec<Vec<String>> = clean
            .schema()
            .attr_ids()
            .map(|a| clean.domain(a).into_iter().collect())
            .collect();

        for cell in candidates.into_iter().take(target) {
            let original = clean.value(cell.tuple, cell.attr).to_string();
            let make_replacement = rng.chance(self.spec.replacement_ratio);
            let (error_type, corrupted) = if make_replacement {
                match replacement_of(&original, &domains[cell.attr.index()], &mut rng) {
                    Some(v) => (ErrorType::Replacement, v),
                    // Domain has a single value: fall back to a typo so the
                    // requested error budget is still spent.
                    None => (ErrorType::Typo, typo_of(&original, &mut rng)),
                }
            } else {
                (ErrorType::Typo, typo_of(&original, &mut rng))
            };
            if corrupted == original {
                // Cannot corrupt this cell (e.g. empty value with a
                // single-value domain); skip it rather than record a no-op.
                continue;
            }
            dirty.set_value(cell.tuple, cell.attr, corrupted.clone());
            errors.push(InjectedError {
                cell,
                error_type,
                original,
                dirty: corrupted,
            });
        }

        DirtyDataset {
            dirty,
            clean: clean.clone(),
            errors,
        }
    }
}

/// Delete one random character of `value` ("we randomly delete any letter of
/// an attribute value to construct a typo").  Empty values are returned
/// unchanged.
fn typo_of(value: &str, rng: &mut Rng) -> String {
    let chars: Vec<char> = value.chars().collect();
    if chars.is_empty() {
        return value.to_string();
    }
    let drop = rng.below(chars.len());
    chars
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != drop)
        .map(|(_, c)| *c)
        .collect()
}

/// Pick a different value from the same domain, or `None` if there is none.
fn replacement_of(value: &str, domain: &[String], rng: &mut Rng) -> Option<String> {
    let others: Vec<&String> = domain.iter().filter(|v| v.as_str() != value).collect();
    rng.pick(&others).map(|v| (*v).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use proptest::prelude::*;

    fn big_dataset(rows: usize) -> Dataset {
        let schema = Schema::new(&["city", "state", "zip"]);
        let cities = ["DOTHAN", "BOAZ", "HUNTSVILLE", "MOBILE", "AUBURN"];
        let states = ["AL", "AK", "AZ", "AR", "CA"];
        let mut ds = Dataset::new(schema);
        for i in 0..rows {
            ds.push_row(vec![
                cities[i % cities.len()].to_string(),
                states[i % states.len()].to_string(),
                format!("{:05}", 10000 + i % 50),
            ])
            .unwrap();
        }
        ds
    }

    #[test]
    fn injection_hits_requested_rate() {
        let clean = big_dataset(400);
        let spec = ErrorSpec::new(0.10, 7);
        let dirty = ErrorInjector::new(spec).inject(&clean);
        let expected = (clean.cell_count() as f64 * 0.10).round() as usize;
        // A handful of cells can be skipped when corruption is impossible,
        // but the bulk of the budget must be spent.
        assert!(
            dirty.error_count() >= expected * 9 / 10,
            "{}",
            dirty.error_count()
        );
        assert!(dirty.error_count() <= expected);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let clean = big_dataset(100);
        let a = ErrorInjector::new(ErrorSpec::new(0.2, 42)).inject(&clean);
        let b = ErrorInjector::new(ErrorSpec::new(0.2, 42)).inject(&clean);
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.errors, b.errors);
        let c = ErrorInjector::new(ErrorSpec::new(0.2, 43)).inject(&clean);
        assert_ne!(a.dirty, c.dirty);
    }

    #[test]
    fn replacement_ratio_extremes() {
        let clean = big_dataset(300);
        let all_typos =
            ErrorInjector::new(ErrorSpec::new(0.1, 1).with_replacement_ratio(0.0)).inject(&clean);
        assert!(all_typos
            .errors
            .iter()
            .all(|e| e.error_type == ErrorType::Typo));

        let all_repl =
            ErrorInjector::new(ErrorSpec::new(0.1, 1).with_replacement_ratio(1.0)).inject(&clean);
        assert!(all_repl
            .errors
            .iter()
            .all(|e| e.error_type == ErrorType::Replacement));
    }

    #[test]
    fn attribute_restriction_is_respected() {
        let clean = big_dataset(200);
        let only_city = vec![AttrId(0)];
        let dirty = ErrorInjector::new(ErrorSpec::new(0.3, 5).on_attributes(only_city.clone()))
            .inject(&clean);
        assert!(!dirty.errors.is_empty());
        assert!(dirty.errors.iter().all(|e| e.cell.attr == AttrId(0)));
    }

    #[test]
    fn dirty_differs_from_clean_exactly_at_injected_cells() {
        let clean = big_dataset(150);
        let dirty = ErrorInjector::new(ErrorSpec::new(0.15, 9)).inject(&clean);
        let diff: BTreeSet<CellRef> = dirty.dirty.diff_cells(&clean).into_iter().collect();
        assert_eq!(diff, dirty.erroneous_cells());
    }

    #[test]
    fn typos_shorten_by_one_character() {
        let clean = big_dataset(200);
        let dirty =
            ErrorInjector::new(ErrorSpec::new(0.2, 11).with_replacement_ratio(0.0)).inject(&clean);
        for e in &dirty.errors {
            assert_eq!(
                e.dirty.chars().count() + 1,
                e.original.chars().count(),
                "{e:?}"
            );
        }
    }

    #[test]
    fn replacements_stay_in_domain() {
        let clean = big_dataset(200);
        let dirty =
            ErrorInjector::new(ErrorSpec::new(0.2, 13).with_replacement_ratio(1.0)).inject(&clean);
        for e in &dirty.errors {
            let domain = clean.domain(e.cell.attr);
            assert!(domain.contains(&e.dirty), "{e:?} not in domain");
            assert_ne!(e.dirty, e.original);
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let clean = big_dataset(50);
        let dirty = ErrorInjector::new(ErrorSpec::new(0.0, 3)).inject(&clean);
        assert_eq!(dirty.error_count(), 0);
        assert_eq!(dirty.dirty, clean);
    }

    proptest! {
        #[test]
        fn error_rate_never_exceeds_requested(rate in 0.0f64..0.5, seed in 0u64..1000) {
            let clean = big_dataset(120);
            let dirty = ErrorInjector::new(ErrorSpec::new(rate, seed)).inject(&clean);
            let budget = (clean.cell_count() as f64 * rate).round() as usize;
            prop_assert!(dirty.error_count() <= budget);
        }

        #[test]
        fn ground_truth_is_never_mutated(rate in 0.0f64..0.4, seed in 0u64..500) {
            let clean = big_dataset(80);
            let dirty = ErrorInjector::new(ErrorSpec::new(rate, seed)).inject(&clean);
            prop_assert_eq!(&dirty.clean, &clean);
        }
    }
}
