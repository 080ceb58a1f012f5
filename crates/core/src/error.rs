//! The one error vocabulary of the cleaning engines.
//!
//! Historically every front door grew its own enum — `CleaningError` on the
//! batch pipeline, `IngestError` on the incremental session — and the
//! distributed driver borrowed the batch one.  [`CleanError`] replaces all of
//! them: [`crate::MlnClean`], every [`crate::CleaningSession`] entry point
//! and the distributed coordinator return it, so callers match one
//! enum no matter which execution plan produced the failure.

use crate::index::IndexError;
use dataset::{ArityMismatch, AttrId, SchemaMismatch, TupleId, ValueId};
use std::fmt;

/// Any error a cleaning engine or session can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CleanError {
    /// The MLN index cannot be built — the rule set does not match the
    /// dataset schema (a rule references an unknown attribute) — or was
    /// asked to remove a tuple it does not hold.
    Index(IndexError),
    /// An ingested row's arity does not match the session schema.
    Arity(ArityMismatch),
    /// An ingested dataset's schema differs from the session schema.
    Schema(SchemaMismatch),
    /// The rule set is empty — there is nothing to clean against.
    NoRules,
    /// A mutation referenced a tuple that does not exist (at the point of the
    /// change-set sequence where the mutation applies).
    UnknownTuple {
        /// The offending tuple id.
        tuple: TupleId,
        /// Number of rows the target held at that point.
        rows: usize,
    },
    /// A mutation referenced an attribute outside the schema.
    UnknownAttribute {
        /// The offending attribute id.
        attr: AttrId,
        /// The schema arity.
        arity: usize,
    },
    /// An interned slice named a value id past its store's pool (the
    /// slice's tail appended).
    UnknownValue {
        /// The offending value id.
        value: ValueId,
        /// Number of values the pool would hold with the tail appended.
        values: usize,
    },
    /// An interned slice's tail re-ships a value its store's pool already
    /// holds (or lists one value twice): the sender's view of the pool
    /// disagrees with the store's.
    KnownValue {
        /// The value the tail should not have held.
        value: String,
    },
    /// The distributed driver was configured with an unusable partitioning
    /// (zero partitions).
    Partition {
        /// The configured worker count.
        workers: usize,
    },
    /// A count that must be at least 1 is zero: the streaming coordinator's
    /// merge cadence (`merge_every`).
    Zero {
        /// The offending setting.
        field: &'static str,
    },
    /// A provenance record list has no names to resolve its value ids
    /// through: it was not taken from a [`crate::Report`], which names its
    /// records (see [`crate::provenance`]).
    UnnamedRecords,
    /// A simulated network's fault schedule cannot run: a probability
    /// outside `[0, 1]` or NaN, a delay range whose minimum exceeds its
    /// maximum, or a maximum delay whose reorder jitter overflows the clock.
    FaultSchedule {
        /// The offending field: `loss`, `duplicate`, `reorder` or `delay`.
        field: &'static str,
        /// What the field must satisfy.
        requirement: &'static str,
    },
}

impl fmt::Display for CleanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CleanError::Index(e) => write!(f, "cannot build or maintain the MLN index: {e}"),
            CleanError::Arity(e) => write!(f, "cannot apply the change set: {e}"),
            CleanError::Schema(e) => write!(f, "cannot apply the change set: {e}"),
            CleanError::NoRules => write!(f, "the rule set is empty"),
            CleanError::UnknownTuple { tuple, rows } => {
                write!(
                    f,
                    "mutation references tuple {tuple} but the data has {rows} rows at that point"
                )
            }
            CleanError::UnknownAttribute { attr, arity } => {
                write!(
                    f,
                    "mutation references attribute {attr:?} but the schema has {arity} attributes"
                )
            }
            CleanError::UnknownValue { value, values } => {
                write!(
                    f,
                    "slice references value {value} but the pool holds {values} values"
                )
            }
            CleanError::KnownValue { value } => {
                write!(
                    f,
                    "slice re-ships value {value:?}, which the pool already holds"
                )
            }
            CleanError::Partition { workers } => {
                write!(f, "cannot partition the data over {workers} workers")
            }
            CleanError::Zero { field } => write!(f, "`{field}` must be at least 1"),
            CleanError::UnnamedRecords => write!(
                f,
                "the provenance records were not taken from a report: no pool names their values"
            ),
            CleanError::FaultSchedule { field, requirement } => {
                write!(f, "the fault schedule's `{field}` {requirement}")
            }
        }
    }
}

impl std::error::Error for CleanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CleanError::Index(e) => Some(e),
            CleanError::Arity(e) => Some(e),
            CleanError::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IndexError> for CleanError {
    fn from(e: IndexError) -> Self {
        CleanError::Index(e)
    }
}

impl From<ArityMismatch> for CleanError {
    fn from(e: ArityMismatch) -> Self {
        CleanError::Arity(e)
    }
}

impl From<SchemaMismatch> for CleanError {
    fn from(e: SchemaMismatch) -> Self {
        CleanError::Schema(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    /// One instance of every variant — keep in sync with the enum so the
    /// Display/source tests below stay exhaustive.
    fn every_variant() -> Vec<CleanError> {
        vec![
            CleanError::Index(IndexError::UnknownAttribute(rules::UnknownAttribute {
                rule: rules::RuleId(0),
                attribute: "X".into(),
            })),
            CleanError::Arity(ArityMismatch {
                expected: 3,
                actual: 2,
            }),
            CleanError::Schema(SchemaMismatch),
            CleanError::NoRules,
            CleanError::UnknownTuple {
                tuple: TupleId(7),
                rows: 3,
            },
            CleanError::UnknownAttribute {
                attr: AttrId(9),
                arity: 4,
            },
            CleanError::UnknownValue {
                value: ValueId(12),
                values: 5,
            },
            CleanError::KnownValue {
                value: "BOAZ".into(),
            },
            CleanError::Partition { workers: 0 },
            CleanError::Zero {
                field: "merge_every",
            },
            CleanError::UnnamedRecords,
            CleanError::FaultSchedule {
                field: "loss",
                requirement: "must be a probability in [0, 1]",
            },
        ]
    }

    #[test]
    fn displays_cover_every_variant() {
        // Every Display names the offending detail, not just a static label.
        let expected_fragments = [
            "X",
            "schema has 3 attributes",
            "different schemas",
            "empty",
            "t8", // TupleId(7) renders 1-based, like the paper's tuples
            "AttrId(9)",
            "value v12 but the pool holds 5",
            "\"BOAZ\"",
            "0 workers",
            "`merge_every` must be at least 1",
            "not taken from a report",
            "`loss` must be a probability",
        ];
        let variants = every_variant();
        assert_eq!(
            variants.len(),
            expected_fragments.len(),
            "a variant was added without a Display expectation (zip would \
             silently skip it)"
        );
        for (e, fragment) in variants.into_iter().zip(expected_fragments) {
            let rendered = e.to_string();
            assert!(!rendered.is_empty());
            assert!(
                rendered.contains(fragment),
                "{rendered:?} should mention {fragment:?}"
            );
        }
    }

    #[test]
    fn sources_chain_to_the_underlying_errors() {
        // Exactly the wrapper variants chain a source; the leaf variants
        // are self-contained.
        for e in every_variant() {
            match &e {
                CleanError::Index(_) | CleanError::Arity(_) | CleanError::Schema(_) => {
                    let source = e.source().unwrap_or_else(|| {
                        panic!("{e} must chain its underlying error");
                    });
                    // The chained source renders on its own, too.
                    assert!(!source.to_string().is_empty());
                }
                _ => assert!(e.source().is_none(), "{e} is a leaf variant"),
            }
        }
    }

    #[test]
    fn from_conversions_pick_the_right_variant() {
        assert!(matches!(
            CleanError::from(SchemaMismatch),
            CleanError::Schema(_)
        ));
        let idx = IndexError::UnknownAttribute(rules::UnknownAttribute {
            rule: rules::RuleId(1),
            attribute: "Z".into(),
        });
        assert!(matches!(CleanError::from(idx), CleanError::Index(_)));
    }
}
