//! The unified [`Engine`] abstraction: one front door over the batch,
//! incremental and distributed execution plans.
//!
//! Every driver consumes a dirty [`Dataset`] plus a [`RuleSet`] and produces
//! the same [`Report`] (repaired + deduplicated data, provenance, one merged
//! [`Timings`]) or the same [`crate::CleanError`].  Code that only cares
//! about *cleaning data* can hold a `&dyn Engine` and swap execution plans
//! freely:
//!
//! ```
//! use dataset::sample_hospital_dataset;
//! use mlnclean::{CleanConfig, Engine, IncrementalMlnClean, MlnClean};
//! use rules::sample_hospital_rules;
//!
//! let dirty = sample_hospital_dataset();
//! let rules = sample_hospital_rules();
//! let engines: [&dyn Engine; 2] = [
//!     &MlnClean::new(CleanConfig::default().with_tau(1)),
//!     &IncrementalMlnClean::new(CleanConfig::default().with_tau(1)).with_batch_rows(2),
//! ];
//! for engine in engines {
//!     let report = engine.run(&dirty, &rules).expect("rules match the schema");
//!     assert_eq!(report.deduplicated().len(), 2);
//! }
//! ```

use crate::agp::AgpRecord;
use crate::changeset::ChangeSet;
use crate::config::CleanConfig;
use crate::error::CleanError;
use crate::fscr::FscrRecord;
use crate::index::MlnIndex;
use crate::rsc::RscRecord;
use crate::session::CleaningSession;
use dataset::{Dataset, TupleId};
use rules::RuleSet;
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock timings of a cleaning run — one struct subsuming the historical
/// per-driver pair (`StageTimings` for the single-node pipeline,
/// `PhaseTimings` for the distributed one).
///
/// The six stage fields are filled by every driver.  For the distributed
/// driver they sum the per-worker stage clocks (workers run concurrently, so
/// the sum reads as aggregate worker time rather than elapsed wall time),
/// while the three coordinator fields — [`Timings::partition`],
/// [`Timings::weight_merge`], [`Timings::gather`] — are true wall clock and
/// stay zero on the single-node drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timings {
    /// MLN index construction (incl. incremental splices).
    pub index: Duration,
    /// Abnormal group processing.
    pub agp: Duration,
    /// Closed-form Eq. 3 weight assignment ([`crate::weights`]).
    pub weight_learning: Duration,
    /// Reliability-score cleaning.
    pub rsc: Duration,
    /// Fusion-score conflict resolution.
    pub fscr: Duration,
    /// Exact-duplicate removal (zero when deduplication is disabled).
    pub dedup: Duration,
    /// Data partitioning (distributed driver only).
    pub partition: Duration,
    /// Cross-partition Eq. 6 weight merging (batch distributed runner only:
    /// the streaming driver merges exact evidence and has no such phase).
    pub weight_merge: Duration,
    /// Gathering per-part repairs back into one dataset (distributed driver
    /// only).
    pub gather: Duration,
    /// Number of coordinator merge rounds accumulated into
    /// [`Timings::weight_merge`] and [`Timings::gather`]: the streaming
    /// distributed driver merges every K batches and bumps this per round
    /// (so per-round averages are derivable), the batch distributed driver
    /// performs exactly one merge, and the single-node drivers none.
    pub merge_rounds: usize,
}

mlnw::codec! { struct Timings { index, agp, weight_learning, rsc, fscr, dedup, partition, weight_merge, gather, merge_rounds } }

impl Timings {
    /// Total time across all stages and coordinator phases.
    pub fn total(&self) -> Duration {
        self.index
            + self.agp
            + self.weight_learning
            + self.rsc
            + self.fscr
            + self.dedup
            + self.partition
            + self.weight_merge
            + self.gather
    }
}

/// Distributed extras of a [`Report`]: how the rows were split across
/// workers, and how much cross-partition evidence the weight merge found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartitionReport {
    /// Global tuple ids of each partition, in worker order — the
    /// local-to-global mapping the provenance records were remapped with.
    pub parts: Vec<Vec<TupleId>>,
    /// Number of γs whose weight was adjusted with cross-partition evidence.
    pub shared_gammas: usize,
}

mlnw::codec! { struct PartitionReport { parts, shared_gammas } }

impl PartitionReport {
    /// Rows per partition, in worker order.
    pub fn sizes(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.len()).collect()
    }

    /// Largest part divided by smallest part — the skew factor the
    /// partitioner bounds.
    pub fn skew(&self) -> f64 {
        let sizes = self.sizes();
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        let min = sizes.iter().copied().min().unwrap_or(0).max(1) as f64;
        max / min
    }
}

/// The result of a cleaning run, shared by every [`Engine`].
///
/// Provenance records are always in **global** tuple coordinates — the
/// distributed driver remaps its per-part records before reporting, so
/// [`Report::agp`]/[`Report::rsc`]/[`Report::fscr`] read the same whichever
/// engine produced them.
#[derive(Debug, Clone)]
pub struct Report {
    /// The repaired dataset with one row per input tuple (use this for
    /// cell-level evaluation).
    pub repaired: Dataset,
    /// The repaired dataset after removing exact duplicates, or `None` when
    /// deduplication is disabled (access through [`Report::deduplicated`],
    /// which falls back to `repaired` without cloning).
    pub(crate) deduplicated: Option<Dataset>,
    /// The MLN index in its final (post-RSC) state, shared with the engine
    /// that produced it (`Arc` so an incremental session can hand out
    /// repeated outcome snapshots without cloning the index each time).
    /// `None` for the distributed driver, which keeps one index per
    /// partition.
    pub index: Option<Arc<MlnIndex>>,
    /// What AGP did (concatenated across partitions for the distributed
    /// driver, in worker order).
    pub agp: AgpRecord,
    /// What RSC did.
    pub rsc: RscRecord,
    /// What FSCR did.
    pub fscr: FscrRecord,
    /// Merged per-stage / per-phase wall-clock timings.
    pub timings: Timings,
    /// Partitioning details — `Some` only for the distributed driver.
    pub partitions: Option<PartitionReport>,
}

// A report is the frame a remote client of the cleaning service receives.
// `index` encodes through its `Arc` and is re-wrapped on decoding: sharing
// is a process property, not a wire one.
mlnw::codec! { struct Report { repaired, deduplicated, index, agp, rsc, fscr, timings, partitions } }

impl Report {
    /// Assemble a report — the constructor out-of-crate [`Engine`]
    /// implementations (e.g. the distributed driver) use.  Pass
    /// `deduplicated: None` when deduplication is disabled;
    /// [`Report::deduplicated`] then falls back to the repaired dataset.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        repaired: Dataset,
        deduplicated: Option<Dataset>,
        index: Option<Arc<MlnIndex>>,
        agp: AgpRecord,
        rsc: RscRecord,
        fscr: FscrRecord,
        timings: Timings,
        partitions: Option<PartitionReport>,
    ) -> Self {
        Report {
            repaired,
            deduplicated,
            index,
            agp,
            rsc,
            fscr,
            timings,
            partitions,
        }
    }

    /// The final output: the repaired dataset after exact-duplicate removal.
    /// When deduplication is disabled this is the repaired dataset itself (no
    /// copy is made).
    pub fn deduplicated(&self) -> &Dataset {
        self.deduplicated.as_ref().unwrap_or(&self.repaired)
    }

    /// Consume the report, keeping only the final (deduplicated) dataset.
    pub fn into_deduplicated(self) -> Dataset {
        self.deduplicated.unwrap_or(self.repaired)
    }

    /// The final cleaned index.
    ///
    /// # Panics
    /// Panics for reports of drivers that keep one index per partition (the
    /// distributed engine); check [`Report::index`] directly when the driver
    /// is not statically known.
    pub fn index(&self) -> &MlnIndex {
        self.index
            .as_ref()
            .expect("this driver keeps one index per partition; read Report::index instead")
    }
}

/// A cleaning execution plan: anything that can turn a dirty dataset and a
/// rule set into a [`Report`].
///
/// Implemented by [`crate::MlnClean`] (one-shot batch),
/// [`IncrementalMlnClean`] (micro-batch streaming through a
/// [`CleaningSession`]) and the distributed driver in the `distributed`
/// crate.
pub trait Engine {
    /// Short driver name for logs and experiment artifacts.
    fn name(&self) -> &'static str;

    /// Clean `dirty` against `rules`.
    fn run(&self, dirty: &Dataset, rules: &RuleSet) -> Result<Report, CleanError>;
}

/// The incremental driver behind the [`Engine`] front door: streams the
/// dataset through a [`CleaningSession`] in fixed-size micro-batches (each
/// one a typed [`ChangeSet`] insertion) and finishes the session.
///
/// By session/batch equivalence the result is byte-identical to
/// [`crate::MlnClean`] on the same input; what changes is the execution plan
/// (and, for a live stream, the ability to interleave updates and deletes —
/// see [`CleaningSession::apply`]).
#[derive(Debug, Clone)]
pub struct IncrementalMlnClean {
    config: CleanConfig,
    batch_rows: usize,
}

impl Default for IncrementalMlnClean {
    /// The default configuration with the default micro-batch size — NOT a
    /// zeroed `batch_rows` (which `run` would clamp to one-row ingests).
    fn default() -> Self {
        IncrementalMlnClean::new(CleanConfig::default())
    }
}

impl IncrementalMlnClean {
    /// Create an incremental driver with the given configuration and the
    /// default micro-batch size (128 rows).
    pub fn new(config: CleanConfig) -> Self {
        IncrementalMlnClean {
            config,
            batch_rows: 128,
        }
    }

    /// Set the micro-batch size (clamped to at least one row).
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CleanConfig {
        &self.config
    }
}

impl Engine for IncrementalMlnClean {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn run(&self, dirty: &Dataset, rules: &RuleSet) -> Result<Report, CleanError> {
        let mut session =
            CleaningSession::new(self.config.clone(), dirty.schema().clone(), rules.clone())?;
        for changes in ChangeSet::insert_batches(dirty, self.batch_rows) {
            session.apply(changes)?;
        }
        Ok(session.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MlnClean;
    use dataset::{csv, sample_hospital_dataset};
    use rules::sample_hospital_rules;

    #[test]
    fn batch_and_incremental_engines_agree_byte_for_byte() {
        let dirty = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let config = CleanConfig::default().with_tau(1);
        let batch = MlnClean::new(config.clone()).run(&dirty, &rules).unwrap();
        let incremental = IncrementalMlnClean::new(config)
            .with_batch_rows(2)
            .run(&dirty, &rules)
            .unwrap();
        assert_eq!(
            csv::to_csv(&batch.repaired),
            csv::to_csv(&incremental.repaired)
        );
        assert_eq!(batch.agp, incremental.agp);
        assert_eq!(batch.rsc, incremental.rsc);
        assert_eq!(batch.fscr, incremental.fscr);
        // Engine names identify the drivers.
        assert_eq!(MlnClean::default().name(), "batch");
        assert_eq!(IncrementalMlnClean::default().name(), "incremental");
    }

    #[test]
    fn engine_errors_use_the_unified_vocabulary() {
        let dirty = sample_hospital_dataset();
        let err = IncrementalMlnClean::new(CleanConfig::default())
            .run(&dirty, &RuleSet::default())
            .unwrap_err();
        assert_eq!(err, CleanError::NoRules);
    }

    #[test]
    fn timings_total_sums_stage_and_coordinator_phases() {
        let t = Timings {
            index: Duration::from_secs(1),
            partition: Duration::from_secs(2),
            gather: Duration::from_secs(3),
            merge_rounds: 4, // a count, not a duration: never part of total()
            ..Timings::default()
        };
        assert_eq!(t.total(), Duration::from_secs(6));
    }

    #[test]
    fn partition_report_sizes_and_skew() {
        // Skewed partitions: 3 rows vs 1 row.
        let skewed = PartitionReport {
            parts: vec![vec![TupleId(0), TupleId(2), TupleId(3)], vec![TupleId(1)]],
            shared_gammas: 2,
        };
        assert_eq!(skewed.sizes(), vec![3, 1]);
        assert!((skewed.skew() - 3.0).abs() < f64::EPSILON);

        // An empty partition must not divide by zero.
        let with_empty = PartitionReport {
            parts: vec![vec![TupleId(0), TupleId(1)], Vec::new()],
            shared_gammas: 0,
        };
        assert_eq!(with_empty.sizes(), vec![2, 0]);
        assert!((with_empty.skew() - 2.0).abs() < f64::EPSILON);

        // No partitions at all: sizes empty, skew 0.
        let empty = PartitionReport::default();
        assert!(empty.sizes().is_empty());
        assert!(empty.skew().abs() < f64::EPSILON);

        // Perfectly balanced partitions have skew 1.
        let balanced = PartitionReport {
            parts: vec![vec![TupleId(0)], vec![TupleId(1)]],
            shared_gammas: 1,
        };
        assert!((balanced.skew() - 1.0).abs() < f64::EPSILON);
    }
}
