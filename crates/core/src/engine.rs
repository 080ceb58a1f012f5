//! What every execution plan returns: one [`Report`] (repaired and
//! deduplicated data, provenance, one merged [`Timings`]) and, from the
//! distributed coordinator, a [`PartitionReport`].
//!
//! The batch [`crate::MlnClean`], a [`crate::CleaningSession`] fed
//! micro-batches and the distributed coordinator (crate `distributed`) are
//! three plans for the same computation, byte-identical on the same rows:
//!
//! ```
//! use dataset::sample_hospital_dataset;
//! use mlnclean::{ChangeSet, CleanConfig, CleaningSession, MlnClean};
//! use rules::sample_hospital_rules;
//!
//! let (dirty, rules) = (sample_hospital_dataset(), sample_hospital_rules());
//! let config = CleanConfig::default().with_tau(1);
//! let batch = MlnClean::new(config.clone()).clean(&dirty, &rules).unwrap();
//! let mut session = CleaningSession::new(config, dirty.schema().clone(), rules).unwrap();
//! for changes in ChangeSet::insert_batches(&dirty, 2) {
//!     session.apply(changes).unwrap();
//! }
//! let streamed = session.finish();
//! assert_eq!(streamed.repaired, batch.repaired);
//! assert_eq!(streamed.deduplicated().len(), 2);
//! ```

use crate::agp::AgpRecord;
use crate::fscr::FscrRecord;
use crate::index::MlnIndex;
use crate::provenance::Names;
use crate::rsc::RscRecord;
use dataset::{Dataset, TupleId};
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock timings of a cleaning run — one struct subsuming the historical
/// per-driver pair (`StageTimings` for the single-node pipeline,
/// `PhaseTimings` for the distributed one).
///
/// The six stage fields are filled by every driver.  For the distributed
/// driver [`Timings::index`] sums the partitions' ingest clocks (partitions
/// run concurrently, so it reads as aggregate partition time rather than
/// elapsed wall time), while the coordinator fields — [`Timings::partition`]
/// and [`Timings::gather`] — are true wall clock and stay zero on the
/// single-node drivers.
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
    /// Exact-duplicate removal.
    pub dedup: Duration,
    /// Routing change sets and the partitions' ingest, as the coordinator
    /// waits for it (distributed driver only).
    pub partition: Duration,
    /// Fetching and merging the partitions' per-block evidence in merge
    /// rounds (distributed driver only).
    pub gather: Duration,
    /// Number of coordinator merge rounds accumulated into
    /// [`Timings::gather`]: the distributed driver merges every K batches
    /// and bumps this per round (so per-round averages are derivable); the
    /// single-node drivers perform none.
    pub merge_rounds: usize,
}

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
            + self.gather
    }
}

/// Distributed extras of a [`Report`]: how the rows were split across
/// partitions, and how much cross-partition evidence the merge found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartitionReport {
    /// Global tuple ids of each partition, in partition order — the
    /// local-to-global mapping of the partitions' rows.
    pub parts: Vec<Vec<TupleId>>,
    /// Number of γs whose merged support drew on more than one partition.
    pub shared_gammas: usize,
}

impl PartitionReport {
    /// Rows per partition, in partition order.
    pub fn sizes(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.len()).collect()
    }

    /// Largest part divided by smallest part — how unevenly the row hash
    /// spread the rows.
    pub fn skew(&self) -> f64 {
        let sizes = self.sizes();
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        let min = sizes.iter().copied().min().unwrap_or(0).max(1) as f64;
        max / min
    }
}

/// The result of a cleaning run, shared by every execution plan.
///
/// Provenance records are always in **global** tuple coordinates — the
/// distributed driver cleans merged global blocks, so
/// [`Report::agp`]/[`Report::rsc`]/[`Report::fscr`] read the same whichever
/// engine produced them.  They hold value and attribute ids, named by the
/// cleaned index's pool and the repaired rows' schema
/// ([`crate::provenance`]): their text and equality do not depend on how an
/// engine numbered its values.
#[derive(Debug, Clone)]
pub struct Report {
    /// The repaired dataset with one row per input tuple (use this for
    /// cell-level evaluation).
    pub repaired: Dataset,
    /// The repaired dataset after removing exact duplicates.  Every engine
    /// fills it; `None` comes only from a [`Report::new`] caller that passes
    /// none (access through [`Report::deduplicated`], which then falls back
    /// to `repaired` without cloning).
    pub(crate) deduplicated: Option<Dataset>,
    /// The MLN index in its final (post-RSC) state, shared with the engine
    /// that produced it (`Arc` so an incremental session can hand out
    /// repeated outcome snapshots without cloning the index each time).
    /// Every engine of the workspace fills it; `None` comes only from a
    /// [`Report::new`] caller that passes none.
    pub index: Option<Arc<MlnIndex>>,
    /// What AGP did.
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

impl Report {
    /// Assemble a report from its parts — the constructor out-of-crate
    /// callers (the repo benchmark's per-layer probe) use.  With
    /// `deduplicated: None`, [`Report::deduplicated`] falls back to the
    /// repaired dataset.
    /// The records' ids are named by `index`'s pool (`repaired`'s without
    /// one) and `repaired`'s schema.
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
        let mut report = Report {
            repaired,
            deduplicated,
            index,
            agp,
            rsc,
            fscr,
            timings,
            partitions,
        };
        report.name_records();
        report
    }

    /// Name every record list by the cleaned index's pool (the repaired
    /// rows' when there is no index) and the repaired rows' schema.
    pub(crate) fn name_records(&mut self) {
        let pool = self
            .index
            .as_ref()
            .map_or(self.repaired.pool(), |i| i.pool());
        let names = Arc::new(Names::new(pool.clone(), self.repaired.schema().clone()));
        self.agp.merges.attach(&names);
        self.rsc.repairs.attach(&names);
        self.fscr.outcomes.attach(&names);
        self.fscr.changes.attach(&names);
    }

    /// The final output: the repaired dataset after exact-duplicate removal
    /// (the repaired dataset itself, not a copy, in a report assembled
    /// without one).
    pub fn deduplicated(&self) -> &Dataset {
        self.deduplicated.as_ref().unwrap_or(&self.repaired)
    }

    /// The final cleaned index.
    ///
    /// # Panics
    /// Panics for a report assembled by [`Report::new`] without an index;
    /// every engine of the workspace fills one.
    pub fn index(&self) -> &MlnIndex {
        self.index
            .as_ref()
            .expect("every engine reports its cleaned index")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChangeSet, CleanConfig, CleanError, CleaningSession, MlnClean};
    use dataset::{csv, sample_hospital_dataset};
    use rules::{sample_hospital_rules, RuleSet};

    #[test]
    fn batch_and_incremental_engines_agree_byte_for_byte() {
        let dirty = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let config = CleanConfig::default().with_tau(1);
        let batch = MlnClean::new(config.clone()).clean(&dirty, &rules).unwrap();
        let mut session = CleaningSession::new(config, dirty.schema().clone(), rules).unwrap();
        for changes in ChangeSet::insert_batches(&dirty, 2) {
            session.apply(changes).unwrap();
        }
        let incremental = session.finish();
        assert_eq!(
            csv::to_csv(&batch.repaired),
            csv::to_csv(&incremental.repaired)
        );
        assert_eq!(batch.agp, incremental.agp);
        assert_eq!(batch.rsc, incremental.rsc);
        assert_eq!(batch.fscr, incremental.fscr);
    }

    #[test]
    fn engine_errors_use_the_unified_vocabulary() {
        let dirty = sample_hospital_dataset();
        let err = MlnClean::new(CleanConfig::default())
            .clean(&dirty, &RuleSet::default())
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
