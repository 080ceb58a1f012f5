//! **MLNClean** — a hybrid data-cleaning framework on top of Markov logic
//! networks, reproducing Gao et al., *A Hybrid Data Cleaning Framework Using
//! Markov Logic Networks* (ICDE 2021 / arXiv:1903.05826).
//!
//! MLNClean combines qualitative cleaning (integrity constraints: FDs, CFDs,
//! DCs) with quantitative cleaning (closed-form Eq. 3 MLN weights, see
//! [`weights`]) and proceeds in two stages over a two-layer **MLN index**:
//!
//! 1. **Stage I — clean multiple data versions**, one version per rule/block:
//!    * [`agp`] — Abnormal Group Processing merges suspiciously small groups
//!      into their nearest normal group;
//!    * [`rsc`] — Reliability-Score-based Cleaning keeps, within each group,
//!      the piece of data (γ) with the highest reliability score and rewrites
//!      the others.
//! 2. **Stage II — derive the unified clean data**:
//!    * [`fscr`] — Fusion-Score-based Conflict Resolution fuses, per tuple,
//!      the per-block γs into the most probable consistent combination, then
//!      exact duplicates are removed.
//!
//! # Quick start
//!
//! ```
//! use dataset::sample_hospital_dataset;
//! use rules::sample_hospital_rules;
//! use mlnclean::{CleanConfig, MlnClean};
//!
//! let dirty = sample_hospital_dataset();
//! let rules = sample_hospital_rules();
//! let cleaner = MlnClean::new(CleanConfig::default().with_tau(1));
//! let outcome = cleaner.clean(&dirty, &rules).expect("rules match the schema");
//!
//! // t4's state is repaired from AK to AL, as in the paper's Example 2.
//! let st = dirty.schema().attr_id("ST").unwrap();
//! assert_eq!(outcome.repaired.value(dataset::TupleId(3), st), "AL");
//! // After deduplication only two distinct hospital entities remain.
//! assert_eq!(outcome.deduplicated().len(), 2);
//! ```
//!
//! # Streaming / incremental cleaning
//!
//! [`MlnClean::clean`] is the one-batch special case of the incremental
//! engine.  For live data, open a [`CleaningSession`] and feed it typed
//! [`ChangeSet`]s — inserts, cell updates and row deletions; every
//! [`CleaningSession::outcome`] re-cleans only the blocks the mutations
//! since the last call touched, yet is byte-identical to a batch run over
//! the net surviving rows.  Underneath sit the two stage drivers the
//! distributed streaming coordinator is built from as well: [`StageOne`]
//! re-cleans the affected groups of the dirty blocks, [`StageTwo`] re-fuses
//! the tuples that invalidated and derives the repaired data from the
//! session's one dataset:
//!
//! ```
//! use dataset::{sample_hospital_dataset, TupleId};
//! use rules::sample_hospital_rules;
//! use mlnclean::{ChangeSet, CleanConfig, CleaningSession};
//!
//! let dirty = sample_hospital_dataset();
//! let config = CleanConfig::default().with_tau(1);
//! let mut session =
//!     CleaningSession::new(config, dirty.schema().clone(), sample_hospital_rules()).unwrap();
//! // Ingest the six sample rows in micro-batches of two.
//! for chunk in (0..dirty.len()).step_by(2) {
//!     let rows: Vec<Vec<String>> = (chunk..(chunk + 2).min(dirty.len()))
//!         .map(|t| dirty.tuple(TupleId(t)).owned_values())
//!         .collect();
//!     let report = session.apply(ChangeSet::inserting(rows)).unwrap();
//!     assert!(report.dirty_blocks <= report.total_blocks);
//! }
//! // A later change set can mix kinds: fix a cell, drop a row.
//! let st = dirty.schema().attr_id("ST").unwrap();
//! session
//!     .apply(ChangeSet::new().update(TupleId(3), st, "AL").delete(TupleId(5)))
//!     .unwrap();
//! let outcome = session.finish();
//! assert_eq!(outcome.deduplicated().len(), 2);
//! ```
//!
//! # Engines
//!
//! The batch pipeline, the micro-batching [`IncrementalMlnClean`] and the
//! distributed streaming engine (crate `distributed`) are three execution
//! plans for the same computation, byte-identical on the same rows.  The
//! [`Engine`] trait is their shared front door: `run(&Dataset, &RuleSet) ->
//! Result<Report, CleanError>`, with one [`Report`] (repaired/deduplicated
//! data + merged [`Timings`]) and one [`CleanError`] across all drivers.

#![deny(missing_docs)]

pub mod agp;
pub mod cache;
pub mod changeset;
pub mod config;
pub mod engine;
pub mod error;
pub mod evaluation;
pub mod fscr;
pub mod gamma;
pub mod index;
pub mod pipeline;
pub mod rsc;
pub mod session;
#[doc(hidden)]
pub mod stage;
pub mod stage_one;
pub mod stage_two;
pub mod store;
pub mod weights;

pub use agp::{AbnormalGroupProcessor, AgpMerge, AgpRecord};
pub use cache::{CacheStats, DistanceCache};
pub use changeset::{ChangeSet, DeferredDeletes, IdMutation, InternedSlice, Mutation};
pub use config::CleanConfig;
pub use engine::{Engine, IncrementalMlnClean, PartitionReport, Report, Timings};
pub use error::CleanError;
pub use evaluation::{evaluate_agp, evaluate_fscr, evaluate_rsc, ComponentEvaluation};
pub use fscr::{
    apply_tuple_fusion, ConflictResolver, FscrRecord, FusionOutcome, FusionPlan, SharedFusion,
    TupleFusion,
};
pub use gamma::Gamma;
pub use index::{Block, GammaRuns, Group, InsertReport, MlnIndex, RemoveReport};
pub use pipeline::MlnClean;
pub use rsc::{ReliabilityCleaner, RscRecord, RscRepair};
pub use session::CleaningSession;
#[doc(hidden)]
pub use stage::{
    AgpStage, DedupStage, FscrStage, PipelineStage, RscStage, StageContext, StageRecords,
    WeightLearningStage,
};
pub use stage_one::{MemoryStats, Refreshed, StageOne};
pub use stage_two::StageTwo;
pub use store::{Applied, BatchReport, RowStore, SessionSnapshot};

use rayon::prelude::*;

/// Map `items` through `f` — on the rayon pool when `parallel` is set, as a
/// plain loop otherwise.  Output order is input order either way, so every
/// per-block loop of the crate is written once and the
/// [`CleanConfig::parallel`] toggle cannot change a result.
pub(crate) fn map_ordered<T: Send, R: Send>(
    parallel: bool,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync + Send,
) -> Vec<R> {
    if parallel {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}
