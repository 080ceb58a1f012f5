//! Distributed MLNClean (Section 6 of the paper).
//!
//! The paper deploys MLNClean on Spark; here one coordinator drives `k`
//! partitions — in-process row stores on worker threads
//! ([`LocalPartitions`]), or stores behind the `transport` crate's simulated
//! wire — through one typed [`mlnclean::ChangeSet`] stream:
//!
//! 1. every inserted row hashes to a partition ([`route_row`]), and updates
//!    and deletes follow their row's home partition;
//! 2. each partition's [`mlnclean::RowStore`] maintains the pristine MLN
//!    index of its rows;
//! 3. every K change sets the coordinator merges the partitions' **exact**
//!    per-block evidence into global blocks and re-cleans them with the same
//!    Stage-I driver a single session uses;
//! 4. an outcome gathers the rows and runs the same Stage-II driver.
//!
//! Because the merge reconstructs the global evidence instead of averaging
//! per-partition weights (the paper's Eq. 6), the outcome is byte-identical
//! to a single [`mlnclean::CleaningSession`] fed the same stream, and hence
//! to [`mlnclean::MlnClean`] on the same rows (pinned by
//! `tests/kit/engine_matrix.rs`).  [`DistributedStreamingSession`] is the one
//! engine: a static dataset is one change set of inserts followed by
//! [`DistributedStreamingSession::finish`], whose [`mlnclean::Report`]
//! carries a [`mlnclean::PartitionReport`] and provenance in global tuple
//! coordinates.

pub mod backend;
pub mod streaming;

pub use backend::{LocalPartitions, PartitionBackend};
pub use streaming::{route_row, DistributedStreamingSession};
