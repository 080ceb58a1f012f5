//! Distributed MLNClean (Section 6 of the paper).
//!
//! The paper deploys MLNClean on Spark; here the same execution structure is
//! reproduced with an in-process worker pool (one thread per worker), which
//! exercises the identical code path — partition → per-partition cleaning →
//! global weight adjustment → gather/fuse/deduplicate — while remaining
//! runnable on a single machine:
//!
//! 1. the dataset is split into `k` parts with the capacity-bounded
//!    nearest-centroid partitioner of Algorithm 3 ([`partition`]);
//! 2. every worker builds the MLN index of its part, runs AGP and learns the
//!    local γ weights;
//! 3. the coordinator merges the per-part weights with the evidence-weighted
//!    average of Eq. 6 and pushes the merged weights back to every part
//!    ([`weights`]);
//! 4. every worker finishes its part with RSC and FSCR;
//! 5. the repaired parts are gathered back in the original tuple order and
//!    duplicates are removed globally ([`runner`]).

//!
//! Both runners implement the unified [`mlnclean::Engine`] trait: they
//! return the same [`mlnclean::Report`] (with a [`mlnclean::PartitionReport`]
//! attached and provenance remapped to global tuple ids) and the same
//! [`mlnclean::CleanError`] as the batch and incremental drivers.
//!
//! Besides the batch runner there is a **streaming** driver
//! ([`streaming::DistributedStreamingSession`] /
//! [`DistributedStreamingMlnClean`]): one typed [`mlnclean::ChangeSet`]
//! stream routed across per-partition [`mlnclean::RowStore`]s, with a
//! periodic cross-partition merge of exact per-block evidence whose outcome
//! is byte-identical to a single session over the same stream (pinned by
//! `tests/streaming_equivalence.rs`).

pub mod backend;
pub mod partition;
pub mod runner;
pub mod streaming;
pub mod weights;

pub use backend::{LocalPartitions, PartitionBackend};
pub use partition::{partition_dataset, route_row, PartitionConfig, Partitioning};
pub use runner::DistributedMlnClean;
pub use streaming::{DistributedStreamingMlnClean, DistributedStreamingSession};
pub use weights::merge_weights;
