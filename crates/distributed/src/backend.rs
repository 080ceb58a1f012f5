//! The partition boundary of the streaming coordinator.
//!
//! [`crate::DistributedStreamingSession`] routes mutations, merges per-block
//! evidence and cleans **globally**, so a partition is only ever asked to
//! *apply this slice* and to send its *pool tail*, *pristine blocks*, *rows*
//! and *indexing clock* — never to clean: its session keeps rows and a
//! pristine index, nothing more.  [`Partition`] is the one place those answers
//! are written; [`PartitionBackend`] drives a pool of them — in-process
//! ([`LocalPartitions`], one worker thread each) or behind the `transport`
//! crate's simulated network, where each call lands in the same [`Partition`]
//! methods on the far side.
//!
//! Every answer is *by-value*: owned, serializable payloads, never borrows
//! into partition state — what makes the boundary promotable to a message
//! boundary, and why pristine blocks are cloned instead of lent (the merged
//! block Stage I rewrites is a fresh allocation of the same order anyway).

use dataset::{Schema, TupleId, ValueId};
use mlnclean::{
    BatchReport, Block, ChangeSet, CleanConfig, CleanError, CleaningSession, Mutation,
    SessionSnapshot,
};
use rules::RuleSet;
use std::time::Duration;

/// One partition: the [`CleaningSession`] holding its rows and their pristine
/// index, behind the by-value answers of the [module docs](self).
#[derive(Debug)]
pub struct Partition(CleaningSession);

impl Partition {
    /// Open an empty partition.  Fails like [`CleaningSession::new`] does.
    pub fn new(config: CleanConfig, schema: Schema, rules: RuleSet) -> Result<Self, CleanError> {
        CleaningSession::new(config, schema, rules).map(Partition)
    }

    /// Reopen a partition from [`Partition::snapshot`]'s image.
    pub fn resume(
        config: CleanConfig,
        rules: RuleSet,
        snapshot: SessionSnapshot,
    ) -> Result<Self, CleanError> {
        CleaningSession::resume(config, rules, snapshot).map(Partition)
    }

    /// The compacting suspend image a worker checkpoints.
    pub fn snapshot(&self) -> SessionSnapshot {
        self.0.snapshot()
    }

    /// Apply one change set in partition-local coordinates.
    pub fn apply(&mut self, changes: ChangeSet) -> Result<BatchReport, CleanError> {
        self.0.apply(changes)
    }

    /// The values interned since pool index `from`, in id order.
    pub fn pool_tail(&self, from: usize) -> Vec<String> {
        let pool = self.0.dataset().pool();
        pool.iter().skip(from).map(|(_, v)| v.to_string()).collect()
    }

    /// Copies of the listed pristine (pre-Stage-I) blocks, in the listed order.
    pub fn pristine_blocks(&self, blocks: &[usize]) -> Vec<Block> {
        let index = self.0.pristine_index();
        blocks.iter().map(|&b| index.blocks[b].clone()).collect()
    }

    /// The current rows in local order, as partition-local value ids.
    pub fn rows(&self) -> Vec<Vec<ValueId>> {
        let dataset = self.0.dataset();
        let row = |t| dataset.row_ids(TupleId(t)).to_vec();
        (0..dataset.len()).map(row).collect()
    }

    /// Cumulative index-maintenance wall clock.
    pub fn index_clock(&self) -> Duration {
        self.0.timings().index
    }
}

/// What the streaming coordinator asks of its partition pool — each method a
/// request/response pair over owned payloads, answered by [`Partition`].
///
/// Calls take `&mut self` even when logically read-only: a wire backend must
/// pump its network to serve them.
pub trait PartitionBackend {
    /// Number of partitions behind this backend (fixed for its lifetime).
    fn partitions(&self) -> usize;

    /// Apply one routed change set: `slices[p]` holds partition `p`'s
    /// mutations in partition-local coordinates.  Returns each partition's
    /// [`BatchReport`], `None` for partitions whose slice was empty (their
    /// session state is untouched).
    ///
    /// The coordinator pre-validates the change set, so a slice cannot fail
    /// validation; backends may panic on a malformed slice.
    fn apply_slices(&mut self, slices: Vec<Vec<Mutation>>) -> Vec<Option<BatchReport>>;

    /// The values partition `p` interned since the coordinator last asked:
    /// its pool's values with ids `from..`, in id order.
    fn pool_tail(&mut self, p: usize, from: usize) -> Vec<String>;

    /// For every partition, the pristine (pre-Stage-I) state of the listed
    /// blocks, in the listed order: `result[p][i]` is partition `p`'s copy of
    /// block `blocks[i]`, in partition-local pool/tuple coordinates.
    fn pristine_blocks(&mut self, blocks: &[usize]) -> Vec<Vec<Block>>;

    /// Partition `p`'s current rows in local order, as partition-local value
    /// ids (the coordinator translates them through its tables).
    fn gather_rows(&mut self, p: usize) -> Vec<Vec<ValueId>>;

    /// Aggregate index-maintenance wall clock across all partitions (the
    /// per-worker stage sum a report folds into its timings).
    fn index_clock(&mut self) -> Duration;
}

/// The in-process backend: one scoped worker thread per [`Partition`] applies
/// its slice (partitions hold disjoint rows, so index maintenance parallelizes).
#[derive(Debug)]
pub struct LocalPartitions(Vec<Partition>);

impl LocalPartitions {
    /// Open `partitions` partitions for `schema` under `rules`.  Fails like
    /// [`Partition::new`] does, plus [`CleanError::Partition`] on zero partitions.
    pub fn new(
        config: CleanConfig,
        schema: Schema,
        rules: RuleSet,
        partitions: usize,
    ) -> Result<Self, CleanError> {
        if partitions == 0 {
            return Err(CleanError::Partition { workers: 0 });
        }
        let open = |_| Partition::new(config.clone(), schema.clone(), rules.clone());
        let opened: Result<_, _> = (0..partitions).map(open).collect();
        opened.map(LocalPartitions)
    }
}

impl PartitionBackend for LocalPartitions {
    fn partitions(&self) -> usize {
        self.0.len()
    }

    fn apply_slices(&mut self, slices: Vec<Vec<Mutation>>) -> Vec<Option<BatchReport>> {
        let apply = |(partition, muts): (&mut Partition, Vec<Mutation>)| {
            (!muts.is_empty()).then(|| {
                let report = partition.apply(muts.into_iter().collect());
                report.expect("the coordinator pre-validated the change set")
            })
        };
        std::thread::scope(|scope| {
            let work = self.0.iter_mut().zip(slices);
            let handles: Vec<_> = work.map(|w| scope.spawn(move || apply(w))).collect();
            let joined = handles.into_iter().map(|h| h.join());
            joined.map(|r| r.expect("a partition panicked")).collect()
        })
    }

    fn pool_tail(&mut self, p: usize, from: usize) -> Vec<String> {
        self.0[p].pool_tail(from)
    }

    fn pristine_blocks(&mut self, blocks: &[usize]) -> Vec<Vec<Block>> {
        let copies = |partition: &Partition| partition.pristine_blocks(blocks);
        self.0.iter().map(copies).collect()
    }

    fn gather_rows(&mut self, p: usize) -> Vec<Vec<ValueId>> {
        self.0[p].rows()
    }

    fn index_clock(&mut self) -> Duration {
        self.0.iter().map(Partition::index_clock).sum()
    }
}
