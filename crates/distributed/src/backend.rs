//! The partition boundary of the streaming coordinator.
//!
//! [`crate::DistributedStreamingSession`] routes mutations, merges per-block
//! evidence and cleans **globally**, so a partition is a [`RowStore`]: its
//! rows and their pristine index, nothing more.  It is only ever asked to
//! *apply this slice* and to send its *pool tail*, *pristine blocks*, *rows*
//! and *indexing clock* — the store's by-value answers — never to clean.
//! [`PartitionBackend`] drives a pool of stores — in-process
//! ([`LocalPartitions`], one worker thread each) or behind the `transport`
//! crate's simulated network, where each call lands in the same store
//! methods on the far side.
//!
//! Every answer is *by-value*: owned, serializable payloads, never borrows
//! into partition state — what makes the boundary promotable to a message
//! boundary, and why pristine blocks are cloned instead of lent (the merged
//! block Stage I rewrites is a fresh allocation of the same order anyway).

use dataset::{Schema, ValueId};
use mlnclean::{BatchReport, Block, CleanConfig, CleanError, Mutation, RowStore};
use rules::RuleSet;
use std::time::Duration;

/// What the streaming coordinator asks of its partition pool — each method a
/// request/response pair over owned payloads, answered by a [`RowStore`].
///
/// Calls take `&mut self` even when logically read-only: a wire backend must
/// pump its network to serve them.
pub trait PartitionBackend {
    /// Number of partitions behind this backend (fixed for its lifetime).
    fn partitions(&self) -> usize;

    /// Apply one routed change set: `slices[p]` holds partition `p`'s
    /// mutations in partition-local coordinates.  Returns each partition's
    /// [`BatchReport`], `None` for partitions whose slice was empty (their
    /// state is untouched).
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

/// The in-process backend: one scoped worker thread per [`RowStore`] applies
/// its slice (partitions hold disjoint rows, so index maintenance parallelizes).
#[derive(Debug)]
pub struct LocalPartitions(Vec<RowStore>);

impl LocalPartitions {
    /// Open `partitions` empty stores for `schema` under `rules`.  Fails like
    /// [`RowStore::new`] does, plus [`CleanError::Partition`] on zero partitions.
    pub fn new(
        config: CleanConfig,
        schema: Schema,
        rules: RuleSet,
        partitions: usize,
    ) -> Result<Self, CleanError> {
        if partitions == 0 {
            return Err(CleanError::Partition { workers: 0 });
        }
        let open = |_| RowStore::new(config.clone(), schema.clone(), rules.clone());
        let opened: Result<_, _> = (0..partitions).map(open).collect();
        opened.map(LocalPartitions)
    }
}

impl PartitionBackend for LocalPartitions {
    fn partitions(&self) -> usize {
        self.0.len()
    }

    fn apply_slices(&mut self, slices: Vec<Vec<Mutation>>) -> Vec<Option<BatchReport>> {
        let apply = |(store, muts): (&mut RowStore, Vec<Mutation>)| {
            (!muts.is_empty()).then(|| {
                let applied = store.apply(muts.into_iter().collect());
                applied
                    .expect("the coordinator pre-validated the change set")
                    .report
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
        let copies = |store: &RowStore| store.pristine_blocks(blocks);
        self.0.iter().map(copies).collect()
    }

    fn gather_rows(&mut self, p: usize) -> Vec<Vec<ValueId>> {
        self.0[p].rows()
    }

    fn index_clock(&mut self) -> Duration {
        self.0.iter().map(RowStore::index_clock).sum()
    }
}
