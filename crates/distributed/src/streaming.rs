//! Distributed **streaming**: one typed [`ChangeSet`] stream routed across
//! per-partition [`RowStore`]s, with a periodic cross-partition merge of
//! per-block evidence — and an outcome that is byte-identical to a single
//! [`CleaningSession`] fed the same stream.
//!
//! # Execution plan
//!
//! [`DistributedStreamingSession`] splits the work of the incremental engine
//! across partitions:
//!
//! 1. **Route** — every mutation of an incoming change set is routed to one
//!    partition: inserts hash to a partition ([`route_row`]; a stream has no
//!    whole dataset up front to cluster), while updates and deletes follow
//!    the tuple's home partition through a global → (partition, local) id
//!    map the coordinator maintains across mutations (delete compaction
//!    shifts both the global and the partition-local id spaces through the
//!    stores' own deferred-delete walk, [`DeferredDeletes`]).
//!    Routing interns every value into the coordinator pool and maps it to
//!    the partition's own value id: a partition's slice crosses as an
//!    [`InternedSlice`] — rows and updates as local ids, plus a tail of the
//!    values that partition has never been sent, each once, in the order
//!    its store will intern them.  The coordinator thereby fills its
//!    local → coordinator translation tables as it routes.
//! 2. **Ingest** — each partition's [`RowStore`] appends its tail and applies
//!    its slice of the change set on its own worker thread.  The stores do
//!    the incremental index maintenance (γ merges, group re-homing, delete
//!    compaction) in parallel over disjoint row subsets, and hold no
//!    cleaning state.
//! 3. **Merge** — every K change sets (and before any outcome) the
//!    coordinator merges, for each block touched since the last round, the
//!    partitions' pristine per-block state into one **global** block: value
//!    ids translate through the tables routing filled, tuple ids are
//!    remapped through the partition id lists, and the index's own layout
//!    routine ([`Block::merge_runs`]) sums the support of identical γs
//!    across partitions and orders groups and γs as a single build would.
//!    The merged blocks then go through [`StageOne::refresh`] — the same
//!    per-block Stage-I driver, and the same call, a single
//!    [`CleaningSession`] refreshes its own dirty blocks with — marked fully
//!    dirty, over one persistent per-block cache (distance memo included).
//!    Because weights are learned from the **merged** supports, this is the
//!    *exact-evidence* variant of the paper's Eq. 6 phase: instead of
//!    averaging independently learned per-partition weights
//!    (`Σᵢ nᵢwᵢ / Σᵢ nᵢ`), the merge reconstructs the global evidence and
//!    learns the weight a single-node run would — which is what makes the
//!    differential harness
//!    (`tests/kit/engine_matrix.rs`) able to pin the driver
//!    **byte-identical** to a single session.  Exact evidence has no
//!    weight-merge phase: nothing is pushed back to the partitions, which
//!    are never asked to clean.
//! 4. **Gather** — [`DistributedStreamingSession::outcome`] gathers the
//!    accumulated rows (as local ids, translated like a merge's) and hands
//!    them to [`StageTwo::derive`] — the same Stage-II driver a single
//!    [`CleaningSession`] reports with, in the form that keeps no report
//!    between outcomes: it fuses the tuples the merge rounds invalidated,
//!    replays every other fusion from its memo and reports in global
//!    coordinates; the coordinator attaches a [`PartitionReport`].
//!
//! Byte-identity with the single session holds by construction: merged
//! pristine blocks carry exactly the groups/γs/supports a single session's
//! pristine index would (same string-sorted ordering, ids translated into
//! the coordinator pool), Stage I is per-block deterministic, and FSCR is
//! per-tuple deterministic over the cleaned blocks.  The trade-off knob is
//! the merge cadence K ([`DistributedStreamingSession::merge_every`]): K = 1
//! re-merges dirty blocks after every change set (lowest re-clean latency
//! per outcome), larger K amortizes merge work across batches at the cost of
//! staler intermediate state — the final outcome is byte-identical either
//! way.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::backend::{LocalPartitions, PartitionBackend};
use dataset::{Dataset, Schema, TupleId, ValueId, ValuePool};
use mlnclean::{
    BatchReport, Block, ChangeSet, CleanConfig, CleanError, DeferredDeletes, GammaRuns, IdMutation,
    InternedSlice, MemoryStats, MlnIndex, Mutation, PartitionReport, Report, StageOne, StageTwo,
    Timings,
};
// Referenced by the module and method docs only.
#[allow(unused_imports)]
use mlnclean::{CleaningSession, RowStore};
use rules::RuleSet;
use std::time::Instant;

/// The stateful distributed streaming coordinator: per-partition
/// [`RowStore`]s behind the same `apply`/`outcome`/`finish` surface a single
/// [`CleaningSession`] offers.
///
/// The coordinator is generic over its [`PartitionBackend`] — the default
/// [`LocalPartitions`] keeps the stores in-process (one worker thread per
/// partition), while the `transport` crate plugs in a wire-backed pool where
/// every backend call crosses a simulated network.  The routing/merge brain
/// is identical either way, which is what pins the wire-backed service
/// byte-identical to this driver.
///
/// See the [module docs](self) for the execution plan.  A static dataset
/// is one [`ChangeSet`] of inserts followed by
/// [`DistributedStreamingSession::finish`].
#[derive(Debug)]
pub struct DistributedStreamingSession<B: PartitionBackend = LocalPartitions> {
    merge_every: usize,
    /// The stream's schema (coordinator-resident copy: O(arity)).
    schema: Schema,
    /// The coordinator value pool: every value routed through `apply` is
    /// interned here eagerly, so this pool is always a superset of every
    /// partition pool (what the translation tables rely on).  O(distinct
    /// values), not O(cells) — the coordinator holds **no** row payload; the
    /// rows live only in the partitions and are gathered on demand by
    /// [`DistributedStreamingSession::gather_dataset`].
    pool: ValuePool,
    /// Net row count of the stream (what the mirror dataset's length was).
    rows: usize,
    /// The partition pool: in-process stores or a wire-backed service.
    backend: B,
    /// Per partition: its store's total group count, refreshed from every
    /// [`BatchReport`] it returns (partitions untouched by a change set keep
    /// their last count) — spares the coordinator a round trip per batch.
    group_counts: Vec<usize>,
    /// Per partition: the global ids of its rows, ascending — the
    /// local-to-global mapping provenance is remapped through (rows route in
    /// stream order, so partition-local order is global order restricted to
    /// the partition).
    parts: Vec<Vec<TupleId>>,
    /// Per global row: its home partition.
    home: Vec<usize>,
    /// Per partition: its pool as the coordinator knows it — both id
    /// translations, filled while routing.
    pools: Vec<PoolMap>,
    /// The per-block Stage-I driver over the **global** blocks: the cleaned
    /// index (per block, the state of the last merge round that touched it,
    /// over the coordinator pool), its provenance, the per-block caches and
    /// which blocks were touched since the last merge round.
    stage_one: StageOne,
    /// The Stage-II driver: the per-tuple fusion memo, one slot per global
    /// row — the coordinator's only O(rows)-sized value state, windowed under
    /// a [`CleanConfig::memory_budget`] exactly like a single session's.
    stage_two: StageTwo,
    /// Per block: γs that drew cross-partition evidence in its last merge.
    shared_per_block: Vec<usize>,
    batches: usize,
    timings: Timings,
}

/// Entry counts of every collection a [`DistributedStreamingSession`]
/// coordinator keeps resident between change sets, by category — see
/// [`DistributedStreamingSession::footprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorFootprint {
    /// Per-row id bookkeeping: global→partition home map, partition id
    /// lists, fusion memo slots.  Grows O(rows), independent of arity.
    pub row_entries: usize,
    /// Partition-local → coordinator value-id translation entries.  Grows
    /// O(distinct values summed over partitions).
    pub translate_entries: usize,
    /// Coordinator → partition-local value-id entries, what routing ships
    /// each value once by.  At most coordinator values × partitions.
    pub reverse_entries: usize,
    /// Distinct values interned in the coordinator pool.
    pub pool_values: usize,
    /// Per-block statistics slots.  Fixed by the rule set.
    pub block_entries: usize,
    /// Resident dataset cells.  Always 0 since the coordinator shed its
    /// mirror dataset: rows live only in the partitions, and Stage II
    /// derives each report ([`StageTwo::derive`]) instead of keeping one.
    pub cell_entries: usize,
}

impl DistributedStreamingSession {
    /// Open a streaming coordinator over `partitions` in-process stores for
    /// `schema` under `rules`, merging every `merge_every` change sets.
    ///
    /// Fails like [`RowStore::new`] does (empty rule set, rule
    /// referencing an unknown attribute), plus
    /// [`CleanError::Partition`] on zero partitions and [`CleanError::Zero`]
    /// on a zero `merge_every`.
    pub fn new(
        config: CleanConfig,
        schema: Schema,
        rules: RuleSet,
        partitions: usize,
        merge_every: usize,
    ) -> Result<Self, CleanError> {
        let backend =
            LocalPartitions::new(config.clone(), schema.clone(), rules.clone(), partitions)?;
        Self::with_backend(config, schema, rules, backend, merge_every)
    }
}

impl<B: PartitionBackend> DistributedStreamingSession<B> {
    /// Open a streaming coordinator over an already-running partition pool —
    /// the constructor wire-backed services use ([`Self::new`] is the
    /// in-process shorthand).
    ///
    /// The backend's partitions must be fresh (empty) stores for `schema`
    /// under `rules`.  Fails on zero partitions, a zero `merge_every` or a
    /// rule set the schema rejects.
    pub fn with_backend(
        config: CleanConfig,
        schema: Schema,
        rules: RuleSet,
        backend: B,
        merge_every: usize,
    ) -> Result<Self, CleanError> {
        let partitions = backend.partitions();
        if partitions == 0 {
            return Err(CleanError::Partition { workers: 0 });
        }
        if merge_every == 0 {
            return Err(CleanError::Zero {
                field: "merge_every",
            });
        }
        let empty = MlnIndex::build_serial(&Dataset::new(schema.clone()), &rules)?;
        let blocks = empty.block_count();
        Ok(DistributedStreamingSession {
            stage_one: StageOne::new(config.clone(), empty),
            stage_two: StageTwo::new(config),
            merge_every,
            schema,
            pool: ValuePool::new(),
            rows: 0,
            backend,
            group_counts: vec![0; partitions],
            parts: vec![Vec::new(); partitions],
            home: Vec::new(),
            pools: vec![PoolMap::default(); partitions],
            shared_per_block: vec![0; blocks],
            batches: 0,
            timings: Timings::default(),
        })
    }

    /// Number of partitions (= row stores).
    pub fn partition_count(&self) -> usize {
        self.backend.partitions()
    }

    /// The partition backend (for wire-backed services: transport counters,
    /// chaos hooks).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The merge cadence K: dirty blocks are re-merged and re-cleaned every
    /// K change sets (and always before an outcome).
    pub fn merge_every(&self) -> usize {
        self.merge_every
    }

    /// Net rows held across all partitions.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the coordinator currently holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Change sets applied so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Gather the accumulated (dirty) rows in global stream order from the
    /// partitions — byte-identical to the dataset a single session fed the
    /// same stream would hold.
    ///
    /// This is an O(rows) *transient* materialization: since the coordinator
    /// shed its mirror dataset (see
    /// [`DistributedStreamingSession::footprint`]), row payloads live only
    /// in the partitions and are translated into the coordinator pool on
    /// demand through the partition id lists.
    pub fn gather_dataset(&mut self) -> Dataset {
        let partitions = self.backend.partitions();
        let mut part_rows: Vec<Vec<Vec<ValueId>>> = (0..partitions)
            .map(|p| self.backend.gather_rows(p))
            .collect();
        let mut gathered = Dataset::with_pool(self.schema.clone(), self.pool.clone(), self.rows);
        // locals[p] walks partition p's rows in ascending local (= global
        // stream) order; merging by smallest global id restores stream order.
        let mut locals = vec![0usize; partitions];
        for g in 0..self.rows {
            let p = self.home[g];
            let local = locals[p];
            locals[p] += 1;
            debug_assert_eq!(self.parts[p][local].index(), g);
            let row: Vec<ValueId> = std::mem::take(&mut part_rows[p][local])
                .iter()
                .map(|&v| self.pools[p].global(v))
                .collect();
            #[allow(
                clippy::expect_used,
                reason = "every partition row was routed from a row of the stream schema and \
                          comes back as that many ids"
            )]
            gathered
                .push_row_ids(&row)
                .expect("partition rows share the stream schema");
        }
        gathered
    }

    /// The coordinator's resident-state footprint, in entry counts per
    /// category — the regression probe pinning the routing-only property:
    /// everything the coordinator retains between change sets is O(ids)
    /// (row-id maps, value-translation tables, per-block state), never
    /// O(cells) row payload (`cell_entries` is the count of resident dataset
    /// cells and must stay 0).
    pub fn footprint(&self) -> CoordinatorFootprint {
        CoordinatorFootprint {
            row_entries: self.home.len()
                + self.stage_two.slots()
                + self.parts.iter().map(Vec::len).sum::<usize>(),
            translate_entries: self.pools.iter().map(|m| m.translate.len()).sum(),
            reverse_entries: self.pools.iter().map(|m| m.local_ids.len()).sum(),
            pool_values: self.pool.len(),
            block_entries: self.shared_per_block.len(),
            cell_entries: 0,
        }
    }

    /// Rows per partition, in partition order.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.len()).collect()
    }

    /// Cumulative coordinator timings (the per-partition ingest clocks are
    /// folded in when a [`Report`] is assembled).
    pub fn timings(&self) -> Timings {
        self.timings
    }

    /// What the memory budget shed (blocks whose memos it dropped, fusions
    /// it evicted) — the shape
    /// [`CleaningSession::memory_stats`] returns.  All zero unless
    /// [`CleanConfig::memory_budget`] is set.
    pub fn memory_stats(&self) -> MemoryStats {
        self.stage_two.memory_stats(&self.stage_one)
    }

    /// Apply one typed [`ChangeSet`] across the partitions — the streaming
    /// mirror of [`CleaningSession::apply`].
    ///
    /// Inserts hash to a partition; updates and deletes follow their
    /// tuple's home partition.  Like the single session, deletions are
    /// remap-batched: doomed rows stay in place (virtual coordinates) while
    /// the walk routes, and one compaction at the end shifts the global id
    /// space, the partition id lists, the cached cleaned blocks and the
    /// provenance — a bulk retraction costs one O(index) pass.  Every
    /// `merge_every`-th change set triggers a merge round.
    ///
    /// In the returned report, `touched_groups`/`total_groups` aggregate the
    /// **partition-local** counts (a group whose rows span several
    /// partitions counts once per partition holding it); the row, cell and
    /// block fields match the single session's exactly.
    pub fn apply(&mut self, changes: ChangeSet) -> Result<BatchReport, CleanError> {
        // The same sequential-id semantics [`CleaningSession::apply`]
        // validates, so a failed call leaves the coordinator and every
        // partition untouched.
        changes.validate(self.schema.arity(), self.rows)?;
        let started = Instant::now();
        let partitions = self.backend.partitions();
        let mut pending = vec![InternedSlice::default(); partitions];
        // Per partition, its virtual local rows deleted so far this change
        // set — its store interprets ids sequentially, so partition-local
        // ids shift past them — and the virtual global rows.
        let mut local_deletes = vec![DeferredDeletes::default(); partitions];
        let mut deletes = DeferredDeletes::default();
        let mut inserted = 0usize;
        // Virtual row count during the walk: doomed rows stay in place until
        // the single compaction below, exactly like the mirror-era length.
        let mut virtual_rows = self.rows;

        for mutation in changes.into_mutations() {
            match mutation {
                Mutation::Insert(rows) => {
                    for row in rows {
                        let p = route_row(&row, partitions);
                        let g = TupleId(virtual_rows);
                        virtual_rows += 1;
                        self.home.push(p);
                        self.parts[p].push(g);
                        // Consecutive rows of one partition ride one insert.
                        let slice = &mut pending[p];
                        let mut ids = match slice.mutations.pop() {
                            Some(IdMutation::Insert(ids)) => ids,
                            other => {
                                slice.mutations.extend(other);
                                Vec::new()
                            }
                        };
                        // Intern eagerly so the coordinator pool stays a
                        // superset of every partition pool (in the exact
                        // stream order the mirror used to intern in).
                        for value in row {
                            let id = self.pool.intern(&value);
                            ids.push(self.pools[p].ship(id, value, &mut slice.tail));
                        }
                        slice.mutations.push(IdMutation::Insert(ids));
                        inserted += 1;
                    }
                    self.stage_two.grow(virtual_rows);
                }
                Mutation::Update(t, attr, value) => {
                    // No-op updates (cell already holds the value) are
                    // detected by the home partition's store, which skips
                    // them exactly like a single session would; the routing
                    // layer holds no cell state to check against.  Such a
                    // value is the cell's, so the partition holds it and it
                    // ships no tail entry.
                    let v = deletes.resolve(t.index());
                    let id = self.pool.intern(&value);
                    let (p, vl) = self.locate(v);
                    let local = TupleId(local_deletes[p].sequential(vl));
                    let slice = &mut pending[p];
                    let value = self.pools[p].ship(id, value, &mut slice.tail);
                    slice.mutations.push(IdMutation::Update(local, attr, value));
                    self.stage_two.invalidate(TupleId(v));
                }
                Mutation::Delete(t) => {
                    let v = deletes.resolve(t.index());
                    deletes.mark(v);
                    let (p, vl) = self.locate(v);
                    let local = TupleId(local_deletes[p].sequential(vl));
                    pending[p].mutations.push(IdMutation::Delete(local));
                    local_deletes[p].mark(vl);
                }
            }
        }

        // One global compaction for all deletes of the change set.
        let removed = deletes.marked();
        let deleted_rows = removed.len();
        self.rows = virtual_rows - deleted_rows;
        if !removed.is_empty() {
            let mut idx = 0usize;
            self.home.retain(|_| {
                let keep = removed.binary_search(&idx).is_err();
                idx += 1;
                keep
            });
            self.stage_two.remap_removed(removed);
            for part in &mut self.parts {
                dataset::remap_ids_after_removal(part, removed);
            }
            self.stage_one.remap_removed(removed);
        }

        // Partition ingest: the backend applies every partition's slice
        // (in-process: one worker thread per partition; over the wire: one
        // request/response per partition).
        let reports = self.backend.apply_slices(pending);
        self.timings.partition += started.elapsed();

        let mut touched_groups = 0usize;
        let mut updated_cells = 0usize;
        let mut touched_now = vec![false; self.shared_per_block.len()];
        for (p, report) in reports.iter().enumerate() {
            let Some(report) = report else { continue };
            touched_groups += report.touched_groups;
            updated_cells += report.updated_cells;
            self.group_counts[p] = report.total_groups;
            for &b in &report.touched_blocks {
                self.stage_one.mark_block_dirty(b);
                touched_now[b] = true;
            }
        }

        self.batches += 1;
        let report = BatchReport {
            batch: self.batches,
            rows: inserted,
            updated_cells,
            deleted_rows,
            total_rows: self.rows,
            dirty_blocks: self.stage_one.dirty_blocks().len(),
            total_blocks: self.shared_per_block.len(),
            touched_groups,
            total_groups: self.group_counts.iter().sum(),
            touched_blocks: touched_now
                .iter()
                .enumerate()
                .filter_map(|(i, &t)| t.then_some(i))
                .collect(),
        };

        if self.batches.is_multiple_of(self.merge_every) {
            self.merge_round();
        }
        self.stage_two.enforce_budget(&mut self.stage_one);
        Ok(report)
    }

    /// The home partition of virtual global row `v`, and `v`'s virtual local
    /// row there.
    #[allow(
        clippy::expect_used,
        reason = "`home[v]` names the partition whose id list holds `v`: both are written \
                  together on insert and compacted together on delete"
    )]
    fn locate(&self, v: usize) -> (usize, usize) {
        let p = self.home[v];
        let found = self.parts[p].binary_search(&TupleId(v));
        (p, found.expect("home map is consistent"))
    }

    /// Merge one global block from the partitions' pristine blocks
    /// (`parts_blocks[p]` is partition `p`'s copy, fetched from the backend):
    /// every partition γ becomes a run — its values translated into the
    /// coordinator pool, its tuples remapped through the partition id list —
    /// and the runs go into an empty block through the index's own routine
    /// ([`Block::merge_runs`]), which sums identical γs across partitions
    /// and restores the index's string-sorted ordering — byte-identical to
    /// what a single session's pristine block over the same rows holds.
    /// Also returns the number of γs whose tuples have more than one home
    /// partition.
    fn merge_block(&self, parts_blocks: &[&Block]) -> (Block, usize) {
        let template = parts_blocks[0];
        let (reason, result) = (&template.reason_attrs, &template.result_attrs);
        let mut block = Block::new(template.rule, reason.clone(), result.clone());
        let mut runs = GammaRuns::default();
        let (mut key, mut tuples) = (Vec::new(), Vec::new());
        for (p, part_block) in parts_blocks.iter().enumerate() {
            for gamma in part_block.gammas() {
                key.clear();
                let values = gamma.reason_values.iter().chain(&gamma.result_values);
                key.extend(values.map(|&v| self.pools[p].global(v)));
                tuples.clear();
                tuples.extend(gamma.tuples.iter().map(|lt| self.parts[p][lt.index()]));
                runs.push(&key, &tuples);
            }
        }
        block.merge_runs(runs, &self.pool);
        let home = |t: TupleId| self.home[t.index()];
        let shared = block
            .gammas()
            .filter(|g| g.tuples.windows(2).any(|w| home(w[0]) != home(w[1])))
            .count();
        (block, shared)
    }

    /// One coordinator merge round: gather the partitions' pristine state
    /// for every block touched since the last round, merge it, and send the
    /// merged blocks through the Stage-I driver — which refreshes the global
    /// cleaned index and its provenance, learning each weight from the merged
    /// support (the exact-evidence variant of Eq. 6: no weight-merge phase).
    /// A round with nothing dirty is free.
    fn merge_round(&mut self) {
        let dirty_idx = self.stage_one.dirty_blocks();
        if dirty_idx.is_empty() {
            return;
        }
        // Gather: fetch every partition's copy of the dirty blocks from the
        // backend (one message-shaped exchange), then merge them.
        let started = Instant::now();
        let parts_blocks = self.backend.pristine_blocks(&dirty_idx);
        let mut merged: Vec<Block> = Vec::with_capacity(dirty_idx.len());
        for (bi, &b) in dirty_idx.iter().enumerate() {
            let copies: Vec<&Block> = parts_blocks.iter().map(|part| &part[bi]).collect();
            let (block, shared) = self.merge_block(&copies);
            self.shared_per_block[b] = shared;
            merged.push(block);
        }
        self.timings.gather += started.elapsed();

        // Stage I on the merged blocks.  They were marked fully dirty when
        // touched, so every tuple they cover comes back invalidated (the
        // same over-approximation the single session uses).
        let pristine: Vec<(usize, &Block)> = dirty_idx.iter().copied().zip(&merged).collect();
        let refreshed = self
            .stage_one
            .refresh(&pristine, &self.pool, &mut self.timings);
        self.stage_two.invalidate_refreshed(&refreshed, &pristine);
        self.timings.merge_rounds += 1;
    }

    /// Re-merge whatever is dirty and produce the full [`Report`] over the
    /// net rows streamed so far — byte-identical (output CSV and
    /// AGP/RSC/FSCR provenance) to a single [`CleaningSession`] fed the same
    /// change sets.  Provenance is in global coordinates and
    /// [`Report::partitions`] carries the partition id lists plus the
    /// shared-γ count of the evidence merge.
    pub fn outcome(&mut self) -> Report {
        let rows = self.settle();
        let mut report = self
            .stage_two
            .derive(&mut self.stage_one, rows, &mut self.timings);
        Self::stamp(
            &mut report,
            &mut self.backend,
            &self.parts,
            &self.shared_per_block,
        );
        self.stage_two.enforce_budget(&mut self.stage_one);
        report
    }

    /// Close the stream, producing the final [`Report`] (the repaired
    /// dataset is gathered from the partitions, like for
    /// [`DistributedStreamingSession::outcome`] — the coordinator holds no
    /// resident copy to move out — and the cleaned index is shared, not
    /// copied, either way; the Stage-I provenance moves into the report).
    pub fn finish(mut self) -> Report {
        let rows = self.settle();
        let mut report = self
            .stage_two
            .finish(self.stage_one, rows, &mut self.timings);
        Self::stamp(
            &mut report,
            &mut self.backend,
            &self.parts,
            &self.shared_per_block,
        );
        report
    }

    /// Flush pending dirtiness and gather the rows a report is over — the
    /// shared head of `outcome` and `finish`.
    fn settle(&mut self) -> Dataset {
        self.merge_round();
        // Values interned since the last round must resolve in the cleaned
        // index even when no block went dirty.
        self.stage_one.sync_pool(&self.pool);
        self.gather_dataset()
    }

    /// Stamp the coordinator's side onto a Stage-II report — the shared tail
    /// of `outcome` and `finish`.  Coordinator phases are wall clock; the
    /// index field sums the partitions' (concurrent) ingest clocks.
    fn stamp(
        report: &mut Report,
        backend: &mut B,
        parts: &[Vec<TupleId>],
        shared_per_block: &[usize],
    ) {
        report.timings.index += backend.index_clock();
        report.partitions = Some(PartitionReport {
            parts: parts.to_vec(),
            shared_gammas: shared_per_block.iter().sum(),
        });
    }
}

/// Deterministic stream router: FNV-1a over the row's values (with a
/// separator octet between cells), reduced modulo `parts` — stable across
/// runs and independent of insertion order.  Zero parts is clamped to one.
pub fn route_row(row: &[String], parts: usize) -> usize {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for value in row {
        for &byte in value.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        // Cell separator so ["ab", "c"] and ["a", "bc"] hash differently.
        hash ^= 0xff;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    (hash % parts.max(1) as u64) as usize
}

/// The coordinator's map of one partition's pool, filled while routing:
/// the partition's store interns exactly the values routing shipped it, in
/// the order they were shipped.
#[derive(Debug, Clone, Default)]
struct PoolMap {
    /// Local pool id → coordinator pool id: entry `i` is the `i`-th value
    /// shipped, the partition's value id `i` (pools are append-only, so the
    /// table only ever extends).
    translate: Vec<ValueId>,
    /// The reverse, coordinator pool id → local pool id: [`NOT_SHIPPED`] for
    /// a value not sent to the partition yet (and past the table's end).
    local_ids: Vec<u32>,
}

/// The `local_ids` entry of a value not shipped to the partition yet.
const NOT_SHIPPED: u32 = u32::MAX;

impl PoolMap {
    /// The coordinator id of the partition's value `local`.
    fn global(&self, local: ValueId) -> ValueId {
        self.translate[local.index()]
    }

    /// The partition's id for coordinator value `id` (whose string is
    /// `value`): the one it already holds, or — the first time the value is
    /// routed there — the next one, with `value` appended to the change
    /// set's `tail` for the partition.
    fn ship(&mut self, id: ValueId, value: String, tail: &mut Vec<String>) -> ValueId {
        if id.index() >= self.local_ids.len() {
            self.local_ids.resize(id.index() + 1, NOT_SHIPPED);
        }
        let local = &mut self.local_ids[id.index()];
        if *local == NOT_SHIPPED {
            *local = self.translate.len() as u32;
            self.translate.push(id);
            tail.push(value);
        }
        ValueId(*local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{csv, sample_hospital_dataset, AttrId};
    use mlnclean::MlnClean;

    fn hospital_rows(ds: &Dataset) -> Vec<Vec<String>> {
        ds.tuples().map(|t| t.owned_values()).collect()
    }

    fn assert_same_report(a: &Report, b: &Report) {
        assert_eq!(csv::to_csv(&a.repaired), csv::to_csv(&b.repaired));
        assert_eq!(a.agp, b.agp);
        assert_eq!(a.rsc, b.rsc);
        assert_eq!(a.fscr, b.fscr);
    }

    #[test]
    fn engine_run_matches_batch_byte_for_byte() {
        let dirty = sample_hospital_dataset();
        let rules = rules::sample_hospital_rules();
        let config = CleanConfig::default().with_tau(1);
        let batch = MlnClean::new(config.clone()).clean(&dirty, &rules).unwrap();
        for partitions in [1, 2, 4] {
            let mut session = DistributedStreamingSession::new(
                config.clone(),
                dirty.schema().clone(),
                rules.clone(),
                partitions,
                1,
            )
            .unwrap();
            for changes in ChangeSet::insert_batches(&dirty, 2) {
                session.apply(changes).unwrap();
            }
            let streamed = session.finish();
            assert_eq!(
                csv::to_csv(&batch.repaired),
                csv::to_csv(&streamed.repaired),
                "{partitions} partitions diverged from the batch run"
            );
            assert_eq!(batch.agp, streamed.agp);
            assert_eq!(batch.rsc, streamed.rsc);
            assert_eq!(batch.fscr, streamed.fscr);
            let parts = streamed.partitions.expect("distributed report");
            assert_eq!(parts.parts.len(), partitions);
            assert_eq!(parts.sizes().iter().sum::<usize>(), dirty.len());
        }
    }

    #[test]
    fn a_gamma_spread_over_two_partitions_merges_ascending_and_counts_once() {
        // Four rows of one CT -> ST γ whose HN values route them to
        // partitions 0, 1, 0, 1: the merged γ interleaves two runs.
        let dirty = sample_hospital_dataset();
        let config = CleanConfig::default().with_tau(1);
        let rules = rules::sample_hospital_rules();
        let mut session =
            DistributedStreamingSession::new(config, dirty.schema().clone(), rules, 2, 1).unwrap();
        let row = |hn: usize| vec![format!("H{hn}"), "BOAZ".into(), "AL".into(), "1".into()];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for hn in 0..64 {
            let row = row(hn);
            if rows.len() < 4 && route_row(&row, 2) == rows.len() % 2 {
                rows.push(row);
            }
        }
        assert_eq!(rows.len(), 4);
        session.apply(ChangeSet::inserting(rows)).unwrap();
        let copies = session.backend.pristine_blocks(&[0]);
        let (block, shared) = session.merge_block(&[&copies[0][0], &copies[1][0]]);
        assert_eq!(block.gamma_count(), 1);
        let tuples: Vec<usize> = block.groups[0].gammas[0]
            .tuples
            .iter()
            .map(|t| t.0)
            .collect();
        assert_eq!(tuples, [0, 1, 2, 3]);
        assert_eq!(shared, 1);
        // The DC block's (PN, ST) γ is spread the same way; the CFD block's
        // four γs differ in HN, one partition each.
        let report = session.outcome().partitions.expect("distributed report");
        assert_eq!(report.shared_gammas, 2);
    }

    #[test]
    fn routed_mutations_follow_the_home_partition() {
        let dirty = sample_hospital_dataset();
        let rules = rules::sample_hospital_rules();
        let mut session = DistributedStreamingSession::new(
            CleanConfig::default().with_tau(1),
            dirty.schema().clone(),
            rules,
            2,
            1,
        )
        .unwrap();
        session
            .apply(ChangeSet::inserting(hospital_rows(&dirty)))
            .unwrap();
        assert_eq!(session.len(), dirty.len());
        assert_eq!(session.partition_sizes().iter().sum::<usize>(), 6);

        // Update one cell, then delete a row: both must land in the right
        // partition and keep the global row count consistent.
        let st = dirty.schema().attr_id("ST").unwrap();
        let report = session
            .apply(
                ChangeSet::new()
                    .update(TupleId(3), st, "AL")
                    .delete(TupleId(5)),
            )
            .unwrap();
        assert_eq!(report.updated_cells, 1);
        assert_eq!(report.deleted_rows, 1);
        assert_eq!(session.len(), 5);
        assert_eq!(session.partition_sizes().iter().sum::<usize>(), 5);
    }

    #[test]
    fn zero_partitions_and_empty_rules_are_rejected() {
        let dirty = sample_hospital_dataset();
        let err = DistributedStreamingSession::new(
            CleanConfig::default(),
            dirty.schema().clone(),
            rules::sample_hospital_rules(),
            0,
            1,
        )
        .unwrap_err();
        assert_eq!(err, CleanError::Partition { workers: 0 });
        let err = DistributedStreamingSession::new(
            CleanConfig::default(),
            dirty.schema().clone(),
            RuleSet::default(),
            2,
            1,
        )
        .unwrap_err();
        assert_eq!(err, CleanError::NoRules);
    }

    #[test]
    fn a_zero_merge_cadence_is_rejected() {
        let dirty = sample_hospital_dataset();
        let err = DistributedStreamingSession::new(
            CleanConfig::default(),
            dirty.schema().clone(),
            rules::sample_hospital_rules(),
            2,
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            CleanError::Zero {
                field: "merge_every"
            }
        );
    }

    #[test]
    fn route_row_is_deterministic_and_in_range() {
        let rows: Vec<Vec<String>> = vec![
            vec!["ELIZA".into(), "BOAZ".into()],
            vec!["EL".into(), "IZABOAZ".into()],
            vec!["".into(), "".into()],
        ];
        for parts in [1usize, 2, 4, 7] {
            for row in &rows {
                let p = route_row(row, parts);
                assert!(p < parts);
                assert_eq!(p, route_row(row, parts), "routing must be stable");
            }
        }
        // The separator keeps different cell splits of the same bytes apart.
        assert_ne!(route_row(&rows[0], 1 << 30), route_row(&rows[1], 1 << 30));
        // Zero parts is clamped rather than a division by zero.
        assert_eq!(route_row(&rows[0], 0), 0);
    }

    #[test]
    fn validation_is_atomic_across_partitions() {
        let dirty = sample_hospital_dataset();
        let mut session = DistributedStreamingSession::new(
            CleanConfig::default().with_tau(1),
            dirty.schema().clone(),
            rules::sample_hospital_rules(),
            2,
            1,
        )
        .unwrap();
        session
            .apply(ChangeSet::inserting(hospital_rows(&dirty)))
            .unwrap();
        let before = csv::to_csv(&session.gather_dataset());
        // Valid prefix, out-of-bounds tail: nothing may apply anywhere.
        let err = session
            .apply(ChangeSet::new().delete(TupleId(0)).delete(TupleId(5)))
            .unwrap_err();
        assert_eq!(
            err,
            CleanError::UnknownTuple {
                tuple: TupleId(5),
                rows: 5
            }
        );
        assert_eq!(csv::to_csv(&session.gather_dataset()), before);
        assert_eq!(session.partition_sizes().iter().sum::<usize>(), 6);
        // Unknown attributes are caught too.
        let err = session
            .apply(ChangeSet::new().update(TupleId(0), AttrId(99), "x"))
            .unwrap_err();
        assert!(matches!(err, CleanError::UnknownAttribute { .. }));
    }

    #[test]
    fn merge_cadence_defers_rounds_but_not_the_outcome() {
        let dirty = sample_hospital_dataset();
        let rules = rules::sample_hospital_rules();
        let config = CleanConfig::default().with_tau(1);
        let batch = MlnClean::new(config.clone()).clean(&dirty, &rules).unwrap();
        let mut session = DistributedStreamingSession::new(
            config,
            dirty.schema().clone(),
            rules,
            2,
            3, // merge every 3 change sets
        )
        .unwrap();
        let rows = hospital_rows(&dirty);
        for row in rows {
            session.apply(ChangeSet::inserting(vec![row])).unwrap();
        }
        // 6 single-row batches at K = 3 ⇒ exactly 2 cadence rounds so far.
        assert_eq!(session.timings().merge_rounds, 2);
        let streamed = session.finish();
        assert_eq!(
            csv::to_csv(&batch.repaired),
            csv::to_csv(&streamed.repaired)
        );
        assert_eq!(batch.fscr, streamed.fscr);
    }

    /// Under a memory budget the coordinator windows its only O(rows) value
    /// state — the fusion memo — between change sets, like a single session
    /// does, and the stream's outputs must not move by a byte.
    #[test]
    fn budgeted_coordinator_sheds_fusions_and_stays_byte_identical() {
        let dirty = sample_hospital_dataset();
        let rules = rules::sample_hospital_rules();
        let config = CleanConfig::default().with_tau(1);

        let run = |config: CleanConfig| {
            let mut session = DistributedStreamingSession::new(
                config,
                dirty.schema().clone(),
                rules.clone(),
                2,
                1,
            )
            .unwrap();
            for row in hospital_rows(&dirty) {
                session.apply(ChangeSet::inserting(vec![row])).unwrap();
            }
            let mid = session.outcome();
            let st = dirty.schema().attr_id("ST").unwrap();
            session
                .apply(
                    ChangeSet::new()
                        .update(TupleId(3), st, "AL")
                        .delete(TupleId(5)),
                )
                .unwrap();
            let evicted = session.memory_stats().evicted_fusions;
            (mid, session.finish(), evicted)
        };

        let (plain_mid, plain, plain_evicted) = run(config.clone());
        assert_eq!(plain_evicted, 0, "no budget, no eviction");
        let (tight_mid, tight, tight_evicted) = run(config.with_memory_budget(1));
        assert!(tight_evicted > 0, "a 1-byte budget must evict fusions");

        for (label, a, b) in [
            ("mid-stream outcome", &plain_mid, &tight_mid),
            ("final outcome", &plain, &tight),
        ] {
            assert_eq!(
                csv::to_csv(&a.repaired),
                csv::to_csv(&b.repaired),
                "{label}: repaired CSV diverged under a budget"
            );
            assert_eq!(a.agp, b.agp, "{label}: AGP diverged");
            assert_eq!(a.rsc, b.rsc, "{label}: RSC diverged");
            assert_eq!(a.fscr, b.fscr, "{label}: FSCR diverged");
        }
    }

    /// Stage II runs on the restricted plan at the coordinator too: after a
    /// change only the tuples the merge round invalidated are fused again.
    #[test]
    fn a_report_fuses_only_the_rows_the_merge_round_invalidated() {
        let dirty = sample_hospital_dataset();
        let mut session = DistributedStreamingSession::new(
            CleanConfig::default().with_tau(1),
            dirty.schema().clone(),
            rules::sample_hospital_rules(),
            2,
            1,
        )
        .unwrap();
        session
            .apply(ChangeSet::inserting(hospital_rows(&dirty)))
            .unwrap();
        let _ = session.outcome();
        assert_eq!(session.stage_two.fused_tuples(), 6);

        // Only the CFD reads HN, and its block lists rows 2..=5 alone.
        let hn = dirty.schema().attr_id("HN").unwrap();
        let report = session
            .apply(ChangeSet::new().update(TupleId(4), hn, "ELIZB"))
            .unwrap();
        assert_eq!(report.touched_blocks, vec![2]);
        let _ = session.outcome();
        assert_eq!(session.stage_two.fused_tuples(), 6 + 4);
        let _ = session.outcome();
        assert_eq!(session.stage_two.fused_tuples(), 6 + 4, "nothing dirty");
    }

    /// With nothing touched since the last round, another round — every
    /// outcome tries one — neither counts nor re-cleans anything.
    #[test]
    fn a_second_merge_round_over_an_untouched_stream_is_free() {
        let dirty = sample_hospital_dataset();
        let mut session = DistributedStreamingSession::new(
            CleanConfig::default().with_tau(1),
            dirty.schema().clone(),
            rules::sample_hospital_rules(),
            2,
            1,
        )
        .unwrap();
        session
            .apply(ChangeSet::inserting(hospital_rows(&dirty)))
            .unwrap();
        let first = session.outcome();
        let rounds = session.timings().merge_rounds;
        let recleaned = session.stage_one.recleaned_groups();
        assert!(rounds > 0 && recleaned > 0);

        session.merge_round();
        let second = session.outcome();
        assert_eq!(session.timings().merge_rounds, rounds);
        assert_eq!(session.stage_one.recleaned_groups(), recleaned);
        assert_same_report(&first, &second);

        // A round forced over every block re-merges and rebuilds them, but
        // finds every group's signature where the last round left it: its
        // AGP plans ask for no distance at all.
        let rescanned = session.stage_one.rescanned_groups();
        assert_eq!(rescanned, first.agp.merges.len() as u64);
        for block in 0..session.stage_one.cleaned().block_count() {
            session.stage_one.mark_block_dirty(block);
        }
        let forced = session.outcome();
        assert_eq!(session.timings().merge_rounds, rounds + 1);
        assert!(session.stage_one.recleaned_groups() > recleaned);
        assert_eq!(session.stage_one.rescanned_groups(), rescanned);
        assert_eq!(forced.agp.cache, mlnclean::CacheStats::default());
        assert_same_report(&first, &forced);
    }

    /// The coordinator marks every touched block fully dirty, and still its
    /// merge round plans in proportion to the change set: a full
    /// nearest-normal search only for the groups whose signature changed.
    #[test]
    fn a_merge_round_replans_only_around_the_groups_that_changed() {
        let dirty = sample_hospital_dataset();
        let mut session = DistributedStreamingSession::new(
            CleanConfig::default().with_tau(1),
            dirty.schema().clone(),
            rules::sample_hospital_rules(),
            2,
            1,
        )
        .unwrap();
        session
            .apply(ChangeSet::inserting(hospital_rows(&dirty)))
            .unwrap();
        let first = session.outcome();
        let rescanned = session.stage_one.rescanned_groups();
        assert_eq!(first.agp.merges.len(), 3);
        assert_eq!(rescanned, 3, "DOTH, the lone phone number, (ELIZA, DOTHAN)");

        // Row 2's phone number changes: its one-tuple group in the PN block
        // is another group now, and (ELIZA, DOTHAN)'s only γ another γ.
        // DOTH, in the block the change never reached, is not planned at
        // all; nobody else searches from scratch.
        let pn = dirty.schema().attr_id("PN").unwrap();
        let report = session
            .apply(ChangeSet::new().update(TupleId(2), pn, "2567638411"))
            .unwrap();
        let second = session.outcome();
        assert_eq!(second.agp.merges.len(), 3);
        let delta = session.stage_one.rescanned_groups() - rescanned;
        assert_eq!(delta, 2);
        assert!(delta < report.touched_groups as u64);
    }

    /// The routing-only regression probe: the coordinator's resident state
    /// is O(ids) — it never retains row payload (`cell_entries` stays 0 and
    /// the per-row bookkeeping is independent of arity).
    #[test]
    fn coordinator_footprint_is_o_ids_not_o_cells() {
        // Two streams over the same fixed value domain, differing only in
        // arity (wide = every row cloned to twice the width).  A mirror-era
        // coordinator would hold rows × arity cells; a routing-only one holds
        // identical id-state for both.
        let narrow_schema = Schema::new(&["A", "B", "C"]);
        let wide_schema = Schema::new(&["A", "B", "C", "D", "E", "F"]);
        let rules = rules::parse_rules("FD: A -> B").unwrap();
        let rows: Vec<Vec<String>> = (0..32)
            .map(|i| {
                vec![
                    format!("k{}", i % 4),
                    format!("v{}", i % 8),
                    format!("w{}", i % 2),
                ]
            })
            .collect();
        let wide_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let mut doubled = r.clone();
                doubled.extend(r.iter().cloned());
                doubled
            })
            .collect();
        let config = CleanConfig::default().with_tau(1);
        let mut narrow =
            DistributedStreamingSession::new(config.clone(), narrow_schema, rules.clone(), 2, 1)
                .unwrap();
        let mut wide = DistributedStreamingSession::new(config, wide_schema, rules, 2, 1).unwrap();
        narrow.apply(ChangeSet::inserting(rows.clone())).unwrap();
        wide.apply(ChangeSet::inserting(wide_rows)).unwrap();

        let narrow_fp = narrow.footprint();
        let wide_fp = wide.footprint();
        // No resident cells, ever.
        assert_eq!(narrow_fp.cell_entries, 0);
        assert_eq!(wide_fp.cell_entries, 0);
        // Same value domain ⇒ same pool/translate state; doubling the arity
        // leaves the per-row id bookkeeping untouched (it would double the
        // cell count of a resident mirror).
        assert_eq!(narrow_fp.row_entries, wide_fp.row_entries);
        assert_eq!(narrow_fp.pool_values, wide_fp.pool_values);
        assert_eq!(narrow_fp.translate_entries, wide_fp.translate_entries);
        for fp in [narrow_fp, wide_fp] {
            assert!(fp.reverse_entries <= 2 * fp.pool_values);
        }

        // Row bookkeeping is linear in rows: stream the same rows again and
        // the per-row entries double exactly while the pool stays put.
        narrow.apply(ChangeSet::inserting(rows)).unwrap();
        let grown = narrow.footprint();
        assert_eq!(grown.row_entries, 2 * narrow_fp.row_entries);
        assert_eq!(grown.pool_values, narrow_fp.pool_values);
        assert_eq!(grown.cell_entries, 0);

        // The gathered dataset is the transient O(cells) view.
        assert_eq!(narrow.gather_dataset().len(), 64);
        assert_eq!(wide.gather_dataset().len(), 32);
    }
}
