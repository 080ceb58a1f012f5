//! Distributed-streaming equivalence and behaviour.  The `cells!` table is
//! the engine matrix's coordinator slice (`kit/engine_matrix.rs`), plus one
//! HAI table through every plan.  The rest: global deduplication across
//! partitions, the per-block dirtiness feed, partition pools that ship each
//! value once, and the remap-batching regression — a change set with
//! deletes, however they interleave with inserts and updates, costs exactly
//! one O(index) id-compaction pass, observed through the
//! `CleaningSession::remap_passes` counter hook.

#[macro_use]
#[path = "kit/engine_matrix.rs"]
mod matrix;

use dataset::{AttrId, Dataset, TupleId, ValueId};
use distributed::{DistributedStreamingSession, LocalPartitions, PartitionBackend};
use matrix::oracle::assert_outcomes_identical;
use matrix::scripts::random_scripts;
use matrix::*;
use mlnclean::{
    BatchReport, Block, ChangeSet, CleanConfig, CleaningSession, IdMutation, InternedSlice,
    MlnClean, Mutation, RowStore,
};
use std::time::Duration;

cells! {
    /// Batch, sessions, coordinator and wire on one input.
    all_engines_agree_on_the_same_input: [hai(180, 8, 0.08, 7).inserts(&[41])] => EVERY;
    /// Updates and deletes follow their tuple's home partition through the
    /// shifting ids.
    hospital_scripted_mutation_streams_match_the_single_session:
        [hospital_script()] => [Coordinator];
    seeded_hai_insert_streams_match_the_single_session:
        [hai(240, 10, 0.06, 13).guarded().inserts(&[37])] => [Coordinator];
    /// CAR's CFD gives merge rounds partial dirtiness.
    seeded_car_random_mutation_streams_match_the_single_session:
        [car(260, 0.05, 3).guarded().random(210, 8, &[0xCA55E77E])] => [Coordinator];
    seeded_hai_random_mutation_streams_match_the_single_session:
        [hai(220, 9, 0.06, 29).random(170, 8, &[0xA11CE])] => [Coordinator];
}

/// Four seeded random streams on each of two more workloads, unguarded,
/// each through four coordinator columns drawn from its seed.
mod proptest_streams {
    use super::*;

    cells! {
        random_car_streams_match: [car(150, 0.06, 5).randoms(110, 5, 4, 0x57E4)] => [Shapes(4)];
        random_hai_streams_match:
            [hai(140, 7, 0.08, 11).randoms(100, 5, 4, 0x57E5)] => [Shapes(4)];
    }
}

#[test]
fn distributed_dedup_collapses_duplicates_globally() {
    // Forty exact duplicates in a table the coordinator spreads over four
    // partitions: the deduplicated output equals the batch run's, row for
    // row, and every duplicate collapses.
    let mut table = datagen::TpchGenerator::default()
        .with_rows(400)
        .with_customers(25)
        .generate();
    let copies: Vec<Vec<String>> = table.tuples().take(40).map(|t| t.owned_values()).collect();
    for row in copies {
        table.push_row(row).unwrap();
    }
    let rules = datagen::TpchGenerator::rules();
    let config = CleanConfig::default()
        .with_tau(2)
        .with_agp_distance_guard(0.15);
    let batch = MlnClean::new(config.clone()).clean(&table, &rules).unwrap();
    let mut session =
        DistributedStreamingSession::new(config, table.schema().clone(), rules, 4, 1).unwrap();
    for changes in ChangeSet::insert_batches(&table, 128) {
        session.apply(changes).unwrap();
    }
    let distributed = session.finish();
    assert_outcomes_identical("duplicated TPC-H", &distributed, &batch);
    let parts = distributed.partitions.as_ref().expect("partition report");
    assert!(parts.sizes().iter().all(|&rows| rows > 0), "{parts:?}");
    assert!(
        distributed.deduplicated().len() <= table.len() - 40,
        "{} of {} rows survive deduplication",
        distributed.deduplicated().len(),
        table.len()
    );
}

#[test]
fn bulk_retractions_pay_one_remap_pass_per_change_set() {
    // The remap-batching regression (counter hook): deletes interleaved
    // with inserts and updates in one change set must cost exactly one
    // O(index) id-compaction pass — and stay byte-identical to a batch run
    // over the net rows.
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let config = CleanConfig::default().with_tau(1);
    let mut session =
        CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone()).unwrap();
    let rows: Vec<Vec<String>> = dirty.tuples().map(|t| t.owned_values()).collect();
    let st = dirty.schema().attr_id("ST").unwrap();

    session.ingest_batch(rows.clone()).unwrap();
    assert_eq!(session.remap_passes(), 0, "no deletes yet");

    // Deletes scattered through the set: delete, update, delete, insert,
    // delete — one pass, not three.
    let report = session
        .apply(
            ChangeSet::new()
                .delete(TupleId(0))
                .update(TupleId(0), st, "AL")
                .delete(TupleId(2))
                .insert_row(rows[0].clone())
                .delete(TupleId(1)),
        )
        .unwrap();
    assert_eq!(report.deleted_rows, 3);
    assert_eq!(session.remap_passes(), 1, "one pass for the whole set");

    // A delete-free change set pays none; a later retraction pays one more.
    session
        .apply(ChangeSet::new().update(TupleId(0), st, "AL"))
        .unwrap();
    assert_eq!(session.remap_passes(), 1);
    session
        .apply(ChangeSet::new().delete(TupleId(0)).delete(TupleId(1)))
        .unwrap();
    assert_eq!(session.remap_passes(), 2);

    // Net result still byte-identical to a batch clean of the survivors.
    let incremental = session.finish();
    let mut net = Dataset::new(dirty.schema().clone());
    // Reference model: replay the same mutations on plain rows.
    let mut model = rows.clone();
    model.remove(0); // delete t0
    model[0][st.index()] = "AL".to_string(); // update new t0
    model.remove(2); // delete t2
    model.push(rows[0].clone()); // insert
    model.remove(1); // delete t1
    model[0][st.index()] = "AL".to_string(); // second update
    model.remove(0); // final deletes
    model.remove(1);
    net.extend_rows(model).unwrap();
    let batch = MlnClean::new(config).clean(&net, &rules).unwrap();
    assert_outcomes_identical("remap batching", &incremental, &batch);
}

#[test]
fn touched_blocks_report_feeds_the_coordinator() {
    // `BatchReport::touched_blocks` — the per-block dirtiness feed the
    // streaming coordinator unions across partitions — must name exactly
    // the blocks a change set touched.
    let dirty = datagen::CarGenerator::default()
        .with_rows(200)
        .dirty(0.05, 0.5, 3)
        .dirty;
    let rules = datagen::CarGenerator::rules();
    let (head, tail) = datagen::CarGenerator::non_acura_tail_split(&dirty, 8);
    assert!(!tail.is_empty());
    let mut session = CleaningSession::new(
        CleanConfig::default().with_tau(1),
        dirty.schema().clone(),
        rules,
    )
    .unwrap();
    session.ingest_dataset(&dirty.project_rows(&head)).unwrap();
    let _ = session.outcome();

    // A non-acura tail touches the FD block but never the CFD block.
    let tail_rows: Vec<Vec<String>> = tail
        .iter()
        .map(|&t| dirty.tuple(t).owned_values())
        .collect();
    let report = session.ingest_batch(tail_rows).unwrap();
    assert!(!report.touched_blocks.is_empty());
    assert_eq!(report.touched_blocks.len(), report.dirty_blocks);
    assert!(
        !report.touched_blocks.contains(&0),
        "the CFD block (rule 0, `Make=\"acura\"`) must stay untouched: {:?}",
        report.touched_blocks
    );
    // A no-op change set touches nothing.
    let report = session.apply(ChangeSet::new()).unwrap();
    assert!(report.touched_blocks.is_empty());
}

/// In-process partitions that keep a copy of every slice they apply.
struct Recording {
    stores: LocalPartitions,
    slices: Vec<Vec<InternedSlice>>,
}

impl PartitionBackend for Recording {
    fn partitions(&self) -> usize {
        self.stores.partitions()
    }

    fn apply_slices(&mut self, slices: Vec<InternedSlice>) -> Vec<Option<BatchReport>> {
        self.slices.push(slices.clone());
        self.stores.apply_slices(slices)
    }

    fn pristine_blocks(&mut self, blocks: &[usize]) -> Vec<Vec<Block>> {
        self.stores.pristine_blocks(blocks)
    }

    fn gather_rows(&mut self, p: usize) -> Vec<Vec<ValueId>> {
        self.stores.gather_rows(p)
    }

    fn index_clock(&mut self) -> Duration {
        self.stores.index_clock()
    }
}

/// `slice` as the change set of strings it interns, its ids resolved
/// through `sent` — every value shipped to the partition so far, its tail
/// included.
fn as_strings(slice: &InternedSlice, sent: &[String], arity: usize) -> ChangeSet {
    let value = |id: &ValueId| sent[id.index()].clone();
    let mutation = |m: &IdMutation| match m {
        IdMutation::Insert(ids) => Mutation::Insert(
            ids.chunks(arity)
                .map(|row| row.iter().map(value).collect())
                .collect(),
        ),
        IdMutation::Update(t, attr, id) => Mutation::Update(*t, *attr, value(id)),
        IdMutation::Delete(t) => Mutation::Delete(*t),
    };
    slice.mutations.iter().map(mutation).collect()
}

/// Values cross to a partition once, as ids after that, and the partition
/// pools do not move: through a seeded stream of inserts, updates and
/// deletes at K = 3 — ending in an update to a value no row holds, one to a
/// value another partition holds, and a no-op — every partition's pool, in
/// id order, and rows equal those of a standalone store fed the partition's
/// slices as strings through the session door.
#[test]
fn partition_pools_equal_stores_fed_their_slices_as_strings() {
    let dirty = datagen::HaiGenerator::default()
        .with_rows(200)
        .with_providers(8)
        .dirty(0.06, 0.5, 41)
        .dirty;
    let (schema, rules) = (dirty.schema().clone(), datagen::HaiGenerator::rules());
    let config = CleanConfig::default().with_tau(2);
    let partitions = 3;
    let stores = LocalPartitions::new(config.clone(), schema.clone(), rules.clone(), partitions);
    let backend = Recording {
        stores: stores.unwrap(),
        slices: Vec::new(),
    };
    let mut session = DistributedStreamingSession::with_backend(
        config.clone(),
        schema.clone(),
        rules.clone(),
        backend,
        3,
    )
    .unwrap();
    for changes in random_scripts(&dirty, 120, 30, 0x5117) {
        session.apply(changes).unwrap();
    }

    // Row 0's partition lacks some value of another partition's pool.
    let parts = session.outcome().partitions.unwrap().parts;
    let home = |g: TupleId| parts.iter().position(|part| part.contains(&g)).unwrap();
    let pools: Vec<_> = session
        .backend_mut()
        .stores
        .stores()
        .iter()
        .map(|s| s.dataset().pool().clone())
        .collect();
    let (p, city) = (home(TupleId(0)), AttrId(2));
    let elsewhere = pools
        .iter()
        .flat_map(|pool| pool.iter().map(|(_, v)| v.to_string()))
        .find(|v| pools[p].lookup(v).is_none())
        .expect("the partitions hold different values");
    let gathered = session.gather_dataset();
    let unchanged = gathered.value(TupleId(1), city).to_string();
    let last = ChangeSet::new()
        .update(TupleId(0), city, "a city no row holds")
        .update(TupleId(0), AttrId(3), elsewhere.clone())
        .update(TupleId(1), city, unchanged)
        .delete(TupleId(2));
    session.apply(last).unwrap();
    let shipped = &session.backend_mut().slices.last().unwrap()[p];
    assert_eq!(shipped.tail, ["a city no row holds".to_string(), elsewhere]);

    let arity = schema.arity();
    let mut sent = vec![Vec::<String>::new(); partitions];
    let mut standalone: Vec<RowStore> = (0..partitions)
        .map(|_| RowStore::new(config.clone(), schema.clone(), rules.clone()).unwrap())
        .collect();
    let backend = session.backend_mut();
    for batch in &backend.slices {
        for (p, slice) in batch.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            sent[p].extend(slice.tail.iter().cloned());
            standalone[p]
                .apply(as_strings(slice, &sent[p], arity))
                .unwrap();
        }
    }
    for (p, (ours, theirs)) in backend.stores.stores().iter().zip(&standalone).enumerate() {
        assert_eq!(
            ours.dataset().pool(),
            theirs.dataset().pool(),
            "partition {p}'s pool"
        );
        assert_eq!(ours.rows(), theirs.rows(), "partition {p}'s rows");
        let values: Vec<&str> = ours.dataset().pool().iter().map(|(_, v)| v).collect();
        assert_eq!(values, sent[p], "partition {p} interned its tails in order");
    }
}
