//! Distributed-streaming differential harness: a
//! `DistributedStreamingSession` fed a typed `ChangeSet` stream must yield
//! **byte-identical** repaired/deduplicated CSV and identical AGP/RSC/FSCR
//! provenance to a single `CleaningSession` fed the same stream — across
//! partition counts (1/2/4), merge cadences (K ∈ {1, 3}), serial and
//! parallel Stage-I configurations, and all three fixture workloads
//! (hospital sample, seeded HAI, seeded CAR).  Since the single session is
//! itself pinned byte-identical to a batch run (`session_equivalence.rs`),
//! this transitively pins all three engines to each other.
//!
//! The harness also carries the remap-batching regression: a change set
//! with deletes — however they interleave with inserts and updates — costs
//! exactly one O(index) id-compaction pass, observed through the
//! `CleaningSession::remap_passes` counter hook.

#[path = "kit/oracle.rs"]
mod oracle;
#[path = "kit/scripts.rs"]
mod scripts;

use dataset::{AttrId, Dataset, Schema, TupleId, ValueId};
use distributed::{
    DistributedStreamingMlnClean, DistributedStreamingSession, LocalPartitions, PartitionBackend,
};
use mlnclean::{
    BatchReport, Block, ChangeSet, CleanConfig, CleaningSession, Engine, IdMutation,
    IncrementalMlnClean, InternedSlice, MlnClean, Mutation, Report, RowStore,
};
use oracle::assert_outcomes_identical;
use rules::RuleSet;
use scripts::random_scripts;
use std::time::Duration;

/// Feed the same change sets to a fresh single session and a fresh
/// distributed streaming session, asserting per-batch report agreement (and
/// optionally full intermediate outcomes), then compare the final outcomes
/// byte for byte.
#[allow(clippy::too_many_arguments)]
fn differential_case(
    schema: &Schema,
    rules: &RuleSet,
    config: &CleanConfig,
    scripts: &[ChangeSet],
    partitions: usize,
    merge_every: usize,
    outcome_per_batch: bool,
    label: &str,
) {
    let mut single =
        CleaningSession::new(config.clone(), schema.clone(), rules.clone()).expect("valid rules");
    let mut streamed = DistributedStreamingSession::new(
        config.clone(),
        schema.clone(),
        rules.clone(),
        partitions,
        merge_every,
    )
    .expect("valid rules and partitions");

    for (step, changes) in scripts.iter().enumerate() {
        let a = single.apply(changes.clone()).expect("valid script");
        let b = streamed.apply(changes.clone()).expect("valid script");
        assert_eq!(a.total_rows, b.total_rows, "{label} step {step}: row count");
        assert_eq!(a.rows, b.rows, "{label} step {step}: inserted rows");
        assert_eq!(
            a.deleted_rows, b.deleted_rows,
            "{label} step {step}: deleted rows"
        );
        assert_eq!(
            a.updated_cells, b.updated_cells,
            "{label} step {step}: updated cells"
        );
        assert_eq!(
            streamed.partition_sizes().iter().sum::<usize>(),
            b.total_rows,
            "{label} step {step}: partitions must cover every row exactly once"
        );
        if outcome_per_batch {
            assert_outcomes_identical(
                &format!("{label} step {step}"),
                &streamed.outcome(),
                &single.outcome(),
            );
        }
    }

    let streamed = streamed.finish();
    let single = single.finish();
    assert_outcomes_identical(label, &streamed, &single);
    // The distributed report carries the partition extras in global
    // coordinates.
    let parts = streamed.partitions.expect("distributed report");
    assert_eq!(parts.parts.len(), partitions);
    assert_eq!(parts.sizes().iter().sum::<usize>(), streamed.repaired.len());
    for ids in &parts.parts {
        assert!(ids.iter().all(|t| t.index() < streamed.repaired.len()));
    }
}

/// Chunk a dataset's rows into per-batch insert change sets.
fn insert_stream(ds: &Dataset, batch_rows: usize) -> Vec<ChangeSet> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < ds.len() {
        let upto = (at + batch_rows).min(ds.len());
        let rows: Vec<Vec<String>> = (at..upto)
            .map(|t| ds.tuple(TupleId(t)).owned_values())
            .collect();
        out.push(ChangeSet::inserting(rows));
        at = upto;
    }
    out
}

#[test]
fn hospital_scripted_mutation_streams_match_the_single_session() {
    // A deterministic script exercising every mutation kind — inserts that
    // hash across partitions, updates and deletes that must follow their
    // tuple's home partition through the shifting id space — checked with a
    // full differential outcome after EVERY change set.
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let schema = dirty.schema().clone();
    let ct = schema.attr_id("CT").unwrap();
    let st = schema.attr_id("ST").unwrap();
    let hn = schema.attr_id("HN").unwrap();
    let all_rows: Vec<Vec<String>> = dirty.tuples().map(|t| t.owned_values()).collect();

    let scripts: Vec<ChangeSet> = vec![
        ChangeSet::inserting(all_rows.clone()),
        // Heal the t2 typo, break t1 instead.
        ChangeSet::new()
            .update(TupleId(1), ct, "DOTHAN")
            .update(TupleId(0), st, "AK"),
        // Drop the broken row, flip t3 out of the CFD block.
        ChangeSet::new()
            .delete(TupleId(0))
            .update(TupleId(1), hn, "ALABAMA"),
        // Mixed set: insert two rows back, delete one, update across the
        // shifted numbering (ids resolve sequentially).
        ChangeSet::new()
            .insert(vec![all_rows[0].clone(), all_rows[1].clone()])
            .delete(TupleId(2))
            .update(TupleId(4), ct, "BOAZ"),
        // Delete most rows in one interleaved retraction.
        ChangeSet::new()
            .delete(TupleId(0))
            .update(TupleId(0), st, "AL")
            .delete(TupleId(1))
            .delete(TupleId(2)),
    ];

    for parallel in [false, true] {
        let config = CleanConfig::default().with_tau(1).with_parallel(parallel);
        for partitions in [1usize, 2, 4] {
            for merge_every in [1usize, 3] {
                differential_case(
                    &schema,
                    &rules,
                    &config,
                    &scripts,
                    partitions,
                    merge_every,
                    true,
                    &format!(
                        "hospital script (parallel={parallel}, partitions={partitions}, \
                         K={merge_every})"
                    ),
                );
            }
        }
    }
}

#[test]
fn seeded_hai_insert_streams_match_the_single_session() {
    let dirty = datagen::HaiGenerator::default()
        .with_rows(240)
        .with_providers(10)
        .dirty(0.06, 0.5, 13)
        .dirty;
    let rules = datagen::HaiGenerator::rules();
    let scripts = insert_stream(&dirty, 37);
    for parallel in [false, true] {
        let config = CleanConfig::default()
            .with_tau(2)
            .with_agp_distance_guard(0.15)
            .with_parallel(parallel);
        for (partitions, merge_every) in [(2usize, 1usize), (4, 3)] {
            // Draw intermediate outcomes on the serial 2-partition case so
            // cached cleaned blocks and fusion memos get reused and
            // invalidated across merge rounds.
            let per_batch = !parallel && partitions == 2;
            differential_case(
                dirty.schema(),
                &rules,
                &config,
                &scripts,
                partitions,
                merge_every,
                per_batch,
                &format!(
                    "hai stream (parallel={parallel}, partitions={partitions}, K={merge_every})"
                ),
            );
        }
    }
}

#[test]
fn seeded_car_random_mutation_streams_match_the_single_session() {
    // CAR carries the CFD (`Make="acura"`), so merge rounds see partial
    // dirtiness: some change sets leave the CFD block clean everywhere.
    let dirty = datagen::CarGenerator::default()
        .with_rows(260)
        .dirty(0.05, 0.5, 3)
        .dirty;
    let rules = datagen::CarGenerator::rules();
    let scripts = random_scripts(&dirty, 210, 8, 0xCA55E77E);
    for parallel in [false, true] {
        let config = CleanConfig::default()
            .with_tau(1)
            .with_agp_distance_guard(0.15)
            .with_parallel(parallel);
        for (partitions, merge_every) in [(2usize, 3usize), (4, 1)] {
            differential_case(
                dirty.schema(),
                &rules,
                &config,
                &scripts,
                partitions,
                merge_every,
                false,
                &format!(
                    "car random stream (parallel={parallel}, partitions={partitions}, \
                     K={merge_every})"
                ),
            );
        }
    }
}

#[test]
fn seeded_hai_random_mutation_streams_match_the_single_session() {
    let dirty = datagen::HaiGenerator::default()
        .with_rows(220)
        .with_providers(9)
        .dirty(0.06, 0.5, 29)
        .dirty;
    let rules = datagen::HaiGenerator::rules();
    let scripts = random_scripts(&dirty, 170, 8, 0xA11CE);
    let config = CleanConfig::default().with_tau(2);
    for (partitions, merge_every) in [(2usize, 1usize), (4, 3)] {
        differential_case(
            dirty.schema(),
            &rules,
            &config,
            &scripts,
            partitions,
            merge_every,
            partitions == 4,
            &format!("hai random stream (partitions={partitions}, K={merge_every})"),
        );
    }
}

#[test]
fn all_engines_agree_on_the_same_input() {
    // The full engine matrix through the one front door: batch, incremental
    // micro-batching, and distributed streaming produce byte-identical
    // repairs and provenance.
    let dirty = datagen::HaiGenerator::default()
        .with_rows(180)
        .with_providers(8)
        .dirty(0.08, 0.5, 7)
        .dirty;
    let rules = datagen::HaiGenerator::rules();
    let config = CleanConfig::default().with_tau(2);
    let engines: [&dyn Engine; 3] = [
        &MlnClean::new(config.clone()),
        &IncrementalMlnClean::new(config.clone()).with_batch_rows(41),
        &DistributedStreamingMlnClean::new(3, config.clone())
            .with_batch_rows(41)
            .with_merge_every(2),
    ];
    let reports: Vec<Report> = engines
        .iter()
        .map(|e| e.run(&dirty, &rules).expect("rules match the schema"))
        .collect();
    for report in &reports[1..] {
        assert_outcomes_identical("engine matrix", report, &reports[0]);
    }
    assert_eq!(engines[2].name(), "distributed-streaming");
    // Only the distributed driver reports partitions; its merge rounds are
    // accounted per round.
    assert!(reports[0].partitions.is_none());
    let streamed = reports[2].partitions.as_ref().expect("partition report");
    assert_eq!(streamed.parts.len(), 3);
    assert!(reports[2].timings.merge_rounds >= 1);
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

mod proptest_streams {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // Random mutation streams on seeded CAR: distributed streaming and
        // the single session agree byte for byte whatever the partition
        // count, cadence and parallelism.
        #[test]
        fn random_car_streams_match(seed in 0u64..10_000) {
            let dirty = datagen::CarGenerator::default()
                .with_rows(150)
                .dirty(0.06, 0.5, 5)
                .dirty;
            let rules = datagen::CarGenerator::rules();
            let scripts = random_scripts(&dirty, 110, 5, seed);
            let partitions = 1 + (seed as usize % 4);
            let merge_every = if seed % 2 == 0 { 1 } else { 3 };
            let config = CleanConfig::default()
                .with_tau(1)
                .with_parallel(seed % 3 == 0);
            differential_case(
                dirty.schema(),
                &rules,
                &config,
                &scripts,
                partitions,
                merge_every,
                seed % 3 == 1,
                &format!("proptest car stream seed={seed} partitions={partitions} K={merge_every}"),
            );
        }

        // Same property on seeded HAI.
        #[test]
        fn random_hai_streams_match(seed in 0u64..10_000) {
            let dirty = datagen::HaiGenerator::default()
                .with_rows(140)
                .with_providers(7)
                .dirty(0.08, 0.5, 11)
                .dirty;
            let rules = datagen::HaiGenerator::rules();
            let scripts = random_scripts(&dirty, 100, 5, seed);
            let partitions = 1 + (seed as usize % 4);
            let merge_every = if seed % 2 == 1 { 1 } else { 3 };
            let config = CleanConfig::default()
                .with_tau(2)
                .with_parallel(seed % 3 == 1);
            differential_case(
                dirty.schema(),
                &rules,
                &config,
                &scripts,
                partitions,
                merge_every,
                false,
                &format!("proptest hai stream seed={seed} partitions={partitions} K={merge_every}"),
            );
        }
    }
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
