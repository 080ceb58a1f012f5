//! Incremental-vs-batch equivalence: driving a `CleaningSession` through
//! micro-batches — and, since the typed-ingest redesign, through interleaved
//! `Insert`/`Update`/`Delete` mutations — must yield **byte-identical**
//! repaired/deduplicated CSV and identical AGP/RSC/FSCR provenance to one
//! `MlnClean::clean` batch run over the net surviving rows — in both the
//! serial and the parallel Stage-I configuration, and regardless of how
//! often intermediate outcomes are drawn.

#[path = "kit/oracle.rs"]
mod oracle;
#[path = "kit/scripts.rs"]
mod scripts;

use dataset::{csv, AttrId, Dataset, Schema, TupleId};
use mlnclean::{ChangeSet, CleanConfig, CleanError, CleaningSession, MlnClean, Mutation, Report};
use oracle::assert_outcomes_identical;
use rules::RuleSet;
use scripts::random_scripts;

/// Ingest `ds` into a fresh session in micro-batches of `batch_rows`,
/// optionally drawing an intermediate outcome after every batch (which
/// exercises the re-clean + fusion-cache reuse paths), and return the final
/// outcome.
fn stream_clean(
    ds: &Dataset,
    rules: &RuleSet,
    config: CleanConfig,
    batch_rows: usize,
    outcome_per_batch: bool,
) -> Result<Report, CleanError> {
    let mut session = CleaningSession::new(config, ds.schema().clone(), rules.clone())?;
    for batch in datagen::BatchStream::new(ds, batch_rows) {
        let report = session.ingest_batch(batch).expect("rows match the schema");
        assert!(report.dirty_blocks <= report.total_blocks);
        assert!(report.touched_groups <= report.total_groups + report.rows);
        if outcome_per_batch {
            let _ = session.outcome();
        }
    }
    Ok(session.finish())
}

#[test]
fn hospital_sample_micro_batches_match_batch_run() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    for parallel in [false, true] {
        let config = CleanConfig::default().with_tau(1).with_parallel(parallel);
        let batch = MlnClean::new(config.clone()).clean(&dirty, &rules).unwrap();
        for batch_rows in [1, 2, 3, 4, 6] {
            for per_batch in [false, true] {
                let incremental =
                    stream_clean(&dirty, &rules, config.clone(), batch_rows, per_batch).unwrap();
                assert_outcomes_identical(
                    &format!(
                        "hospital (parallel={parallel}, batch={batch_rows}, per_batch={per_batch})"
                    ),
                    &incremental,
                    &batch,
                );
            }
        }
    }
}

#[test]
fn seeded_hai_micro_batches_match_batch_run() {
    let dirty = datagen::HaiGenerator::default()
        .with_rows(320)
        .with_providers(12)
        .dirty(0.06, 0.5, 13)
        .dirty;
    let rules = datagen::HaiGenerator::rules();
    for parallel in [false, true] {
        let config = CleanConfig::default()
            .with_tau(2)
            .with_agp_distance_guard(0.15)
            .with_parallel(parallel);
        let batch = MlnClean::new(config.clone()).clean(&dirty, &rules).unwrap();
        // Uneven micro-batches, with intermediate re-cleans so cached fusions
        // and cleaned blocks get reused and invalidated across batches.
        let incremental = stream_clean(&dirty, &rules, config.clone(), 47, true).unwrap();
        assert_outcomes_identical(&format!("hai (parallel={parallel})"), &incremental, &batch);
    }
}

#[test]
fn seeded_car_micro_batches_match_batch_run() {
    // CAR carries the CFD (`Make="acura"`), so some batches leave the CFD
    // block untouched — the partial-dirtiness path.
    let dirty = datagen::CarGenerator::default()
        .with_rows(400)
        .dirty(0.05, 0.5, 3)
        .dirty;
    let rules = datagen::CarGenerator::rules();
    let config = CleanConfig::default()
        .with_tau(1)
        .with_agp_distance_guard(0.15);
    let batch = MlnClean::new(config.clone()).clean(&dirty, &rules).unwrap();
    let incremental = stream_clean(&dirty, &rules, config, 61, true).unwrap();
    assert_outcomes_identical("car", &incremental, &batch);
}

#[test]
fn bulk_ingest_then_micro_batches_match_batch_run() {
    // The mixed path: one bulk `ingest_dataset` (the MlnClean special case)
    // followed by incremental tail batches.
    let dirty = datagen::HaiGenerator::default()
        .with_rows(260)
        .with_providers(10)
        .dirty(0.06, 0.5, 29)
        .dirty;
    let rules = datagen::HaiGenerator::rules();
    let config = CleanConfig::default().with_tau(2);

    let head_ids: Vec<TupleId> = (0..200).map(TupleId).collect();
    let head = dirty.project_rows(&head_ids);

    let mut session =
        CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone()).unwrap();
    session.ingest_dataset(&head).unwrap();
    let _ = session.outcome();
    let tail: Vec<Vec<String>> = (200..dirty.len())
        .map(|t| dirty.tuple(TupleId(t)).owned_values())
        .collect();
    let report = session.ingest_batch(tail).unwrap();
    assert_eq!(report.total_rows, dirty.len());
    let incremental = session.finish();

    let batch = MlnClean::new(config).clean(&dirty, &rules).unwrap();
    assert_outcomes_identical("bulk+tail", &incremental, &batch);
}

#[test]
fn dirty_block_tracking_skips_untouched_cfd_block() {
    // On CAR, a tail batch of non-acura rows must leave the CFD block clean:
    // dirty blocks < total blocks, while the output stays byte-identical to
    // a full batch run.
    let dirty = datagen::CarGenerator::default()
        .with_rows(400)
        .dirty(0.05, 0.5, 3)
        .dirty;
    let rules = datagen::CarGenerator::rules();
    let config = CleanConfig::default().with_tau(1);

    // Order-preserving split: head = everything except the last few
    // non-acura rows, tail = those rows.
    let (head, tail) = datagen::CarGenerator::non_acura_tail_split(&dirty, 10);
    assert!(
        !tail.is_empty(),
        "the CAR sample must contain non-acura rows"
    );

    let mut session =
        CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone()).unwrap();
    session.ingest_dataset(&dirty.project_rows(&head)).unwrap();
    let _ = session.outcome();
    assert_eq!(session.dirty_block_count(), 0);

    let tail_rows: Vec<Vec<String>> = tail
        .iter()
        .map(|&t| dirty.tuple(t).owned_values())
        .collect();
    let report = session.ingest_batch(tail_rows).unwrap();
    assert!(
        report.dirty_blocks < report.total_blocks,
        "the CFD block must stay clean: {report:?}"
    );
    assert_eq!(report.dirty_blocks, 1, "only the FD block is touched");

    // Still byte-identical to a batch run over head ++ tail.
    let reordered = dirty.project_rows(
        &head
            .iter()
            .chain(tail.iter())
            .copied()
            .collect::<Vec<TupleId>>(),
    );
    let batch = MlnClean::new(config).clean(&reordered, &rules).unwrap();
    assert_outcomes_identical("car tail", &session.finish(), &batch);
}

#[test]
fn session_rejects_bad_input() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();

    // Empty rule set.
    let err = CleaningSession::new(
        CleanConfig::default(),
        dirty.schema().clone(),
        RuleSet::default(),
    )
    .unwrap_err();
    assert_eq!(err, CleanError::NoRules);

    // Rule referencing an unknown attribute.
    let err = CleaningSession::new(
        CleanConfig::default(),
        dirty.schema().clone(),
        rules::parse_rules("FD: nope -> ST").unwrap(),
    )
    .unwrap_err();
    assert!(matches!(err, CleanError::Index(_)));

    // Arity mismatch is atomic: nothing is ingested.
    let mut session =
        CleaningSession::new(CleanConfig::default(), dirty.schema().clone(), rules).unwrap();
    let err = session
        .ingest_batch(vec![vec!["only-one-value".to_string()]])
        .unwrap_err();
    assert!(matches!(err, CleanError::Arity(_)));
    assert!(session.is_empty());
    assert_eq!(session.batches(), 0);
}

#[test]
fn change_set_validation_is_atomic() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let mut session =
        CleaningSession::new(CleanConfig::default(), dirty.schema().clone(), rules).unwrap();
    let rows: Vec<Vec<String>> = dirty.tuples().map(|t| t.owned_values()).collect();
    session.ingest_batch(rows).unwrap();

    // A change set that starts valid but ends out of bounds must apply
    // nothing at all: tuple ids are tracked through the sequence, so after
    // one delete only 5 rows remain and `TupleId(5)` is out of range.
    let before = csv::to_csv(session.dataset());
    let st = dirty.schema().attr_id("ST").unwrap();
    let err = session
        .apply(
            ChangeSet::new()
                .update(TupleId(0), st, "AL")
                .delete(TupleId(0))
                .delete(TupleId(5)),
        )
        .unwrap_err();
    assert_eq!(
        err,
        CleanError::UnknownTuple {
            tuple: TupleId(5),
            rows: 5
        }
    );
    assert_eq!(csv::to_csv(session.dataset()), before, "nothing applied");

    // Unknown attributes are caught too.
    let err = session
        .apply(ChangeSet::new().update(TupleId(0), AttrId(99), "x"))
        .unwrap_err();
    assert!(matches!(err, CleanError::UnknownAttribute { .. }));

    // An insertion inside the set extends the addressable range.
    session
        .apply(
            ChangeSet::new()
                .insert_row(dirty.tuple(TupleId(0)).owned_values())
                .delete(TupleId(6)),
        )
        .unwrap();
    assert_eq!(session.len(), dirty.len());
}

/// Apply one mutation to the plain-row reference model, mirroring the
/// session's sequential semantics (deletes shift later ids down).
fn apply_to_model(model: &mut Vec<Vec<String>>, mutation: &Mutation) {
    match mutation {
        Mutation::Insert(rows) => model.extend(rows.iter().cloned()),
        Mutation::Update(t, a, v) => model[t.index()][a.index()] = v.clone(),
        Mutation::Delete(t) => {
            model.remove(t.index());
        }
    }
}

/// Batch-clean the model rows from scratch (fresh dataset, fresh pool) — the
/// ground truth every session state must match byte for byte.
fn batch_clean_model(
    schema: &Schema,
    model: &[Vec<String>],
    rules: &RuleSet,
    config: &CleanConfig,
) -> Report {
    let mut net = Dataset::new(schema.clone());
    net.extend_rows(model.to_vec()).expect("model rows fit");
    MlnClean::new(config.clone())
        .clean(&net, rules)
        .expect("model batch cleans")
}

#[test]
fn scripted_mutations_on_the_hospital_sample_match_batch_runs() {
    // A deterministic script exercising every mutation kind — including CFD
    // relevance flips, value healing, deletes at the front/middle, and
    // re-inserts — checked against a fresh batch clean after EVERY change
    // set, in serial and parallel mode.
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
        // Delete everything but two rows.
        ChangeSet::new()
            .delete(TupleId(0))
            .delete(TupleId(0))
            .delete(TupleId(1)),
    ];

    for parallel in [false, true] {
        let config = CleanConfig::default().with_tau(1).with_parallel(parallel);
        let mut session =
            CleaningSession::new(config.clone(), schema.clone(), rules.clone()).unwrap();
        let mut model: Vec<Vec<String>> = Vec::new();
        for (step, changes) in scripts.iter().enumerate() {
            for mutation in changes.iter() {
                apply_to_model(&mut model, mutation);
            }
            let report = session.apply(changes.clone()).unwrap();
            assert_eq!(report.total_rows, model.len(), "step {step} row count");
            let incremental = session.outcome();
            let batch = batch_clean_model(&schema, &model, &rules, &config);
            assert_outcomes_identical(
                &format!("hospital script step {step} (parallel={parallel})"),
                &incremental,
                &batch,
            );
        }
    }
}

/// Shared body of the randomized interleaving tests: drive a session
/// through [`random_scripts`] over a seeded workload, drawing an
/// intermediate outcome after every round when asked, and require
/// byte-identity with a fresh batch clean of the net rows.
#[allow(clippy::too_many_arguments)]
fn random_interleaving_case(
    dirty: &Dataset,
    rules: &RuleSet,
    config: &CleanConfig,
    base_rows: usize,
    rounds: usize,
    outcome_per_round: bool,
    seed: u64,
    label: &str,
) {
    let schema = dirty.schema().clone();
    let mut session = CleaningSession::new(config.clone(), schema.clone(), rules.clone()).unwrap();
    let mut model: Vec<Vec<String>> = Vec::new();
    for (round, changes) in random_scripts(dirty, base_rows, rounds, seed)
        .into_iter()
        .enumerate()
    {
        for mutation in changes.iter() {
            apply_to_model(&mut model, mutation);
        }
        let report = session.apply(changes).expect("script mutations are valid");
        assert_eq!(report.total_rows, model.len());
        if round > 0 && outcome_per_round {
            let _ = session.outcome();
        }
    }

    let incremental = session.finish();
    let batch = batch_clean_model(&schema, &model, rules, config);
    assert_outcomes_identical(label, &incremental, &batch);
}

#[test]
fn random_interleavings_on_seeded_hai_match_batch_runs() {
    let dirty = datagen::HaiGenerator::default()
        .with_rows(260)
        .with_providers(10)
        .dirty(0.06, 0.5, 13)
        .dirty;
    let rules = datagen::HaiGenerator::rules();
    for parallel in [false, true] {
        let config = CleanConfig::default()
            .with_tau(2)
            .with_agp_distance_guard(0.15)
            .with_parallel(parallel);
        random_interleaving_case(
            &dirty,
            &rules,
            &config,
            200,
            8,
            true,
            0xA11CE,
            &format!("hai random interleaving (parallel={parallel})"),
        );
    }
}

#[test]
fn random_interleavings_on_seeded_car_match_batch_runs() {
    let dirty = datagen::CarGenerator::default()
        .with_rows(320)
        .dirty(0.05, 0.5, 3)
        .dirty;
    let rules = datagen::CarGenerator::rules();
    for parallel in [false, true] {
        let config = CleanConfig::default()
            .with_tau(1)
            .with_agp_distance_guard(0.15)
            .with_parallel(parallel);
        random_interleaving_case(
            &dirty,
            &rules,
            &config,
            260,
            8,
            true,
            0xCA55E77E,
            &format!("car random interleaving (parallel={parallel})"),
        );
    }
}

#[test]
fn mutations_on_non_cfd_rows_keep_the_cfd_block_clean() {
    // Updating and deleting non-acura CAR rows (on attributes the CFD cannot
    // see flips for) must leave the CFD block untouched: dirty blocks <
    // total blocks, while staying byte-identical to the batch run.
    let dirty = datagen::CarGenerator::default()
        .with_rows(320)
        .dirty(0.05, 0.5, 3)
        .dirty;
    let rules = datagen::CarGenerator::rules();
    let config = CleanConfig::default().with_tau(1);
    let (head, tail) = datagen::CarGenerator::non_acura_tail_split(&dirty, 8);
    assert!(!tail.is_empty());

    let mut session =
        CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone()).unwrap();
    let ordered: Vec<TupleId> = head.iter().chain(tail.iter()).copied().collect();
    session
        .ingest_dataset(&dirty.project_rows(&ordered))
        .unwrap();
    let _ = session.outcome();
    assert_eq!(session.dirty_block_count(), 0);

    // Delete one non-acura row and rewrite a (non-Make) cell of another.
    let model_attr = dirty.schema().attr_id("Model").unwrap();
    let victim = TupleId(ordered.len() - 1);
    let patched = TupleId(ordered.len() - 3);
    let new_value = dirty.value(tail[0], model_attr).to_string();
    let mut model: Vec<Vec<String>> = ordered
        .iter()
        .map(|&t| dirty.tuple(t).owned_values())
        .collect();
    let changes = ChangeSet::new()
        .delete(victim)
        .update(patched, model_attr, new_value);
    for mutation in changes.iter() {
        apply_to_model(&mut model, mutation);
    }
    let report = session.apply(changes).unwrap();
    assert!(
        report.dirty_blocks < report.total_blocks,
        "the CFD block must stay clean: {report:?}"
    );
    assert_eq!(report.deleted_rows, 1);
    assert_eq!(report.updated_cells, 1);

    let incremental = session.finish();
    let batch = batch_clean_model(dirty.schema(), &model, &rules, &config);
    assert_outcomes_identical("car mutation tail", &incremental, &batch);
}

#[test]
fn no_op_updates_count_nothing_and_dirty_nothing() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let mut session =
        CleaningSession::new(CleanConfig::default(), dirty.schema().clone(), rules).unwrap();
    session
        .ingest_batch(dirty.tuples().map(|t| t.owned_values()).collect())
        .unwrap();
    let _ = session.outcome();
    assert_eq!(session.dirty_block_count(), 0);

    // Re-writing a cell to the value it already holds overwrites nothing.
    let ct = dirty.schema().attr_id("CT").unwrap();
    let current = dirty.value(TupleId(0), ct).to_string();
    let report = session
        .apply(ChangeSet::new().update(TupleId(0), ct, current))
        .unwrap();
    assert_eq!(report.updated_cells, 0);
    assert_eq!(report.dirty_blocks, 0);
    assert_eq!(session.dirty_block_count(), 0);
}

#[test]
fn outcome_on_an_empty_session_is_empty() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let mut session =
        CleaningSession::new(CleanConfig::default(), dirty.schema().clone(), rules).unwrap();
    let outcome = session.outcome();
    assert!(outcome.repaired.is_empty());
    assert!(outcome.deduplicated().is_empty());
    assert!(outcome.agp.merges.is_empty());
    assert!(outcome.fscr.outcomes.is_empty());
}

#[test]
fn deleting_every_row_leaves_an_empty_but_consistent_session() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let mut session =
        CleaningSession::new(CleanConfig::default(), dirty.schema().clone(), rules).unwrap();
    let rows: Vec<Vec<String>> = dirty.tuples().map(|t| t.owned_values()).collect();
    session.ingest_batch(rows.clone()).unwrap();
    let _ = session.outcome();
    // Delete front-first: every remaining row is always TupleId(0).
    let mut changes = ChangeSet::new();
    for _ in 0..dirty.len() {
        changes = changes.delete(TupleId(0));
    }
    let report = session.apply(changes).unwrap();
    assert_eq!(report.total_rows, 0);
    assert_eq!(report.deleted_rows, dirty.len());
    let outcome = session.outcome();
    assert!(outcome.repaired.is_empty());
    assert!(outcome.fscr.outcomes.is_empty());
    // And the session keeps working afterwards.
    session.ingest_batch(rows).unwrap();
    assert_eq!(session.finish().repaired.len(), dirty.len());
}

mod proptest_interleavings {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        // Random interleavings of insert/update/delete on a seeded HAI
        // workload are byte-identical to a batch clean of the net dataset,
        // serial and parallel.
        #[test]
        fn random_hai_interleavings_match_batch(seed in 0u64..10_000) {
            let dirty = datagen::HaiGenerator::default()
                .with_rows(150)
                .with_providers(8)
                .dirty(0.08, 0.5, 7)
                .dirty;
            let rules = datagen::HaiGenerator::rules();
            let parallel = seed % 2 == 0;
            let config = CleanConfig::default()
                .with_tau(2)
                .with_parallel(parallel);
            random_interleaving_case(
                &dirty,
                &rules,
                &config,
                110,
                6,
                seed % 3 == 0,
                seed,
                &format!("proptest hai seed={seed} parallel={parallel}"),
            );
        }

        // Same property on CAR, whose CFD makes block dirtiness partial.
        #[test]
        fn random_car_interleavings_match_batch(seed in 0u64..10_000) {
            let dirty = datagen::CarGenerator::default()
                .with_rows(160)
                .dirty(0.06, 0.5, 5)
                .dirty;
            let rules = datagen::CarGenerator::rules();
            let parallel = seed % 2 == 1;
            let config = CleanConfig::default()
                .with_tau(1)
                .with_parallel(parallel);
            random_interleaving_case(
                &dirty,
                &rules,
                &config,
                120,
                6,
                seed % 3 == 1,
                seed,
                &format!("proptest car seed={seed} parallel={parallel}"),
            );
        }
    }
}
