//! Session equivalence and behaviour.  The `cells!` table is the engine
//! matrix's session slice (`kit/engine_matrix.rs`, every cell against
//! `MlnClean` on the net table); the hospital and CAR micro-batch rows run
//! every plan here.  The rest: a bulk ingest followed by micro-batches, CFD
//! dirty-block tracking, validation atomicity, no-op updates, and empty and
//! all-deleted sessions.

#[macro_use]
#[path = "kit/engine_matrix.rs"]
mod matrix;

use dataset::{csv, AttrId, TupleId};
use matrix::oracle::assert_outcomes_identical;
use matrix::*;
use mlnclean::{ChangeSet, CleanConfig, CleanError, CleaningSession, MlnClean};
use rules::RuleSet;

cells! {
    hospital_sample_micro_batches_match_batch_run: [hospital().inserts(&[1, 2, 3, 4, 6])] => EVERY;
    /// CAR's CFD leaves some batches' CFD block clean.
    seeded_car_micro_batches_match_batch_run: [car(400, 0.05, 3).guarded().inserts(&[61])] => EVERY;
    seeded_hai_micro_batches_match_batch_run:
        [hai(320, 12, 0.06, 13).guarded().inserts(&[47])] => [Sessions];
    /// Checked against a batch run after every step.
    scripted_mutations_on_the_hospital_sample_match_batch_runs: [hospital_script()] => [Sessions];
    random_interleavings_on_seeded_hai_match_batch_runs:
        [hai(260, 10, 0.06, 13).guarded().random(200, 8, &[0xA11CE])] => [Sessions];
    random_interleavings_on_seeded_car_match_batch_runs:
        [car(320, 0.05, 3).guarded().random(260, 8, &[0xCA55E77E])] => [Sessions];
}

/// Five seeded random streams on each of two more workloads, unguarded.
mod proptest_interleavings {
    use super::*;

    cells! {
        random_hai_interleavings_match_batch:
            [hai(150, 8, 0.08, 7).randoms(110, 6, 5, 0x5E55)] => [Sessions];
        random_car_interleavings_match_batch:
            [car(160, 0.06, 5).randoms(120, 6, 5, 0x5E56)] => [Sessions];
    }
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
    let changes = ChangeSet::new()
        .delete(victim)
        .update(patched, model_attr, new_value.clone());
    let report = session.apply(changes).unwrap();
    assert!(
        report.dirty_blocks < report.total_blocks,
        "the CFD block must stay clean: {report:?}"
    );
    assert_eq!(report.deleted_rows, 1);
    assert_eq!(report.updated_cells, 1);

    // The net table: the last row gone, the patched row (before it) rewritten.
    let mut net = dirty.project_rows(&ordered[..victim.index()]);
    net.set_value(patched, model_attr, &new_value);
    let batch = MlnClean::new(config).clean(&net, &rules).unwrap();
    assert_outcomes_identical("car mutation tail", &session.finish(), &batch);
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
