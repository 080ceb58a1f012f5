//! Out-of-core equivalence: a `CleaningSession` under a (deliberately
//! absurd) 1-byte memory budget — which forces every clean block cache to
//! spill, every distance memo to drop and every memoised fusion to be
//! evicted at each enforcement point — must produce **byte-identical**
//! repaired/deduplicated CSV and identical AGP/RSC/FSCR provenance to the
//! unbudgeted session and to a fresh batch run over the net surviving rows.
//! Likewise suspend/resume: serializing a [`mlnclean::SessionSnapshot`]
//! through the `mlnw` codec mid-stream and resuming in a fresh session must
//! not perturb any later outcome.

#[path = "kit/oracle.rs"]
mod oracle;

use dataset::{AttrId, Dataset, TupleId};
use mlnclean::{ChangeSet, CleanConfig, CleaningSession, MlnClean, Report, SessionSnapshot};
use oracle::assert_outcomes_identical;
use rules::RuleSet;

/// Drive one session through a fixed mutation-rich script: micro-batch
/// ingest with periodic intermediate outcomes (each outcome is a spill
/// point under a budget), then a couple of cell updates and front/middle
/// deletes (updates fault spilled blocks in via the dirty path, deletes via
/// the id-remap path), and a final outcome.  Returns the final report and
/// the surviving model rows.
fn run_script(
    dirty: &Dataset,
    rules: &RuleSet,
    config: CleanConfig,
) -> (Report, Vec<Vec<String>>, CleaningSession) {
    let mut model: Vec<Vec<String>> = dirty.tuples().map(|t| t.owned_values()).collect();
    let mut session = CleaningSession::new(config, dirty.schema().clone(), rules.clone())
        .expect("rules match the schema");
    for (i, chunk) in model.chunks(16).enumerate() {
        session
            .ingest_batch(chunk.to_vec())
            .expect("rows match the schema");
        if i % 3 == 2 {
            let _ = session.outcome();
        }
    }

    let n = model.len();
    // Rehome a few cells (copy a value from the next row so the update is
    // realistic for the workload's domain).
    let mut changes = ChangeSet::new();
    for &t in &[0, n / 3, n - 1] {
        let donor = (t + 1) % n;
        let value = model[donor][0].clone();
        model[t][0] = value.clone();
        changes = changes.update(TupleId(t), AttrId(0), value);
    }
    session.apply(changes).expect("updates are in bounds");
    let _ = session.outcome();

    // Delete one front row and one middle row (sequential semantics: the
    // second id is interpreted after the first shift).
    let mut changes = ChangeSet::new();
    let front = 1.min(n - 1);
    changes = changes.delete(TupleId(front));
    model.remove(front);
    let mid = (n / 2).min(model.len() - 1);
    changes = changes.delete(TupleId(mid));
    model.remove(mid);
    session.apply(changes).expect("deletes are in bounds");

    let report = session.outcome();
    (report, model, session)
}

/// The budgeted session must match the unbudgeted session and the batch
/// ground truth on every workload, in serial and parallel mode — while
/// actually spilling, faulting in and evicting along the way.
fn check_workload(label: &str, dirty: &Dataset, rules: &RuleSet, base: CleanConfig) {
    for parallel in [false, true] {
        let config = base.clone().with_parallel(parallel);
        let (unbudgeted, model, plain) = run_script(dirty, rules, config.clone());
        let stats = plain.memory_stats();
        assert_eq!(
            stats,
            mlnclean::MemoryStats::default(),
            "{label}: unbudgeted sessions must never touch the spill layer"
        );

        let (budgeted, model_b, session) =
            run_script(dirty, rules, config.clone().with_memory_budget(1));
        assert_eq!(model, model_b, "script must be deterministic");
        let stats = session.memory_stats();
        assert!(
            stats.spilled_blocks > 0,
            "{label} (parallel={parallel}): a 1-byte budget must spill \
             ({stats:?})"
        );
        assert!(
            stats.faulted_blocks > 0,
            "{label} (parallel={parallel}): the script's updates/deletes \
             must fault spilled blocks back in ({stats:?})"
        );
        assert!(
            stats.evicted_fusions > 0,
            "{label} (parallel={parallel}): a 1-byte budget must evict \
             fusion memos ({stats:?})"
        );
        assert!(stats.spilled_bytes > 0);
        assert_eq!(stats.spill_errors, 0);
        // Post-outcome enforcement evicts everything evictable under a
        // 1-byte budget — the estimate must land at zero.
        assert_eq!(session.resident_estimate(), 0);

        let mut net = Dataset::new(dirty.schema().clone());
        net.extend_rows(model).expect("model rows fit the schema");
        let batch = MlnClean::new(config)
            .clean(&net, rules)
            .expect("model batch cleans");

        let tag = format!("{label} (parallel={parallel})");
        assert_outcomes_identical(
            &format!("{tag}: budgeted vs unbudgeted"),
            &budgeted,
            &unbudgeted,
        );
        assert_outcomes_identical(&format!("{tag}: budgeted vs batch"), &budgeted, &batch);
    }
}

#[test]
fn hospital_budgeted_run_is_byte_identical() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    check_workload("hospital", &dirty, &rules, CleanConfig::default());
}

#[test]
fn seeded_hai_budgeted_run_is_byte_identical() {
    let dirty = datagen::HaiGenerator::default()
        .with_rows(240)
        .with_providers(12)
        .dirty(0.08, 0.5, 7)
        .dirty;
    let rules = datagen::HaiGenerator::rules();
    check_workload(
        "hai",
        &dirty,
        &rules,
        CleanConfig::default()
            .with_tau(2)
            .with_agp_distance_guard(0.15),
    );
}

#[test]
fn seeded_car_budgeted_run_is_byte_identical() {
    let dirty = datagen::CarGenerator::default()
        .with_rows(240)
        .dirty(0.08, 0.5, 11)
        .dirty;
    let rules = datagen::CarGenerator::rules();
    check_workload(
        "car",
        &dirty,
        &rules,
        CleanConfig::default()
            .with_tau(1)
            .with_agp_distance_guard(0.15),
    );
}

/// Suspend mid-stream (snapshot → codec bytes → resume in a fresh session)
/// and finish the stream: every outcome after the resume must be
/// byte-identical to the uninterrupted session's, batch ordinals must
/// continue, and the round trip must also hold under a budget.
#[test]
fn suspend_resume_mid_stream_is_byte_identical() {
    let dirty = datagen::HaiGenerator::default()
        .with_rows(200)
        .with_providers(10)
        .dirty(0.08, 0.5, 3)
        .dirty;
    let rules = datagen::HaiGenerator::rules();
    let rows: Vec<Vec<String>> = dirty.tuples().map(|t| t.owned_values()).collect();
    let (head, tail) = rows.split_at(rows.len() / 2);

    for (label, config) in [
        ("plain", CleanConfig::default().with_tau(2)),
        (
            "budgeted",
            CleanConfig::default().with_tau(2).with_memory_budget(1),
        ),
    ] {
        for parallel in [false, true] {
            let config = config.clone().with_parallel(parallel);
            let tag = format!("{label} (parallel={parallel})");

            // Uninterrupted reference.
            let mut uninterrupted =
                CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone())
                    .expect("rules match the schema");
            for chunk in head.chunks(16) {
                uninterrupted.ingest_batch(chunk.to_vec()).unwrap();
            }
            // Draw an outcome before the suspend point so the suspended
            // session carries non-trivial cleaned state the snapshot must
            // *not* need.
            let _ = uninterrupted.outcome();
            for chunk in tail.chunks(16) {
                uninterrupted.ingest_batch(chunk.to_vec()).unwrap();
            }
            let reference = uninterrupted.finish();

            // Interrupted twin: same prefix, then snapshot → bytes → resume.
            let mut suspended =
                CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone())
                    .expect("rules match the schema");
            for chunk in head.chunks(16) {
                suspended.ingest_batch(chunk.to_vec()).unwrap();
            }
            let _ = suspended.outcome();
            let batches_at_suspend = suspended.batches();
            let frame = mlnw::to_bytes(&suspended.snapshot()).expect("snapshot encodes");
            drop(suspended);

            let snapshot: SessionSnapshot = mlnw::from_bytes(&frame).expect("snapshot decodes");
            let mut resumed = CleaningSession::resume(config.clone(), rules.clone(), snapshot)
                .expect("snapshot resumes");
            assert_eq!(
                resumed.batches(),
                batches_at_suspend,
                "{tag}: batch ordinals must continue across the suspend"
            );
            assert_eq!(resumed.len(), head.len());
            for chunk in tail.chunks(16) {
                resumed.ingest_batch(chunk.to_vec()).unwrap();
            }
            let report = resumed.finish();
            assert_outcomes_identical(&tag, &report, &reference);
        }
    }
}

/// An empty session snapshots and resumes too (the degenerate checkpoint a
/// worker may take before its first batch).
#[test]
fn empty_snapshot_resumes() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let session = CleaningSession::new(
        CleanConfig::default(),
        dirty.schema().clone(),
        rules.clone(),
    )
    .unwrap();
    let frame = mlnw::to_bytes(&session.snapshot()).unwrap();
    let snapshot: SessionSnapshot = mlnw::from_bytes(&frame).unwrap();
    let resumed = CleaningSession::resume(CleanConfig::default(), rules, snapshot).unwrap();
    assert!(resumed.is_empty());
    assert_eq!(resumed.batches(), 0);
}
