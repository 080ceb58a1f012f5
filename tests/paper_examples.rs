//! Integration tests that walk through the paper's running example end to
//! end: Table 1 (the dirty sample), Table 3 (ground MLN rules, as the γs of
//! block B1), Figure 2 (the MLN index), Figure 4 (the three clean data
//! versions), Example 2 (the reliability score in group G13), and Example 3
//! (the fusion of tuple t3).

use dataset::{sample_hospital_dataset, sample_hospital_truth, RepairEvaluation, TupleId};
use mlnclean::{CleanConfig, MlnClean, MlnIndex};
use rules::{sample_hospital_rules, RuleId};

#[test]
fn table3_ground_mln_rules_of_r1() {
    // Each γ of block B1 *is* one ground MLN rule of r1 (CT ⇒ ST).
    let ds = sample_hospital_dataset();
    let index = MlnIndex::build(&ds, &sample_hospital_rules()).unwrap();
    let mut r1: Vec<String> = index
        .block(RuleId(0))
        .gammas()
        .map(|gamma| gamma.display_in(ds.schema(), index.pool()))
        .collect();
    r1.sort();
    let mut expected = vec![
        "{CT: DOTHAN, ST: AL}",
        "{CT: DOTH, ST: AL}",
        "{CT: BOAZ, ST: AL}",
        "{CT: BOAZ, ST: AK}",
    ];
    expected.sort();
    assert_eq!(
        r1, expected,
        "Table 3 lists exactly four ground MLN rules for r1"
    );
}

#[test]
fn figure2_mln_index_structure() {
    let index = MlnIndex::build(&sample_hospital_dataset(), &sample_hospital_rules()).unwrap();
    // Three blocks (one per rule) with 3, 3 and 2 groups respectively.
    let group_counts: Vec<usize> = index.blocks.iter().map(|b| b.group_count()).collect();
    assert_eq!(group_counts, vec![3, 3, 2]);

    // Block B1 groups by city; the BOAZ group holds t4, t5, t6.
    let boaz = index
        .group_by_key(RuleId(0), &["BOAZ"])
        .expect("BOAZ group exists");
    assert_eq!(boaz.all_tuples(), vec![TupleId(3), TupleId(4), TupleId(5)]);

    // Block B3 (the CFD) holds only the ELIZA tuples, split into the DOTHAN
    // and BOAZ reason groups of Figure 2.
    let b3 = index.block(RuleId(2));
    let keys: Vec<Vec<&str>> = b3
        .groups
        .iter()
        .map(|g| g.resolve_key(index.pool()))
        .collect();
    assert!(keys.contains(&vec!["ELIZA", "DOTHAN"]));
    assert!(keys.contains(&vec!["ELIZA", "BOAZ"]));
}

#[test]
fn full_pipeline_reproduces_the_running_example() {
    let dirty = sample_hospital_dataset();
    let rules = sample_hospital_rules();
    let outcome = MlnClean::new(CleanConfig::default().with_tau(1))
        .clean(&dirty, &rules)
        .expect("rules match the schema");

    // Example 2: the BOAZ group keeps {BOAZ, AL}; t4's state is repaired.
    let st = dirty.schema().attr_id("ST").unwrap();
    assert_eq!(outcome.repaired.value(TupleId(3), st), "AL");

    // Example 3: tuple t3 ends as {ELIZA, BOAZ, AL, 2567688400}.
    let schema = outcome.repaired.schema();
    let values: Vec<&str> = schema
        .attr_ids()
        .map(|a| outcome.repaired.value(TupleId(2), a))
        .collect();
    assert_eq!(values, vec!["ELIZA", "BOAZ", "AL", "2567688400"]);

    // The final output equals the ground truth and deduplicates to the two
    // real-world entities of the example (the ALABAMA hospital and ELIZA).
    assert_eq!(outcome.repaired, sample_hospital_truth());
    assert_eq!(outcome.deduplicated().len(), 2);
}

/// Example 3 in the FSCR record: t3's fused assignment, read through the
/// names the report attaches to its lists.
#[test]
fn the_fscr_record_of_the_running_example_fuses_t3_as_the_paper_does() {
    let outcome = MlnClean::new(CleanConfig::default().with_tau(1))
        .clean(&sample_hospital_dataset(), &sample_hospital_rules())
        .expect("rules match the schema");
    // Field by field, against the paper: t3 = {ELIZA, BOAZ, 2567688400, AL}.
    let t3 = &outcome.fscr.outcomes[2];
    let names = outcome
        .fscr
        .outcomes
        .names()
        .expect("a report names its records");
    let fused: Vec<(&str, &str)> = t3
        .fused
        .iter()
        .map(|&(a, v)| (names.attr(a), names.value(v)))
        .collect();
    assert_eq!(
        fused,
        [
            ("HN", "ELIZA"),
            ("CT", "BOAZ"),
            ("PN", "2567688400"),
            ("ST", "AL")
        ]
    );
    assert!(t3.tuple == TupleId(2) && t3.conflict_detected && !t3.fusion_failed);
    assert_eq!(outcome.fscr.changes.len(), 4);
}

#[test]
fn figure4_clean_data_versions_after_stage_one() {
    // Figure 4: after AGP + RSC, version 1 maps t1–t3 to {DOTHAN, AL} and
    // t4–t6 to {BOAZ, AL}; version 3 maps t3–t6 to {ELIZA, BOAZ, 2567688400}.
    let dirty = sample_hospital_dataset();
    let rules = sample_hospital_rules();
    let outcome = MlnClean::new(CleanConfig::default().with_tau(1))
        .clean(&dirty, &rules)
        .expect("rules match the schema");

    let b1 = outcome.index().block(RuleId(0));
    assert_eq!(b1.group_count(), 2);
    for group in &b1.groups {
        assert!(group.is_clean());
        assert_eq!(
            group.gammas[0].resolve_result_values(outcome.index().pool()),
            vec!["AL"]
        );
    }

    let b3 = outcome.index().block(RuleId(2));
    assert_eq!(b3.group_count(), 1);
    let gamma = &b3.groups[0].gammas[0];
    assert_eq!(
        gamma.resolve_reason_values(outcome.index().pool()),
        vec!["ELIZA", "BOAZ"]
    );
    assert_eq!(
        gamma.resolve_result_values(outcome.index().pool()),
        vec!["2567688400"]
    );
    assert_eq!(gamma.support(), 4);
}

#[test]
fn running_example_scores_perfect_f1() {
    let clean = sample_hospital_truth();
    let dirty_data = sample_hospital_dataset();
    let errors: Vec<dataset::InjectedError> = dirty_data
        .diff_cells(&clean)
        .into_iter()
        .map(|cell| dataset::InjectedError {
            cell,
            error_type: dataset::ErrorType::Replacement,
            original: clean.cell(cell).to_string(),
            dirty: dirty_data.cell(cell).to_string(),
        })
        .collect();
    assert_eq!(errors.len(), 4, "Table 1 has four erroneous cells");
    let dirty = dataset::DirtyDataset {
        dirty: dirty_data,
        clean,
        errors,
    };

    let outcome = MlnClean::new(CleanConfig::default().with_tau(1))
        .clean(&dirty.dirty, &sample_hospital_rules())
        .expect("rules match the schema");
    let report = RepairEvaluation::evaluate(&dirty, &outcome.repaired);
    assert_eq!(report.f1(), 1.0, "{report}");
}

/// The provenance of the running example as text: the `{:?}` rendering of
/// the AGP merges, the RSC repairs and the FSCR record, one per line, is
/// pinned in `tests/golden/hospital_records.debug`.  The repo benchmark
/// compares engines by hashing exactly these three texts.
#[test]
fn the_provenance_of_the_running_example_keeps_its_debug_text() {
    let outcome = MlnClean::new(CleanConfig::default().with_tau(1))
        .clean(&sample_hospital_dataset(), &sample_hospital_rules())
        .expect("rules match the schema");
    let text = format!(
        "{:?}\n{:?}\n{:?}\n",
        outcome.agp.merges, outcome.rsc.repairs, outcome.fscr
    );
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/hospital_records.debug"
    );
    let golden = std::fs::read_to_string(golden).expect("the fixture is committed");
    assert_eq!(text, golden);
}
