//! Quickstart: clean the paper's six-tuple hospital sample (Table 1) with the
//! three rules of Example 1 and print what happened.
//!
//! ```text
//! cargo run -p mlnclean --example quickstart
//! ```

use dataset::{sample_hospital_dataset, sample_hospital_truth, TupleId};
use mlnclean::{CleanConfig, MlnClean};
use rules::sample_hospital_rules;

fn main() {
    // The dirty input: Table 1 of the paper.  Four cells are wrong — a typo
    // (t2.CT = "DOTH"), a replacement error plus a wrong phone number on t3,
    // and a schema-level violation (t4.ST = "AK").
    let dirty = sample_hospital_dataset();
    let rules = sample_hospital_rules();

    println!("rules:");
    for rule in rules.iter() {
        println!("  {rule}");
    }
    println!("\ndirty data:\n{dirty}");

    // Clean with the paper's running-example configuration (τ = 1).
    let cleaner = MlnClean::new(CleanConfig::default().with_tau(1));
    let outcome = cleaner
        .clean(&dirty, &rules)
        .expect("rules match the schema");

    println!("repaired data:\n{}", outcome.repaired);
    println!(
        "after duplicate elimination ({} rows):\n{}",
        outcome.deduplicated().len(),
        outcome.deduplicated()
    );

    // Show the individual decisions the pipeline took.  The records hold
    // value ids; the report names them.
    let names = outcome
        .agp
        .merges
        .names()
        .expect("a report names its records");
    println!("abnormal groups merged by AGP:");
    for merge in &outcome.agp.merges {
        println!(
            "  block {}: {:?} -> {:?} ({} tuple(s))",
            merge.rule,
            names.values(&merge.abnormal_key),
            merge.target_key.as_deref().map(|key| names.values(key)),
            merge.tuples.len()
        );
    }
    println!("γ replacements made by RSC:");
    for repair in &outcome.rsc.repairs {
        println!(
            "  block {}: {:?} -> {:?} for {:?}",
            repair.rule,
            names.values(&repair.from_values),
            names.values(&repair.to_values),
            repair.tuples
        );
    }
    println!("cells rewritten at fusion time:");
    for change in &outcome.fscr.changes {
        let (old, new) = (names.value(change.old), names.value(change.new));
        println!("  {}: {old:?} -> {new:?}", change.cell);
    }

    // Verify against the ground truth of the running example.
    let truth = sample_hospital_truth();
    assert_eq!(
        outcome.repaired, truth,
        "the running example is cleaned exactly"
    );
    let st = dirty.schema().attr_id("ST").unwrap();
    assert_eq!(outcome.repaired.value(TupleId(3), st), "AL");
    println!("\nall four erroneous cells repaired; output matches the paper's expected result");
}
