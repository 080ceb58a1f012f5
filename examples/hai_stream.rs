//! Streaming ingest with the incremental `CleaningSession`.
//!
//! A synthetic HAI workload arrives in micro-batches; after every batch the
//! session re-cleans only what the batch touched and reports the repair
//! quality so far.  The final outcome is byte-identical to one batch
//! `MlnClean::clean` run over all rows — which the example verifies.
//!
//! Run with:
//!
//! ```bash
//! cargo run --example hai_stream
//! ```

use dataset::{csv, RepairEvaluation};
use mlnclean::{ChangeSet, CleanConfig, CleaningSession, MlnClean};

fn main() {
    // A seeded dirty HAI workload (5% error rate) streamed in 8 batches.
    let generator = datagen::HaiGenerator::default()
        .with_rows(400)
        .with_providers(20);
    let dirty = generator.dirty(0.05, 0.5, 1);
    let rules = datagen::HaiGenerator::rules();
    let config = CleanConfig::default()
        .with_tau(2)
        .with_agp_distance_guard(0.15);

    let mut session =
        CleaningSession::new(config.clone(), dirty.dirty.schema().clone(), rules.clone())
            .expect("the HAI rules match the HAI schema");

    println!("streaming {} rows in 8 micro-batches\n", dirty.dirty.len());
    println!("batch  rows  total  dirty-blocks  touched-groups  cells-off-truth");
    for changes in ChangeSet::insert_batches(&dirty.dirty, dirty.dirty.len().div_ceil(8)) {
        let report = session.apply(changes).expect("rows match the schema");
        let outcome = session.outcome();
        // How far the rows ingested so far still are from the ground truth.
        let prefix_truth = dirty
            .clean
            .project_rows(&outcome.repaired.tuple_ids().collect::<Vec<_>>());
        let cells_off = outcome.repaired.diff_cells(&prefix_truth).len();
        println!(
            "{:>5}  {:>4}  {:>5}  {:>6}/{:<5}  {:>8}/{:<5}  {:>6}",
            report.batch,
            report.rows,
            report.total_rows,
            report.dirty_blocks,
            report.total_blocks,
            report.touched_groups,
            report.total_groups,
            cells_off,
        );
    }

    let streamed = session.finish();

    // The incremental result is byte-identical to one batch run.
    let batch = MlnClean::new(config)
        .clean(&dirty.dirty, &rules)
        .expect("the batch pipeline cleans the same data");
    assert_eq!(
        csv::to_csv(&streamed.repaired),
        csv::to_csv(&batch.repaired),
        "incremental and batch runs must agree byte for byte"
    );

    let report = RepairEvaluation::evaluate(&dirty, &streamed.repaired);
    println!(
        "\nfinal: {} rows, {} duplicates removed, {}",
        streamed.repaired.len(),
        streamed.repaired.len() - streamed.deduplicated().len(),
        report
    );
    println!("stream timings: {:?} total", streamed.timings.total());
    println!("byte-identical to the one-shot batch run ✓");
}
