//! Distributed streaming: one `ChangeSet` stream routed across
//! per-partition `RowStore`s with a periodic cross-partition merge of
//! per-block evidence.
//!
//! A synthetic HAI workload arrives in micro-batches; inserts hash to one of
//! four partitions, a late change set corrects the stream with updates and a
//! retraction, and every merge round folds the partitions' per-block
//! evidence back together.  The final outcome is byte-identical to a single
//! `CleaningSession` fed the same stream — which the example verifies.
//!
//! Run with:
//!
//! ```bash
//! cargo run --example distributed_stream
//! ```

use dataset::{csv, TupleId};
use distributed::DistributedStreamingSession;
use mlnclean::{ChangeSet, CleanConfig, CleaningSession};

fn main() {
    // A seeded dirty HAI workload (5% error rate) streamed in 8 batches
    // across 4 partitions, merging weights every 2 batches.
    let generator = datagen::HaiGenerator::default()
        .with_rows(400)
        .with_providers(20);
    let dirty = generator.dirty(0.05, 0.5, 1);
    let rules = datagen::HaiGenerator::rules();
    let config = CleanConfig::default()
        .with_tau(2)
        .with_agp_distance_guard(0.15);
    let schema = dirty.dirty.schema().clone();

    let mut streamed =
        DistributedStreamingSession::new(config.clone(), schema.clone(), rules.clone(), 4, 2)
            .expect("the HAI rules match the HAI schema");
    // The single-session shadow the distributed stream must match.
    let mut single =
        CleaningSession::new(config, schema, rules).expect("the HAI rules match the HAI schema");

    println!(
        "streaming {} rows across {} partitions (merge every {} batches)\n",
        dirty.dirty.len(),
        streamed.partition_count(),
        streamed.merge_every()
    );
    println!("batch  rows  total  dirty-blocks  partition-sizes");
    for changes in ChangeSet::insert_batches(&dirty.dirty, dirty.dirty.len().div_ceil(8)) {
        single
            .apply(changes.clone())
            .expect("rows match the schema");
        let report = streamed.apply(changes).expect("rows match the schema");
        println!(
            "{:>5}  {:>4}  {:>5}  {:>6}/{:<5}  {:?}",
            report.batch,
            report.rows,
            report.total_rows,
            report.dirty_blocks,
            report.total_blocks,
            streamed.partition_sizes(),
        );
    }

    // The stream corrects itself: fix two cells, retract one row.  Updates
    // and deletes follow their tuple's home partition automatically.
    let provider = dirty
        .dirty
        .schema()
        .attr_id("ProviderID")
        .expect("the HAI schema has a ProviderID attribute");
    let value = dirty.dirty.value(TupleId(0), provider).to_string();
    let fixes = ChangeSet::new()
        .update(TupleId(3), provider, value.clone())
        .update(TupleId(7), provider, value)
        .delete(TupleId(11));
    single.apply(fixes.clone()).expect("fixes are in bounds");
    let report = streamed.apply(fixes).expect("fixes are in bounds");
    println!(
        "\nmutation set: {} cells updated, {} row retracted, {} rows remain",
        report.updated_cells, report.deleted_rows, report.total_rows
    );

    let streamed = streamed.finish();
    let single = single.finish();
    assert_eq!(
        csv::to_csv(&streamed.repaired),
        csv::to_csv(&single.repaired),
        "distributed streaming and the single session must agree byte for byte"
    );
    assert_eq!(streamed.agp, single.agp, "AGP provenance must agree");
    assert_eq!(streamed.rsc, single.rsc, "RSC provenance must agree");
    assert_eq!(streamed.fscr, single.fscr, "FSCR provenance must agree");

    let partitions = streamed.partitions.as_ref().expect("distributed report");
    println!(
        "final: {} rows over {} partitions (skew {:.2}), {} shared γs merged, {} duplicates removed",
        streamed.repaired.len(),
        partitions.parts.len(),
        partitions.skew(),
        partitions.shared_gammas,
        streamed.repaired.len() - streamed.deduplicated().len(),
    );
    println!(
        "coordinator: {} merge rounds, gather {:?}",
        streamed.timings.merge_rounds, streamed.timings.gather
    );
    println!("byte-identical to the single-session stream ✓");
}
