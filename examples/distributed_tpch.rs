//! Domain example 3 — scale-out cleaning: run the distributed MLNClean
//! version (Section 6 of the paper) over a TPC-H-style customer × line-item
//! join, showing the partition sizes, the cross-partition evidence merge and
//! the wall time per partition count — and that every partition count
//! repairs exactly what the single-node engine does.
//!
//! ```text
//! cargo run -p mlnclean --release --example distributed_tpch [rows]
//! ```

use datagen::TpchGenerator;
use dataset::csv::to_csv;
use dataset::RepairEvaluation;
use distributed::DistributedStreamingSession;
use mlnclean::{ChangeSet, CleanConfig, MlnClean};

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000);

    let generator = TpchGenerator::default().with_rows(rows);
    let dirty = generator.dirty(0.05, 0.5, 11);
    let rules = TpchGenerator::rules();
    println!(
        "TPC-H-style dataset: {} rows, {} injected errors, rule: {}",
        dirty.dirty.len(),
        dirty.error_count(),
        rules.iter().next().expect("one rule")
    );

    let config = CleanConfig::default()
        .with_tau(2)
        .with_agp_distance_guard(0.15);
    let single = MlnClean::new(config.clone())
        .clean(&dirty.dirty, &rules)
        .expect("rules match the schema");
    println!(
        "single node: F1 = {:.3}",
        RepairEvaluation::evaluate(&dirty, &single.repaired).f1()
    );

    let mut baseline_time = None;
    for partitions in [1usize, 2, 4, 8] {
        // The report's index time sums the partitions' (concurrent) ingest
        // clocks; the scaling story is the elapsed wall time of the run.
        let started = std::time::Instant::now();
        let mut session = DistributedStreamingSession::new(
            config.clone(),
            dirty.dirty.schema().clone(),
            rules.clone(),
            partitions,
            1,
        )
        .expect("rules match the schema");
        let rows = dirty.dirty.tuples().map(|t| t.owned_values()).collect();
        session
            .apply(ChangeSet::inserting(rows))
            .expect("rows match the schema");
        let outcome = session.finish();
        let wall = started.elapsed();
        assert_eq!(
            to_csv(&outcome.repaired),
            to_csv(&single.repaired),
            "the distributed repair equals the single-node one"
        );
        let report = RepairEvaluation::evaluate(&dirty, &outcome.repaired);
        let speedup = baseline_time.get_or_insert(wall.as_secs_f64()).max(1e-9)
            / wall.as_secs_f64().max(1e-9);
        println!(
            "\npartitions = {partitions}: F1 = {:.3}, wall = {:.1?} (speedup ×{:.2})",
            report.f1(),
            wall,
            speedup
        );
        let parts = outcome.partitions.as_ref().expect("distributed report");
        println!(
            "  partition sizes: {:?}, skew = {:.2}",
            parts.sizes(),
            parts.skew()
        );
        println!(
            "  phases: route + ingest {:.1?} (index {:.1?}, summed over partitions), evidence merge {:.1?} ({} round(s), {} shared γs), Stage I {:.1?}, Stage II {:.1?}",
            outcome.timings.partition,
            outcome.timings.index,
            outcome.timings.gather,
            outcome.timings.merge_rounds,
            parts.shared_gammas,
            outcome.timings.agp + outcome.timings.weight_learning + outcome.timings.rsc,
            outcome.timings.fscr + outcome.timings.dedup
        );
    }
    println!("\nevery partition count repaired exactly what the single node did ✓");
}
