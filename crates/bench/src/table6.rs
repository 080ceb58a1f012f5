//! Table 6: total runtime of distributed MLNClean as the number of
//! partitions grows (2 → 10) on the TPC-H workload.
//!
//! The distributed engine is the exact streaming coordinator, fed the table
//! as one change set, so F1 is the single-node F1 at every partition count.
//! The partitions are worker threads of one process: they share the host's
//! cores, so a host with fewer cores than partitions (a 2-core CI runner)
//! cannot show the paper's speed-up.

use crate::common::{fmt3, fmt_ms, ResultTable, Scale, Workload};
use dataset::RepairEvaluation;
use std::time::Instant;

/// Partition counts of Table 6.
pub const WORKER_COUNTS: [usize; 5] = [2, 4, 6, 8, 10];

/// One measured point of the partition sweep.
#[derive(Debug, Clone)]
pub struct WorkerPoint {
    /// Number of partitions.
    pub workers: usize,
    /// Wall-clock runtime of the whole run.
    pub runtime: std::time::Duration,
    /// F1 (the paper notes it barely fluctuates with the worker count; here
    /// it does not move at all).
    pub f1: f64,
}

/// Measure one partition count.
pub fn measure_workers(scale: Scale, workers: usize, seed: u64) -> WorkerPoint {
    let workload = Workload::Tpch;
    let dirty = workload.dirty(scale, 0.05, 0.5, seed);
    // Wall clock: the report's index time sums the partitions' clocks.
    let started = Instant::now();
    let outcome = workload.clean_distributed(&dirty.dirty, workers);
    let runtime = started.elapsed();
    let f1 = RepairEvaluation::evaluate(&dirty, &outcome.repaired).f1();
    WorkerPoint {
        workers,
        runtime,
        f1,
    }
}

/// Run Table 6.
pub fn run(scale: Scale) -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = ResultTable::new(
        &format!(
            "Table 6 — distributed MLNClean runtime vs number of partitions (TPC-H; \
             {cores} cores: no speed-up past that many partitions)"
        ),
        &["workers", "runtime_ms", "speedup_vs_2", "F1"],
    );
    let mut baseline = None;
    for &workers in &WORKER_COUNTS {
        let p = measure_workers(scale, workers, 700);
        let base = *baseline.get_or_insert(p.runtime.as_secs_f64());
        table.push_row(vec![
            workers.to_string(),
            fmt_ms(p.runtime),
            fmt3(base / p.runtime.as_secs_f64().max(1e-9)),
            fmt3(p.f1),
        ]);
    }
    println!("{}", table.to_text());
    vec![("table6_workers.csv".to_string(), table.to_csv())]
}
