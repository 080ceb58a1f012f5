//! Figure 15: the distributed MLNClean version — F1 and runtime as the error
//! percentage grows, on the (larger) HAI and TPC-H workloads with a fixed
//! partition count.
//!
//! The distributed engine is the exact streaming coordinator, fed each table
//! as one change set.  It merges the partitions' evidence rather than their
//! weights, so its F1 equals the single-node engine's at every point; the
//! crate's tests check that equality.

use crate::common::{fmt3, fmt_ms, ResultTable, Scale, Workload};
use dataset::RepairEvaluation;
use std::time::Instant;

/// Partition count used for the error-percentage sweep.
pub const WORKERS: usize = 4;

/// Seed of the sweep's first point; point `i` uses `SEED + i`.
pub const SEED: u64 = 600;

/// One measured point of the distributed sweep.
#[derive(Debug, Clone)]
pub struct DistributedPoint {
    /// Dataset name.
    pub workload: &'static str,
    /// Injected error rate.
    pub error_rate: f64,
    /// F1 of the distributed run.
    pub f1: f64,
    /// Wall-clock runtime of the whole run.
    pub runtime: std::time::Duration,
}

/// Run the distributed cleaner at one error rate.
pub fn measure_at(
    workload: Workload,
    scale: Scale,
    error_rate: f64,
    seed: u64,
) -> DistributedPoint {
    let dirty = workload.dirty(scale, error_rate, 0.5, seed);
    // Wall clock: the report's index time sums the partitions' clocks.
    let started = Instant::now();
    let outcome = workload.clean_distributed(&dirty.dirty, WORKERS);
    let runtime = started.elapsed();
    let f1 = RepairEvaluation::evaluate(&dirty, &outcome.repaired).f1();
    DistributedPoint {
        workload: workload.name(),
        error_rate,
        f1,
        runtime,
    }
}

/// Run Figure 15 for HAI and TPC-H.
pub fn run(scale: Scale) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for workload in [Workload::Hai, Workload::Tpch] {
        let mut table = ResultTable::new(
            &format!(
                "Figure 15 ({}) — distributed MLNClean ({} partitions) vs error percentage",
                workload.name(),
                WORKERS
            ),
            &["error%", "F1", "runtime_ms"],
        );
        for (i, &rate) in crate::fig6::ERROR_RATES.iter().enumerate() {
            let p = measure_at(workload, scale, rate, SEED + i as u64);
            table.push_row(vec![
                format!("{:.0}%", rate * 100.0),
                fmt3(p.f1),
                fmt_ms(p.runtime),
            ]);
        }
        println!("{}", table.to_text());
        files.push((
            format!(
                "fig15_{}.csv",
                workload.name().to_lowercase().replace('-', "")
            ),
            table.to_csv(),
        ));
    }
    files
}
