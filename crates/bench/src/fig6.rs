//! Figure 6: effect of the error percentage on MLNClean vs. HoloClean —
//! F1-score (a, b) and runtime (c, d) on CAR and HAI.

use crate::common::{fmt3, fmt_ms, ResultTable, Scale, Workload};
use dataset::RepairEvaluation;
use holoclean::HoloClean;
use mlnclean::MlnClean;

/// Error percentages swept in the paper.
pub const ERROR_RATES: [f64; 6] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30];

/// One measured point of the comparison.
#[derive(Debug, Clone)]
pub struct ComparisonPoint {
    /// Dataset name.
    pub workload: &'static str,
    /// Injected error rate.
    pub error_rate: f64,
    /// MLNClean F1 (detection + repair, no oracle).
    pub mlnclean_f1: f64,
    /// HoloClean F1 (oracle detection, repair only — the paper's protocol).
    pub holoclean_f1: f64,
    /// MLNClean total runtime (detection + repair).
    pub mlnclean_time: std::time::Duration,
    /// HoloClean runtime (repair only).
    pub holoclean_time: std::time::Duration,
}

/// Run the comparison for one workload at one error rate.
pub fn compare_at(workload: Workload, scale: Scale, error_rate: f64, seed: u64) -> ComparisonPoint {
    let dirty = workload.dirty(scale, error_rate, 0.5, seed);
    let rules = workload.rules();

    // MLNClean: full pipeline, no oracle.
    let cleaner = MlnClean::new(workload.clean_config());
    let outcome = cleaner
        .clean(&dirty.dirty, &rules)
        .expect("rules match the schema");
    let mlnclean_f1 = RepairEvaluation::evaluate(&dirty, &outcome.repaired).f1();
    let mlnclean_time = outcome.timings.total();

    // HoloClean: oracle detection (100% accuracy), repair only.
    let baseline = HoloClean::new();
    let noisy = dirty.erroneous_cells();
    let repair = baseline.repair(&dirty.dirty, &rules, &noisy);
    let holoclean_f1 = RepairEvaluation::evaluate(&dirty, &repair.repaired).f1();
    let holoclean_time = repair.total_time();

    ComparisonPoint {
        workload: workload.name(),
        error_rate,
        mlnclean_f1,
        holoclean_f1,
        mlnclean_time,
        holoclean_time,
    }
}

/// Run Figure 6 (both datasets, full error-rate sweep); returns the CSV files.
pub fn run(scale: Scale) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for workload in [Workload::Car, Workload::Hai] {
        let mut accuracy = ResultTable::new(
            &format!(
                "Figure 6 ({}) — F1-score vs error percentage",
                workload.name()
            ),
            &["error%", "MLNClean F1", "HoloClean F1"],
        );
        let mut runtime = ResultTable::new(
            &format!(
                "Figure 6 ({}) — runtime vs error percentage (ms)",
                workload.name()
            ),
            &["error%", "MLNClean ms", "HoloClean ms"],
        );
        for (i, &rate) in ERROR_RATES.iter().enumerate() {
            let point = compare_at(workload, scale, rate, 100 + i as u64);
            accuracy.push_row(vec![
                format!("{:.0}%", rate * 100.0),
                fmt3(point.mlnclean_f1),
                fmt3(point.holoclean_f1),
            ]);
            runtime.push_row(vec![
                format!("{:.0}%", rate * 100.0),
                fmt_ms(point.mlnclean_time),
                fmt_ms(point.holoclean_time),
            ]);
        }
        println!("{}", accuracy.to_text());
        println!("{}", runtime.to_text());
        files.push((
            format!("fig6_accuracy_{}.csv", workload.name().to_lowercase()),
            accuracy.to_csv(),
        ));
        files.push((
            format!("fig6_runtime_{}.csv", workload.name().to_lowercase()),
            runtime.to_csv(),
        ));
    }
    files
}
