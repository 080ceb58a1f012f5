//! Figure 7: effect of the error-type ratio (Rret, the share of replacement
//! errors among a fixed 5% total error rate) on MLNClean vs. HoloClean.

use crate::common::{fmt3, ResultTable, Scale, Workload};
use dataset::RepairEvaluation;
use holoclean::HoloClean;
use mlnclean::MlnClean;

/// Replacement-error ratios swept in the paper (0 = all typos, 1 = all
/// replacement errors).
pub const RRET_VALUES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// F1 of both systems at one Rret value.
#[derive(Debug, Clone)]
pub struct RretPoint {
    /// Dataset name.
    pub workload: &'static str,
    /// Share of replacement errors.
    pub rret: f64,
    /// MLNClean F1.
    pub mlnclean_f1: f64,
    /// HoloClean F1.
    pub holoclean_f1: f64,
}

/// Measure one point of Figure 7.
pub fn compare_at(workload: Workload, scale: Scale, rret: f64, seed: u64) -> RretPoint {
    let dirty = workload.dirty(scale, 0.05, rret, seed);
    let rules = workload.rules();

    let cleaner = MlnClean::new(workload.clean_config());
    let outcome = cleaner
        .clean(&dirty.dirty, &rules)
        .expect("rules match the schema");
    let mlnclean_f1 = RepairEvaluation::evaluate(&dirty, &outcome.repaired).f1();

    let baseline = HoloClean::new();
    let repair = baseline.repair(&dirty.dirty, &rules, &dirty.erroneous_cells());
    let holoclean_f1 = RepairEvaluation::evaluate(&dirty, &repair.repaired).f1();

    RretPoint {
        workload: workload.name(),
        rret,
        mlnclean_f1,
        holoclean_f1,
    }
}

/// Run Figure 7 for both datasets.
pub fn run(scale: Scale) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for workload in [Workload::Car, Workload::Hai] {
        let mut table = ResultTable::new(
            &format!(
                "Figure 7 ({}) — F1-score vs replacement-error ratio Rret",
                workload.name()
            ),
            &["Rret", "MLNClean F1", "HoloClean F1"],
        );
        for (i, &rret) in RRET_VALUES.iter().enumerate() {
            let point = compare_at(workload, scale, rret, 200 + i as u64);
            table.push_row(vec![
                format!("{:.0}%", rret * 100.0),
                fmt3(point.mlnclean_f1),
                fmt3(point.holoclean_f1),
            ]);
        }
        println!("{}", table.to_text());
        files.push((
            format!("fig7_{}.csv", workload.name().to_lowercase()),
            table.to_csv(),
        ));
    }
    files
}
