//! Parameter sweeps over MLNClean's components:
//!
//! * **threshold sweep** — Figures 8, 9, 10, 11: AGP / RSC / FSCR accuracy,
//!   the number of detected abnormal γs (#dag), and the overall F1 and
//!   runtime, as the AGP threshold τ varies;
//! * **error sweep** — Figures 12, 13, 14: the same component metrics as the
//!   injected error percentage varies at the per-dataset optimal τ.

use crate::common::{fmt3, fmt_ms, ResultTable, Scale, Workload};
use dataset::RepairEvaluation;
use mlnclean::{evaluate_agp, evaluate_fscr, evaluate_rsc, MlnClean};

/// All component metrics measured at one configuration point.
#[derive(Debug, Clone)]
pub struct ComponentPoint {
    /// AGP precision (Precision-A).
    pub precision_a: f64,
    /// AGP recall (Recall-A).
    pub recall_a: f64,
    /// Number of tuples inside detected abnormal groups (#dag).
    pub dag: usize,
    /// RSC precision (Precision-R).
    pub precision_r: f64,
    /// RSC recall (Recall-R).
    pub recall_r: f64,
    /// FSCR precision (Precision-F).
    pub precision_f: f64,
    /// FSCR recall (Recall-F).
    pub recall_f: f64,
    /// Overall F1 of the pipeline.
    pub f1: f64,
    /// Total pipeline runtime.
    pub runtime: std::time::Duration,
}

/// Clean one dirty workload with the given τ and measure every component.
pub fn measure_components(
    workload: Workload,
    scale: Scale,
    error_rate: f64,
    tau: usize,
    seed: u64,
) -> ComponentPoint {
    let dirty = workload.dirty(scale, error_rate, 0.5, seed);
    let rules = workload.rules();
    let cleaner = MlnClean::new(workload.clean_config().with_tau(tau));
    let outcome = cleaner
        .clean(&dirty.dirty, &rules)
        .expect("rules match the schema");

    let named = "a report names its records";
    let agp = evaluate_agp(&dirty, &rules, &outcome.agp).expect(named);
    let rsc = evaluate_rsc(&dirty, &rules, &outcome.rsc).expect(named);
    let fscr = evaluate_fscr(&dirty, &outcome.fscr).expect(named);
    let report = RepairEvaluation::evaluate(&dirty, &outcome.repaired);

    ComponentPoint {
        precision_a: agp.precision(),
        recall_a: agp.recall(),
        dag: outcome.agp.detected_gamma_tuples(),
        precision_r: rsc.precision(),
        recall_r: rsc.recall(),
        precision_f: fscr.precision(),
        recall_f: fscr.recall(),
        f1: report.f1(),
        runtime: outcome.timings.total(),
    }
}

/// The τ values swept per workload (the paper sweeps 0–5 on CAR and 0–50 on
/// HAI; the synthetic datasets are smaller, so the interesting range is
/// correspondingly smaller).
pub fn tau_values(workload: Workload) -> Vec<usize> {
    match workload {
        Workload::Car => vec![0, 1, 2, 3, 4, 5],
        Workload::Hai | Workload::Tpch => vec![0, 1, 2, 4, 8, 16],
    }
}

/// Figures 8–11: sweep τ at a fixed 5% error rate.
pub fn run_threshold(scale: Scale) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for workload in [Workload::Car, Workload::Hai] {
        let mut table = ResultTable::new(
            &format!(
                "Figures 8-11 ({}) — component accuracy, #dag, F1 and runtime vs threshold τ",
                workload.name()
            ),
            &[
                "tau",
                "Prec-A",
                "Rec-A",
                "#dag",
                "Prec-R",
                "Rec-R",
                "Prec-F",
                "Rec-F",
                "F1",
                "runtime_ms",
            ],
        );
        for (i, tau) in tau_values(workload).into_iter().enumerate() {
            let p = measure_components(workload, scale, 0.05, tau, 300 + i as u64);
            table.push_row(vec![
                tau.to_string(),
                fmt3(p.precision_a),
                fmt3(p.recall_a),
                p.dag.to_string(),
                fmt3(p.precision_r),
                fmt3(p.recall_r),
                fmt3(p.precision_f),
                fmt3(p.recall_f),
                fmt3(p.f1),
                fmt_ms(p.runtime),
            ]);
        }
        println!("{}", table.to_text());
        files.push((
            format!("fig8_11_threshold_{}.csv", workload.name().to_lowercase()),
            table.to_csv(),
        ));
    }
    files
}

/// Figures 12–14: sweep the error percentage at the per-dataset optimal τ.
pub fn run_error(scale: Scale) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for workload in [Workload::Car, Workload::Hai] {
        let mut table = ResultTable::new(
            &format!(
                "Figures 12-14 ({}) — component accuracy vs error percentage (τ={})",
                workload.name(),
                workload.default_tau()
            ),
            &[
                "error%", "Prec-A", "Rec-A", "#dag", "Prec-R", "Rec-R", "Prec-F", "Rec-F", "F1",
            ],
        );
        for (i, &rate) in crate::fig6::ERROR_RATES.iter().enumerate() {
            let p = measure_components(
                workload,
                scale,
                rate,
                workload.default_tau(),
                400 + i as u64,
            );
            table.push_row(vec![
                format!("{:.0}%", rate * 100.0),
                fmt3(p.precision_a),
                fmt3(p.recall_a),
                p.dag.to_string(),
                fmt3(p.precision_r),
                fmt3(p.recall_r),
                fmt3(p.precision_f),
                fmt3(p.recall_f),
                fmt3(p.f1),
            ]);
        }
        println!("{}", table.to_text());
        files.push((
            format!("fig12_14_error_{}.csv", workload.name().to_lowercase()),
            table.to_csv(),
        ));
    }
    files
}
