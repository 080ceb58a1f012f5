//! Domain example 1 — healthcare data: generate a synthetic HAI-style
//! hospital-measures dataset, corrupt it following the paper's protocol,
//! clean it with MLNClean, and compare against the HoloClean-style baseline.
//!
//! ```text
//! cargo run -p mlnclean --release --example hospital_cleaning [rows] [error_rate]
//! ```

use datagen::HaiGenerator;
use dataset::RepairEvaluation;
use holoclean::HoloClean;
use mlnclean::{evaluate_agp, evaluate_fscr, evaluate_rsc, CleanConfig, MlnClean};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let error_rate: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.05);

    println!("generating a synthetic HAI dataset with {rows} rows, corrupting {:.0}% of the rule-related cells", error_rate * 100.0);
    let generator = HaiGenerator::default().with_rows(rows);
    let dirty = generator.dirty(error_rate, 0.5, 7);
    let rules = HaiGenerator::rules();
    println!(
        "injected {} errors over {} tuples; rules:",
        dirty.error_count(),
        dirty.dirty.len()
    );
    for rule in rules.iter() {
        println!("  {rule}");
    }

    // MLNClean: detection + repair, τ = 2 with the AGP merge guard.
    let config = CleanConfig::default()
        .with_tau(2)
        .with_agp_distance_guard(0.15);
    let outcome = MlnClean::new(config)
        .clean(&dirty.dirty, &rules)
        .expect("rules match the schema");
    let report = RepairEvaluation::evaluate(&dirty, &outcome.repaired);

    println!("\nMLNClean: {report}");
    println!("  stage timings: index {:.1?}, AGP {:.1?}, weight learning {:.1?}, RSC {:.1?}, FSCR {:.1?}",
        outcome.timings.index, outcome.timings.agp, outcome.timings.weight_learning,
        outcome.timings.rsc, outcome.timings.fscr);
    let agp = evaluate_agp(&dirty, &rules, &outcome.agp).expect("a report names its records");
    let rsc = evaluate_rsc(&dirty, &rules, &outcome.rsc).expect("a report names its records");
    let fscr = evaluate_fscr(&dirty, &outcome.fscr).expect("a report names its records");
    println!("  AGP : {agp}");
    println!("  RSC : {rsc}");
    println!("  FSCR: {fscr}");

    // The HoloClean-style baseline with oracle (100% accurate) detection —
    // the comparison protocol of Section 7.2 of the paper.
    let baseline = HoloClean::new();
    let repair = baseline.repair(&dirty.dirty, &rules, &dirty.erroneous_cells());
    let baseline_report = RepairEvaluation::evaluate(&dirty, &repair.repaired);
    println!("\nHoloClean-style baseline (oracle detection): {baseline_report}");
    println!(
        "  repair runtime: {:.1?} (training {:.1?} + inference {:.1?})",
        repair.total_time(),
        repair.training_time,
        repair.inference_time
    );

    println!(
        "\nsummary: MLNClean F1 = {:.3} in {:.1?} vs baseline F1 = {:.3} in {:.1?}",
        report.f1(),
        outcome.timings.total(),
        baseline_report.f1(),
        repair.total_time()
    );
}
