//! Cross-crate integration tests: synthetic workload generation, error
//! injection, MLNClean cleaning, HoloClean-style baseline comparison, and the
//! CSV/rule-file workflow a downstream user follows.

use datagen::{CarGenerator, HaiGenerator};
use dataset::csv::{parse_csv, to_csv};
use dataset::RepairEvaluation;
use distributed::DistributedMlnClean;
use holoclean::{HoloClean, HoloCleanConfig};
use mlnclean::{CleanConfig, Engine, IncrementalMlnClean, MlnClean};
use rules::parse_rules;

fn hai_config() -> CleanConfig {
    CleanConfig::default()
        .with_tau(2)
        .with_agp_distance_guard(0.15)
}

fn car_config() -> CleanConfig {
    CleanConfig::default()
        .with_tau(1)
        .with_agp_distance_guard(0.15)
}

#[test]
fn hai_cleaning_recovers_most_errors() {
    let dirty = HaiGenerator::default().with_rows(800).dirty(0.05, 0.5, 42);
    let rules = HaiGenerator::rules();
    let outcome = MlnClean::new(hai_config())
        .clean(&dirty.dirty, &rules)
        .unwrap();
    let report = RepairEvaluation::evaluate(&dirty, &outcome.repaired);
    assert!(
        report.f1() > 0.7,
        "HAI F1 should be high on dense data: {report}"
    );
    assert!(report.precision() > 0.7, "{report}");
}

#[test]
fn mlnclean_compares_favourably_with_the_baseline() {
    // The paper's headline comparison (Figure 6) at 5% errors.  On the sparse
    // CAR workload MLNClean must clearly beat the HoloClean-style baseline
    // even though the baseline is handed the exact error locations.  On the
    // dense HAI workload the oracle detection gives the baseline an edge our
    // synthetic data cannot fully compensate, so there MLNClean only has to
    // stay within a modest margin.
    let cases = [
        (
            "HAI",
            HaiGenerator::default().with_rows(800).dirty(0.05, 0.5, 7),
            HaiGenerator::rules(),
            hai_config(),
            0.10,
        ),
        (
            "CAR",
            CarGenerator::default().with_rows(800).dirty(0.05, 0.5, 7),
            CarGenerator::rules(),
            car_config(),
            -0.03,
        ),
    ];
    for (name, dirty, rules, config, allowed_gap) in cases {
        let ours = MlnClean::new(config).clean(&dirty.dirty, &rules).unwrap();
        let ours_f1 = RepairEvaluation::evaluate(&dirty, &ours.repaired).f1();

        let baseline = HoloClean::new(HoloCleanConfig::default()).repair(
            &dirty.dirty,
            &rules,
            &dirty.erroneous_cells(),
        );
        let baseline_f1 = RepairEvaluation::evaluate(&dirty, &baseline.repaired).f1();

        assert!(
            ours_f1 + allowed_gap >= baseline_f1,
            "{name}: MLNClean {ours_f1:.3} vs baseline {baseline_f1:.3} (allowed gap {allowed_gap})"
        );
    }
}

#[test]
fn accuracy_degrades_gracefully_with_error_rate() {
    // Figure 6 shape: accuracy decreases as the error percentage rises, but
    // the drop is gradual, not a collapse.
    let rules = HaiGenerator::rules();
    let gen = HaiGenerator::default().with_rows(800);
    let mut previous = f64::INFINITY;
    let mut f1_at_5 = 0.0;
    let mut f1_at_30 = 0.0;
    for (i, rate) in [0.05, 0.15, 0.30].into_iter().enumerate() {
        let dirty = gen.dirty(rate, 0.5, 21 + i as u64);
        let outcome = MlnClean::new(hai_config())
            .clean(&dirty.dirty, &rules)
            .unwrap();
        let f1 = RepairEvaluation::evaluate(&dirty, &outcome.repaired).f1();
        if i == 0 {
            f1_at_5 = f1;
        }
        f1_at_30 = f1;
        assert!(
            f1 <= previous + 0.1,
            "accuracy should not increase sharply with more errors"
        );
        previous = f1;
    }
    assert!(f1_at_5 > f1_at_30, "5% errors must be easier than 30%");
    assert!(
        f1_at_30 > 0.3,
        "even at 30% errors a meaningful share is repaired"
    );
}

#[test]
fn mlnclean_is_stable_across_error_type_ratios() {
    // Figure 7 shape: MLNClean's two-stage cleaning handles typos and
    // replacement errors alike, so F1 varies little with Rret.
    let rules = HaiGenerator::rules();
    let gen = HaiGenerator::default().with_rows(800);
    let mut f1s = Vec::new();
    for rret in [0.0, 0.5, 1.0] {
        let dirty = gen.dirty(0.05, rret, 33);
        let outcome = MlnClean::new(hai_config())
            .clean(&dirty.dirty, &rules)
            .unwrap();
        f1s.push(RepairEvaluation::evaluate(&dirty, &outcome.repaired).f1());
    }
    let max = f1s.iter().cloned().fold(f64::MIN, f64::max);
    let min = f1s.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max - min < 0.25,
        "MLNClean should be stable across Rret, got {f1s:?}"
    );
}

#[test]
fn csv_and_rule_file_workflow() {
    // The downstream-user path: CSV in, rules from text, CSV out.
    let csv = "\
city,state,zip
SEATTLE,WA,98101
SEATTLE,WA,98101
SEATTLE,XX,98101
PORTLAND,OR,97201
PORTLAND,OR,97201
";
    let dirty = parse_csv(csv).unwrap();
    let rules = parse_rules("FD: city -> state\nFD: zip -> city").unwrap();
    let outcome = MlnClean::new(CleanConfig::default().with_tau(1))
        .clean(&dirty, &rules)
        .unwrap();

    let state = dirty.schema().attr_id("state").unwrap();
    assert_eq!(outcome.repaired.value(dataset::TupleId(2), state), "WA");

    let round_trip = parse_csv(&to_csv(&outcome.repaired)).unwrap();
    assert_eq!(round_trip, outcome.repaired);
}

#[test]
fn every_engine_cleans_through_the_same_front_door() {
    // The unified Engine abstraction: batch, incremental and distributed
    // drivers run through one trait, return one Report shape, and reach
    // comparable quality on the same workload.
    let dirty = HaiGenerator::default()
        .with_rows(600)
        .with_providers(15)
        .dirty(0.05, 0.5, 42);
    let rules = HaiGenerator::rules();
    let engines: [&dyn Engine; 3] = [
        &MlnClean::new(hai_config()),
        &IncrementalMlnClean::new(hai_config()).with_batch_rows(97),
        &DistributedMlnClean::new(4, hai_config()),
    ];
    let mut f1s = Vec::new();
    for engine in engines {
        let report = engine.run(&dirty.dirty, &rules).unwrap();
        assert_eq!(
            report.repaired.len(),
            dirty.dirty.len(),
            "{}",
            engine.name()
        );
        assert!(report.timings.total() > std::time::Duration::ZERO);
        // Provenance is global-coordinate for every driver: one FSCR outcome
        // per input tuple.
        assert_eq!(report.fscr.outcomes.len(), dirty.dirty.len());
        match engine.name() {
            "distributed" => {
                assert!(report.index.is_none());
                assert!(report.partitions.is_some());
            }
            _ => {
                assert!(report.index.is_some());
                assert!(report.partitions.is_none());
            }
        }
        f1s.push(RepairEvaluation::evaluate(&dirty, &report.repaired).f1());
    }
    // Batch and incremental are byte-identical (pinned elsewhere); the
    // distributed plan reorders tuples into partitions, so it only has to be
    // comparable in quality.
    assert_eq!(f1s[0], f1s[1], "batch vs incremental F1");
    assert!(
        (f1s[0] - f1s[2]).abs() < 0.15,
        "single-node {:.3} vs distributed {:.3}",
        f1s[0],
        f1s[2]
    );
}

#[test]
fn cleaning_is_deterministic() {
    let dirty = CarGenerator::default().with_rows(500).dirty(0.05, 0.5, 9);
    let rules = CarGenerator::rules();
    let a = MlnClean::new(car_config())
        .clean(&dirty.dirty, &rules)
        .unwrap();
    let b = MlnClean::new(car_config())
        .clean(&dirty.dirty, &rules)
        .unwrap();
    assert_eq!(a.repaired, b.repaired);
    assert_eq!(a.deduplicated(), b.deduplicated());
}

#[test]
fn clean_input_passes_through_almost_untouched() {
    // Cleaning an already-clean dataset must not wreck it: no erroneous cells
    // exist, so precision of the (few, if any) rewrites is the only concern.
    let clean = HaiGenerator::default().with_rows(600).generate();
    let rules = HaiGenerator::rules();
    let outcome = MlnClean::new(hai_config()).clean(&clean, &rules).unwrap();
    let changed = outcome.repaired.diff_cells(&clean).len();
    let total = clean.cell_count();
    assert!(
        (changed as f64) / (total as f64) < 0.01,
        "cleaning clean data changed {changed}/{total} cells"
    );
}
