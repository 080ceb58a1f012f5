//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 7) on the synthetic stand-in datasets.
//!
//! Each `figN`/`tableN` module produces the same rows/series the paper
//! reports; the `experiments` binary prints them as aligned text tables and
//! writes CSV files under `results/`.  Absolute numbers differ from the paper
//! (different data, different hardware, no Spark cluster).

pub mod common;
pub mod fig15;
pub mod fig6;
pub mod fig7;
pub mod ladder;
pub mod smoke;
pub mod sweeps;
pub mod table5;
pub mod table6;

pub use common::{Scale, Workload};

/// Identifier of a runnable experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Figure 6: F1 and runtime vs. error percentage, MLNClean vs HoloClean.
    Fig6,
    /// Figure 7: F1 vs. replacement-error ratio.
    Fig7,
    /// Figures 8–11: component accuracy and overall F1/runtime vs. τ.
    ThresholdSweep,
    /// Figures 12–14: component accuracy vs. error percentage.
    ErrorSweep,
    /// Figure 15: distributed MLNClean vs. error percentage.
    Fig15,
    /// Table 5: distance-metric comparison.
    Table5,
    /// Table 6: distributed runtime vs. worker count.
    Table6,
    /// CI bench-smoke: one end-to-end run emitting `BENCH_smoke.json` with
    /// wall-time and repair quality.  Not part of the paper; excluded from
    /// [`Experiment::ALL`].
    Smoke,
    /// Paper-scale benchmark ladder: TPC-H at 10⁴–10⁷ rows plus HAI and CAR
    /// at 10⁴–10⁵, across all three engines, emitting `BENCH_ladder.json`,
    /// `BENCH_ladder_hai.json` and `BENCH_ladder_car.json`.  Not part of the
    /// paper's figures; excluded from [`Experiment::ALL`].
    Ladder,
}

impl Experiment {
    /// All experiments, in paper order.
    pub const ALL: [Experiment; 7] = [
        Experiment::Fig6,
        Experiment::Fig7,
        Experiment::ThresholdSweep,
        Experiment::ErrorSweep,
        Experiment::Fig15,
        Experiment::Table5,
        Experiment::Table6,
    ];

    /// Parse an experiment id from the command line (`fig6`, `table5`, …).
    pub fn parse(s: &str) -> Option<Vec<Experiment>> {
        match s.to_ascii_lowercase().as_str() {
            "all" => Some(Self::ALL.to_vec()),
            "fig6" => Some(vec![Experiment::Fig6]),
            "fig7" => Some(vec![Experiment::Fig7]),
            "fig8" | "fig9" | "fig10" | "fig11" | "threshold" => {
                Some(vec![Experiment::ThresholdSweep])
            }
            "fig12" | "fig13" | "fig14" | "errorsweep" => Some(vec![Experiment::ErrorSweep]),
            "fig15" => Some(vec![Experiment::Fig15]),
            "table5" => Some(vec![Experiment::Table5]),
            "table6" => Some(vec![Experiment::Table6]),
            "smoke" => Some(vec![Experiment::Smoke]),
            "ladder" => Some(vec![Experiment::Ladder]),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::ThresholdSweep => "fig8-11 (threshold sweep)",
            Experiment::ErrorSweep => "fig12-14 (error-percentage sweep)",
            Experiment::Fig15 => "fig15",
            Experiment::Table5 => "table5",
            Experiment::Table6 => "table6",
            Experiment::Smoke => "smoke",
            Experiment::Ladder => "ladder",
        }
    }

    /// Run the experiment, printing its tables and returning the CSV files it
    /// produced (path, contents).
    pub fn run(&self, scale: Scale) -> Vec<(String, String)> {
        self.run_with(scale, None)
    }

    /// Like [`Experiment::run`], with the ladder's row cap threaded through
    /// (`--max-rows` on the command line; ignored by every other experiment).
    pub fn run_with(&self, scale: Scale, max_rows: Option<usize>) -> Vec<(String, String)> {
        match self {
            Experiment::Fig6 => fig6::run(scale),
            Experiment::Fig7 => fig7::run(scale),
            Experiment::ThresholdSweep => sweeps::run_threshold(scale),
            Experiment::ErrorSweep => sweeps::run_error(scale),
            Experiment::Fig15 => fig15::run(scale),
            Experiment::Table5 => table5::run(scale),
            Experiment::Table6 => table6::run(scale),
            Experiment::Smoke => smoke::run(scale),
            Experiment::Ladder => ladder::run(scale, max_rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_parse() {
        assert_eq!(Experiment::parse("fig6"), Some(vec![Experiment::Fig6]));
        assert_eq!(
            Experiment::parse("FIG9"),
            Some(vec![Experiment::ThresholdSweep])
        );
        assert_eq!(Experiment::parse("table6"), Some(vec![Experiment::Table6]));
        assert_eq!(Experiment::parse("all").map(|v| v.len()), Some(7));
        assert_eq!(Experiment::parse("nope"), None);
    }

    #[test]
    fn tiny_scale_fig6_runs() {
        // A smoke test that the harness end-to-end works at the tiny scale.
        let files = fig6::run(Scale::Tiny);
        assert!(!files.is_empty());
        let (_, csv) = &files[0];
        assert!(csv.lines().count() > 1, "CSV should have a header and rows");
    }

    #[test]
    fn tiny_scale_table5_runs() {
        let files = table5::run(Scale::Tiny);
        assert_eq!(files.len(), 1);
        assert!(files[0].1.contains("levenshtein"));
        assert!(files[0].1.contains("cosine"));
    }
}
