//! Seeded inputs.  `datagen` is the load generator: everything here runs
//! before any clock starts, and the product only ever sees what it produces —
//! CSV text, rule text, row batches and mutations.

use crate::workloads::Workload;
use datagen::{CarGenerator, HaiGenerator, TpchGenerator};
use dataset::{csv, Dataset, DirtyDataset, ErrorType, InjectedError, TupleId};
use mlnclean::{CleanConfig, Mutation};
use transport::FaultSchedule;

/// Share of the rule-related cells the generators corrupt, and the share of
/// those errors that are replacements (the rest are typos) — as in
/// `crates/bench`'s ladder.
const ERROR_RATE: f64 = 0.02;
const REPLACEMENT_RATIO: f64 = 0.5;

/// The paper's Table 4 rule sets, as the text a user would hand to
/// `rules::parse_rules`.
const TPCH_RULES: &str = "FD: CustKey -> Address";
const HAI_RULES: &str = "FD: PhoneNumber -> ZIPCode\n\
                         FD: PhoneNumber -> State\n\
                         FD: ZIPCode -> City\n\
                         FD: MeasureID -> MeasureName\n\
                         FD: ZIPCode -> CountyName\n\
                         FD: ProviderID -> City, PhoneNumber\n\
                         DC: PhoneNumber = PhoneNumber, State != State";
const CAR_RULES: &str = "CFD: Make=\"acura\", Type -> Doors\n\
                         FD: Model, Type -> Make";

/// Rows at `--scale 1`.  An iteration (set-up sample plus pass) takes a second
/// or less, so a 25 s window holds some twenty samples of each; all the
/// driver's runs must fit its hour.  The sizes also keep peak RSS away from
/// steps a seed flips it across.  AGP's distance cache holds ≈ 915 k pairs at
/// 40 000 TPC-H rows and ≈ 229 k on the wire's merged block at 20 000, and
/// hashbrown doubles the table at 917 504 and 229 376: 10–30% of the peak.
/// HAI at 20 000 rows reads 86 or 92 MiB by the seed (16 000 and 22 000 rows
/// have such a step too); at 18 000, twelve seeds read 81.2–81.7.
const TPCH_BATCH_ROWS: usize = 36_000;
const HAI_BATCH_ROWS: usize = 18_000;
const CAR_SESSION_ROWS: usize = 30_000;
const TPCH_WIRE_ROWS: usize = 18_000;
/// Rows of one change set where a workload streams none of its own: the
/// batch workloads, whose table the probes of a traced run cut up.
const PROBE_BATCH_ROWS: usize = 4_096;
/// Rows of one `car_session` load batch, and of one insert of its pass.
const CAR_LOAD_BATCH_ROWS: usize = 3_000;
const CAR_INSERT_ROWS: usize = 64;
/// Rows of one `tpch_wire` change set: 13 of them, so three merge rounds
/// happen in the stream and a fourth at `finish()`.
const WIRE_BATCH_ROWS: usize = 1_400;
/// Partitions behind the wire service and change sets between two merges.
pub const WIRE_PARTITIONS: usize = 2;
pub const WIRE_MERGE_EVERY: usize = 4;
/// `checkpoint_workers()` runs once, after this many change sets.
pub const WIRE_CHECKPOINT_AFTER: usize = 6;
/// Update → insert → delete cycles of one `car_session` pass.
const CAR_CYCLES: usize = 2;

pub struct Inputs {
    /// Rows in `csv_text`.
    pub rows: usize,
    /// The dirty table the workload starts from.
    pub csv_text: String,
    pub rule_text: &'static str,
    pub config: CleanConfig,
    /// The rows of `csv_text` as an interned table — a few bytes a cell,
    /// where a second copy of the owned rows would be a tenth of the peak RSS
    /// the benchmark reports — and the rows of one of `batches()`.
    load: Dataset,
    batch_rows: usize,
    /// `car_session`: the mutations of one pass, one change set each.
    pub script: Vec<Mutation>,
    /// `tpch_wire`: what the simulated network does to the messages.
    pub faults: FaultSchedule,
    /// The table the workload ends with — dirty as the product holds it,
    /// clean as the generator made it — for the reference engine and F1.
    pub truth: DirtyDataset,
}

fn scaled(base: usize, scale: f64, at_least: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(at_least)
}

impl Inputs {
    /// The rows of `csv_text` as owned change sets: `car_session`'s load
    /// batches, `tpch_wire`'s stream.  Made afresh for every use, with the
    /// clock stopped, because the product consumes them.
    pub fn batches(&self) -> Vec<Vec<Vec<String>>> {
        let mut tuples = self.load.tuples().map(|t| t.owned_values());
        let mut batches = Vec::new();
        loop {
            let batch: Vec<_> = tuples.by_ref().take(self.batch_rows).collect();
            if batch.is_empty() {
                return batches;
            }
            batches.push(batch);
        }
    }

    /// A workload that starts from — and ends with — the whole of `truth`.
    fn from_table(rule_text: &'static str, truth: DirtyDataset) -> Inputs {
        Inputs {
            rows: truth.dirty.len(),
            csv_text: csv::to_csv(&truth.dirty),
            rule_text,
            config: clean_config(2),
            load: truth.dirty.clone(),
            batch_rows: PROBE_BATCH_ROWS,
            script: Vec::new(),
            faults: FaultSchedule::reliable(),
            truth,
        }
    }
}

/// The per-dataset τ plus the AGP merge guard the synthetic data needs (as
/// `crates/bench` configures the comparison experiments).
fn clean_config(tau: usize) -> CleanConfig {
    CleanConfig::default()
        .with_tau(tau)
        .with_agp_distance_guard(0.15)
}

fn tpch(rows: usize, seed: u64) -> DirtyDataset {
    TpchGenerator::default()
        .with_rows(rows)
        .with_customers((rows / 25).max(1))
        .with_seed(seed)
        .dirty(ERROR_RATE, REPLACEMENT_RATIO, seed)
}

pub fn generate(workload: Workload, seed: u64, scale: f64) -> Inputs {
    match workload {
        Workload::TpchBatch => {
            Inputs::from_table(TPCH_RULES, tpch(scaled(TPCH_BATCH_ROWS, scale, 100), seed))
        }
        Workload::HaiBatch => {
            let rows = scaled(HAI_BATCH_ROWS, scale, 100);
            let truth = HaiGenerator::default()
                .with_rows(rows)
                .with_providers((rows / 40).max(1))
                .with_seed(seed)
                .dirty(ERROR_RATE, REPLACEMENT_RATIO, seed);
            Inputs::from_table(HAI_RULES, truth)
        }
        Workload::TpchWire => {
            let rows = scaled(TPCH_WIRE_ROWS, scale, 100);
            let mut inputs = Inputs::from_table(TPCH_RULES, tpch(rows, seed));
            inputs.batch_rows = scaled(WIRE_BATCH_ROWS, scale, 8);
            inputs.faults = FaultSchedule {
                seed: seed.wrapping_add(6),
                delay: (0, 2),
                reorder: 0.05,
                duplicate: 0.05,
                loss: 0.05,
                ..FaultSchedule::reliable()
            };
            inputs
        }
        Workload::CarSession => car_session(seed, scale),
    }
}

/// CAR: the first `rows` generated rows are the load, the rest feed the
/// pass's inserts.  The truth is the load with the pass's script applied.
/// Tables stay interned throughout: rows of owned strings would make
/// generating the inputs the largest thing the process ever holds.
fn car_session(seed: u64, scale: f64) -> Inputs {
    let rows = scaled(CAR_SESSION_ROWS, scale, 100);
    let inserted = scaled(CAR_INSERT_ROWS, scale, 2);
    let generated = CarGenerator {
        models_per_make: (rows / 2_000).max(3),
        rows: rows + CAR_CYCLES * inserted,
        seed,
    }
    .dirty(ERROR_RATE, REPLACEMENT_RATIO, seed);
    let make = generated
        .dirty
        .schema()
        .attr_id("Make")
        .expect("the CAR schema has a Make column");
    let loaded: Vec<TupleId> = (0..rows).map(TupleId).collect();
    let load = generated.dirty.project_rows(&loaded);
    let mut dirty = load.clone();
    let mut clean = generated.clean.project_rows(&loaded);
    let owned_rows = |from: &Dataset, ids: std::ops::Range<usize>| -> Vec<Vec<String>> {
        ids.map(|t| from.tuple(TupleId(t)).owned_values()).collect()
    };

    let mut script = Vec::new();
    for cycle in 0..CAR_CYCLES {
        // A fresh value in an FD consequent: never a no-op, and an error the
        // cleaner can repair from the tuple's group.
        let tuple = (seed as usize)
            .wrapping_mul(7_919)
            .wrapping_add(cycle * 9_973 + 17)
            % dirty.len();
        let value = format!("rewrite-make-{}", cycle + 1);
        dirty.set_value(TupleId(tuple), make, value.as_str());
        script.push(Mutation::Update(TupleId(tuple), make, value));

        let next = rows + cycle * inserted..rows + (cycle + 1) * inserted;
        let fresh = owned_rows(&generated.dirty, next.clone());
        dirty
            .extend_rows(fresh.iter().cloned())
            .expect("rows come from the same schema");
        clean
            .extend_rows(owned_rows(&generated.clean, next))
            .expect("rows come from the same schema");
        script.push(Mutation::Insert(fresh));

        let tuple = (seed as usize)
            .wrapping_mul(104_729)
            .wrapping_add(cycle * 7_919 + 1_000)
            % dirty.len();
        dirty.remove_row(TupleId(tuple));
        clean.remove_row(TupleId(tuple));
        script.push(Mutation::Delete(TupleId(tuple)));
    }

    let errors = dirty
        .diff_cells(&clean)
        .into_iter()
        .map(|cell| InjectedError {
            cell,
            // The evaluation only reads the cell; the kind is not recorded
            // for the pass's own overwrites.
            error_type: ErrorType::Replacement,
            original: clean.cell(cell).to_string(),
            dirty: dirty.cell(cell).to_string(),
        })
        .collect();
    Inputs {
        rows,
        csv_text: csv::to_csv(&load),
        rule_text: CAR_RULES,
        config: clean_config(1),
        load,
        batch_rows: scaled(CAR_LOAD_BATCH_ROWS, scale, 8),
        script,
        faults: FaultSchedule::reliable(),
        truth: DirtyDataset {
            dirty,
            clean,
            errors,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_texts_are_the_generators_rule_sets() {
        assert_eq!(
            rules::parse_rules(TPCH_RULES).unwrap(),
            TpchGenerator::rules()
        );
        assert_eq!(
            rules::parse_rules(HAI_RULES).unwrap(),
            HaiGenerator::rules()
        );
        assert_eq!(
            rules::parse_rules(CAR_RULES).unwrap(),
            CarGenerator::rules()
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        for workload in Workload::ALL {
            let a = generate(workload, 1, 0.01);
            let b = generate(workload, 1, 0.01);
            let c = generate(workload, 2, 0.01);
            assert_eq!(a.csv_text, b.csv_text, "{}", workload.name());
            assert_eq!(a.script, b.script);
            assert_eq!(a.faults, b.faults);
            assert_ne!(a.csv_text, c.csv_text, "{}", workload.name());
        }
        assert_ne!(
            generate(Workload::TpchWire, 1, 0.01).faults,
            generate(Workload::TpchWire, 2, 0.01).faults
        );
    }

    #[test]
    fn the_batches_are_the_rows_of_the_csv_text() {
        for workload in Workload::ALL {
            let inputs = generate(workload, 5, 0.01);
            let parsed = csv::parse_csv(&inputs.csv_text).unwrap();
            let rows: Vec<_> = parsed.tuples().map(|t| t.owned_values()).collect();
            assert_eq!(inputs.batches().concat(), rows, "{}", workload.name());
        }
    }

    #[test]
    fn scale_multiplies_rows_and_batch_sizes() {
        let small = generate(Workload::TpchWire, 1, 0.01);
        assert_eq!(small.rows, 180);
        assert_eq!(small.batches().len(), 13);
        assert_eq!(small.batches().iter().map(Vec::len).sum::<usize>(), 180);

        assert_eq!(generate(Workload::HaiBatch, 1, 0.02).rows, 360);
    }

    #[test]
    fn the_car_truth_is_the_load_with_the_script_applied() {
        let inputs = generate(Workload::CarSession, 3, 0.01);
        assert_eq!(inputs.rows, 300);
        assert_eq!(inputs.script.len(), 3 * CAR_CYCLES);
        // Each cycle inserts two rows and deletes one.
        assert_eq!(inputs.truth.dirty.len(), inputs.rows + CAR_CYCLES);
        assert_eq!(inputs.truth.clean.len(), inputs.truth.dirty.len());
        let loaded: usize = inputs.batches().iter().map(Vec::len).sum();
        assert_eq!(loaded, inputs.rows);
        // The overwritten Make cells count as errors against the clean table.
        let rewritten = inputs
            .truth
            .errors
            .iter()
            .filter(|e| e.dirty.starts_with("rewrite-make-"))
            .count();
        assert!((1..=CAR_CYCLES).contains(&rewritten), "{rewritten}");
    }
}
