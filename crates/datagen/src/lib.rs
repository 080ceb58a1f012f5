//! Synthetic dataset generators standing in for the paper's evaluation
//! datasets.
//!
//! The paper evaluates on two real datasets — **HAI** (healthcare-associated
//! infections, 231 k tuples) and **CAR** (used-vehicle listings, 31 k tuples)
//! — plus a synthetic **TPC-H** join (6 M tuples).  None of the real data can
//! be redistributed here, so this crate generates schema-faithful synthetic
//! stand-ins:
//!
//! * the schemas match the attributes referenced by the paper's Table 4 rule
//!   sets, and the generators enforce those rules on the clean data, so the
//!   constraint structure (what determines what, how selective each rule is)
//!   is preserved;
//! * attribute cardinalities and co-occurrence skew approximate the real
//!   sources — HAI is dense (few hospitals × many measures), CAR is sparse
//!   (many models, many free-text-ish attribute values), TPC-H is a
//!   wide join keyed by customer;
//! * generation is fully seeded, so every experiment is reproducible.
//!
//! Each generator exposes the matching [`rules::RuleSet`] (Table 4) and a
//! convenience [`dirty`](HaiGenerator::dirty) method that injects errors on
//! the rule-related attributes following the paper's protocol.

pub mod car;
pub mod hai;
pub mod stream;
pub mod tpch;

pub use car::{CarGenerator, CarRows};
pub use hai::{HaiGenerator, HaiRows};
pub use stream::{batched, Batched, DirtyRowStream, StreamColumn};
pub use tpch::{TpchGenerator, TpchRows};

use dataset::{AttrId, Dataset, DirtyDataset, ErrorInjector, ErrorSpec};
use rules::RuleSet;

/// Shared helper: corrupt `clean` on the attributes constrained by `rules`,
/// at `error_rate`, with `replacement_ratio` (the paper's Rret) and `seed`.
pub fn make_dirty(
    clean: &Dataset,
    rules: &RuleSet,
    error_rate: f64,
    replacement_ratio: f64,
    seed: u64,
) -> DirtyDataset {
    let attrs: Vec<AttrId> = rules
        .constrained_attrs()
        .iter()
        .filter_map(|a| clean.schema().attr_id(a))
        .collect();
    let spec = ErrorSpec::new(error_rate, seed)
        .with_replacement_ratio(replacement_ratio)
        .on_attributes(attrs);
    ErrorInjector::new(spec).inject(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::ValueId;
    use std::collections::HashMap;

    /// The MLN index's notion of consistency: under every rule, relevant
    /// tuples that agree on the reason ids agree on the result ids, so no
    /// group of the index holds a second γ.
    pub(crate) fn consistent(ds: &Dataset, rules: &RuleSet) -> bool {
        let schema = ds.schema();
        rules.iter().all(|rule| {
            let mut results: HashMap<Vec<ValueId>, Vec<ValueId>> = HashMap::new();
            ds.tuples()
                .filter(|t| rule.is_relevant(schema, t))
                .all(|t| {
                    let result = rule.result_value_ids(schema, &t);
                    let reason = rule.reason_value_ids(schema, &t);
                    *results.entry(reason).or_insert_with(|| result.clone()) == result
                })
        })
    }

    #[test]
    fn all_generators_produce_rule_consistent_clean_data() {
        let tables = [
            (
                "HAI",
                HaiGenerator::default().with_rows(500).dirty(0.05, 0.5, 1),
                HaiGenerator::rules(),
            ),
            (
                "CAR",
                CarGenerator::default().with_rows(600).dirty(0.05, 0.5, 1),
                CarGenerator::rules(),
            ),
            (
                "TPC-H",
                TpchGenerator::default().with_rows(800).dirty(0.05, 0.5, 1),
                TpchGenerator::rules(),
            ),
        ];
        for (name, table, rules) in &tables {
            assert!(consistent(&table.clean, rules), "{name}'s clean table");
            assert!(!consistent(&table.dirty, rules), "{name}'s dirty table");
        }
    }

    #[test]
    fn make_dirty_restricts_to_rule_attributes() {
        let clean = HaiGenerator::default().with_rows(200).generate();
        let rules = HaiGenerator::rules();
        let dirty = make_dirty(&clean, &rules, 0.1, 0.5, 7);
        let constrained = rules.constrained_attrs();
        for e in &dirty.errors {
            let name = clean.schema().attr_name(e.cell.attr).to_string();
            assert!(
                constrained.contains(&name),
                "error injected outside rule attributes: {name}"
            );
        }
        assert!(dirty.error_count() > 0);
    }

    #[test]
    fn row_streams_match_the_materialised_datasets() {
        // The generators drain their own row streams, so an external consumer
        // of `row_stream()` must see exactly the rows of `generate()` — this
        // is what makes streamed ingest byte-identical to batch ingest.
        let hai = HaiGenerator::default().with_rows(120);
        let car = CarGenerator::default().with_rows(120);
        let tpch = TpchGenerator::default().with_rows(120);
        let hai_ds = hai.generate();
        let car_ds = car.generate();
        let tpch_ds = tpch.generate();
        for (i, row) in hai.row_stream().enumerate() {
            assert_eq!(row, hai_ds.tuple(dataset::TupleId(i)).owned_values());
        }
        for (i, row) in car.row_stream().enumerate() {
            assert_eq!(row, car_ds.tuple(dataset::TupleId(i)).owned_values());
        }
        for (i, row) in tpch.row_stream().enumerate() {
            assert_eq!(row, tpch_ds.tuple(dataset::TupleId(i)).owned_values());
        }
    }

    #[test]
    fn dirty_streams_are_batch_size_independent() {
        // Per-cell decisions depend only on (seed, row, column), so however
        // the stream is batched, the same seed yields the same dirty rows.
        let gen = TpchGenerator::default().with_rows(500).with_customers(40);
        let whole: Vec<Vec<String>> = gen.dirty_row_stream(0.08, 0.5, 9).collect();
        for batch_size in [1usize, 7, 128, 1000] {
            let rebatched: Vec<Vec<String>> =
                batched(gen.dirty_row_stream(0.08, 0.5, 9), batch_size)
                    .flatten()
                    .collect();
            assert_eq!(
                whole, rebatched,
                "batch size {batch_size} changed the stream"
            );
        }
        // A different seed yields a different corruption pattern.
        let reseeded: Vec<Vec<String>> = gen.dirty_row_stream(0.08, 0.5, 10).collect();
        assert_ne!(whole, reseeded);
    }

    #[test]
    fn row_streams_yield_exact_counts_at_rung_boundaries() {
        // The scale ladder trusts `row_stream()` to produce exactly the
        // requested number of rows at every rung.
        for rows in [0usize, 1, 99, 10_000] {
            assert_eq!(
                TpchGenerator::default()
                    .with_rows(rows)
                    .row_stream()
                    .count(),
                rows
            );
            assert_eq!(
                HaiGenerator::default().with_rows(rows).row_stream().count(),
                rows
            );
            assert_eq!(
                CarGenerator::default().with_rows(rows).row_stream().count(),
                rows
            );
        }
        // Batching covers every row exactly once: ceil-division batch count,
        // full batches except possibly the last.
        let sizes: Vec<usize> = batched(
            TpchGenerator::default().with_rows(10_000).row_stream(),
            4096,
        )
        .map(|b| b.len())
        .collect();
        assert_eq!(sizes, vec![4096, 4096, 1808]);
    }

    #[test]
    fn dirty_stream_rate_is_within_tolerance() {
        // The streaming protocol corrupts each eligible cell independently;
        // over tens of thousands of cells the achieved rate concentrates
        // around the requested one.
        let gen = TpchGenerator::default()
            .with_rows(20_000)
            .with_customers(800);
        let mut stream = gen.dirty_row_stream(0.05, 0.5, 3);
        let mut corrupted = 0usize;
        let clean = gen.row_stream();
        for (dirty, clean) in (&mut stream).zip(clean) {
            corrupted += dirty.iter().zip(&clean).filter(|(d, c)| d != c).count();
        }
        let eligible = stream.eligible_cells();
        assert_eq!(eligible, 40_000, "2 rule-related cells per row");
        let achieved = stream.injected_errors() as f64 / eligible as f64;
        assert!(
            (0.04..=0.06).contains(&achieved),
            "achieved rate {achieved} strays from the requested 0.05"
        );
        // Injected-error accounting matches the observable cell diffs.
        assert_eq!(corrupted as u64, stream.injected_errors());
        assert!(stream.typo_count() > 0 && stream.replacement_count() > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CarGenerator::default()
            .with_rows(150)
            .with_seed(3)
            .generate();
        let b = CarGenerator::default()
            .with_rows(150)
            .with_seed(3)
            .generate();
        assert_eq!(a, b);
        let c = CarGenerator::default()
            .with_rows(150)
            .with_seed(4)
            .generate();
        assert_ne!(a, c);
    }
}
