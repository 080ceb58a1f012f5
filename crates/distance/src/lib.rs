//! String distance metrics used by MLNClean.
//!
//! The paper uses the Levenshtein distance as its default metric (for the
//! abnormal-group-processing step and the reliability score) and compares it
//! against a cosine distance over character n-grams (Table 5).  This crate
//! provides both, plus a few additional metrics that are useful when
//! experimenting with the framework (Damerau-Levenshtein, Jaro-Winkler,
//! Jaccard over q-grams), together with normalized variants in `[0, 1]`.
//!
//! All metrics operate on `&str` and are Unicode-aware (they work on
//! `char`s, not bytes).
//!
//! A nearest-neighbour search does not have to run a metric on every
//! candidate: an [`EditSketch`] per string bounds both edit distances from
//! below ([`Metric::lower_bound`]; the constant `0` for the other metrics),
//! and the `bounded_*` forms answer "within `max` edits?" after a few cells.

pub mod cosine;
pub mod jaccard;
pub mod jaro;
pub mod levenshtein;
pub mod metric;

pub use cosine::{cosine_distance, cosine_similarity};
pub use jaccard::{jaccard_distance, jaccard_similarity};
pub use jaro::{jaro_similarity, jaro_winkler_distance, jaro_winkler_similarity};
pub use levenshtein::{
    bounded_damerau_levenshtein, bounded_levenshtein, damerau_levenshtein,
    damerau_levenshtein_with_max_len, levenshtein, levenshtein_with_max_len,
    normalized_edit_distance, normalized_levenshtein, EditSketch,
};
pub use metric::{DistanceMetric, Metric};

/// Distance between two multi-attribute records, computed attribute-wise and
/// summed.  This is how MLNClean compares two pieces of data (γs) that span
/// several attributes: the distance of a γ to another γ is the sum of the
/// per-attribute string distances.
pub fn record_distance(metric: &Metric, a: &[&str], b: &[&str]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "records must have the same arity");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| metric.distance(x, y))
        .sum()
}

/// Normalized record distance in `[0, 1]`: the attribute-wise normalized
/// distances are averaged.  Returns `0.0` for two empty records.
pub fn normalized_record_distance(metric: &Metric, a: &[&str], b: &[&str]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "records must have the same arity");
    if a.is_empty() {
        return 0.0;
    }
    let total: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(x, y)| metric.normalized_distance(x, y))
        .sum();
    total / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_distance_sums_attribute_distances() {
        let m = Metric::Levenshtein;
        let a = ["BOAZ", "AL"];
        let b = ["DOTHAN", "AL"];
        assert_eq!(
            record_distance(&m, &a, &b),
            levenshtein("BOAZ", "DOTHAN") as f64
        );
    }

    #[test]
    fn normalized_record_distance_is_bounded() {
        let m = Metric::Levenshtein;
        let a = ["abc", "def", "ghi"];
        let b = ["xyz", "uvw", "rst"];
        let d = normalized_record_distance(&m, &a, &b);
        assert!((0.0..=1.0).contains(&d));
        assert!(
            (d - 1.0).abs() < 1e-9,
            "completely different strings should be distance 1"
        );
    }

    #[test]
    fn normalized_record_distance_empty() {
        let m = Metric::Levenshtein;
        assert_eq!(normalized_record_distance(&m, &[], &[]), 0.0);
    }

    #[test]
    fn identical_records_have_zero_distance() {
        for m in [
            Metric::Levenshtein,
            Metric::Cosine,
            Metric::JaroWinkler,
            Metric::Jaccard,
        ] {
            let a = ["ELIZA", "BOAZ", "2567688400"];
            assert_eq!(record_distance(&m, &a, &a), 0.0, "metric {m:?}");
        }
    }
}
