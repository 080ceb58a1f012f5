//! A unified interface over the individual string metrics so that the
//! cleaning pipeline can be parameterized by distance metric (Table 5 in the
//! paper swaps Levenshtein for cosine distance).

use crate::{
    cosine_distance, damerau_levenshtein, damerau_levenshtein_with_max_len, jaccard_distance,
    jaro_winkler_distance, levenshtein, normalized_edit_distance, normalized_levenshtein,
    EditSketch,
};

/// Trait for string distance metrics.  `distance` returns a raw
/// (metric-specific) value; `normalized_distance` is always in `[0, 1]`.
pub trait DistanceMetric {
    /// Raw distance between `a` and `b` (larger means more different).
    fn distance(&self, a: &str, b: &str) -> f64;

    /// Distance normalized into `[0, 1]`.
    fn normalized_distance(&self, a: &str, b: &str) -> f64;

    /// Similarity `1 - normalized_distance`, in `[0, 1]`.
    fn similarity(&self, a: &str, b: &str) -> f64 {
        1.0 - self.normalized_distance(a, b)
    }
}

/// The built-in metrics available to MLNClean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Classic Levenshtein edit distance (paper default).
    #[default]
    Levenshtein,
    /// Damerau-Levenshtein (adjacent transpositions count once).
    DamerauLevenshtein,
    /// Cosine distance over character bigram profiles (Table 5 comparison).
    Cosine,
    /// Jaccard distance over character bigram sets.
    Jaccard,
    /// Jaro-Winkler distance (prefix-weighted).
    JaroWinkler,
}

impl Metric {
    /// All built-in metrics, handy for sweeps/benchmarks.
    pub const ALL: [Metric; 5] = [
        Metric::Levenshtein,
        Metric::DamerauLevenshtein,
        Metric::Cosine,
        Metric::Jaccard,
        Metric::JaroWinkler,
    ];

    /// Parse a metric from its (case-insensitive) name.
    pub fn parse(name: &str) -> Option<Metric> {
        match name.to_ascii_lowercase().as_str() {
            "levenshtein" | "edit" => Some(Metric::Levenshtein),
            "damerau" | "damerau-levenshtein" | "damerau_levenshtein" => {
                Some(Metric::DamerauLevenshtein)
            }
            "cosine" => Some(Metric::Cosine),
            "jaccard" => Some(Metric::Jaccard),
            "jaro-winkler" | "jaro_winkler" | "jarowinkler" | "jw" => Some(Metric::JaroWinkler),
            _ => None,
        }
    }

    /// Human-readable name of the metric.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Levenshtein => "levenshtein",
            Metric::DamerauLevenshtein => "damerau-levenshtein",
            Metric::Cosine => "cosine",
            Metric::Jaccard => "jaccard",
            Metric::JaroWinkler => "jaro-winkler",
        }
    }

    /// A lower bound on [`DistanceMetric::distance`] between the two
    /// sketched strings, from the sketches alone: [`EditSketch::lower_bound`]
    /// under the edit metrics, the constant `0` under the others (they have
    /// no cheap bound; a filter built on this one is simply vacuous there).
    ///
    /// It knows nothing of whether the two strings are equal: two different
    /// strings may well have a bound of `0` (`"ab"` / `"ba"`).  What equality
    /// adds is [`Metric::counts_edits`]' business.
    pub fn lower_bound(&self, a: EditSketch, b: EditSketch) -> f64 {
        match self {
            Metric::Levenshtein | Metric::DamerauLevenshtein => f64::from(a.lower_bound(b)),
            Metric::Cosine | Metric::Jaccard | Metric::JaroWinkler => 0.0,
        }
    }

    /// Whether the metric counts edits: its distance is a whole number, `0`
    /// between equal strings and at least `1` between any two different
    /// ones — Levenshtein and Damerau-Levenshtein.  Then two records that
    /// differ in `k` attributes are at least `k` apart, which is what lets a
    /// search skip every record that shares too few values with its own.
    /// Cosine, Jaccard and Jaro-Winkler put different strings less than `1`
    /// apart, Jaccard even at `0` (`"abab"` / `"aba"` have the same bigram
    /// set).
    pub fn counts_edits(&self) -> bool {
        matches!(self, Metric::Levenshtein | Metric::DamerauLevenshtein)
    }
}

impl DistanceMetric for Metric {
    fn distance(&self, a: &str, b: &str) -> f64 {
        match self {
            Metric::Levenshtein => levenshtein(a, b) as f64,
            Metric::DamerauLevenshtein => damerau_levenshtein(a, b) as f64,
            Metric::Cosine => cosine_distance(a, b),
            Metric::Jaccard => jaccard_distance(a, b),
            Metric::JaroWinkler => jaro_winkler_distance(a, b),
        }
    }

    fn normalized_distance(&self, a: &str, b: &str) -> f64 {
        match self {
            Metric::Levenshtein => normalized_levenshtein(a, b),
            Metric::DamerauLevenshtein => {
                let (distance, max_len) = damerau_levenshtein_with_max_len(a, b);
                normalized_edit_distance(distance, max_len)
            }
            Metric::Cosine => cosine_distance(a, b),
            Metric::Jaccard => jaccard_distance(a, b),
            Metric::JaroWinkler => jaro_winkler_distance(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_round_trips() {
        for m in Metric::ALL {
            assert_eq!(Metric::parse(m.name()), Some(m));
        }
        assert_eq!(Metric::parse("LEVENSHTEIN"), Some(Metric::Levenshtein));
        assert_eq!(Metric::parse("unknown"), None);
    }

    #[test]
    fn default_is_levenshtein() {
        assert_eq!(Metric::default(), Metric::Levenshtein);
    }

    #[test]
    fn all_metrics_zero_on_identical() {
        for m in Metric::ALL {
            assert_eq!(m.distance("DOTHAN", "DOTHAN"), 0.0, "{m:?}");
            assert_eq!(m.normalized_distance("DOTHAN", "DOTHAN"), 0.0, "{m:?}");
            assert_eq!(m.similarity("DOTHAN", "DOTHAN"), 1.0, "{m:?}");
        }
    }

    #[test]
    fn only_the_edit_metrics_count_edits() {
        let counting: Vec<Metric> = Metric::ALL
            .into_iter()
            .filter(Metric::counts_edits)
            .collect();
        assert_eq!(counting, [Metric::Levenshtein, Metric::DamerauLevenshtein]);
        // Why the others may not: different strings, distance 0 or below 1.
        assert_eq!(Metric::Jaccard.distance("abab", "aba"), 0.0);
        for m in [Metric::Cosine, Metric::JaroWinkler] {
            assert!(m.distance("DOTHAN", "DOTHAM") < 1.0, "{m:?}");
        }
    }

    #[test]
    fn levenshtein_raw_distance_is_integer_valued() {
        let m = Metric::Levenshtein;
        assert_eq!(m.distance("AL", "AK"), 1.0);
        assert_eq!(m.distance("DOTH", "DOTHAN"), 2.0);
    }

    proptest! {
        #[test]
        fn normalized_always_in_unit_interval(a in "\\PC{0,16}", b in "\\PC{0,16}") {
            for m in Metric::ALL {
                let d = m.normalized_distance(&a, &b);
                prop_assert!((0.0..=1.0).contains(&d), "{:?} gave {}", m, d);
            }
        }

        #[test]
        fn lower_bound_never_exceeds_the_distance(a in "\\PC{0,16}", b in "\\PC{0,16}") {
            let (sa, sb) = (EditSketch::of(&a), EditSketch::of(&b));
            for m in Metric::ALL {
                let bound = m.lower_bound(sa, sb);
                prop_assert!(bound <= m.distance(&a, &b), "{:?} gave {}", m, bound);
                let is_edit = matches!(m, Metric::Levenshtein | Metric::DamerauLevenshtein);
                prop_assert!(is_edit || bound == 0.0, "{:?} gave {}", m, bound);
            }
        }

        #[test]
        fn an_edit_counting_metric_parts_different_strings_by_one(
            a in "[ab]{0,6}",
            b in "[ab]{0,6}",
        ) {
            for m in Metric::ALL.into_iter().filter(Metric::counts_edits) {
                let d = m.distance(&a, &b);
                prop_assert_eq!(d, d.floor(), "{:?}", m);
                prop_assert_eq!(d == 0.0, a == b, "{:?} gave {}", m, d);
            }
        }

        #[test]
        fn similarity_complements_distance(a in "\\PC{0,16}", b in "\\PC{0,16}") {
            for m in Metric::ALL {
                let s = m.similarity(&a, &b);
                let d = m.normalized_distance(&a, &b);
                prop_assert!((s + d - 1.0).abs() < 1e-12);
            }
        }
    }
}
