//! Cosine similarity / distance over character q-gram frequency vectors.
//!
//! Table 5 of the paper compares MLNClean's accuracy under the Levenshtein
//! distance against the cosine distance; the cosine variant suffers when the
//! leading characters of a string are misspelled because the q-gram profile
//! shifts substantially.

use std::collections::HashMap;

/// The q-gram width used for the cosine profile (bigram by default, padded
/// with sentinels so single-character strings still produce grams).
const Q: usize = 2;
const PAD: char = '\u{1}';

fn qgram_profile(s: &str) -> HashMap<Vec<char>, usize> {
    let mut padded: Vec<char> = Vec::with_capacity(s.chars().count() + 2 * (Q - 1));
    padded.extend(std::iter::repeat_n(PAD, Q - 1));
    padded.extend(s.chars());
    padded.extend(std::iter::repeat_n(PAD, Q - 1));
    let mut profile = HashMap::new();
    if padded.len() < Q {
        return profile;
    }
    for window in padded.windows(Q) {
        *profile.entry(window.to_vec()).or_insert(0) += 1;
    }
    profile
}

/// Cosine similarity in `[0, 1]` between the character-bigram profiles of
/// `a` and `b`.  Two empty strings are considered identical (similarity 1).
pub fn cosine_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let pa = qgram_profile(a);
    let pb = qgram_profile(b);
    if pa.is_empty() || pb.is_empty() {
        return if pa.is_empty() && pb.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let dot: f64 = pa
        .iter()
        .filter_map(|(gram, &ca)| pb.get(gram).map(|&cb| (ca * cb) as f64))
        .sum();
    let norm_a: f64 = pa.values().map(|&c| (c * c) as f64).sum::<f64>().sqrt();
    let norm_b: f64 = pb.values().map(|&c| (c * c) as f64).sum::<f64>().sqrt();
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    (dot / (norm_a * norm_b)).clamp(0.0, 1.0)
}

/// Cosine distance `1 - cosine_similarity`, in `[0, 1]`.
pub fn cosine_distance(a: &str, b: &str) -> f64 {
    1.0 - cosine_similarity(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::rng::{Rng, PRINTABLE};

    #[test]
    fn identical_strings() {
        assert_eq!(cosine_similarity("BOAZ", "BOAZ"), 1.0);
        assert_eq!(cosine_distance("BOAZ", "BOAZ"), 0.0);
        assert_eq!(cosine_similarity("", ""), 1.0);
    }

    #[test]
    fn disjoint_strings() {
        let s = cosine_similarity("abc", "xyz");
        assert!(
            s < 0.2,
            "disjoint bigrams should have near-zero similarity, got {s}"
        );
    }

    #[test]
    fn empty_vs_nonempty() {
        assert_eq!(cosine_similarity("", "abc"), 0.0);
        assert_eq!(cosine_distance("", "abc"), 1.0);
    }

    #[test]
    fn leading_typo_hurts_cosine_more_than_levenshtein() {
        // This is the phenomenon behind Table 5: a typo in the first character
        // perturbs the q-gram profile a lot.
        let lev = crate::normalized_levenshtein("XOTHAN", "DOTHAN");
        let cos = cosine_distance("XOTHAN", "DOTHAN");
        assert!(
            cos > lev,
            "cosine {cos} should exceed normalized levenshtein {lev}"
        );
    }

    #[test]
    fn similar_strings_rank_correctly() {
        assert!(cosine_distance("DOTHAN", "DOTH") < cosine_distance("DOTHAN", "BOAZ"));
    }

    #[test]
    fn similarity_in_unit_interval() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::similarity_in_unit_interval"));
        for _ in 0..64 {
            let a = rng.string(PRINTABLE, 0..=20);
            let b = rng.string(PRINTABLE, 0..=20);
            let s = cosine_similarity(&a, &b);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn symmetric() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::symmetric"));
        for _ in 0..64 {
            let a = rng.string(PRINTABLE, 0..=20);
            let b = rng.string(PRINTABLE, 0..=20);
            let ab = cosine_similarity(&a, &b);
            let ba = cosine_similarity(&b, &a);
            assert!((ab - ba).abs() < 1e-12);
        }
    }

    #[test]
    fn self_similarity_is_one() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::self_similarity_is_one"));
        for _ in 0..64 {
            let a = rng.string(PRINTABLE, 0..=20);
            assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-12);
        }
    }
}
