//! Jaccard similarity over character q-gram sets.

use std::collections::HashSet;

const Q: usize = 2;

fn qgram_set(s: &str) -> HashSet<Vec<char>> {
    let chars: Vec<char> = s.chars().collect();
    let mut set = HashSet::new();
    if chars.is_empty() {
        return set;
    }
    if chars.len() < Q {
        set.insert(chars);
        return set;
    }
    for window in chars.windows(Q) {
        set.insert(window.to_vec());
    }
    set
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` over character bigram sets,
/// in `[0, 1]`.  Two empty strings are identical (similarity 1).
pub fn jaccard_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let sa = qgram_set(a);
    let sb = qgram_set(b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let intersection = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    if union == 0.0 {
        return 1.0;
    }
    intersection / union
}

/// Jaccard distance `1 - jaccard_similarity`.
pub fn jaccard_distance(a: &str, b: &str) -> f64 {
    1.0 - jaccard_similarity(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::rng::{Rng, PRINTABLE};

    #[test]
    fn identical() {
        assert_eq!(jaccard_similarity("abc", "abc"), 1.0);
        assert_eq!(jaccard_similarity("", ""), 1.0);
    }

    #[test]
    fn disjoint() {
        assert_eq!(jaccard_similarity("aaa", "bbb"), 0.0);
        assert_eq!(jaccard_distance("aaa", "bbb"), 1.0);
    }

    #[test]
    fn partial_overlap() {
        let s = jaccard_similarity("DOTHAN", "DOTH");
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn single_char_strings() {
        assert_eq!(jaccard_similarity("a", "a"), 1.0);
        assert_eq!(jaccard_similarity("a", "b"), 0.0);
    }

    #[test]
    fn in_unit_interval() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::in_unit_interval"));
        for _ in 0..64 {
            let a = rng.string(PRINTABLE, 0..=16);
            let b = rng.string(PRINTABLE, 0..=16);
            let s = jaccard_similarity(&a, &b);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn symmetric() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::symmetric"));
        for _ in 0..64 {
            let a = rng.string(PRINTABLE, 0..=16);
            let b = rng.string(PRINTABLE, 0..=16);
            assert!((jaccard_similarity(&a, &b) - jaccard_similarity(&b, &a)).abs() < 1e-12);
        }
    }
}
