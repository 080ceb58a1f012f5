//! Jaro and Jaro-Winkler similarity, which favour strings sharing a prefix.
//! These are common in record-linkage / duplicate-detection settings, which
//! is the instance-level "duplicates" error class MLNClean removes at the end
//! of its pipeline.

/// Jaro similarity in `[0, 1]`.
pub fn jaro_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    let (la, lb) = (ac.len(), bc.len());
    if la == 0 || lb == 0 {
        return 0.0;
    }

    let match_window = (la.max(lb) / 2).saturating_sub(1);
    let mut b_matched = vec![false; lb];
    let mut a_matched = vec![false; la];
    let mut matches = 0usize;

    for i in 0..la {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(lb);
        for j in lo..hi {
            if !b_matched[j] && ac[i] == bc[j] {
                a_matched[i] = true;
                b_matched[j] = true;
                matches += 1;
                break;
            }
        }
    }

    if matches == 0 {
        return 0.0;
    }

    // Count transpositions among matched characters.
    let mut transpositions = 0usize;
    let mut j = 0usize;
    for i in 0..la {
        if a_matched[i] {
            while !b_matched[j] {
                j += 1;
            }
            if ac[i] != bc[j] {
                transpositions += 1;
            }
            j += 1;
        }
    }
    let m = matches as f64;
    let t = (transpositions / 2) as f64;
    (m / la as f64 + m / lb as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by a shared prefix of up to 4
/// characters with the standard scaling factor 0.1.
pub fn jaro_winkler_similarity(a: &str, b: &str) -> f64 {
    let jaro = jaro_similarity(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    (jaro + prefix * 0.1 * (1.0 - jaro)).clamp(0.0, 1.0)
}

/// Jaro-Winkler distance `1 - similarity`.
pub fn jaro_winkler_distance(a: &str, b: &str) -> f64 {
    1.0 - jaro_winkler_similarity(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::rng::{Rng, PRINTABLE};

    #[test]
    fn identical() {
        assert_eq!(jaro_similarity("MARTHA", "MARTHA"), 1.0);
        assert_eq!(jaro_winkler_distance("MARTHA", "MARTHA"), 0.0);
    }

    #[test]
    fn known_value() {
        // Classic textbook example: jaro(MARTHA, MARHTA) = 0.944...
        let j = jaro_similarity("MARTHA", "MARHTA");
        assert!((j - 0.944444).abs() < 1e-4, "got {j}");
        let jw = jaro_winkler_similarity("MARTHA", "MARHTA");
        assert!((jw - 0.961111).abs() < 1e-4, "got {jw}");
    }

    #[test]
    fn empty_strings() {
        assert_eq!(jaro_similarity("", "abc"), 0.0);
        assert_eq!(jaro_similarity("abc", ""), 0.0);
        assert_eq!(jaro_similarity("", ""), 1.0);
    }

    #[test]
    fn no_common_characters() {
        assert_eq!(jaro_similarity("abc", "xyz"), 0.0);
        assert_eq!(jaro_winkler_distance("abc", "xyz"), 1.0);
    }

    #[test]
    fn prefix_boost() {
        // Same Jaro core mismatch, but shared prefix should make JW higher.
        let plain = jaro_similarity("DOTHAN", "DOTHXX");
        let boosted = jaro_winkler_similarity("DOTHAN", "DOTHXX");
        assert!(boosted >= plain);
    }

    #[test]
    fn in_unit_interval() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::in_unit_interval"));
        for _ in 0..64 {
            let a = rng.string(PRINTABLE, 0..=16);
            let b = rng.string(PRINTABLE, 0..=16);
            let j = jaro_similarity(&a, &b);
            let jw = jaro_winkler_similarity(&a, &b);
            assert!((0.0..=1.0).contains(&j));
            assert!((0.0..=1.0).contains(&jw));
        }
    }

    #[test]
    fn symmetric_jaro() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::symmetric_jaro"));
        for _ in 0..64 {
            let a = rng.string(PRINTABLE, 0..=16);
            let b = rng.string(PRINTABLE, 0..=16);
            assert!((jaro_similarity(&a, &b) - jaro_similarity(&b, &a)).abs() < 1e-12);
        }
    }

    #[test]
    fn winkler_at_least_jaro() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::winkler_at_least_jaro"));
        for _ in 0..64 {
            let a = rng.string(PRINTABLE, 0..=16);
            let b = rng.string(PRINTABLE, 0..=16);
            assert!(jaro_winkler_similarity(&a, &b) + 1e-12 >= jaro_similarity(&a, &b));
        }
    }
}
