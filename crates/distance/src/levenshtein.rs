//! Edit-distance metrics: Levenshtein and Damerau-Levenshtein.
//!
//! Levenshtein distance is the default metric in MLNClean: the paper argues
//! (Section 7.3.3) that it copes better than cosine distance with typos in
//! the leading characters of a value, because it counts character edits
//! irrespective of position.
//!
//! These functions sit on the pipeline's hottest path (every AGP group
//! comparison and RSC reliability score bottoms out here), so they avoid
//! per-call allocation: the char decodings and DP rows live in reusable
//! thread-local buffers, and a common prefix/suffix trim shrinks the dynamic
//! program before it runs (typo'd values share almost their entire text with
//! their correction).
//!
//! One dynamic program serves every form: the plain distances, the
//! `*_with_max_len` forms (distance plus the length the normalized form
//! divides by, from one scan of each string) and the `bounded_*` forms a
//! nearest-neighbour search uses to ask "within `max` edits?" and get a no
//! after a few cells.  Beside it, [`EditSketch`]: a per-string summary whose
//! pairwise bound lets such a search drop a candidate without running the
//! program at all.

use std::cell::RefCell;

/// Reusable scratch space for the dynamic programs, one set per thread.
#[derive(Default)]
struct Scratch {
    a_chars: Vec<char>,
    b_chars: Vec<char>,
    prev2: Vec<usize>,
    prev: Vec<usize>,
    curr: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Decode `a`/`b` into the thread-local char buffers and return the length of
/// the common prefix and suffix (in chars, non-overlapping).
fn decode_and_trim(scratch: &mut Scratch, a: &str, b: &str) -> (usize, usize) {
    scratch.a_chars.clear();
    scratch.a_chars.extend(a.chars());
    scratch.b_chars.clear();
    scratch.b_chars.extend(b.chars());
    let (na, nb) = (scratch.a_chars.len(), scratch.b_chars.len());
    let max_trim = na.min(nb);
    let mut prefix = 0;
    while prefix < max_trim && scratch.a_chars[prefix] == scratch.b_chars[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < max_trim - prefix
        && scratch.a_chars[na - 1 - suffix] == scratch.b_chars[nb - 1 - suffix]
    {
        suffix += 1;
    }
    (prefix, suffix)
}

/// Stand-in for a DP cell outside the Ukkonen band: above every real
/// distance, and small enough that adding an edit to it cannot overflow.
const FAR: usize = usize::MAX / 2;

/// The one dynamic program behind every edit distance of this module:
/// `Some((distance, max_len))` iff `distance ≤ max`, where `max_len` is the
/// char length of the longer input (what the normalized forms divide by,
/// produced by the same pass that decodes the strings).
///
/// Three exact bounds keep a probe that cannot succeed short: strings whose
/// trimmed lengths differ by more than `max` are rejected before any cell is
/// filled; only the Ukkonen band `|i - j| ≤ max` of each row is computed (a
/// cell outside it is above `max` whatever the characters are); and the
/// program stops at the first row whose minimum exceeds `max`, because row
/// minima never decrease.  With `max = usize::MAX` the band is the whole row
/// and nothing is rejected — the unbounded forms are that call.
///
/// `TRANSPOSE` selects the restricted Damerau variant.  Trimming is safe for
/// it: a transposition never pays to cross into a run of already-equal
/// characters.
fn edit_distance<const TRANSPOSE: bool>(a: &str, b: &str, max: usize) -> Option<(usize, usize)> {
    if a == b {
        // Equal as UTF-8 ⇒ equal char count.
        return Some((0, a.chars().count()));
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let (prefix, suffix) = decode_and_trim(scratch, a, b);
        let (na, nb) = (scratch.a_chars.len(), scratch.b_chars.len());
        let max_len = na.max(nb);
        let sa = &scratch.a_chars[prefix..na - suffix];
        let sb = &scratch.b_chars[prefix..nb - suffix];
        // Keep the shorter trimmed string as the DP row.
        let (short, long) = if sa.len() <= sb.len() {
            (sa, sb)
        } else {
            (sb, sa)
        };
        let (m, n) = (short.len(), long.len());
        if n - m > max {
            return None;
        }
        if m == 0 {
            return Some((n, max_len));
        }

        // Rows d[i-2] (transpositions only), d[i-1], d[i].
        let prev2 = &mut scratch.prev2;
        let prev = &mut scratch.prev;
        let curr = &mut scratch.curr;
        prev.clear();
        prev.extend(0..=m);
        curr.clear();
        curr.resize(m + 1, 0);
        if TRANSPOSE {
            prev2.clear();
            prev2.resize(m + 1, 0);
        }

        for i in 1..=n {
            // The band of row i; `n - m ≤ max` keeps it non-empty.  The cells
            // just outside it are set to FAR so the next row (whose band is
            // one cell further right) never reads a stale value.
            let lo = i.saturating_sub(max).max(1);
            let hi = i.saturating_add(max).min(m);
            let long_c = long[i - 1];
            // d[i][j-1] and d[i-1][j-1], carried along the row.
            let mut left = if lo == 1 { i } else { FAR };
            let mut diagonal = prev[lo - 1];
            curr[lo - 1] = left;
            let mut row_min = left;
            let cells = prev[lo..=hi].iter().zip(&short[lo - 1..hi]);
            for (k, ((&up, &short_c), cell)) in cells.zip(&mut curr[lo..=hi]).enumerate() {
                let mut best = (up + 1)
                    .min(left + 1)
                    .min(diagonal + usize::from(long_c != short_c));
                if TRANSPOSE {
                    let j = lo + k;
                    if i > 1 && j > 1 && long_c == short[j - 2] && long[i - 2] == short_c {
                        best = best.min(prev2[j - 2] + 1);
                    }
                }
                *cell = best;
                row_min = row_min.min(best);
                left = best;
                diagonal = up;
            }
            if row_min > max {
                return None;
            }
            if hi < m {
                curr[hi + 1] = FAR;
            }
            if TRANSPOSE {
                std::mem::swap(prev2, prev);
            }
            std::mem::swap(prev, curr);
        }
        let distance = prev[m];
        (distance <= max).then_some((distance, max_len))
    })
}

/// Classic Levenshtein edit distance (insertions, deletions, substitutions),
/// computed with a two-row dynamic program in `O(|a|·|b|)` time after common
/// prefix/suffix trimming, using thread-local buffers (no per-call
/// allocation in steady state).
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_with_max_len(a, b).0
}

/// Levenshtein distance plus the char length of the longer input, from one
/// scan of each string — what a caller needing both the raw and the
/// normalized distance should use instead of counting chars again.
pub fn levenshtein_with_max_len(a: &str, b: &str) -> (usize, usize) {
    edit_distance::<false>(a, b, usize::MAX).expect("no distance exceeds usize::MAX")
}

/// Bounded Levenshtein: `Some((distance, max_len))` iff `distance ≤ max`,
/// otherwise `None` after as few DP cells as prove it (length-difference
/// reject, Ukkonen band, row-minimum exit).  A search for the nearest of many
/// candidates passes the incumbent's distance minus one as `max`.
pub fn bounded_levenshtein(a: &str, b: &str, max: usize) -> Option<(usize, usize)> {
    edit_distance::<false>(a, b, max)
}

/// Levenshtein distance normalized to `[0, 1]` by the length of the longer
/// string.  Two empty strings have distance `0`.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let (distance, max_len) = levenshtein_with_max_len(a, b);
    normalized_edit_distance(distance, max_len)
}

/// An edit distance normalized to `[0, 1]` by the `max_len` its `*_with_max_len`
/// or `bounded_*` form returned; two empty strings have distance `0`.
pub fn normalized_edit_distance(distance: usize, max_len: usize) -> f64 {
    if max_len == 0 {
        0.0
    } else {
        distance as f64 / max_len as f64
    }
}

/// Damerau-Levenshtein distance (restricted variant: adjacent transpositions
/// count as a single edit).  Useful for typo-heavy data where character swaps
/// are common.  Shares the dynamic program, the thread-local buffers and the
/// prefix/suffix trim with [`levenshtein`].
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    damerau_levenshtein_with_max_len(a, b).0
}

/// The Damerau twin of [`levenshtein_with_max_len`].
pub fn damerau_levenshtein_with_max_len(a: &str, b: &str) -> (usize, usize) {
    edit_distance::<true>(a, b, usize::MAX).expect("no distance exceeds usize::MAX")
}

/// The Damerau twin of [`bounded_levenshtein`].
pub fn bounded_damerau_levenshtein(a: &str, b: &str, max: usize) -> Option<(usize, usize)> {
    edit_distance::<true>(a, b, max)
}

/// What a *filter* keeps of one string to bound its edit distance to any
/// other without looking at either again: its char count and the set of
/// character classes it uses (a code point's class is its value modulo 64,
/// one bit each).  16 bytes, `Copy`, computed in one scan.
///
/// [`EditSketch::lower_bound`] is a true lower bound on [`levenshtein`] *and*
/// on [`damerau_levenshtein`], so a nearest-neighbour search may drop every
/// candidate whose bound already reaches its limit before it runs — or even
/// looks up — a distance, and keep the exhaustive scan's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EditSketch {
    chars: u32,
    classes: u64,
}

impl EditSketch {
    /// Sketch `s`.
    pub fn of(s: &str) -> Self {
        let mut sketch = EditSketch::default();
        for c in s.chars() {
            // Saturating keeps the length difference a lower bound even
            // past 2³² chars.
            sketch.chars = sketch.chars.saturating_add(1);
            sketch.classes |= 1 << (u32::from(c) % u64::BITS);
        }
        sketch
    }

    /// `max(|len a − len b|, |classes a ∖ b|, |classes b ∖ a|)`, which no
    /// edit script from one string to the other can undercut:
    ///
    /// * an insertion or a deletion moves the length by one, a substitution
    ///   or a transposition not at all;
    /// * a class `a` uses and `b` does not is carried by at least one char of
    ///   `a` that has to be deleted or substituted away, and one edit removes
    ///   one char — so at least one edit per such class, and symmetrically
    ///   one insertion or substitution per class only `b` uses.  One
    ///   substitution can serve a class on each side at once, hence the
    ///   maximum of the two counts and not their sum; a transposition leaves
    ///   the bag of characters alone, hence Damerau as well.
    ///
    /// Code points that share a class only hide differences: the bound gets
    /// weaker, never wrong.
    pub fn lower_bound(self, other: EditSketch) -> u32 {
        let only_self = (self.classes & !other.classes).count_ones();
        let only_other = (other.classes & !self.classes).count_ones();
        self.chars
            .abs_diff(other.chars)
            .max(only_self)
            .max(only_other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Allocation-per-call reference implementations, kept to pin the
    /// buffer-reusing, trimming versions above to the textbook recurrences.
    mod reference {
        pub fn levenshtein(a: &str, b: &str) -> usize {
            let ac: Vec<char> = a.chars().collect();
            let bc: Vec<char> = b.chars().collect();
            let mut prev: Vec<usize> = (0..=bc.len()).collect();
            let mut curr = vec![0usize; bc.len() + 1];
            for (i, x) in ac.iter().enumerate() {
                curr[0] = i + 1;
                for (j, y) in bc.iter().enumerate() {
                    let cost = usize::from(x != y);
                    curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
                }
                std::mem::swap(&mut prev, &mut curr);
            }
            prev[bc.len()]
        }

        pub fn damerau(a: &str, b: &str) -> usize {
            let ac: Vec<char> = a.chars().collect();
            let bc: Vec<char> = b.chars().collect();
            let (n, m) = (ac.len(), bc.len());
            let mut d = vec![vec![0usize; m + 1]; n + 1];
            for (i, row) in d.iter_mut().enumerate() {
                row[0] = i;
            }
            for (j, cell) in d[0].iter_mut().enumerate() {
                *cell = j;
            }
            for i in 1..=n {
                for j in 1..=m {
                    let cost = usize::from(ac[i - 1] != bc[j - 1]);
                    let mut best = (d[i - 1][j] + 1)
                        .min(d[i][j - 1] + 1)
                        .min(d[i - 1][j - 1] + cost);
                    if i > 1 && j > 1 && ac[i - 1] == bc[j - 2] && ac[i - 2] == bc[j - 1] {
                        best = best.min(d[i - 2][j - 2] + 1);
                    }
                    d[i][j] = best;
                }
            }
            d[n][m]
        }
    }

    /// `bounded(a, b, max) == (full ≤ max).then_some(full)` for both
    /// variants, over every kind of bound a search can pass: none at all, the
    /// tightest, either side of the true distance, the string length, and
    /// unbounded.  The returned `max_len` is pinned too.
    fn assert_bounded_matches_full(a: &str, b: &str) {
        let max_len = a.chars().count().max(b.chars().count());
        type Bounded = fn(&str, &str, usize) -> Option<(usize, usize)>;
        let variants: [(usize, Bounded); 2] = [
            (reference::levenshtein(a, b), bounded_levenshtein),
            (reference::damerau(a, b), bounded_damerau_levenshtein),
        ];
        for (full, bounded) in variants {
            let bounds = [
                0,
                1,
                2,
                full.saturating_sub(1),
                full,
                full + 1,
                max_len,
                usize::MAX,
            ];
            for max in bounds {
                assert_eq!(
                    bounded(a, b, max),
                    (full <= max).then_some((full, max_len)),
                    "{a:?} vs {b:?}, max {max}"
                );
            }
        }
    }

    #[test]
    fn bounded_forms_on_empty_and_non_ascii_strings() {
        for (a, b) in [
            ("", ""),
            ("", "日本語"),
            ("héllo", ""),
            ("héllo", "hello"),
            ("日本語", "日本"),
            ("ab", "ba"),
            ("DOTH", "DOTHAN"),
            ("137 MARKET ST SUITE 2", "731 MARKET ST SUITE 9"),
        ] {
            assert_bounded_matches_full(a, b);
            assert_bounded_matches_full(b, a);
        }
        assert_eq!(bounded_levenshtein("", "", 0), Some((0, 0)));
        assert_eq!(bounded_levenshtein("ab", "ba", 1), None);
        assert_eq!(bounded_damerau_levenshtein("ab", "ba", 1), Some((1, 2)));
    }

    #[test]
    fn basic_cases() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("DOTHAN", "DOTH"), 2);
        assert_eq!(levenshtein("AL", "AK"), 1);
    }

    #[test]
    fn unicode_aware() {
        assert_eq!(levenshtein("héllo", "hello"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn trimming_edge_cases() {
        // Entire shorter string is a prefix of the longer one.
        assert_eq!(levenshtein("DOTH", "DOTHAN"), 2);
        // Shared prefix AND suffix around a middle edit.
        assert_eq!(levenshtein("abcXdef", "abcYdef"), 1);
        // Overlapping prefix/suffix candidates ("aaa" vs "aa").
        assert_eq!(levenshtein("aaa", "aa"), 1);
        assert_eq!(damerau_levenshtein("aaa", "aa"), 1);
        // Transposition straddling a shared prefix.
        assert_eq!(damerau_levenshtein("aab", "aba"), 1);
    }

    #[test]
    fn paper_example_group_distance() {
        // The typo "DOTH" should be closer to "DOTHAN" than to "BOAZ",
        // which is what makes AGP merge G12 into G11 in the paper's Figure 2.
        assert!(levenshtein("DOTH", "DOTHAN") < levenshtein("DOTH", "BOAZ"));
    }

    #[test]
    fn normalized_bounds() {
        assert_eq!(normalized_levenshtein("", ""), 0.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 0.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 1.0);
        let d = normalized_levenshtein("abcd", "abxd");
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn damerau_counts_transposition_once() {
        assert_eq!(damerau_levenshtein("ca", "ac"), 1);
        assert_eq!(levenshtein("ca", "ac"), 2);
        assert_eq!(damerau_levenshtein("a cat", "an act"), 2);
        assert_eq!(damerau_levenshtein("", "xyz"), 3);
        assert_eq!(damerau_levenshtein("xyz", ""), 3);
    }

    fn sketch_bound(a: &str, b: &str) -> usize {
        EditSketch::of(a).lower_bound(EditSketch::of(b)) as usize
    }

    #[test]
    fn sketch_bound_on_hand_picked_pairs() {
        // (a, b, the bound): never above either edit distance.
        for (a, b, bound) in [
            ("", "", 0),
            ("", "日本語", 3),
            ("DOTHAN", "DOTHAN", 0),
            // Length difference only: every class of the shorter is shared.
            ("DOTH", "DOTHAN", 2),
            // Two classes on each side that the other lacks: one
            // substitution serves one of each, so 2 — not their sum.
            ("ab", "cd", 2),
            // A pure transposition moves neither the length nor the bag.
            ("ab", "ba", 0),
            ("abcd", "acbd", 0),
            // 'a' (97) and 'š' (U+0161 = 97 + 4·64) share a class: the
            // difference is hidden, the bound weaker, still a bound.
            ("a", "\u{161}", 0),
            ("ab", "\u{161}\u{162}", 0),
            ("héllo", "hello", 1),
        ] {
            assert_eq!(sketch_bound(a, b), bound, "{a:?} vs {b:?}");
            assert_eq!(sketch_bound(b, a), bound, "{b:?} vs {a:?}");
            assert!(bound <= damerau_levenshtein(a, b), "{a:?} vs {b:?}");
            assert!(bound <= levenshtein(a, b), "{a:?} vs {b:?}");
        }
        assert_eq!(levenshtein("ab", "cd"), 2, "the max is attained");
    }

    proptest! {
        #[test]
        fn sketch_bound_never_exceeds_either_edit_distance(a in "\\PC{0,24}", b in "\\PC{0,24}") {
            let bound = sketch_bound(&a, &b);
            prop_assert_eq!(bound, sketch_bound(&b, &a));
            prop_assert_eq!(sketch_bound(&a, &a), 0);
            prop_assert!(bound <= reference::damerau(&a, &b), "{} > damerau", bound);
            prop_assert!(bound <= reference::levenshtein(&a, &b), "{} > levenshtein", bound);
        }

        #[test]
        fn sketch_bound_never_exceeds_either_edit_distance_on_near_neighbours(
            prefix in "[ab]{0,10}", mid_a in "[a-h]{0,6}", mid_b in "[a-h]{0,6}", suffix in "[ab]{0,10}"
        ) {
            // Few distinct characters, small distances: where the class
            // counts, not the lengths, carry the bound.
            let a = format!("{prefix}{mid_a}{suffix}");
            let b = format!("{prefix}{mid_b}{suffix}");
            let bound = sketch_bound(&a, &b);
            prop_assert!(bound <= reference::damerau(&a, &b), "{} > damerau", bound);
            prop_assert!(bound <= reference::levenshtein(&a, &b), "{} > levenshtein", bound);
        }

        #[test]
        fn matches_reference_implementation(a in "\\PC{0,24}", b in "\\PC{0,24}") {
            prop_assert_eq!(levenshtein(&a, &b), reference::levenshtein(&a, &b));
            prop_assert_eq!(damerau_levenshtein(&a, &b), reference::damerau(&a, &b));
        }

        #[test]
        fn matches_reference_on_trim_heavy_inputs(
            prefix in "[ab]{0,10}", mid_a in "[abc]{0,6}", mid_b in "[abc]{0,6}", suffix in "[ab]{0,10}"
        ) {
            // Inputs engineered to exercise the prefix/suffix trimming paths,
            // including transpositions at the trim boundaries.
            let a = format!("{prefix}{mid_a}{suffix}");
            let b = format!("{prefix}{mid_b}{suffix}");
            prop_assert_eq!(levenshtein(&a, &b), reference::levenshtein(&a, &b));
            prop_assert_eq!(damerau_levenshtein(&a, &b), reference::damerau(&a, &b));
        }

        #[test]
        fn bounded_matches_full(a in "\\PC{0,24}", b in "\\PC{0,24}") {
            assert_bounded_matches_full(&a, &b);
        }

        #[test]
        fn bounded_matches_full_on_near_neighbours(
            prefix in "[ab]{0,10}", mid_a in "[abc]{0,6}", mid_b in "[abc]{0,6}", suffix in "[ab]{0,10}"
        ) {
            // Small distances against long strings: the band is narrow and
            // the row-minimum exit fires mid-program.
            let a = format!("{prefix}{mid_a}{suffix}");
            let b = format!("{prefix}{mid_b}{suffix}");
            assert_bounded_matches_full(&a, &b);
        }

        #[test]
        fn symmetric(a in "\\PC{0,24}", b in "\\PC{0,24}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
            prop_assert_eq!(damerau_levenshtein(&a, &b), damerau_levenshtein(&b, &a));
        }

        #[test]
        fn identity(a in "\\PC{0,24}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
            prop_assert_eq!(damerau_levenshtein(&a, &a), 0);
        }

        #[test]
        fn triangle_inequality(a in "[a-f]{0,12}", b in "[a-f]{0,12}", c in "[a-f]{0,12}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn bounded_by_longer_length(a in "\\PC{0,24}", b in "\\PC{0,24}") {
            let d = levenshtein(&a, &b);
            let max_len = a.chars().count().max(b.chars().count());
            let min_len = a.chars().count().min(b.chars().count());
            prop_assert!(d <= max_len);
            prop_assert!(d >= max_len - min_len);
        }

        #[test]
        fn damerau_never_exceeds_levenshtein(a in "[a-e]{0,12}", b in "[a-e]{0,12}") {
            prop_assert!(damerau_levenshtein(&a, &b) <= levenshtein(&a, &b));
        }

        #[test]
        fn normalized_in_unit_interval(a in "\\PC{0,24}", b in "\\PC{0,24}") {
            let d = normalized_levenshtein(&a, &b);
            prop_assert!((0.0..=1.0).contains(&d));
        }
    }
}
