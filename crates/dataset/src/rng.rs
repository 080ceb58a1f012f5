//! The workspace's one seeded generator: xoshiro256**, seeded by SplitMix64.
//!
//! Everything random in the system draws from [`Rng`]: the generated
//! TPC-H / HAI / CAR tables, [`crate::ErrorInjector`], the simulated
//! network's fault decisions, the random streams of the engine matrix and
//! the cases of the workspace's unit properties — each a seeded loop over
//! [`Rng::labelled`], its strings from [`Rng::string`].  The streams are
//! **pinned**: the
//! goldens and the benchmark inputs depend on them bit for bit, and
//! `tests/stream_pins.rs` holds a digest of each.  A change here that moves
//! one draw moves every dataset the repository generates.
//!
//! Beside the generator sit its two stateless halves, [`splitmix64`] and
//! [`unit()`]; the streaming error injector derives each cell's decisions from
//! `(seed, row, column)` through them, with no generator state at all.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::ops::{Range, RangeInclusive};

/// SplitMix64's increment, ⌊2⁶⁴ / φ⌋; also the dataset's multiplicative
/// row-hash constant.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: the finalizer of `z + GOLDEN_GAMMA`, a stateless 64-bit
/// mixer whose nearby inputs give independent-looking outputs.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a 64-bit draw to `[0, 1)` through its top 53 bits.
pub fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What the unit properties draw printable strings from: ASCII 0x20–0x7E
/// and five multibyte characters, so Unicode-aware paths get exercised.
pub const PRINTABLE: &str = concat!(
    " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`",
    "abcdefghijklmnopqrstuvwxyz{|}~éßλ中🦀"
);

/// A seeded xoshiro256** generator (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is the SplitMix64 sequence from `seed`.
    pub fn seeded(seed: u64) -> Self {
        let mut s = [0; 4];
        let mut state = seed;
        for word in &mut s {
            *word = splitmix64(state);
            state = state.wrapping_add(GOLDEN_GAMMA);
        }
        Rng { s }
    }

    /// The generator of the property test named `label` (its module path
    /// and name): seeded by the 64-bit FNV-1a hash of the label, so each
    /// property draws the same cases on every run and every machine.
    pub fn labelled(label: &str) -> Self {
        let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        Rng::seeded(label.bytes().fold(0xcbf2_9ce4_8422_2325, fnv))
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// A draw from `0..n`, as `next % n`.
    #[allow(
        clippy::panic,
        reason = "callers draw an index into a non-empty slice or range; 0..0 has nothing to draw"
    )]
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            panic!("Rng::below(0): the range 0..0 is empty");
        }
        (self.next_u64() % n as u64) as usize
    }

    /// A draw from `lo..=hi`, as `lo + next % span` with the span taken in
    /// `u128`, so `0..=u64::MAX` is a valid range.
    #[allow(
        clippy::panic,
        reason = "callers pass a non-empty range; lo > hi has nothing to draw"
    )]
    pub fn range(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = range.into_inner();
        let Some(width) = hi.checked_sub(lo) else {
            panic!("Rng::range({lo}..={hi}): the range is empty");
        };
        let span = u128::from(width) + 1;
        lo + (u128::from(self.next_u64()) % span) as u64
    }

    /// A draw from `lo..hi`, as `lo + unit · (hi − lo)`.
    pub fn uniform(&mut self, range: Range<f64>) -> f64 {
        range.start + self.unit() * (range.end - range.start)
    }

    /// `true` with probability `p`: one [`Rng::unit`] draw below `p`.  A `p`
    /// of at least 1 is always `true`; one of at most 0, or NaN, never.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// A uniformly chosen element, or `None` (and no draw) when `items` is
    /// empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            return None;
        }
        items.get(self.below(items.len()))
    }

    /// A string of characters of `alphabet`: its length drawn from `len`
    /// first, then each character uniformly.
    pub fn string(&mut self, alphabet: &str, len: RangeInclusive<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let (lo, hi) = len.into_inner();
        let n = lo + self.below(hi - lo + 1);
        (0..n).map(|_| chars[self.below(chars.len())]).collect()
    }

    /// Fisher–Yates: swap each position from the back with one drawn at or
    /// before it.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = Rng::seeded(42);
        let mut b = Rng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seeded(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_draws_respect_bounds() {
        let mut rng = Rng::seeded(7);
        for _ in 0..1000 {
            let v = rng.below(17);
            assert!(v < 17);
            let f = rng.uniform(-2.0..3.5);
            assert!((-2.0..3.5).contains(&f));
            let n = rng.range(1998..=2019);
            assert!((1998..2020).contains(&n));
        }
        assert!(rng.range(u64::MAX - 1..=u64::MAX) >= u64::MAX - 1);
        assert_eq!(rng.range(5..=5), 5);
        // The full range's span, 2⁶⁴, does not fit a u64: no overflow.
        rng.range(0..=u64::MAX);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seeded(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(f64::NAN));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seeded(5);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pick_none_on_empty() {
        let mut rng = Rng::seeded(5);
        let empty: [u8; 0] = [];
        assert!(rng.pick(&empty).is_none());
        assert!(rng.pick(&[1, 2, 3]).is_some());
    }

    #[test]
    fn strings_stay_in_their_alphabet_and_length() {
        let printable: String = (' '..='~').chain(['é', 'ß', 'λ', '中', '🦀']).collect();
        assert_eq!(PRINTABLE, printable);
        let mut rng = Rng::labelled("strings");
        for _ in 0..200 {
            let s = rng.string("abc", 2..=5);
            assert!((2..=5).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| "abc".contains(c)), "{s:?}");
        }
    }

    #[test]
    fn char_class_strings_stay_in_class() {
        let mut rng = Rng::labelled("class");
        for _ in 0..200 {
            let s = rng.string("abcdef", 0..=12);
            assert!(s.len() <= 12);
            assert!(s.chars().all(|c| ('a'..='f').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn printable_strings_respect_length() {
        let mut rng = Rng::labelled("pc");
        for _ in 0..200 {
            let s = rng.string(PRINTABLE, 0..=16);
            assert!(s.chars().count() <= 16);
            assert!(s.chars().all(|c| !c.is_control()), "{s:?}");
        }
    }

    #[test]
    fn mixed_class_strings_with_two_ranges() {
        let digits_and_lower: String = ('0'..='9').chain('a'..='z').collect();
        let mut rng = Rng::labelled("mix");
        for _ in 0..200 {
            let s = rng.string(&digits_and_lower, 0..=6);
            assert!(s.chars().count() <= 6);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_digit() || c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn a_label_seeds_by_its_fnv1a_hash() {
        // The hash of the empty label is FNV-1a's offset basis.
        let mut empty = Rng::seeded(0xcbf2_9ce4_8422_2325);
        assert_eq!(Rng::labelled("").next_u64(), empty.next_u64());
        let (mut a, mut b) = (Rng::labelled("a"), Rng::labelled("b"));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn below_zero_is_an_empty_range() {
        Rng::seeded(0).below(0);
    }
}
