//! The workspace's one seeded generator: xoshiro256**, seeded by SplitMix64.
//!
//! Everything random in the system draws from [`Rng`]: the generated
//! TPC-H / HAI / CAR tables, [`crate::ErrorInjector`], the simulated
//! network's fault decisions and the random scripts of the equivalence
//! suites.  The streams are **pinned**: the
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
    #[should_panic(expected = "empty")]
    fn below_zero_is_an_empty_range() {
        Rng::seeded(0).below(0);
    }
}
