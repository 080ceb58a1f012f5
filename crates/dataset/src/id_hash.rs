//! The hash for id keys: [`IdMap`] and [`IdSet`] hash the crate's own
//! integers — [`ValueId`](crate::ValueId)s, attribute, tuple and request
//! ids, and tuples, vecs and slices of them — with one keyed folded multiply
//! per word, where strings get SipHash (the [pool docs](crate::pool) say
//! why each).
//!
//! [`IdHasher`] folds each word `w` into its state `h` as `fold(h ^ w, m)`:
//! the 128-bit product of the two 64-bit words, high half XOR low half.  The
//! high half carries every input bit into the low bits the hash table
//! indexes by.  A plain `wrapping_mul` would not: its low `k` bits depend on
//! the input's low `k` bits alone, so ids congruent modulo 2^k would share a
//! bucket whatever the key.  One fold is not enough either: ids in an
//! arithmetic progression shift the high half in near-even steps, and for
//! some keys 4 096 ids spaced 2^10 apart filled under 200 of 4 096 buckets.
//! So `finish` folds the state once more, which spreads them as random
//! hashes would (about 2 590) for every key tried.  Bytes
//! ([`Hasher::write`], which is how a `[u32]` hashes) are taken 8 per step,
//! the last word zero-padded.
//!
//! `IdState::default()` takes its two words (the starting state and the odd
//! multiplier) from the thread's keys, drawn once from `RandomState`, and
//! advances the starting state per instance, as `RandomState::new` does:
//! two maps with equal contents iterate in different orders, so code that
//! leaks an iteration order into its output still fails the equivalence
//! suites.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A hash map keyed by ids, hashed by [`IdState`].
pub type IdMap<K, V> = HashMap<K, V, IdState>;

/// A hash set of ids, hashed by [`IdState`].
pub type IdSet<K> = HashSet<K, IdState>;

/// The keys of one id map: builds [`IdHasher`]s (see the [module
/// docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct IdState {
    /// The hasher's starting state, advanced per instance.
    seed: u64,
    /// The odd multiplier every word is folded with.
    multiplier: u64,
}

impl Default for IdState {
    /// The thread's keys, with the starting state advanced for the next
    /// instance.
    fn default() -> Self {
        thread_local! {
            static KEYS: Cell<(u64, u64)> = Cell::new({
                let keys = RandomState::new();
                (keys.hash_one(0u64), keys.hash_one(1u64) | 1)
            });
        }
        KEYS.with(|keys| {
            let (seed, multiplier) = keys.get();
            keys.set((seed.wrapping_add(1), multiplier));
            IdState { seed, multiplier }
        })
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// One folded multiply per 64-bit word (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct IdHasher {
    state: u64,
    multiplier: u64,
}

/// The 128-bit product of `a` and `b`, high half XOR low half.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = fold(self.state ^ n, self.multiplier);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, self.multiplier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueId;

    #[test]
    fn ids_congruent_modulo_a_power_of_two_spread_over_the_low_bits() {
        // A table of 4 096 buckets indexes by the low 12 bits.  Random
        // hashes of 4 096 keys fill about 4096 · (1 − 1/e) ≈ 2 590 of them;
        // a plain multiply of ids spaced 2^10 apart fills 4.  The pinned
        // keys are ones under which a single fold, without `finish`'s,
        // fills 32.
        let pinned = IdState {
            seed: 0x8640_ae26_a164_ac95,
            multiplier: 0x1fff_fe4f_c831_fb43,
        };
        for state in [IdState::default(), pinned] {
            let buckets: IdSet<u64> = (0..4096u32)
                .map(|i| state.hash_one(ValueId(i << 10)) & 0xfff)
                .collect();
            assert!(buckets.len() >= 2000, "{} buckets", buckets.len());
        }
    }

    #[test]
    fn every_instance_hashes_with_keys_of_its_own() {
        let (a, b) = (IdState::default(), IdState::default());
        let key = [ValueId(7), ValueId(0), ValueId(7)];
        assert_ne!(a.hash_one(&key[..]), b.hash_one(&key[..]));
        // So two maps with equal contents iterate in different orders.
        let first: IdSet<u32> = (0..64).collect();
        let second: IdSet<u32> = (0..64).collect();
        assert_eq!(first, second);
        assert!(!first.iter().eq(second.iter()));
    }

    #[test]
    fn a_vec_key_is_found_by_its_slice_and_a_clone_keeps_the_keys() {
        let mut map: IdMap<Vec<ValueId>, usize> = IdMap::default();
        for i in 0..100u32 {
            map.insert(vec![ValueId(i), ValueId(i % 7)], i as usize);
        }
        let copy = map.clone();
        for i in 0..100u32 {
            let key = [ValueId(i), ValueId(i % 7)];
            assert_eq!(map.get(&key[..]), Some(&(i as usize)));
            assert_eq!(copy.get(&key[..]), Some(&(i as usize)));
        }
        let words: IdSet<&[u32]> = [&[1, 2, 3][..], &[1, 2], &[1, 2, 3, 0]]
            .into_iter()
            .collect();
        assert_eq!(words.len(), 3);
        assert!(words.contains(&[1u32, 2][..]));
    }
}
