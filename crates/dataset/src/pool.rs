//! The shared value pool: every distinct attribute value is stored exactly
//! once and referred to by a compact, copyable [`ValueId`].
//!
//! # Why interning
//!
//! MLNClean's Stage-I cost is dominated by comparing and regrouping attribute
//! values: the two-layer MLN index groups tuples by projected value vectors,
//! AGP/RSC compare γs by string distance, and the distributed coordinator
//! ships rows to its partitions.  Interning turns all equality work into `u32`
//! compares, makes group keys cheaply `Ord`/`Hash`, and lets distance results
//! be cached per *value pair* instead of per *occurrence pair*.
//!
//! # Id stability under in-place repairs
//!
//! Ids are assigned densely in first-appearance order and are **never reused
//! or renumbered**.  A repair that rewrites a cell (e.g. `DOTH → DOTHAN`)
//! only swaps which id the cell stores; the old value stays in the pool so
//! every previously handed-out `ValueId` (in γs, provenance records, cached
//! distances, partition snapshots) remains valid for the lifetime of the
//! pool.  New values introduced by a repair are appended, so a pool snapshot
//! taken at time *t* agrees with any later version of the same pool on all
//! ids below its length — the invariant the distributed gather phase relies
//! on.
//!
//! # Storage
//!
//! A pool is an append-only **arena**: one buffer holding every value's bytes
//! back to back in id order, plus one entry per id — where its bytes end and
//! the value's 64-bit hash.  Every pool of a process hashes with one
//! `RandomState` (SipHash, keyed at random once: values are user data), so a
//! stored hash stays valid in whichever pool the value is copied to and no
//! value is ever hashed twice.  The string → id direction is an `IdTable`
//! of ids placed by those stored hashes.
//!
//! # Concurrency and cost
//!
//! A run holds **one** arena however many datasets, index snapshots and
//! reports name it: the arena sits behind an `Arc`, the id table behind its
//! own, and the table exists only in pools that were asked to
//! [`ValuePool::intern`] or [`ValuePool::lookup`].  What each operation
//! costs:
//!
//! * `clone()` — two reference-count bumps, whatever the pool holds.
//! * [`ValuePool::intern`] — one hash of the value, then a probe that
//!   compares stored hashes first and bytes only on a hash match.  A present
//!   value is read-only.  A new one is appended to the arena and placed in
//!   the table by the same hash, no allocation of its own; the first new
//!   value after a `clone()` (while the other handle lives) first copies the
//!   shared arena's two flat vectors and the table, once, after which the
//!   handle owns its storage again.
//! * Growth — the table doubles when it would pass half full and re-places
//!   every id by its stored hash: no value is rehashed.
//! * [`ValuePool::sync_from`] into an **empty** snapshot — adopts the
//!   descendant's arena, O(1), no table.  Into a non-empty one — appends the
//!   tail of bytes and entries, O(new values), after at most one copy of an
//!   arena it still shares.  Neither hashes a value.
//! * The first [`ValuePool::lookup`] (or `intern`) on a pool without a table
//!   — a snapshot, an adopted arena — builds it from the stored hashes,
//!   O(pool).  [`ValuePool::resolve`] / [`ValuePool::get`] never need it.
//!
//! Lookups take `&self` (the lazy table build is a `OnceLock`), so a pool
//! shared behind a `&` reference can be read from any number of worker
//! threads; the type is `Send + Sync`.  Interning requires `&mut self`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// One buffer per pool: clippy.toml bans a std map per value.
#![deny(clippy::disallowed_types)]

use mlnw::{CodecError, Decode, Decoder, Encode, Encoder};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Identifier of an interned value within a [`ValuePool`].
///
/// Ids are dense (`0..pool.len()`), stable for the lifetime of the pool, and
/// ordered by first appearance — **not** lexicographically.  Code that needs
/// string order (e.g. the deterministic group ordering of the MLN index)
/// must resolve and compare the strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

mlnw::codec! { struct ValueId { 0 } }

impl ValueId {
    /// The raw index of this value in its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An append-only interner mapping strings to stable [`ValueId`]s.
///
/// Clones share storage until one of them interns a new value (see the
/// [module docs](self) for the cost of each operation).
#[derive(Clone, Default)]
pub struct ValuePool {
    /// The id → string arena, copied on a write while shared.
    arena: Arc<Arena>,
    /// The string → id table over `arena`: derived state, built by the first
    /// `intern` / `lookup` and copied on a write while shared.
    table: OnceLock<Arc<IdTable>>,
}

/// Every value's bytes back to back in id order, and one [`Entry`] per id.
#[derive(Clone, Default, PartialEq, Eq)]
struct Arena {
    text: String,
    entries: Vec<Entry>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// Where the value's bytes end in [`Arena::text`]; they start where the
    /// previous id's end (at 0 for id 0).
    end: usize,
    /// The value's [`hash_value`].
    hash: u64,
}

impl Arena {
    /// The byte range of the value at `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    fn span(&self, index: usize) -> Range<usize> {
        let start = match index.checked_sub(1) {
            Some(previous) => self.entries[previous].end,
            None => 0,
        };
        start..self.entries[index].end
    }

    /// Whether id `id` holds `value`, whose hash is `hash`: the stored hashes
    /// decide most misses, the bytes decide the rest.
    fn holds(&self, id: u32, hash: u64, value: &str) -> bool {
        let index = id as usize;
        self.entries[index].hash == hash
            && self.text.as_bytes()[self.span(index)] == *value.as_bytes()
    }

    fn hash_of(&self, id: u32) -> u64 {
        self.entries[id as usize].hash
    }

    fn push(&mut self, value: &str, hash: u64) {
        self.text.push_str(value);
        self.entries.push(Entry {
            end: self.text.len(),
            hash,
        });
    }
}

/// A value's hash under the process's one `RandomState`, drawn on first
/// use.  One key for every pool is what makes a stored hash valid in any
/// pool the value is copied to — an adopted arena, a synced tail.
fn hash_value(value: &str) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    #[cfg(test)]
    tests::HASHED.with(|hashed| hashed.set(hashed.get() + 1));
    KEYS.get_or_init(RandomState::new).hash_one(value)
}

impl fmt::Debug for ValuePool {
    /// Deterministic output: only the id-ordered value list (the id table is
    /// derived state).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values: Vec<&str> = self.iter().map(|(_, value)| value).collect();
        f.debug_struct("ValuePool")
            .field("values", &values)
            .finish()
    }
}

impl ValuePool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty pool sized for roughly `capacity` distinct values.
    pub fn with_capacity(capacity: usize) -> Self {
        ValuePool {
            arena: Arc::new(Arena {
                text: String::new(),
                entries: Vec::with_capacity(capacity),
            }),
            table: OnceLock::from(Arc::new(IdTable::with_capacity(capacity))),
        }
    }

    /// The id table, built from the stored hashes on first use.
    fn table(&self) -> &IdTable {
        self.table.get_or_init(|| {
            let arena = &self.arena;
            Arc::new(IdTable::dense(arena.entries.len(), |id| arena.hash_of(id)))
        })
    }

    /// The id the next new value takes.
    #[allow(
        clippy::panic,
        reason = "a pool holds fewer than u32::MAX values: every id is a u32 and u32::MAX marks an empty table slot"
    )]
    fn next_id(&self) -> u32 {
        match u32::try_from(self.len()) {
            Ok(id) if id != EMPTY => id,
            _ => panic!("value pool overflow (>4G distinct values)"),
        }
    }

    /// Intern `value`, returning its id (existing or newly assigned).
    pub fn intern(&mut self, value: &str) -> ValueId {
        let hash = hash_value(value);
        let arena = &self.arena;
        let vacant = match self.table().find(hash, |id| arena.holds(id, hash, value)) {
            Ok(id) => return ValueId(id),
            Err(vacant) => vacant,
        };
        let id = self.next_id();
        Arc::make_mut(&mut self.arena).push(value, hash);
        // `table()` built the table above.  Were it gone all the same, the
        // next probe would rebuild it from the arena, this value included.
        if let Some(table) = self.table.get_mut() {
            let arena = &self.arena;
            Arc::make_mut(table).insert(vacant, id, hash, |held| arena.hash_of(held));
        }
        ValueId(id)
    }

    /// Append `values` — none of which the pool may hold yet — as its next
    /// ids, in order, hashing each once: what a partition does with the
    /// values a change set ships it for the first time.  `Err(i)` when the
    /// pool (or an earlier entry of `values`) already holds `values[i]`; the
    /// pool is then cut back to where it was, and its table rebuilt on next
    /// use.
    pub fn extend_new(&mut self, values: &[String]) -> Result<(), usize> {
        let len = self.len();
        let Some(at) = (0..values.len()).find(|&i| self.intern(&values[i]).index() != len + i)
        else {
            return Ok(());
        };
        if self.len() > len {
            let arena = Arc::make_mut(&mut self.arena);
            arena.text.truncate(arena.span(len).start);
            arena.entries.truncate(len);
            self.table.take();
        }
        Err(at)
    }

    /// Catch this pool up to an append-only descendant of itself without
    /// hashing a value.
    ///
    /// Because ids are assigned densely in first-appearance order and never
    /// renumbered, a snapshot taken at time *t* agrees with any later version
    /// of the same pool on all ids below its length.  An **empty** pool
    /// therefore adopts the descendant's arena outright (a reference bump:
    /// what an index snapshot of a freshly loaded dataset costs), and a
    /// non-empty one appends the descendant's tail of bytes and entries to
    /// its own arena — O(new values) per change set for a long-lived
    /// session's snapshots, after at most one copy of an arena still shared
    /// from the adoption.  Adopting on *every* call would hand the
    /// descendant's next `intern` a shared arena to copy whole, every time.
    ///
    /// The id table is never taken from the descendant (a snapshot that only
    /// resolves never holds one, and sharing it would make the descendant's
    /// next new value copy it); one this pool had built is dropped when a
    /// tail arrives and rebuilt from the stored hashes by its next `lookup`.
    pub fn sync_from(&mut self, descendant: &ValuePool) {
        debug_assert!(
            descendant.len() >= self.len(),
            "sync_from target must be an append-only descendant"
        );
        if descendant.len() == self.len() {
            return;
        }
        if self.is_empty() {
            self.arena = Arc::clone(&descendant.arena);
        } else {
            let from = self.len();
            let arena = Arc::make_mut(&mut self.arena);
            let theirs = &descendant.arena;
            arena.text.push_str(&theirs.text[arena.text.len()..]);
            arena.entries.extend_from_slice(&theirs.entries[from..]);
        }
        self.table.take();
    }

    /// Whether `self` and `other` name one arena — the probe that clones and
    /// adopted snapshots really share storage (and that a handle which
    /// interned since owns its own).
    pub fn shares_storage_with(&self, other: &ValuePool) -> bool {
        Arc::ptr_eq(&self.arena, &other.arena)
    }

    /// Look up a value without interning it.
    pub fn lookup(&self, value: &str) -> Option<ValueId> {
        let hash = hash_value(value);
        self.table()
            .find(hash, |id| self.arena.holds(id, hash, value))
            .ok()
            .map(ValueId)
    }

    /// The string behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this pool (or a snapshot ancestor of
    /// it).
    pub fn resolve(&self, id: ValueId) -> &str {
        &self.arena.text[self.arena.span(id.index())]
    }

    /// The string behind `id`, or `None` if the id is out of range.
    pub fn get(&self, id: ValueId) -> Option<&str> {
        self.contains(id).then(|| self.resolve(id))
    }

    /// Resolve a slice of ids in order.
    pub fn resolve_all<'p>(&'p self, ids: &[ValueId]) -> Vec<&'p str> {
        ids.iter().map(|&id| self.resolve(id)).collect()
    }

    /// Whether `id` is in range for this pool.  This is a pure index-range
    /// check: it cannot tell an id issued by this pool from one issued by an
    /// unrelated pool that happens to be at least as large — callers moving
    /// ids between pools must guarantee a shared snapshot ancestry themselves
    /// (as the distributed gather phase does with its prefix-length bound).
    pub fn contains(&self, id: ValueId) -> bool {
        id.index() < self.len()
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.arena.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.entries.is_empty()
    }

    /// Total bytes of distinct string payload held by the pool (the
    /// memory-side statistic the bench smoke run records).
    pub fn string_bytes(&self) -> usize {
        self.arena.text.len()
    }

    /// Iterate over `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> {
        let text = &self.arena.text;
        let mut start = 0;
        self.arena
            .entries
            .iter()
            .enumerate()
            .map(move |(i, entry)| {
                let value = &text[start..entry.end];
                start = entry.end;
                (ValueId(i as u32), value)
            })
    }
}

impl PartialEq for ValuePool {
    fn eq(&self, other: &Self) -> bool {
        // Equal values hash equal in every pool, so equal arenas are equal
        // entry for entry.
        self.shares_storage_with(other) || self.arena == other.arena
    }
}

impl Eq for ValuePool {}

/// Encoded as the id-ordered value list only (a sequence of strings, the
/// bytes a `Vec<String>` of the values encodes to); the id table and the
/// hashes are derived state, rebuilt on decoding.  Because ids are dense in
/// first-appearance order and the stored list is duplicate-free,
/// re-interning the list reassigns every value its original id, so the
/// round trip is exact.
impl Encode for ValuePool {
    fn encode(&self, enc: &mut Encoder) {
        enc.seq(self.len());
        for (_, value) in self.iter() {
            value.encode(enc);
        }
    }
}

/// Each value is interned straight from the frame's bytes
/// ([`Decoder::str`]): no `String` per value.
impl Decode for ValuePool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.seq()?;
        let mut pool = ValuePool::with_capacity(len);
        for id in 0..len {
            let value = dec.str()?;
            if pool.intern(value).index() != id {
                return Err(CodecError::DuplicateValue(value.to_owned()));
            }
        }
        Ok(pool)
    }
}

/// The marker of an empty [`IdTable`] slot; no id may equal it.
const EMPTY: u32 = u32::MAX;

/// An open-addressing table of `u32` ids placed by a 64-bit hash of what
/// each id stands for — linear probing, never more than half full.  This is
/// the workspace's one probe loop: the pool's string → id direction,
/// `Dataset`'s first-occurrence search and the cleaner's maintained dedup
/// index all run on it.  The table holds ids only; the caller keeps the
/// hashes and decides what a match is.
#[derive(Debug, Clone)]
pub struct IdTable {
    /// A power of two of slots, each an id or [`EMPTY`].
    slots: Vec<u32>,
    /// `log2(slots.len())`: a slot is chosen by the hash's top bits, the
    /// best-mixed ones of a multiplicative hash.
    bits: u32,
    /// Ids held.
    len: usize,
}

/// The empty slot a failed [`IdTable::find`] ended on: where
/// [`IdTable::insert`] places the id that was not found.
#[derive(Debug)]
pub struct Vacant(usize);

impl IdTable {
    /// An empty table that holds `capacity` ids before it first grows.
    pub fn with_capacity(capacity: usize) -> Self {
        let bits = (2 * capacity).next_power_of_two().trailing_zeros().max(1);
        IdTable {
            slots: vec![EMPTY; 1 << bits],
            bits,
            len: 0,
        }
    }

    /// A table of the ids `0..len`, each placed by `hash_of(id)`.
    fn dense(len: usize, hash_of: impl Fn(u32) -> u64) -> Self {
        let mut table = Self::with_capacity(len);
        for id in 0..len as u32 {
            table.place(id, hash_of(id));
        }
        table.len = len;
        table
    }

    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.bits)) as usize
    }

    /// The first id along `hash`'s probe sequence that `is_match` accepts,
    /// or the empty slot that ends the sequence.  `is_match` sees only ids
    /// whose slot the sequence passes; it must compare whatever decides
    /// equality (a stored hash first is cheap).
    ///
    /// `#[inline]` (and `insert`'s) is measured: without it the call is not
    /// inlined into `Dataset::first_occurrences`, whose dedup pass then
    /// runs ≈ 25% slower than the same loop written in place.
    #[inline]
    pub fn find(&self, hash: u64, mut is_match: impl FnMut(u32) -> bool) -> Result<u32, Vacant> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(Vacant(slot)),
                id if is_match(id) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Place `id`, hashed `hash`, where the failed [`IdTable::find`] of it
    /// ended.  If that would make the table more than half full it doubles
    /// first, re-placing every id it holds by `hash_of` — the caller's
    /// stored hashes: nothing is rehashed.
    #[inline]
    pub fn insert(&mut self, vacant: Vacant, id: u32, hash: u64, hash_of: impl Fn(u32) -> u64) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(hash_of);
            self.place(id, hash);
        } else {
            self.slots[vacant.0] = id;
        }
        self.len += 1;
    }

    /// Take `id`, hashed `hash`, out of the table; whether it was held.  The
    /// ids after it in its probe run that it would cut off from their home
    /// slot shift back (`hash_of`: the caller's stored hashes), so no
    /// tombstone is left behind.
    pub fn remove(&mut self, hash: u64, id: u32, hash_of: impl Fn(u32) -> u64) -> bool {
        let Some(mut slot) = self.slot_of(hash, id) else {
            return false;
        };
        let mask = self.slots.len() - 1;
        let mut probe = slot;
        loop {
            probe = (probe + 1) & mask;
            let held = self.slots[probe];
            if held == EMPTY {
                break;
            }
            // `held` may fill the hole if its home is not after the hole
            // along the probe run.
            let home = self.home(hash_of(held));
            if (probe.wrapping_sub(home) & mask) >= (probe.wrapping_sub(slot) & mask) {
                self.slots[slot] = held;
                slot = probe;
            }
        }
        self.slots[slot] = EMPTY;
        self.len -= 1;
        true
    }

    /// Put `new` where `old` is held, both hashed `hash` (they stand for
    /// equal things); whether `old` was held.
    pub fn replace(&mut self, hash: u64, old: u32, new: u32) -> bool {
        let Some(slot) = self.slot_of(hash, old) else {
            return false;
        };
        self.slots[slot] = new;
        true
    }

    /// The slot holding `id`, hashed `hash`.
    fn slot_of(&self, hash: u64, id: u32) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                EMPTY => return None,
                held if held == id => return Some(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rename every id held to `rename(id)`, each keeping its slot: for a
    /// caller whose ids shift while what they stand for — hence their hashes
    /// — stays.
    pub fn rename(&mut self, mut rename: impl FnMut(u32) -> u32) {
        for held in self.slots.iter_mut().filter(|held| **held != EMPTY) {
            *held = rename(*held);
        }
    }

    #[cold]
    fn grow(&mut self, hash_of: impl Fn(u32) -> u64) {
        let mut grown = Self::with_capacity(self.slots.len());
        for &held in self.slots.iter().filter(|&&held| held != EMPTY) {
            grown.place(held, hash_of(held));
        }
        grown.len = self.len;
        *self = grown;
    }

    /// Put `id` in the first empty slot of `hash`'s probe sequence (the
    /// caller keeps `len` and the load bound).
    fn place(&mut self, id: u32, hash: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, PRINTABLE};

    thread_local! {
        /// How many values this thread has hashed: the proof that loading
        /// hashes each cell once.
        pub(super) static HASHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn a_pool_frame_listing_a_value_twice_is_refused() {
        let twice = mlnw::to_bytes(&vec![String::from("a"), "b".into(), "a".into()]).unwrap();
        assert_eq!(
            mlnw::from_bytes::<ValuePool>(&twice),
            Err(CodecError::DuplicateValue("a".into()))
        );
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut pool = ValuePool::new();
        let a = pool.intern("DOTHAN");
        let b = pool.intern("BOAZ");
        assert_eq!(a, ValueId(0));
        assert_eq!(b, ValueId(1));
        assert_eq!(pool.intern("DOTHAN"), a);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.resolve(a), "DOTHAN");
        assert_eq!(pool.lookup("BOAZ"), Some(b));
        assert_eq!(pool.lookup("AL"), None);
    }

    /// Enough values to double the table many times over (it starts at two
    /// slots), non-ASCII among them: every value keeps its id and looks up
    /// to it, absent values — `""` too — do not, and growth re-placed ids
    /// without hashing any value again.  `""` is then an ordinary value.
    #[test]
    fn the_table_grows_and_still_finds_every_value() {
        let mut values: Vec<String> = (0..300)
            .map(|i| format!("city-{i}"))
            .chain((0..40).map(|i| format!("Zürich-{i}-日本")))
            .collect();
        let mut pool = ValuePool::new();
        let before = HASHED.with(|hashed| hashed.get());
        for (i, value) in values.iter().enumerate() {
            assert_eq!(pool.intern(value), ValueId(i as u32));
        }
        assert_eq!(HASHED.with(|hashed| hashed.get()) - before, values.len());
        // From two slots to 1 024: nine doublings.
        assert_eq!(pool.table().slots.len(), 1024);

        for absent in ["", "city-300", "Zürich", "日本", "city-", " ", "\u{0}"] {
            assert_eq!(pool.lookup(absent), None, "{absent:?}");
        }
        values.push(String::new());
        assert_eq!(pool.intern(""), ValueId(340));
        for (i, value) in values.iter().enumerate() {
            assert_eq!(pool.lookup(value), Some(ValueId(i as u32)), "{value:?}");
            assert_eq!(pool.resolve(ValueId(i as u32)), value);
        }
        // A table built later from the stored hashes answers the same.
        let mut snapshot = ValuePool::new();
        snapshot.sync_from(&pool);
        assert!(snapshot.table.get().is_none());
        for (i, value) in values.iter().enumerate() {
            assert_eq!(snapshot.lookup(value), Some(ValueId(i as u32)));
        }
        assert_eq!(snapshot.lookup("city-300"), None);
    }

    /// Removal shifts back what would be cut off from its home: with few
    /// distinct hashes (long probe runs that wrap around the table), every
    /// id left is still found after any sequence of removals and inserts,
    /// and every removed one is not.
    #[test]
    fn removal_keeps_every_other_id_findable() {
        let mut rng = Rng::labelled(concat!(
            module_path!(),
            "::removal_keeps_every_other_id_findable"
        ));
        for _ in 0..50 {
            let ids = 1 + rng.below(40);
            // Few hashes, all near the top of the range: runs wrap.
            let hashes: Vec<u64> = (0..ids).map(|_| u64::MAX - rng.below(4) as u64).collect();
            let hash_of = |id: u32| hashes[id as usize];
            let mut table = IdTable::with_capacity(1);
            let mut held = vec![false; ids];
            for _ in 0..4 * ids {
                let id = rng.below(ids) as u32;
                if held[id as usize] {
                    assert!(table.remove(hash_of(id), id, hash_of));
                    assert!(!table.remove(hash_of(id), id, hash_of));
                } else {
                    let Err(vacant) = table.find(hash_of(id), |other| other == id) else {
                        panic!("{id} was not held");
                    };
                    table.insert(vacant, id, hash_of(id), hash_of);
                }
                held[id as usize] ^= true;
                for (id, &held) in held.iter().enumerate() {
                    let id = id as u32;
                    let found = table.find(hash_of(id), |other| other == id).is_ok();
                    assert_eq!(found, held, "{id}");
                }
                assert_eq!(table.len, held.iter().filter(|&&h| h).count());
            }
        }
    }

    /// New values append in order, hashed once each; a list naming a held
    /// value — or one value twice — is refused whole, the pool's values and
    /// lookups as they were.
    #[test]
    fn extend_new_appends_new_values_or_nothing() {
        let mut pool = ValuePool::new();
        pool.intern("DOTHAN");
        let before = HASHED.with(|hashed| hashed.get());
        pool.extend_new(&["BOAZ".into(), "AL".into()]).unwrap();
        assert_eq!(HASHED.with(|hashed| hashed.get()) - before, 2);
        assert_eq!(pool.lookup("AL"), Some(ValueId(2)));

        let held = pool.clone();
        for refused in [
            vec!["ELBA".into(), "BOAZ".into()],
            vec!["ELBA".into(), "OPP".into(), "ELBA".into()],
        ] {
            let at = refused.len() - 1;
            assert_eq!(pool.extend_new(&refused), Err(at));
            assert_eq!(pool, held);
            assert_eq!(pool.lookup("ELBA"), None);
            assert_eq!(pool.intern("ELBA"), ValueId(3));
            pool = held.clone();
        }
    }

    #[test]
    fn parse_csv_hashes_each_cell_once() {
        let sample = crate::sample_hospital_dataset();
        let text = crate::csv::to_csv(&sample);
        let before = HASHED.with(|hashed| hashed.get());
        let parsed = crate::csv::parse_csv(&text).unwrap();
        let hashed = HASHED.with(|hashed| hashed.get()) - before;
        assert_eq!(hashed, sample.len() * sample.schema().arity());
        assert_eq!(parsed.pool(), sample.pool());
    }

    #[test]
    fn snapshot_clone_shares_ids() {
        let mut pool = ValuePool::new();
        let a = pool.intern("AL");
        let snapshot = pool.clone();
        let b = pool.intern("AK"); // extends the original only
        assert_eq!(snapshot.resolve(a), "AL");
        assert!(snapshot.contains(a));
        assert!(!snapshot.contains(b));
        assert_eq!(pool.resolve(b), "AK");
    }

    #[test]
    fn an_empty_snapshot_adopts_the_table_and_never_the_map() {
        let mut pool = ValuePool::new();
        for value in ["AL", "AK"] {
            pool.intern(value);
        }
        let mut snapshot = ValuePool::new();
        snapshot.sync_from(&pool);
        assert!(snapshot.shares_storage_with(&pool));
        // Sharing the id table would make the pool's next new value copy it.
        assert!(snapshot.table.get().is_none());
        assert_eq!(snapshot, pool);

        // The pool moves on alone; the snapshot keeps what it saw, and a
        // later sync appends the tail to the snapshot's own arena.
        let c = pool.intern("AZ");
        assert!(!snapshot.shares_storage_with(&pool));
        assert!(!snapshot.contains(c));
        snapshot.sync_from(&pool);
        assert!(!snapshot.shares_storage_with(&pool));
        assert_eq!(snapshot.resolve(c), "AZ");
        assert_eq!(snapshot.lookup("AZ"), Some(c));
        assert_eq!(snapshot.lookup("AR"), None);
    }

    #[test]
    fn iter_is_in_id_order() {
        let mut pool = ValuePool::new();
        for value in ["x", "y", "z"] {
            pool.intern(value);
        }
        let pairs: Vec<(ValueId, &str)> = pool.iter().collect();
        assert_eq!(
            pairs,
            vec![(ValueId(0), "x"), (ValueId(1), "y"), (ValueId(2), "z")]
        );
        assert_eq!(pool.string_bytes(), 3);
        assert_eq!(
            format!("{pool:?}"),
            r#"ValuePool { values: ["x", "y", "z"] }"#
        );
        assert_eq!(pool.get(ValueId(2)), Some("z"));
        assert_eq!(pool.get(ValueId(3)), None);
    }

    #[test]
    fn intern_resolve_round_trips() {
        let mut rng = Rng::labelled(concat!(module_path!(), "::intern_resolve_round_trips"));
        for _ in 0..64 {
            let values = (0..rng.below(64))
                .map(|_| rng.string(PRINTABLE, 0..=24))
                .collect::<Vec<_>>();
            let mut pool = ValuePool::new();
            let ids: Vec<ValueId> = values.iter().map(|v| pool.intern(v)).collect();
            // Round-trip: every id resolves back to exactly the interned string.
            for (value, id) in values.iter().zip(&ids) {
                assert_eq!(pool.resolve(*id), value.as_str());
                assert_eq!(pool.lookup(value), Some(*id));
            }
            // Injectivity: equal strings share an id, distinct strings never do.
            for (i, a) in values.iter().enumerate() {
                for (j, b) in values.iter().enumerate() {
                    assert_eq!(ids[i] == ids[j], a == b, "{} vs {}", i, j);
                }
            }
            // Density: ids cover 0..distinct-count.
            let distinct: std::collections::BTreeSet<&String> = values.iter().collect();
            assert_eq!(pool.len(), distinct.len());
        }
    }

    // Random interleavings of `clone` / `intern` / `sync_from` /
    // `lookup` over several handles against a plain `Vec<String>` per
    // handle: whatever storage the handles share, each one answers as
    // if it owned a private copy.
    #[test]
    fn handles_behave_like_private_copies() {
        let mut rng = Rng::labelled(concat!(
            module_path!(),
            "::handles_behave_like_private_copies"
        ));
        for _ in 0..64 {
            let ops = (0..rng.below(96))
                .map(|_| rng.below(1_000_000) as u32)
                .collect::<Vec<_>>();
            const VALUES: usize = 10;
            const HANDLES: usize = 6;
            let value = |v: usize| format!("value-{v}");
            let mut handles: Vec<(ValuePool, Vec<String>)> = vec![(ValuePool::new(), Vec::new())];
            for op in ops {
                let (kind, a, b, v) = (
                    op % 5,
                    (op / 5) as usize,
                    (op / 50) as usize,
                    (op / 500) as usize,
                );
                let (a, b, v) = (a % handles.len(), b % handles.len(), value(v % VALUES));
                match kind {
                    // A clone parts from its source here (the oldest handle
                    // makes room once there are enough).
                    0 => {
                        let copy = handles[a].clone();
                        if handles.len() == HANDLES {
                            handles.remove(0);
                        }
                        handles.push(copy);
                    }
                    // Interning: the id is the model's position, present or new.
                    1 => {
                        let (pool, model) = &mut handles[a];
                        let expected = model.iter().position(|m| *m == v).unwrap_or(model.len());
                        if expected == model.len() {
                            model.push(v.clone());
                        }
                        assert_eq!(pool.intern(&v), ValueId(expected as u32));
                    }
                    // Syncing, wherever `b` is an append-only descendant of
                    // `a` (always true of an empty `a`).
                    2 => {
                        if handles[b].1.starts_with(&handles[a].1) {
                            let (descendant, model) = handles[b].clone();
                            handles[a].0.sync_from(&descendant);
                            handles[a].1 = model;
                        }
                    }
                    // A fresh, empty snapshot: the next sync into it adopts.
                    3 => {
                        if handles.len() < HANDLES {
                            handles.push((ValuePool::new(), Vec::new()));
                        }
                    }
                    // A lookup builds the map of a handle that has none.
                    _ => {
                        let (pool, model) = &handles[a];
                        let expected = model.iter().position(|m| *m == v);
                        assert_eq!(pool.lookup(&v), expected.map(|i| ValueId(i as u32)));
                    }
                }
                // No handle sees what another interned after they parted,
                // and ids below the common length agree where the models do.
                for (pool, model) in &handles {
                    assert_eq!(pool.len(), model.len());
                    let held: Vec<&str> = pool.iter().map(|(_, s)| s).collect();
                    assert_eq!(held, model.iter().map(String::as_str).collect::<Vec<_>>());
                    assert!(!pool.contains(ValueId(model.len() as u32)));
                }
            }
            for (pool, model) in &handles {
                // A handle that never built its map looks up like one that did.
                let mut rebuilt = ValuePool::new();
                for v in model {
                    rebuilt.intern(v);
                }
                assert_eq!(pool, &rebuilt);
                for v in (0..VALUES).map(value) {
                    assert_eq!(pool.lookup(&v), rebuilt.lookup(&v));
                }
                // The codec round-trips to an equal pool whose next intern takes
                // the next dense id.
                let bytes = mlnw::to_bytes(pool).unwrap();
                let mut decoded: ValuePool = mlnw::from_bytes(&bytes).unwrap();
                assert_eq!(&decoded, pool);
                assert_eq!(
                    decoded.intern("never interned"),
                    ValueId(model.len() as u32)
                );
                assert_eq!(pool.len(), model.len());
            }
        }
    }
}
