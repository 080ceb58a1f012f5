//! Distance memoisation keyed on interned value pairs.
//!
//! AGP and RSC compare γs through string distances.  Within a block the same
//! *value pair* recurs constantly — RSC's normalization constant revisits all
//! γ pairs of a group, a session's re-plan of a dirty block searches again
//! for the groups a change touched — while the number of *distinct* value
//! pairs is small.  The memo is keyed on `(ValueId, ValueId)` (symmetric,
//! order-normalized) and records what a probe actually proved about the
//! pair:
//!
//! * an **exact** `(raw, normalized)` distance, once the metric ran to the
//!   end, or
//! * a **lower bound** "raw ≥ k", when a nearest-neighbour search only asked
//!   "is this pair closer than `limit`?" and the bounded edit distance gave
//!   up as soon as the answer was no.
//!
//! The contract between the bound and the memo: a probe is a *hit* when what
//! is stored answers it — an exact distance answers every probe, a lower
//! bound `k` answers every probe whose limit is at or under `k` — and a
//! *miss* when the metric (bounded or not) has to run, after which the entry
//! holds the stronger fact.  So a search repeated against the same cache
//! re-runs nothing, and a distance that cannot win is never computed to the
//! end nor stored as if it had been.  The pipeline instantiates one cache per
//! block so the parallel and serial paths report identical statistics.
//!
//! Beside the pairs the cache memoises one [`EditSketch`] per value, lazily
//! ([`DistanceCache::sketch`]: only values some search bounded have one),
//! and sums sketch bounds into a record-level lower bound
//! ([`DistanceCache::record_lower_bound`]) for searches that *filter* before
//! they probe.  A pair a caller drops on that bound never
//! reaches the memo: it is neither a hit nor a miss and leaves no entry, so
//! the counters count the lookups that were made, not the pairs a search
//! considered.

use dataset::{IdMap, ValueId, ValuePool};
use distance::{
    bounded_damerau_levenshtein, bounded_levenshtein, normalized_edit_distance, DistanceMetric,
    EditSketch, Metric,
};
use std::collections::hash_map::Entry;

/// Hit/miss counters of a [`DistanceCache`], aggregated into the stage
/// records so benchmarks can report cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Pair lookups answered from the cache (including trivial equal pairs).
    pub hits: u64,
    /// Pair lookups that had to run the metric.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served without running the metric (`1.0` when no
    /// lookup happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another counter into this one.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// What the memo knows about one value pair, in the metric's own terms so an
/// entry stays as small as the bare `(raw, normalized)` pair it replaces.
#[derive(Debug, Clone, Copy)]
enum Memo {
    /// An edit distance ran to the end: the distance, and the char length of
    /// the longer value that its normalized form divides by.
    Edits { raw: u32, max_len: u32 },
    /// A bounded edit distance gave up: the raw distance is at least this.
    AtLeast(u32),
    /// A metric that is already normalized ran: raw == normalized.
    Unit(f64),
}

impl Memo {
    /// What a bounded edit distance run with cap `max` proved.
    fn from_edit(outcome: Option<(usize, usize)>, max: usize) -> Memo {
        let narrow = |n: usize| u32::try_from(n).expect("interned values are far shorter than 2³²");
        match outcome {
            Some((raw, max_len)) => Memo::Edits {
                raw: narrow(raw),
                max_len: narrow(max_len),
            },
            // Giving up means `max` is below the distance, hence below 2³².
            None => Memo::AtLeast(narrow(max + 1)),
        }
    }

    /// `(raw, normalized)` when the distance is known, `None` for a bound.
    fn exact(self) -> Option<(f64, f64)> {
        match self {
            Memo::Edits { raw, max_len } => Some((
                f64::from(raw),
                normalized_edit_distance(raw as usize, max_len as usize),
            )),
            Memo::Unit(d) => Some((d, d)),
            Memo::AtLeast(_) => None,
        }
    }
}

/// A symmetric `(ValueId, ValueId) →` exact distance or lower bound memo,
/// and a `ValueId →` sketch memo beside it.
#[derive(Debug, Clone)]
#[deny(clippy::disallowed_types)] // Ids hash as ids (clippy.toml).
pub struct DistanceCache {
    metric: Metric,
    pairs: IdMap<(ValueId, ValueId), Memo>,
    sketches: IdMap<ValueId, EditSketch>,
    stats: CacheStats,
}

impl DistanceCache {
    /// Bytes of one memo entry (key and value, without hash-table overhead),
    /// for the session's memory-budget accounting.
    const ENTRY_BYTES: usize = std::mem::size_of::<((ValueId, ValueId), Memo)>();

    /// Create an empty cache for `metric`.
    pub fn new(metric: Metric) -> Self {
        DistanceCache {
            metric,
            pairs: IdMap::default(),
            sketches: IdMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// The metric this cache memoises.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of distinct value pairs memoised so far, exact or bounded.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the memo holds no pairs yet.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Estimated resident bytes of both memos, `slot` of them per entry for
    /// the hash tables' own overhead — for the memory-budget accounting.
    pub(crate) fn approx_bytes(&self, slot: usize) -> usize {
        self.pairs.len() * (Self::ENTRY_BYTES + slot)
            + self.sketches.len() * (std::mem::size_of::<(ValueId, EditSketch)>() + slot)
    }

    /// A copy of this cache without its sketches.
    #[cfg(test)]
    pub(crate) fn without_sketches(&self) -> Self {
        DistanceCache {
            sketches: IdMap::default(),
            ..self.clone()
        }
    }

    /// Number of values whose sketch is memoised.
    #[cfg(test)]
    pub(crate) fn sketch_count(&self) -> usize {
        self.sketches.len()
    }

    /// The sketch of an interned value, computed on first request.
    pub fn sketch(&mut self, pool: &ValuePool, value: ValueId) -> EditSketch {
        *self
            .sketches
            .entry(value)
            .or_insert_with(|| EditSketch::of(pool.resolve(value)))
    }

    /// A lower bound on [`DistanceCache::record_distance`] between two
    /// records, from their values' sketches alone: the attribute-wise
    /// [`Metric::lower_bound`]s summed in `record_distance`'s order.  Under
    /// the edit metrics both are sums of small integers, exact in `f64`, so
    /// `bound ≥ limit` does prove `distance ≥ limit`; under the others the
    /// bound is `0`.  Touches neither memo nor the counters.
    ///
    /// Sketches do not say whether two values are the same, so two different
    /// values may contribute `0` here; a caller that knows how many values
    /// two records share has a second bound beside this one under the edit
    /// metrics (one per differing attribute — see the AGP module docs), and
    /// AGP's lookup drops most candidates on that one before it computes
    /// this.
    pub fn record_lower_bound(&self, a: &[EditSketch], b: &[EditSketch]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "records must have the same arity");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.metric.lower_bound(x, y))
            .sum()
    }

    /// Raw and normalized distance between two interned values if the probe
    /// finished, `None` if it proved `raw ≥ limit` without finishing.
    ///
    /// `Some` carries the exact distance whether or not it is below `limit`
    /// (only the edit metrics can stop early), so the caller does the one
    /// comparison that decides.  `limit = ∞` always finishes.
    fn probe(
        &mut self,
        pool: &ValuePool,
        a: ValueId,
        b: ValueId,
        limit: f64,
    ) -> Option<(f64, f64)> {
        if a == b {
            self.stats.hits += 1;
            return Some((0.0, 0.0));
        }
        let slot = self.pairs.entry(if a <= b { (a, b) } else { (b, a) });
        if let Entry::Occupied(known) = &slot {
            let memo = *known.get();
            // An exact distance answers every probe, a lower bound only
            // those whose limit it reaches.
            let answers = match memo {
                Memo::AtLeast(bound) => limit <= f64::from(bound),
                Memo::Edits { .. } | Memo::Unit(_) => true,
            };
            if answers {
                self.stats.hits += 1;
                return memo.exact();
            }
        }
        self.stats.misses += 1;
        let (sa, sb) = (pool.resolve(a), pool.resolve(b));
        // Edit distances are integers, so `raw < limit` is `raw ≤ ⌈limit⌉ - 1`
        // (the cast saturates: ∞ becomes "no bound", anything under 1 becomes 0).
        let max = (limit.ceil() - 1.0) as usize;
        let memo = match self.metric {
            Metric::Levenshtein => Memo::from_edit(bounded_levenshtein(sa, sb, max), max),
            Metric::DamerauLevenshtein => {
                Memo::from_edit(bounded_damerau_levenshtein(sa, sb, max), max)
            }
            // The remaining metrics have no bounded form.
            Metric::Cosine | Metric::Jaccard | Metric::JaroWinkler => {
                Memo::Unit(self.metric.distance(sa, sb))
            }
        };
        slot.insert_entry(memo);
        memo.exact()
    }

    /// Raw and normalized distance between two interned values.
    fn pair(&mut self, pool: &ValuePool, a: ValueId, b: ValueId) -> (f64, f64) {
        self.probe(pool, a, b, f64::INFINITY)
            .expect("an unbounded probe always finishes")
    }

    /// Raw distance between two interned values.
    pub fn distance(&mut self, pool: &ValuePool, a: ValueId, b: ValueId) -> f64 {
        self.pair(pool, a, b).0
    }

    /// Normalized (`[0, 1]`) distance between two interned values.
    pub fn normalized_distance(&mut self, pool: &ValuePool, a: ValueId, b: ValueId) -> f64 {
        self.pair(pool, a, b).1
    }

    /// Record distance between two equal-arity id vectors: the attribute-wise
    /// raw distances summed (the γ-to-γ distance of AGP/RSC).
    pub fn record_distance(&mut self, pool: &ValuePool, a: &[ValueId], b: &[ValueId]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "records must have the same arity");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.distance(pool, x, y))
            .sum()
    }

    /// The record distance if it is strictly below `limit`, `None` otherwise —
    /// the question a nearest-neighbour search asks of every candidate but the
    /// first (`limit` = the incumbent's distance; `∞` for none).
    ///
    /// Sums attribute by attribute in [`DistanceCache::record_distance`]'s
    /// order and arithmetic, and stops as soon as the partial sum reaches
    /// `limit` — exact, because distances are non-negative — without touching
    /// the remaining attributes.  Each attribute is probed only for "closer
    /// than what is left of the limit", which the edit metrics answer with
    /// their bounded form.
    pub fn record_distance_below(
        &mut self,
        pool: &ValuePool,
        a: &[ValueId],
        b: &[ValueId],
        limit: f64,
    ) -> Option<f64> {
        debug_assert_eq!(a.len(), b.len(), "records must have the same arity");
        let mut total = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            if total >= limit {
                return None;
            }
            total += self.probe(pool, x, y, limit - total)?.0;
        }
        (total < limit).then_some(total)
    }

    /// Normalized record distance in `[0, 1]`: the attribute-wise normalized
    /// distances averaged.  Returns `0.0` for two empty records.
    pub fn normalized_record_distance(
        &mut self,
        pool: &ValuePool,
        a: &[ValueId],
        b: &[ValueId],
    ) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "records must have the same arity");
        if a.is_empty() {
            return 0.0;
        }
        let total: f64 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| self.normalized_distance(pool, x, y))
            .sum();
        total / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distance::{levenshtein, normalized_levenshtein};

    fn pool() -> ValuePool {
        let mut p = ValuePool::new();
        for value in ["DOTHAN", "DOTH", "BOAZ", "AL", "AK", ""] {
            p.intern(value);
        }
        p
    }

    #[test]
    fn matches_direct_metric_for_every_metric() {
        use distance::DistanceMetric;
        // Pins the cache's derived normalization to Metric::normalized_distance
        // for ALL metrics, so a future change to either side cannot silently
        // diverge the cached path AGP/RSC use.
        let pool = pool();
        for metric in Metric::ALL {
            let mut cache = DistanceCache::new(metric);
            for (a, sa) in pool.iter().collect::<Vec<_>>() {
                for (b, sb) in pool.iter().collect::<Vec<_>>() {
                    assert_eq!(
                        cache.distance(&pool, a, b),
                        metric.distance(sa, sb),
                        "{metric:?} raw distance diverged for {sa:?} vs {sb:?}"
                    );
                    assert!(
                        (cache.normalized_distance(&pool, a, b)
                            - metric.normalized_distance(sa, sb))
                        .abs()
                            < 1e-12,
                        "{metric:?} normalized distance diverged for {sa:?} vs {sb:?}"
                    );
                }
            }
        }
        // Spot-check the Levenshtein helpers directly too.
        let mut cache = DistanceCache::new(Metric::Levenshtein);
        let a = pool.lookup("DOTHAN").unwrap();
        let b = pool.lookup("DOTH").unwrap();
        assert_eq!(
            cache.distance(&pool, a, b),
            levenshtein("DOTHAN", "DOTH") as f64
        );
        assert!(
            (cache.normalized_distance(&pool, a, b) - normalized_levenshtein("DOTHAN", "DOTH"))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn each_distinct_pair_misses_once() {
        let pool = pool();
        let mut cache = DistanceCache::new(Metric::Levenshtein);
        let a = pool.lookup("DOTHAN").unwrap();
        let b = pool.lookup("DOTH").unwrap();
        cache.distance(&pool, a, b);
        cache.distance(&pool, b, a); // symmetric: served from cache
        cache.normalized_distance(&pool, a, b);
        cache.distance(&pool, a, a); // equal: trivial hit
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn an_entry_is_no_larger_than_a_bare_distance_pair() {
        // The memo's table is the top of AGP's memory; recording bounds as
        // well as distances must not widen its buckets.
        assert_eq!(
            DistanceCache::ENTRY_BYTES,
            std::mem::size_of::<((ValueId, ValueId), (f64, f64))>()
        );
    }

    #[test]
    fn a_give_up_is_memoised_as_a_lower_bound() {
        let pool = pool();
        let mut cache = DistanceCache::new(Metric::Levenshtein);
        let a = [pool.lookup("DOTHAN").unwrap()];
        let b = [pool.lookup("BOAZ").unwrap()];
        assert_eq!(levenshtein("DOTHAN", "BOAZ"), 4);
        let stats = |cache: &DistanceCache| (cache.stats().hits, cache.stats().misses);

        // "Closer than 2?" — no, and the bounded metric ran to say so.
        assert_eq!(cache.record_distance_below(&pool, &a, &b, 2.0), None);
        assert_eq!(stats(&cache), (0, 1));
        // The same or a tighter question is answered by the stored "≥ 2",
        // in either argument order.
        assert_eq!(cache.record_distance_below(&pool, &b, &a, 2.0), None);
        assert_eq!(cache.record_distance_below(&pool, &a, &b, 1.0), None);
        assert_eq!(stats(&cache), (2, 1));
        // A looser one is not: the metric runs again and proves "≥ 3".
        assert_eq!(cache.record_distance_below(&pool, &a, &b, 3.0), None);
        assert_eq!(stats(&cache), (2, 2));
        assert_eq!(cache.record_distance_below(&pool, &a, &b, 3.0), None);
        assert_eq!(stats(&cache), (3, 2));
        // An exact probe (RSC shares the session's cache) finishes the job…
        assert_eq!(cache.distance(&pool, a[0], b[0]), 4.0);
        assert_eq!(stats(&cache), (3, 3));
        // …after which every question about the pair is a hit.
        assert_eq!(cache.record_distance_below(&pool, &a, &b, 4.0), None);
        assert_eq!(cache.record_distance_below(&pool, &a, &b, 5.0), Some(4.0));
        assert_eq!(cache.normalized_distance(&pool, a[0], b[0]), 4.0 / 6.0);
        assert_eq!(stats(&cache), (6, 3));
        assert_eq!(
            cache.len(),
            1,
            "one pair, one entry, however often it was strengthened"
        );
    }

    #[test]
    fn a_partial_sum_at_the_limit_skips_the_remaining_attributes() {
        let pool = pool();
        let ids = |values: [&str; 2]| values.map(|v| pool.lookup(v).unwrap());
        for metric in Metric::ALL {
            let mut cache = DistanceCache::new(metric);
            let (a, b) = (ids(["DOTHAN", "AL"]), ids(["BOAZ", "AK"]));
            let first = metric.distance("DOTHAN", "BOAZ");
            // The first attribute alone reaches the limit…
            assert_eq!(cache.record_distance_below(&pool, &a, &b, first), None);
            let stats = cache.stats();
            // …so (AL, AK) was never looked up, let alone measured.
            assert_eq!(stats.hits + stats.misses, 1, "{metric:?}");
            assert_eq!(cache.len(), 1, "{metric:?}");
        }
    }

    #[test]
    fn record_distance_below_is_the_full_distance_filtered_by_the_limit() {
        // Every pair of two-attribute records over a pool with empty and
        // non-ASCII values, every metric, limits on both sides of (and
        // exactly at) the distance — against ONE cache per metric, so
        // each probe meets whatever exact distances and lower bounds the
        // earlier ones left behind.
        let mut pool = ValuePool::new();
        let ids: Vec<ValueId> = ["DOTHAN", "DOTH", "BOAZ", "", "日本語", "日本"]
            .iter()
            .map(|v| pool.intern(v))
            .collect();
        let records: Vec<[ValueId; 2]> = ids
            .iter()
            .flat_map(|&x| ids.iter().map(move |&y| [x, y]))
            .collect();
        for metric in Metric::ALL {
            let mut cache = DistanceCache::new(metric);
            for a in &records {
                for b in &records {
                    let full = DistanceCache::new(metric).record_distance(&pool, a, b);
                    // What a filter may drop the pair on never overshoots.
                    let [sa, sb] = [a, b].map(|r| r.map(|v| cache.sketch(&pool, v)));
                    assert!(cache.record_lower_bound(&sa, &sb) <= full);
                    for limit in [
                        0.0,
                        0.5,
                        1.0,
                        2.0,
                        full,
                        full + 0.25,
                        full + 1.0,
                        f64::INFINITY,
                    ] {
                        assert_eq!(
                            cache.record_distance_below(&pool, a, b, limit),
                            (full < limit).then_some(full),
                            "{metric:?} {a:?} vs {b:?}, limit {limit}"
                        );
                    }
                    assert_eq!(cache.record_distance(&pool, a, b), full);
                }
            }
        }
    }

    #[test]
    fn record_distances_match_unmemoised_forms() {
        let pool = pool();
        let mut cache = DistanceCache::new(Metric::Levenshtein);
        let ids: Vec<ValueId> = ["BOAZ", "AL"]
            .iter()
            .map(|v| pool.lookup(v).unwrap())
            .collect();
        let other: Vec<ValueId> = ["DOTHAN", "AK"]
            .iter()
            .map(|v| pool.lookup(v).unwrap())
            .collect();
        let raw = cache.record_distance(&pool, &ids, &other);
        assert_eq!(
            raw,
            (levenshtein("BOAZ", "DOTHAN") + levenshtein("AL", "AK")) as f64
        );
        let norm = cache.normalized_record_distance(&pool, &ids, &other);
        let expected =
            (normalized_levenshtein("BOAZ", "DOTHAN") + normalized_levenshtein("AL", "AK")) / 2.0;
        assert!((norm - expected).abs() < 1e-12);
        assert_eq!(cache.normalized_record_distance(&pool, &[], &[]), 0.0);
    }

    #[test]
    fn empty_stats_hit_rate_is_one() {
        let cache = DistanceCache::new(Metric::Levenshtein);
        assert_eq!(cache.stats().hit_rate(), 1.0);
        let mut s = CacheStats::default();
        s.absorb(CacheStats { hits: 3, misses: 1 });
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }
}
