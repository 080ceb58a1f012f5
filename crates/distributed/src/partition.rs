//! Algorithm 3: capacity-bounded nearest-centroid data partitioning.
//!
//! The goal is to avoid data skew across workers: every part has a maximum
//! capacity `s = ⌈|T| / k⌉`.  Each part keeps its tuples in a max-heap keyed
//! by the distance to the part's centroid; when a closer tuple arrives at a
//! full part, the farthest resident tuple is evicted to its own closest
//! non-full part.

use dataset::rng::Rng;
use dataset::{Dataset, TupleId, ValueId};
use distance::Metric;
use mlnclean::DistanceCache;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Configuration of the partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Number of parts (workers).
    pub parts: usize,
    /// Distance metric between tuples and centroids.
    pub metric: Metric,
    /// Attributes used for the tuple-to-centroid distance.  Empty means "all
    /// attributes"; the distributed runner passes the rule-constrained
    /// attributes so that tuples the rules relate end up co-located and the
    /// per-tuple distance stays cheap on wide schemas.
    pub attributes: Vec<dataset::AttrId>,
    /// RNG seed for centroid selection.
    pub seed: u64,
}

impl PartitionConfig {
    /// Create a configuration with the default (Levenshtein) metric over all
    /// attributes.
    pub fn new(parts: usize, seed: u64) -> Self {
        PartitionConfig {
            parts: parts.max(1),
            metric: Metric::Levenshtein,
            attributes: Vec::new(),
            seed,
        }
    }

    /// Restrict the partitioning distance to the given attributes.
    pub fn on_attributes(mut self, attributes: Vec<dataset::AttrId>) -> Self {
        self.attributes = attributes;
        self
    }
}

/// The result of partitioning: tuple ids per part.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// `parts[i]` lists the tuples assigned to part `i`.
    pub parts: Vec<Vec<TupleId>>,
    /// The centroid tuple of each part.
    pub centroids: Vec<TupleId>,
    /// The capacity bound `s` used.
    pub capacity: usize,
}

impl Partitioning {
    /// Sizes of the parts.
    pub fn sizes(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.len()).collect()
    }

    /// Largest part divided by smallest part — the skew factor the algorithm
    /// bounds.
    pub fn skew(&self) -> f64 {
        let sizes = self.sizes();
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        let min = sizes.iter().copied().min().unwrap_or(0).max(1) as f64;
        max / min
    }
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    distance: f64,
    tuple: TupleId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on distance; ties broken by tuple id for determinism.
        self.distance
            .partial_cmp(&other.distance)
            .unwrap_or(Ordering::Equal)
            .then(self.tuple.cmp(&other.tuple))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic stream router: FNV-1a over the row's values (with a
/// separator octet between cells), reduced modulo `parts`.
///
/// The capacity-bounded centroid partitioner of Algorithm 3
/// ([`partition_dataset`]) needs the whole dataset up front; a live
/// [`mlnclean::ChangeSet`] stream does not have it, so the streaming driver
/// hashes each inserted row to its partition instead — stable across runs,
/// partition counts permitting, and independent of insertion order.
pub fn route_row(row: &[String], parts: usize) -> usize {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for value in row {
        for &byte in value.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        // Cell separator so ["ab", "c"] and ["a", "bc"] hash differently.
        hash ^= 0xff;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    (hash % parts.max(1) as u64) as usize
}

/// Partition `ds` into `config.parts` parts per Algorithm 3.
pub fn partition_dataset(ds: &Dataset, config: &PartitionConfig) -> Partitioning {
    let k = config.parts.max(1).min(ds.len().max(1));
    let capacity = ds.len().div_ceil(k);
    let mut rng = Rng::seeded(config.seed);

    // Line 3: randomly select k distinct centroids.
    let mut all: Vec<TupleId> = ds.tuple_ids().collect();
    rng.shuffle(&mut all);
    let centroids: Vec<TupleId> = all.iter().take(k).copied().collect();

    let projection: Vec<dataset::AttrId> = if config.attributes.is_empty() {
        ds.schema().attr_ids().collect()
    } else {
        config.attributes.clone()
    };
    // Project every tuple onto interned ids once; tuple-to-centroid distances
    // then run through a value-pair memo, so each distinct value pair pays
    // the string metric exactly once for the whole partitioning pass.
    let projected: Vec<Vec<ValueId>> = ds
        .tuple_ids()
        .map(|t| ds.tuple(t).project_ids(&projection))
        .collect();
    let cache = RefCell::new(DistanceCache::new(config.metric));
    let distance = |a: TupleId, b: TupleId| -> f64 {
        cache
            .borrow_mut()
            .record_distance(ds.pool(), &projected[a.0], &projected[b.0])
    };

    let mut heaps: Vec<BinaryHeap<HeapEntry>> = (0..k).map(|_| BinaryHeap::new()).collect();
    for (i, &c) in centroids.iter().enumerate() {
        heaps[i].push(HeapEntry {
            distance: 0.0,
            tuple: c,
        });
    }

    // Helper: index of the closest part to `t` among parts satisfying `pred`.
    let closest_part =
        |t: TupleId, heaps: &Vec<BinaryHeap<HeapEntry>>, only_non_full: bool| -> usize {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (i, &c) in centroids.iter().enumerate() {
                if only_non_full && heaps[i].len() >= capacity {
                    continue;
                }
                let d = distance(t, c);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            if best_d.is_infinite() {
                // Every part is full (can happen for the very last tuples when
                // |T| is not divisible by k): fall back to the globally smallest
                // part.
                heaps
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, h)| h.len())
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            } else {
                best
            }
        };

    // Lines 5–14: place every non-centroid tuple.
    for t in ds.tuple_ids() {
        if centroids.contains(&t) {
            continue;
        }
        let j = closest_part(t, &heaps, false);
        let d_j = distance(t, centroids[j]);
        if heaps[j].len() < capacity {
            heaps[j].push(HeapEntry {
                distance: d_j,
                tuple: t,
            });
            continue;
        }
        // The preferred part is full: either evict its farthest tuple or
        // redirect the new tuple, whichever keeps the closer tuple in place.
        let top_distance = heaps[j].peek().map(|e| e.distance).unwrap_or(f64::INFINITY);
        let evicted = if d_j < top_distance {
            let top = heaps[j].pop().expect("heap is full, hence non-empty");
            heaps[j].push(HeapEntry {
                distance: d_j,
                tuple: t,
            });
            top.tuple
        } else {
            t
        };
        let target = closest_part(evicted, &heaps, true);
        let d_target = distance(evicted, centroids[target]);
        heaps[target].push(HeapEntry {
            distance: d_target,
            tuple: evicted,
        });
    }

    let mut parts: Vec<Vec<TupleId>> = heaps
        .into_iter()
        .map(|h| {
            let mut v: Vec<TupleId> = h.into_iter().map(|e| e.tuple).collect();
            v.sort();
            v
        })
        .collect();
    for p in &mut parts {
        p.dedup();
    }
    Partitioning {
        parts,
        centroids,
        capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{sample_hospital_dataset, Schema};
    use proptest::prelude::*;

    #[test]
    fn route_row_is_deterministic_and_in_range() {
        let rows: Vec<Vec<String>> = vec![
            vec!["ELIZA".into(), "BOAZ".into()],
            vec!["EL".into(), "IZABOAZ".into()],
            vec!["".into(), "".into()],
        ];
        for parts in [1usize, 2, 4, 7] {
            for row in &rows {
                let p = route_row(row, parts);
                assert!(p < parts);
                assert_eq!(p, route_row(row, parts), "routing must be stable");
            }
        }
        // The separator keeps different cell splits of the same bytes apart.
        assert_ne!(route_row(&rows[0], 1 << 30), route_row(&rows[1], 1 << 30));
        // Zero parts is clamped rather than a division by zero.
        assert_eq!(route_row(&rows[0], 0), 0);
    }

    #[test]
    fn every_tuple_lands_in_exactly_one_part() {
        let ds = sample_hospital_dataset();
        let p = partition_dataset(&ds, &PartitionConfig::new(2, 7));
        let mut all: Vec<TupleId> = p.parts.iter().flatten().copied().collect();
        all.sort();
        assert_eq!(all, ds.tuple_ids().collect::<Vec<_>>());
        assert_eq!(p.parts.len(), 2);
        assert_eq!(p.capacity, 3);
    }

    #[test]
    fn capacity_bounds_skew() {
        let mut ds = dataset::Dataset::new(Schema::new(&["a", "b"]));
        for i in 0..100 {
            ds.push_row(vec![format!("v{}", i % 7), format!("w{}", i % 3)])
                .unwrap();
        }
        let p = partition_dataset(&ds, &PartitionConfig::new(4, 1));
        // Capacity 25; parts may be slightly uneven but never exceed capacity+1
        // (the +1 absorbs the final fallback placement).
        for size in p.sizes() {
            assert!(
                size <= p.capacity + 1,
                "part of size {size} exceeds capacity {}",
                p.capacity
            );
        }
        assert!(
            p.skew() <= 2.0,
            "skew {} too high: {:?}",
            p.skew(),
            p.sizes()
        );
    }

    #[test]
    fn single_part_keeps_everything_together() {
        let ds = sample_hospital_dataset();
        let p = partition_dataset(&ds, &PartitionConfig::new(1, 3));
        assert_eq!(p.parts.len(), 1);
        assert_eq!(p.parts[0].len(), ds.len());
    }

    #[test]
    fn more_parts_than_tuples_is_clamped() {
        let ds = sample_hospital_dataset();
        let p = partition_dataset(&ds, &PartitionConfig::new(100, 3));
        assert!(p.parts.len() <= ds.len());
        let total: usize = p.sizes().iter().sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = sample_hospital_dataset();
        let a = partition_dataset(&ds, &PartitionConfig::new(3, 11));
        let b = partition_dataset(&ds, &PartitionConfig::new(3, 11));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn partitioning_is_a_permutation(rows in 1usize..120, parts in 1usize..8, seed in 0u64..50) {
            let mut ds = dataset::Dataset::new(Schema::new(&["x", "y"]));
            for i in 0..rows {
                ds.push_row(vec![format!("a{}", i % 11), format!("b{}", i % 5)]).unwrap();
            }
            let p = partition_dataset(&ds, &PartitionConfig::new(parts, seed));
            let mut all: Vec<TupleId> = p.parts.iter().flatten().copied().collect();
            all.sort();
            all.dedup();
            prop_assert_eq!(all.len(), rows, "every tuple exactly once");
        }
    }
}
