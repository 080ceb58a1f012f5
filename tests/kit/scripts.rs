//! The equivalence suites' one random change-stream generator.

use dataset::rng::Rng;
use dataset::{AttrId, Dataset, TupleId};
use mlnclean::ChangeSet;

/// A seeded random mutation stream over a workload: a bulk insert of the
/// first `base_rows` rows, then `rounds` draws of one to four mutations —
/// inserts of one to three rows from the rest of the workload, updates of a
/// live cell to a value of its attribute's domain, deletes of a live row —
/// with sequential-id semantics.  A round that draws no applicable
/// mutation is left out.
pub fn random_scripts(
    dirty: &Dataset,
    base_rows: usize,
    rounds: usize,
    seed: u64,
) -> Vec<ChangeSet> {
    let all: Vec<Vec<String>> = dirty.tuples().map(|t| t.owned_values()).collect();
    let (base, reserve) = all.split_at(base_rows.min(all.len()));
    let domains: Vec<Vec<String>> = dirty
        .schema()
        .attr_ids()
        .map(|a| dirty.domain(a).into_iter().collect())
        .collect();
    let mut rng = Rng::seeded(seed);
    let mut scripts = vec![ChangeSet::inserting(base.to_vec())];
    let mut rows = base.len();
    let mut reserve_at = 0usize;
    for _ in 0..rounds {
        let mut changes = ChangeSet::new();
        for _ in 0..(1 + rng.below(4)) {
            let pick = rng.below(10);
            if pick < 4 && reserve_at < reserve.len() {
                let n = (1 + rng.below(3)).min(reserve.len() - reserve_at);
                changes = changes.insert(reserve[reserve_at..reserve_at + n].to_vec());
                reserve_at += n;
                rows += n;
            } else if pick < 8 && rows > 0 {
                let t = TupleId(rng.below(rows));
                let a = rng.below(domains.len());
                let v = domains[a][rng.below(domains[a].len())].clone();
                changes = changes.update(t, AttrId(a), v);
            } else if rows > 1 {
                changes = changes.delete(TupleId(rng.below(rows)));
                rows -= 1;
            }
        }
        if !changes.is_empty() {
            scripts.push(changes);
        }
    }
    scripts
}
