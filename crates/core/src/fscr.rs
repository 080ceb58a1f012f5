//! FSCR — Fusion-Score-based Conflict Resolution (Section 5.2, Algorithm 2).
//!
//! After Stage I each block holds one clean γ per group, giving every tuple
//! up to |blocks| cleaned "versions".  Versions can disagree on shared
//! attributes (the paper's t3 has CT = "DOTHAN" in version 1 but CT = "BOAZ"
//! in version 3).  FSCR fuses the versions of each tuple into the single most
//! likely consistent combination:
//!
//! * the **fusion score** of a fused tuple is the product of the
//!   probabilities of the γs used (Eq. 5);
//! * when two versions conflict, the conflicting version may be swapped for
//!   the highest-probability γ of its block that does not conflict with the
//!   fusion built so far;
//! * if no consistent fusion exists the tuple keeps its current values.
//!
//! Fusion order matters, so all `m!` orders are explored (m ≤ number of
//! rules; beyond a configurable bound, the m rotations of a consensus order).
//!
//! # The contract
//!
//! A tuple's fusion is a function of its **version vector** — the γs
//! covering it, in block order — and of the covering blocks' candidate
//! lists; nothing else about the tuple enters.  [`ConflictResolver::plan`]
//! therefore fuses each *distinct* vector once, behind a [`SharedFusion`]
//! handle, and [`ConflictResolver::fuse_tuple`] is a lookup that hands the
//! handle out: every tuple of one vector holds the same fusion.  What decides
//! a vector is unchanged from the per-tuple form of Algorithm 2:
//!
//! * the orders walked are Heap's permutations of `0..m` for
//!   m ≤ `max_exhaustive`, and above it the consensus order (fewest
//!   conflicting peers first, ties by descending probability) rotated so
//!   that each version leads once;
//! * an order wins if it needs fewer substitutions than the best so far, or
//!   as many and a **strictly** greater Eq. 5 product — the first such order
//!   wins ties (so an order is abandoned as soon as it needs more
//!   substitutions than the best so far);
//! * the product is multiplied in visiting order, each factor clamped with
//!   `.max(f64::MIN_POSITIVE)`.  Floating-point multiplication is not
//!   associative, so even a conflict-free vector evaluates every order's
//!   product: a later order can strictly win;
//! * `fused` lists the assignment in the winning order's attribute order —
//!   it is provenance, not a set.
//!
//! The plan precomputes, once per call: one flat `(AttrId, ValueId)` pair
//! table per cleaned γ, each block's substitution candidates by descending
//! probability, every tuple's versions as one dense table indexed by
//! `TupleId` (filled from the index's own tuple lists), and the distinct
//! version vectors.  Per vector the pairwise conflict tests run once (they
//! give `conflict_detected`, the consensus order's conflict counts and the
//! conflict-free test); the order loop runs on reused scratch and allocates
//! nothing.  A conflict-free vector's orders cost one product each, then one
//! union in the winning order.
//!
//! The whole stage runs on `(AttrId, ValueId)` pairs: conflict tests are
//! integer comparisons and the winning assignment is written back into the
//! repaired dataset as ids (the index pool is a snapshot of the dataset
//! pool, so ids transfer directly).  Strings materialize only in the
//! provenance records, and a fusion's `(attribute name, value)` list only
//! once: the first [`apply_tuple_fusion`] to record a fusion resolves it into
//! the shared handle, and every tuple of the vector — in that report and,
//! while [`crate::StageTwo`] keeps the handle memoised, in every later one —
//! shares that list ([`FusionOutcome::fused`]).

use crate::index::{Block, MlnIndex};
use dataset::{AttrId, CellRef, Dataset, TupleId, ValueId};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A single cell rewritten by the fusion stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellChange {
    /// The rewritten cell.
    pub cell: CellRef,
    /// Its value before fusion (the dirty value).
    pub old: String,
    /// Its value after fusion.
    pub new: String,
}

mlnw::codec! { struct CellChange { cell, old, new } }

/// Per-tuple outcome of the fusion.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionOutcome {
    /// The tuple.
    pub tuple: TupleId,
    /// The fused attribute assignment actually applied (resolved strings),
    /// shared by every outcome of the same [`SharedFusion`].
    pub fused: Arc<Vec<(String, String)>>,
    /// The fusion score of the applied assignment (0 when fusion failed).
    pub f_score: f64,
    /// Whether any pair of this tuple's versions conflicted.
    pub conflict_detected: bool,
    /// Whether every fusion order failed (the tuple was left unchanged).
    pub fusion_failed: bool,
}

mlnw::codec! { struct FusionOutcome { tuple, fused, f_score, conflict_detected, fusion_failed } }

/// The full FSCR record of one run.
#[derive(Debug, Clone, Default)]
pub struct FscrRecord {
    /// Per-tuple fusion outcomes.
    pub outcomes: Vec<FusionOutcome>,
    /// Every cell rewritten by the fusion stage, relative to the input data.
    pub changes: Vec<CellChange>,
    /// Substitution candidates (lines 18–22 of Algorithm 2) the fusions of
    /// this run tested against the assignment under construction: what the
    /// substitution scans cost.  A fusion replayed from [`crate::StageTwo`]'s
    /// memo tests none.  A process-local counter like
    /// [`crate::AgpRecord::bounds_computed`], it is not encoded (a decoded
    /// record reads `0`).
    pub candidates_tested: u64,
}

mlnw::codec! { struct FscrRecord { outcomes, changes; skip candidates_tested } }

/// Equality compares the *decisions* (outcomes and changes), not the
/// candidate counter: an incremental run replays memoised fusions, so its
/// count legitimately differs from a batch run's with the same outcomes.
impl PartialEq for FscrRecord {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes && self.changes == other.changes
    }
}

impl FscrRecord {
    /// Tuples for which a conflict between data versions was detected.
    pub fn tuples_with_conflicts(&self) -> Vec<TupleId> {
        self.outcomes
            .iter()
            .filter(|o| o.conflict_detected)
            .map(|o| o.tuple)
            .collect()
    }

    /// Number of rewritten cells.
    pub fn changed_cell_count(&self) -> usize {
        self.changes.len()
    }
}

/// The fused assignment chosen for one version vector — the cacheable result
/// of the fusion stage, handed out behind a [`SharedFusion`].
#[derive(Debug, Clone, PartialEq)]
pub struct TupleFusion {
    /// The fused `(attribute, value)` assignment (empty when the tuple has no
    /// versions or every fusion order failed).
    pub fused: Vec<(AttrId, ValueId)>,
    /// The fusion score of the applied assignment (0 when fusion failed or
    /// there was nothing to fuse).
    pub f_score: f64,
    /// Whether any pair of the tuple's versions conflicted.
    pub conflict_detected: bool,
    /// Whether every fusion order failed (the tuple is left unchanged).
    pub fusion_failed: bool,
}

/// A shared handle onto the [`TupleFusion`] of one version vector: cloning
/// it is a reference-count bump, and every tuple of the vector holds the
/// same one.  [`crate::StageTwo`] memoises these per tuple across change sets
/// and replays them for tuples whose versions stayed put.
#[derive(Debug, Clone)]
pub struct SharedFusion(Arc<FusionCell>);

#[derive(Debug)]
struct FusionCell {
    fusion: TupleFusion,
    /// `fusion.fused` as `(attribute name, value)` strings, resolved by the
    /// first [`apply_tuple_fusion`] that records this fusion.
    provenance: OnceLock<Arc<Vec<(String, String)>>>,
}

impl SharedFusion {
    fn new(fusion: TupleFusion) -> Self {
        SharedFusion(Arc::new(FusionCell {
            fusion,
            provenance: OnceLock::new(),
        }))
    }

    /// Live handles onto this fusion: its memory is freed with the last.
    pub(crate) fn holders(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl Deref for SharedFusion {
    type Target = TupleFusion;

    fn deref(&self) -> &TupleFusion {
        &self.0.fusion
    }
}

/// The fusion stage's decisions over a Stage-I-cleaned index: one
/// [`SharedFusion`] per distinct version vector, and per tuple which vector
/// is its own.
pub struct FusionPlan {
    /// Indexed by `TupleId`: the tuple's entry in `fusions`, or
    /// [`NO_VECTOR`] for a tuple the plan holds no version of.
    tuple_vector: Vec<u32>,
    /// One fusion per distinct version vector, in first-tuple order.
    fusions: Vec<SharedFusion>,
    /// [`NOTHING_TO_FUSE`], for the tuples without a vector.
    nothing_to_fuse: SharedFusion,
    /// Substitution candidates the fusions tested —
    /// [`FscrRecord::candidates_tested`].
    candidates_tested: u64,
}

const NO_VECTOR: u32 = u32::MAX;

/// The fusion of a tuple no block covers (no rule is relevant to it):
/// nothing to fuse, the tuple stays as it is.
const NOTHING_TO_FUSE: TupleFusion = TupleFusion {
    fused: Vec::new(),
    f_score: 0.0,
    conflict_detected: false,
    fusion_failed: false,
};

impl FusionPlan {
    /// The fusion of `t`'s version vector.
    fn fusion(&self, t: TupleId) -> &SharedFusion {
        match self.tuple_vector.get(t.index()) {
            Some(&vector) if vector != NO_VECTOR => &self.fusions[vector as usize],
            _ => &self.nothing_to_fuse,
        }
    }

    /// Substitution candidates the plan's fusions tested.
    pub(crate) fn candidates_tested(&self) -> u64 {
        self.candidates_tested
    }
}

/// The FSCR strategy.
#[derive(Debug, Clone)]
pub struct ConflictResolver {
    /// Maximum number of versions for which all `m!` fusion orders are
    /// explored; above this the m rotations of the consensus order are.
    pub max_exhaustive: usize,
}

impl ConflictResolver {
    /// Create a resolver.
    pub fn new(max_exhaustive: usize) -> Self {
        ConflictResolver { max_exhaustive }
    }

    /// Fuse every distinct version vector of a cleaned index.
    pub fn plan(&self, index: &MlnIndex) -> FusionPlan {
        let blocks: Vec<&Block> = index.blocks.iter().collect();
        self.plan_blocks(&blocks, None)
    }

    /// [`Self::plan`] restricted to the tuples `wanted` marks (one entry per
    /// row): only the blocks whose tuple lists hold at least one of them are
    /// read, and only their version vectors are fused.  For every wanted
    /// tuple the fusion is byte-identical to the full plan's: a tuple's
    /// versions come only from the blocks that list it, and substitution
    /// candidates are per block.  This is what makes a re-fusion cost
    /// proportional to the invalidated set instead of the whole index.
    pub fn plan_for(&self, index: &MlnIndex, wanted: &[bool]) -> FusionPlan {
        let covers = |block: &&Block| {
            let mut tuples = block.gammas().flat_map(|gamma| &gamma.tuples);
            tuples.any(|t| wanted[t.index()])
        };
        let blocks: Vec<&Block> = index.blocks.iter().filter(covers).collect();
        self.plan_blocks(&blocks, Some(wanted))
    }

    /// Build the flat tables over `blocks`, lay out the versions of every
    /// wanted tuple (`None`: all of them), and fuse each distinct vector.
    fn plan_blocks(&self, blocks: &[&Block], wanted: Option<&[bool]>) -> FusionPlan {
        let tables = GammaTables::new(blocks);
        let versions = TupleVersions::new(blocks, wanted);
        let mut kernel = FusionKernel::new(&tables, self.max_exhaustive);
        let mut vector_ids: HashMap<&[u32], u32> = HashMap::new();
        let mut fusions: Vec<SharedFusion> = Vec::new();
        let tuple_vector = (0..versions.tuple_count())
            .map(|t| {
                let vector = versions.of(t);
                if vector.is_empty() {
                    return NO_VECTOR;
                }
                *vector_ids.entry(vector).or_insert_with(|| {
                    fusions.push(SharedFusion::new(kernel.fuse(vector)));
                    (fusions.len() - 1) as u32
                })
            })
            .collect();
        FusionPlan {
            tuple_vector,
            fusions,
            nothing_to_fuse: SharedFusion::new(NOTHING_TO_FUSE),
            candidates_tested: kernel.walk.candidates_tested,
        }
    }

    /// One tuple's best consistent assignment (lines 3–27 of Algorithm 2 for
    /// a single tuple): a handle onto the fusion the plan computed for the
    /// tuple's version vector.
    pub fn fuse_tuple(&self, plan: &FusionPlan, t: TupleId) -> SharedFusion {
        plan.fusion(t).clone()
    }

    /// Fuse every tuple of `dirty` using the Stage-I-cleaned `index` and
    /// return the repaired dataset (same shape as the input) plus the record.
    pub fn resolve(&self, dirty: &Dataset, index: &MlnIndex) -> (Dataset, FscrRecord) {
        let mut repaired = dirty.clone();
        let plan = self.plan(index);
        let mut record = FscrRecord {
            candidates_tested: plan.candidates_tested,
            ..FscrRecord::default()
        };
        for t in dirty.tuple_ids() {
            apply_tuple_fusion(&mut repaired, index.pool(), t, plan.fusion(t), &mut record);
        }
        (repaired, record)
    }
}

/// Every cleaned γ of the planned blocks under one id (block order, then
/// group order — the order a tuple's versions are listed in), as flat
/// tables the kernel reads without touching a [`crate::Gamma`].
struct GammaTables {
    /// γ `g`'s `attr_value_pairs()` are `pairs[pair_start[g]..pair_start[g + 1]]`.
    pair_start: Vec<u32>,
    pairs: Vec<(AttrId, ValueId)>,
    /// `Pr(γ)` per γ.
    probability: Vec<f64>,
    /// The planned block each γ belongs to.
    block_of: Vec<u32>,
    /// Block `b`'s γs are ids `block_start[b]..block_start[b + 1]`, and the
    /// same range of `candidates` lists them by descending probability
    /// (stable: block order among equals).
    block_start: Vec<u32>,
    candidates: Vec<u32>,
    /// One more than the largest attribute index any γ assigns.
    attr_bound: usize,
}

impl GammaTables {
    fn new(blocks: &[&Block]) -> Self {
        let mut tables = GammaTables {
            pair_start: vec![0],
            pairs: Vec::new(),
            probability: Vec::new(),
            block_of: Vec::new(),
            block_start: vec![0],
            candidates: Vec::new(),
            attr_bound: 0,
        };
        for (b, block) in blocks.iter().enumerate() {
            for gamma in block.gammas() {
                tables.pairs.extend(gamma.pairs());
                tables.pair_start.push(tables.pairs.len() as u32);
                tables.probability.push(gamma.probability);
                tables.block_of.push(b as u32);
            }
            let first = tables.candidates.len() as u32;
            let end = tables.probability.len() as u32;
            tables.candidates.extend(first..end);
            let probability = &tables.probability;
            tables.candidates[first as usize..].sort_by(|&a, &b| {
                probability[b as usize]
                    .partial_cmp(&probability[a as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            tables.block_start.push(end);
        }
        tables.attr_bound = tables
            .pairs
            .iter()
            .map(|(a, _)| a.index() + 1)
            .max()
            .unwrap_or(0);
        tables
    }

    fn pairs(&self, g: u32) -> &[(AttrId, ValueId)] {
        let g = g as usize;
        &self.pairs[self.pair_start[g] as usize..self.pair_start[g + 1] as usize]
    }

    /// [`crate::Gamma::conflicts_with`] on the flat tables.
    fn conflict(&self, g: u32, h: u32) -> bool {
        let other = self.pairs(h);
        self.pairs(g)
            .iter()
            .any(|&(a, v)| other.iter().any(|&(b, w)| a == b && v != w))
    }

    /// The candidates of `g`'s block, most probable first.
    fn block_candidates(&self, g: u32) -> &[u32] {
        let b = self.block_of[g as usize] as usize;
        &self.candidates[self.block_start[b] as usize..self.block_start[b + 1] as usize]
    }

    /// `Pr(γ)` as Eq. 5 multiplies it.
    fn factor(&self, g: u32) -> f64 {
        self.probability[g as usize].max(f64::MIN_POSITIVE)
    }
}

/// The versions of every wanted tuple — the γ ids of [`GammaTables`] covering
/// it, in id order — as one dense table indexed by `TupleId`.
struct TupleVersions {
    /// Tuple `t`'s versions are `versions[start[t]..start[t + 1]]`.
    start: Vec<u32>,
    versions: Vec<u32>,
}

impl TupleVersions {
    fn new(blocks: &[&Block], wanted: Option<&[bool]>) -> Self {
        let for_each_cover = |visit: &mut dyn FnMut(u32, usize)| {
            let gammas = blocks.iter().flat_map(|block| block.gammas());
            for (g, gamma) in gammas.enumerate() {
                for t in gamma.tuples.iter().map(|t| t.index()) {
                    if wanted.is_none_or(|wanted| wanted[t]) {
                        visit(g as u32, t);
                    }
                }
            }
        };
        // Count, prefix-sum, fill: the counting sort of (γ, tuple) by tuple.
        let mut start: Vec<u32> = vec![0; wanted.map_or(0, <[bool]>::len) + 1];
        for_each_cover(&mut |_, t| {
            if t + 1 >= start.len() {
                start.resize(t + 2, 0);
            }
            start[t + 1] += 1;
        });
        for t in 1..start.len() {
            start[t] += start[t - 1];
        }
        let mut next = start.clone();
        let mut versions = vec![0; next[next.len() - 1] as usize];
        for_each_cover(&mut |g, t| {
            versions[next[t] as usize] = g;
            next[t] += 1;
        });
        TupleVersions { start, versions }
    }

    fn tuple_count(&self) -> usize {
        self.start.len() - 1
    }

    fn of(&self, t: usize) -> &[u32] {
        &self.versions[self.start[t] as usize..self.start[t + 1] as usize]
    }
}

/// Algorithm 2 for one version vector, on scratch reused across vectors.
struct FusionKernel<'t> {
    max_exhaustive: usize,
    /// How many of its peers each version conflicts with.
    conflict_counts: Vec<usize>,
    /// The order being walked, and the consensus order it is rotated from.
    order: Vec<usize>,
    consensus: Vec<usize>,
    walk: OrderWalk<'t>,
}

/// The state of walking one order after another over one vector.
struct OrderWalk<'t> {
    tables: &'t GammaTables,
    /// By attribute index: the value the fusion under construction assigns.
    assigned: Vec<Option<ValueId>>,
    /// The fusion under construction, in assignment order.
    fused: Vec<(AttrId, ValueId)>,
    /// The winning order so far with its Eq. 5 product and substitutions.
    best_order: Vec<usize>,
    best: Option<(f64, usize)>,
    /// Substitution candidates tested so far —
    /// [`FscrRecord::candidates_tested`].
    candidates_tested: u64,
}

impl<'t> FusionKernel<'t> {
    fn new(tables: &'t GammaTables, max_exhaustive: usize) -> Self {
        FusionKernel {
            max_exhaustive,
            conflict_counts: Vec::new(),
            order: Vec::new(),
            consensus: Vec::new(),
            walk: OrderWalk {
                tables,
                assigned: vec![None; tables.attr_bound],
                fused: Vec::new(),
                best_order: Vec::new(),
                best: None,
                candidates_tested: 0,
            },
        }
    }

    /// Explore the fusion orders of `versions` and return the best
    /// consistent attribute assignment with its fusion score.
    ///
    /// Fusions are ranked first by how many of the *tuple's own* versions
    /// they retain (substituting a version for a block-level candidate is a
    /// bigger change to the tuple — the principle of minimality the paper
    /// bakes into its reliability score), and only then by the fusion score
    /// of Eq. 5.  Without the minimality tie-break, a fusion that keeps one
    /// dirty version and substitutes away several correct ones can win on
    /// raw probability product alone.
    fn fuse(&mut self, versions: &[u32]) -> TupleFusion {
        let (tables, m) = (self.walk.tables, versions.len());
        self.conflict_counts.clear();
        self.conflict_counts.resize(m, 0);
        for i in 0..m {
            for j in i + 1..m {
                if tables.conflict(versions[i], versions[j]) {
                    self.conflict_counts[i] += 1;
                    self.conflict_counts[j] += 1;
                }
            }
        }
        let conflict_detected = self.conflict_counts.iter().any(|&c| c > 0);

        let walk = &mut self.walk;
        walk.best = None;
        let mut visit = |order: &[usize]| walk.visit(versions, order, conflict_detected);
        if m <= self.max_exhaustive {
            self.order.clear();
            self.order.extend(0..m);
            heap_permute(&mut self.order, m, &mut visit);
        } else {
            // Beyond the exhaustive bound: consensus ordering (versions that
            // conflict with fewer of their peers first, ties by probability),
            // rotated so every version gets a chance to lead.  This keeps the
            // cost at O(m) orders instead of m!.  (The rotation led by the
            // consensus order's own head is the consensus order.)
            let counts = &self.conflict_counts;
            self.consensus.clear();
            self.consensus.extend(0..m);
            self.consensus.sort_by(|&a, &b| {
                counts[a].cmp(&counts[b]).then(
                    tables.probability[versions[b] as usize]
                        .partial_cmp(&tables.probability[versions[a] as usize])
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
            });
            for &lead in &self.consensus {
                self.order.clear();
                self.order.push(lead);
                self.order
                    .extend(self.consensus.iter().copied().filter(|&x| x != lead));
                visit(&self.order);
            }
        }

        let Some((score, _)) = walk.best else {
            return TupleFusion {
                fused: Vec::new(),
                f_score: 0.0,
                conflict_detected,
                fusion_failed: true,
            };
        };
        // The winning order's assignment, in the order that walk makes it.
        let winner = std::mem::take(&mut walk.best_order);
        walk.substitute(versions, &winner, usize::MAX);
        walk.best_order = winner;
        TupleFusion {
            fused: walk.fused.clone(),
            f_score: score,
            conflict_detected,
            fusion_failed: false,
        }
    }
}

impl OrderWalk<'_> {
    /// Score one order and keep it if it beats the best so far: fewer
    /// substitutions, or as many and a strictly greater Eq. 5 product.
    fn visit(&mut self, versions: &[u32], order: &[usize], conflict_detected: bool) {
        let outcome = if conflict_detected {
            // More substitutions than the best so far cannot win.
            let give_up_above = self.best.map_or(usize::MAX, |(_, most)| most);
            self.substitute(versions, order, give_up_above)
        } else {
            // No pair of versions conflicts, so no order substitutes or
            // fails; orders differ only in how the product rounds.
            let factors = order.iter().map(|&i| self.tables.factor(versions[i]));
            Some((factors.fold(1.0, |score, factor| score * factor), 0))
        };
        let Some((score, substitutions)) = outcome else {
            return;
        };
        let better = self.best.is_none_or(|(best_score, fewest)| {
            substitutions < fewest || (substitutions == fewest && score > best_score)
        });
        if better {
            self.best = Some((score, substitutions));
            self.best_order.clear();
            self.best_order.extend_from_slice(order);
        }
    }

    /// Fuse the versions in the given order into `self.fused`; returns
    /// `None` if the fusion fails (an unresolvable conflict is hit) or needs
    /// more than `give_up_above` substitutions, otherwise its fusion score
    /// and how many versions had to be substituted with block-level
    /// candidates.
    fn substitute(
        &mut self,
        versions: &[u32],
        order: &[usize],
        give_up_above: usize,
    ) -> Option<(f64, usize)> {
        let tables = self.tables;
        for (a, _) in self.fused.drain(..) {
            self.assigned[a.index()] = None;
        }
        let mut score = 1.0f64;
        let mut substitutions = 0usize;
        for &i in order {
            let version = versions[i];
            let chosen = if self.conflicts(version) {
                // The highest-probability candidate of the same block that
                // does not conflict with the fusion built so far (lines
                // 18–22 of Algorithm 2); none: the fusion fails for this
                // order.
                let candidates = tables.block_candidates(version);
                let found = candidates.iter().position(|&c| !self.conflicts(c));
                self.candidates_tested += found.map_or(candidates.len(), |at| at + 1) as u64;
                let candidate = candidates[found?];
                substitutions += 1;
                if substitutions > give_up_above {
                    return None;
                }
                candidate
            } else {
                version
            };
            for &(a, v) in tables.pairs(chosen) {
                let slot = &mut self.assigned[a.index()];
                if slot.is_none() {
                    *slot = Some(v);
                    self.fused.push((a, v));
                }
            }
            score *= tables.factor(chosen);
        }
        Some((score, substitutions))
    }

    /// Whether γ `g` disagrees with the attribute assignment built so far.
    fn conflicts(&self, g: u32) -> bool {
        let mut pairs = self.tables.pairs(g).iter();
        pairs.any(|&(a, v)| self.assigned[a.index()].is_some_and(|x| x != v))
    }
}

/// Write one tuple's fusion into `repaired` in place and append its
/// provenance (cell changes + outcome) to `record`.  `repaired` must still
/// hold the tuple's dirty values — a fusion never writes the same attribute
/// twice, so every cell is read before it is overwritten — and `pool` must
/// resolve every id of both the fusion and those cells (the dataset pool, or
/// the index's snapshot of it: γ ids write straight into the dataset).
/// Public so [`crate::StageTwo`] and external engine builders replay
/// memoised [`SharedFusion`]s exactly like [`ConflictResolver::resolve`] does.
///
/// Per tuple this costs the changed cells and a reference-count bump: the
/// outcome's `(attribute name, value)` list is resolved by the first call
/// that records `fusion` and shared by every later one, so every call a
/// handle sees must name its attributes and values alike (one schema, one
/// pool or append-only descendants of it) — as one plan or one driver does.
pub fn apply_tuple_fusion(
    repaired: &mut Dataset,
    pool: &dataset::ValuePool,
    t: TupleId,
    fusion: &SharedFusion,
    record: &mut FscrRecord,
) {
    for &(attr, value) in &fusion.fused {
        let old = repaired.value_id(t, attr);
        if old != value {
            record.changes.push(CellChange {
                cell: CellRef::new(t, attr),
                old: pool.resolve(old).to_string(),
                new: pool.resolve(value).to_string(),
            });
            repaired.set_value_id(t, attr, value);
        }
    }
    let provenance = fusion.0.provenance.get_or_init(|| {
        let schema = repaired.schema();
        let resolve = |&(a, v)| (schema.attr_name(a).to_string(), pool.resolve(v).to_string());
        Arc::new(fusion.fused.iter().map(resolve).collect())
    });
    record.outcomes.push(FusionOutcome {
        tuple: t,
        fused: Arc::clone(provenance),
        f_score: fusion.f_score,
        conflict_detected: fusion.conflict_detected,
        fusion_failed: fusion.fusion_failed,
    });
}

/// Visit every permutation of `items[..k]` in place (Heap's algorithm).
fn heap_permute(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k <= 1 {
        visit(items);
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, visit);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agp::AbnormalGroupProcessor;
    use crate::gamma::Gamma;
    use crate::index::{Group, MlnIndex};
    use crate::rsc::ReliabilityCleaner;
    use crate::weights::assign_weights;
    use dataset::{sample_hospital_dataset, ValuePool};
    use distance::Metric;
    use rules::{sample_hospital_rules, RuleId, RuleSet};

    /// Algorithm 2 as this module ran it before fusions were planned per
    /// version vector: per tuple, on `&Gamma`s, allocating as it goes.  Kept
    /// verbatim as the oracle the plan is compared against.
    mod reference {
        use super::*;

        type Fusion = (Vec<(AttrId, ValueId)>, f64, usize);

        pub struct Plan<'a> {
            pub tuple_versions: HashMap<TupleId, Vec<&'a Gamma>>,
            block_candidates: HashMap<RuleId, Vec<&'a Gamma>>,
        }

        pub fn plan(index: &MlnIndex) -> Plan<'_> {
            let mut tuple_versions: HashMap<TupleId, Vec<&Gamma>> = HashMap::new();
            let mut block_candidates: HashMap<RuleId, Vec<&Gamma>> = HashMap::new();
            for block in &index.blocks {
                let mut candidates: Vec<&Gamma> = block.gammas().collect();
                candidates.sort_by(|a, b| {
                    b.probability
                        .partial_cmp(&a.probability)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                block_candidates.insert(block.rule, candidates);
                for group in &block.groups {
                    for gamma in &group.gammas {
                        for &t in &gamma.tuples {
                            tuple_versions.entry(t).or_default().push(gamma);
                        }
                    }
                }
            }
            Plan {
                tuple_versions,
                block_candidates,
            }
        }

        pub fn fuse_tuple(max_exhaustive: usize, plan: &Plan<'_>, t: TupleId) -> TupleFusion {
            let versions = match plan.tuple_versions.get(&t) {
                Some(v) if !v.is_empty() => v,
                _ => {
                    return TupleFusion {
                        fused: Vec::new(),
                        f_score: 0.0,
                        conflict_detected: false,
                        fusion_failed: false,
                    }
                }
            };

            let conflict_detected = versions
                .iter()
                .enumerate()
                .any(|(i, a)| versions.iter().skip(i + 1).any(|b| a.conflicts_with(b)));

            let (best_fusion, best_score) =
                best_fusion(max_exhaustive, versions, &plan.block_candidates);

            let fusion_failed = best_fusion.is_none();
            TupleFusion {
                fused: best_fusion.unwrap_or_default(),
                f_score: if fusion_failed { 0.0 } else { best_score },
                conflict_detected,
                fusion_failed,
            }
        }

        fn best_fusion(
            max_exhaustive: usize,
            versions: &[&Gamma],
            block_candidates: &HashMap<RuleId, Vec<&Gamma>>,
        ) -> (Option<Vec<(AttrId, ValueId)>>, f64) {
            let m = versions.len();
            let orders: Vec<Vec<usize>> = if m <= max_exhaustive {
                permutations(m)
            } else {
                let mut consensus: Vec<usize> = (0..m).collect();
                let conflict_count = |i: usize| -> usize {
                    versions
                        .iter()
                        .enumerate()
                        .filter(|(j, v)| *j != i && versions[i].conflicts_with(v))
                        .count()
                };
                consensus.sort_by(|&a, &b| {
                    conflict_count(a).cmp(&conflict_count(b)).then(
                        versions[b]
                            .probability
                            .partial_cmp(&versions[a].probability)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                });
                let mut orders = vec![consensus.clone()];
                for lead in 0..m {
                    let mut order = vec![consensus[lead]];
                    order.extend(consensus.iter().copied().filter(|&x| x != consensus[lead]));
                    orders.push(order);
                }
                orders
            };

            let mut best: Option<Vec<(AttrId, ValueId)>> = None;
            let mut best_score = 0.0f64;
            let mut best_substitutions = usize::MAX;
            for order in orders {
                if let Some((fused, score, substitutions)) =
                    fuse_in_order(versions, &order, block_candidates)
                {
                    let better = substitutions < best_substitutions
                        || (substitutions == best_substitutions && score > best_score)
                        || best.is_none();
                    if better {
                        best_score = score;
                        best_substitutions = substitutions;
                        best = Some(fused);
                    }
                }
            }
            (best, best_score)
        }

        fn fuse_in_order(
            versions: &[&Gamma],
            order: &[usize],
            block_candidates: &HashMap<RuleId, Vec<&Gamma>>,
        ) -> Option<Fusion> {
            let mut fused: Vec<(AttrId, ValueId)> = Vec::new();
            let mut score = 1.0f64;
            let mut substitutions = 0usize;

            for &idx in order {
                let version = versions[idx];
                let chosen: &Gamma = if conflicts_with_fusion(version, &fused) {
                    let candidates = block_candidates
                        .get(&version.rule)
                        .map(|v| v.as_slice())
                        .unwrap_or(&[]);
                    match candidates
                        .iter()
                        .find(|c| !conflicts_with_fusion(c, &fused))
                    {
                        Some(c) => {
                            substitutions += 1;
                            c
                        }
                        None => return None,
                    }
                } else {
                    version
                };

                for (attr, value) in chosen.attr_value_pairs() {
                    if !fused.iter().any(|(a, _)| *a == attr) {
                        fused.push((attr, value));
                    }
                }
                score *= chosen.probability.max(f64::MIN_POSITIVE);
            }
            Some((fused, score, substitutions))
        }

        fn conflicts_with_fusion(gamma: &Gamma, fused: &[(AttrId, ValueId)]) -> bool {
            gamma
                .attr_value_pairs()
                .into_iter()
                .any(|(attr, value)| fused.iter().any(|&(a, v)| a == attr && v != value))
        }

        /// All permutations of `0..n` (Heap's algorithm).
        pub fn permutations(n: usize) -> Vec<Vec<usize>> {
            let mut items: Vec<usize> = (0..n).collect();
            let mut out = Vec::new();
            heap_permute(&mut items, n, &mut out);
            out
        }

        fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
            if k <= 1 {
                out.push(items.clone());
                return;
            }
            for i in 0..k {
                heap_permute(items, k - 1, out);
                if k.is_multiple_of(2) {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
    }

    /// The bounds the oracle comparisons run at: rotations only, rotations
    /// for m > 2, the default, and exhaustive up to seven rules.
    const BOUNDS: [usize; 4] = [0, 2, 6, 7];

    /// Assert that the plan's fusion of every tuple `0..tuples` equals the
    /// per-tuple reference — `fused` order and score bits included — at every
    /// bound of [`BOUNDS`], and return the reference fusions at the default
    /// bound.
    fn assert_plan_matches_reference(index: &MlnIndex, tuples: usize) -> Vec<TupleFusion> {
        assert_plan_matches_reference_at(&BOUNDS, index, tuples)
    }

    fn assert_plan_matches_reference_at(
        bounds: &[usize],
        index: &MlnIndex,
        tuples: usize,
    ) -> Vec<TupleFusion> {
        let reference_plan = reference::plan(index);
        for &max_exhaustive in bounds {
            let resolver = ConflictResolver::new(max_exhaustive);
            let plan = resolver.plan(index);
            for t in (0..tuples).map(TupleId) {
                let expected = reference::fuse_tuple(max_exhaustive, &reference_plan, t);
                let actual = resolver.fuse_tuple(&plan, t);
                assert_eq!(*actual, expected, "{t:?} at bound {max_exhaustive}");
                assert_eq!(actual.f_score.to_bits(), expected.f_score.to_bits());
            }
        }
        (0..tuples)
            .map(|t| reference::fuse_tuple(6, &reference_plan, TupleId(t)))
            .collect()
    }

    fn stage1(ds: &Dataset, rules: &RuleSet, agp: AbnormalGroupProcessor) -> MlnIndex {
        let mut index = MlnIndex::build(ds, rules).unwrap();
        agp.process(&mut index);
        assign_weights(&mut index);
        ReliabilityCleaner::new(Metric::Levenshtein).clean(&mut index);
        index
    }

    /// The benchmark's AGP settings: the Levenshtein metric, guard 0.15.
    fn guarded_agp(tau: usize) -> AbnormalGroupProcessor {
        AbnormalGroupProcessor::new(tau, Metric::Levenshtein).with_distance_guard(0.15)
    }

    fn stage1_index(ds: &Dataset) -> MlnIndex {
        let agp = AbnormalGroupProcessor::new(1, Metric::Levenshtein);
        stage1(ds, &sample_hospital_rules(), agp)
    }

    /// The benchmark's `hai_batch` input in miniature (seven rules, so every
    /// tuple carries m = 7 versions), Stage-I-cleaned.
    fn hai_index() -> (Dataset, MlnIndex) {
        hai_index_of(700, 25)
    }

    fn hai_index_of(rows: usize, providers: usize) -> (Dataset, MlnIndex) {
        let hai = datagen::HaiGenerator::default()
            .with_rows(rows)
            .with_providers(providers);
        let dirty = hai.dirty(0.02, 0.5, 12).dirty;
        let index = stage1(&dirty, &datagen::HaiGenerator::rules(), guarded_agp(2));
        (dirty, index)
    }

    /// A hand-built cleaned index over attributes `A0, A1, …`: one block per
    /// slice, one single-γ group per entry
    /// `((reason attr, value), (result attr, value), probability, tuples)`.
    type HandGamma<'a> = ((usize, &'a str), (usize, &'a str), f64, &'a [usize]);

    fn hand_index(blocks: &[&[HandGamma<'_>]]) -> MlnIndex {
        let mut pool = ValuePool::new();
        let blocks = blocks
            .iter()
            .enumerate()
            .map(|(b, gammas)| Block {
                rule: RuleId(b),
                reason_attrs: vec![AttrId(gammas[0].0 .0)],
                result_attrs: vec![AttrId(gammas[0].1 .0)],
                groups: gammas
                    .iter()
                    .map(|&((reason, key), (result, value), probability, tuples)| {
                        let key = vec![pool.intern(key)];
                        let mut gamma = Gamma::new(
                            RuleId(b),
                            vec![AttrId(reason)],
                            key.clone(),
                            vec![AttrId(result)],
                            vec![pool.intern(value)],
                        );
                        gamma.probability = probability;
                        gamma.tuples = tuples.iter().copied().map(TupleId).collect();
                        let mut group = Group::new(key);
                        group.gammas.push(gamma);
                        group
                    })
                    .collect(),
            })
            .collect();
        MlnIndex::from_parts(blocks, pool)
    }

    /// The attributes a fusion assigns, in its provenance order.
    fn fused_attrs(fusion: &TupleFusion) -> Vec<usize> {
        fusion.fused.iter().map(|(a, _)| a.index()).collect()
    }

    #[test]
    fn example3_t3_is_fully_repaired() {
        // Example 3: the final fusion of t3 is
        // {HN: ELIZA, CT: BOAZ, ST: AL, PN: 2567688400}.
        let dirty = sample_hospital_dataset();
        let index = stage1_index(&dirty);
        let resolver = ConflictResolver::new(6);
        let (repaired, record) = resolver.resolve(&dirty, &index);

        let t3 = TupleId(2);
        let schema = repaired.schema();
        assert_eq!(repaired.value(t3, schema.attr_id("HN").unwrap()), "ELIZA");
        assert_eq!(repaired.value(t3, schema.attr_id("CT").unwrap()), "BOAZ");
        assert_eq!(repaired.value(t3, schema.attr_id("ST").unwrap()), "AL");
        assert_eq!(
            repaired.value(t3, schema.attr_id("PN").unwrap()),
            "2567688400"
        );

        // The conflict on t3.CT between version 1 and version 3 was detected.
        let outcome = record.outcomes.iter().find(|o| o.tuple == t3).unwrap();
        assert!(outcome.conflict_detected);
        assert!(!outcome.fusion_failed);
        assert!(outcome.f_score > 0.0);
    }

    #[test]
    fn whole_sample_is_repaired_to_ground_truth() {
        let dirty = sample_hospital_dataset();
        let truth = dataset::sample_hospital_truth();
        let index = stage1_index(&dirty);
        let (repaired, _) = ConflictResolver::new(6).resolve(&dirty, &index);
        assert_eq!(
            repaired, truth,
            "the running example should be cleaned perfectly"
        );
    }

    #[test]
    fn tuples_without_conflicts_are_fused_directly() {
        let dirty = sample_hospital_dataset();
        let index = stage1_index(&dirty);
        let (_, record) = ConflictResolver::new(6).resolve(&dirty, &index);
        // t1 has consistent versions (no conflicts).
        let t1 = record
            .outcomes
            .iter()
            .find(|o| o.tuple == TupleId(0))
            .unwrap();
        assert!(!t1.conflict_detected);
        assert!(!t1.fusion_failed);
    }

    #[test]
    fn changes_are_recorded_per_cell() {
        let dirty = sample_hospital_dataset();
        let index = stage1_index(&dirty);
        let (repaired, record) = ConflictResolver::new(6).resolve(&dirty, &index);
        // Every recorded change corresponds to an actual difference.
        for change in &record.changes {
            assert_eq!(repaired.cell(change.cell), change.new);
            assert_eq!(dirty.cell(change.cell), change.old);
            assert_ne!(change.old, change.new);
        }
        // Table 1 has 4 erroneous cells; all are rewritten.
        assert_eq!(record.changed_cell_count(), 4);
    }

    #[test]
    fn plan_matches_the_per_tuple_reference_on_seeded_workloads() {
        let hospital = sample_hospital_dataset();
        assert_plan_matches_reference(&stage1_index(&hospital), hospital.len());

        // m = 7 > the default bound: the rotated-consensus path, with
        // conflicted vectors that substitute.
        let (hai, index) = hai_index();
        let reference_plan = reference::plan(&index);
        assert!(reference_plan.tuple_versions.values().all(|v| v.len() == 7));
        let fusions = assert_plan_matches_reference_at(&[0, 2, 6], &index, hai.len());
        let conflicted = fusions.iter().filter(|f| f.conflict_detected).count();
        assert!(conflicted > 0 && conflicted < fusions.len());
        // All 5040 orders of seven versions: the reference takes ~0.1 s a
        // tuple unoptimised, so on fewer rows.
        let (hai, index) = hai_index_of(90, 4);
        let fusions = assert_plan_matches_reference(&index, hai.len());
        assert!(fusions.iter().any(|f| f.conflict_detected));

        // m ≤ 2: the CFD block covers only some tuples.
        let car = datagen::CarGenerator::default().with_rows(900);
        let car = car.dirty(0.02, 0.5, 13).dirty;
        let index = stage1(&car, &datagen::CarGenerator::rules(), guarded_agp(1));
        let reference_plan = reference::plan(&index);
        assert!(reference_plan.tuple_versions.values().all(|v| v.len() <= 2));
        let fusions = assert_plan_matches_reference(&index, car.len());
        assert!(fusions.iter().any(|f| f.conflict_detected));
    }

    #[test]
    fn a_later_order_wins_when_its_product_rounds_higher() {
        // Three versions on disjoint attributes: no conflict, so every order
        // yields the same assignment and only the rounding of the product
        // tells them apart — (0.4·0.1)·0.3 is one ulp above (0.1·0.3)·0.4.
        let index = hand_index(&[
            &[((0, "a"), (1, "b"), 0.1, &[0])],
            &[((2, "c"), (3, "d"), 0.3, &[0])],
            &[((4, "e"), (5, "f"), 0.4, &[0, 2])],
        ]);
        let first_order: f64 = (0.1 * 0.3) * 0.4;
        let winner: f64 = (0.4 * 0.1) * 0.3;
        assert!(winner > first_order);
        let fusions = assert_plan_matches_reference(&index, 3);
        assert!(!fusions[0].conflict_detected && !fusions[0].fusion_failed);

        // Exhaustive: Heap's third order [2, 0, 1] is the first to reach it,
        // and `fused` lists the attributes as that order assigned them.
        let resolver = ConflictResolver::new(6);
        let fusion = resolver.fuse_tuple(&resolver.plan(&index), TupleId(0));
        assert_eq!(fusion.f_score.to_bits(), winner.to_bits());
        assert_eq!(fused_attrs(&fusion), vec![4, 5, 0, 1, 2, 3]);

        // Rotations of the consensus order [2, 1, 0]: (0.4·0.3)·0.1 and
        // (0.3·0.4)·0.1 round low, the rotation led by version 0 wins.
        let resolver = ConflictResolver::new(0);
        let fusion = resolver.fuse_tuple(&resolver.plan(&index), TupleId(0));
        assert_eq!(fusion.f_score.to_bits(), ((0.1 * 0.4) * 0.3f64).to_bits());
        assert!(fusion.f_score > (0.4 * 0.3) * 0.1);
        assert_eq!(fused_attrs(&fusion), vec![0, 1, 4, 5, 2, 3]);

        // Tuple 1 is covered by no block, tuple 7 is beyond the plan.
        for t in [TupleId(1), TupleId(7)] {
            let fusion = resolver.fuse_tuple(&resolver.plan(&index), t);
            assert_eq!(*fusion, NOTHING_TO_FUSE);
        }
    }

    #[test]
    fn the_first_order_wins_ties_and_zero_probabilities_are_clamped() {
        // Every order's product is exactly 0.125: only a strictly greater
        // product may displace the first order, so `fused` is in block order.
        let ties = hand_index(&[
            &[((0, "a"), (1, "b"), 0.5, &[0])],
            &[((2, "c"), (3, "d"), 0.5, &[0])],
            &[((4, "e"), (5, "f"), 0.5, &[0])],
        ]);
        let fusions = assert_plan_matches_reference(&ties, 1);
        assert_eq!(fusions[0].f_score, 0.125);
        for max_exhaustive in BOUNDS {
            let resolver = ConflictResolver::new(max_exhaustive);
            let fusion = resolver.fuse_tuple(&resolver.plan(&ties), TupleId(0));
            assert_eq!(fused_attrs(&fusion), vec![0, 1, 2, 3, 4, 5]);
        }

        // Eq. 5 multiplies max(Pr, MIN_POSITIVE): a zero-probability version
        // shrinks the score without zeroing it.
        let zero = hand_index(&[
            &[((0, "a"), (1, "b"), 0.5, &[0])],
            &[((2, "c"), (3, "d"), 0.0, &[0])],
        ]);
        let fusions = assert_plan_matches_reference(&zero, 1);
        assert_eq!(fusions[0].f_score, 0.5 * f64::MIN_POSITIVE);
        assert!(fusions[0].f_score > 0.0);
    }

    #[test]
    fn a_substitution_that_succeeds_in_one_order_only_is_found() {
        // Tuple 0's versions disagree on A1 (x1 vs x2).  Led by block 0's
        // version, block 1 offers no candidate with A1 = x1 and the order
        // fails; led by block 1's, block 0's second γ agrees on x2.
        let index = hand_index(&[
            &[
                ((0, "a1"), (1, "x1"), 0.6, &[0]),
                ((0, "a2"), (1, "x2"), 0.4, &[1]),
            ],
            &[
                ((2, "b1"), (1, "x2"), 0.7, &[0]),
                ((2, "b2"), (1, "x3"), 0.3, &[2]),
            ],
        ]);
        let fusions = assert_plan_matches_reference(&index, 3);
        let fusion = &fusions[0];
        assert!(fusion.conflict_detected && !fusion.fusion_failed);
        assert_eq!(fused_attrs(fusion), vec![2, 1, 0]);
        let values: Vec<&str> = fusion
            .fused
            .iter()
            .map(|&(_, v)| index.pool().resolve(v))
            .collect();
        assert_eq!(values, vec!["b1", "x2", "a2"]);
        assert_eq!(fusion.f_score, 0.7 * 0.4);
        assert!(!fusions[1].conflict_detected && !fusions[2].conflict_detected);
    }

    #[test]
    fn seven_rules_whose_every_order_fails_leave_the_tuple_unchanged() {
        // Seven single-γ blocks that pairwise disagree on A0: whichever
        // version leads, the next one conflicts and its block's only
        // candidate is itself.
        let values = ["x0", "x1", "x2", "x3", "x4", "x5", "x6"];
        let gammas: Vec<[HandGamma<'_>; 1]> = (0..7)
            .map(|b| [((b + 1, "k"), (0, values[b]), 0.9, &[0usize][..])])
            .collect();
        let blocks: Vec<&[HandGamma<'_>]> = gammas.iter().map(|g| &g[..]).collect();
        let index = hand_index(&blocks);
        let fusions = assert_plan_matches_reference(&index, 1);
        assert_eq!(
            fusions[0],
            TupleFusion {
                fused: Vec::new(),
                f_score: 0.0,
                conflict_detected: true,
                fusion_failed: true,
            }
        );
        // Applied, a failed fusion rewrites nothing.
        let mut dirty = Dataset::new(dataset::Schema::new(&[
            "A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7",
        ]));
        dirty.push_row(vec!["x0".to_string(); 8]).unwrap();
        let (repaired, record) = ConflictResolver::new(6).resolve(&dirty, &index);
        assert_eq!(repaired, dirty);
        assert!(record.changes.is_empty() && record.outcomes[0].fusion_failed);
    }

    #[test]
    fn restricted_plan_matches_the_full_plan_for_its_tuples() {
        let hospital = sample_hospital_dataset();
        let (hai, hai_index) = hai_index();
        // CAR's CFD block lists only some of the tuples.
        let car = datagen::CarGenerator::default().with_rows(900);
        let car = car.dirty(0.02, 0.5, 13).dirty;
        let car_index = stage1(&car, &datagen::CarGenerator::rules(), guarded_agp(1));
        let cases = [
            (&hospital, stage1_index(&hospital)),
            (&hai, hai_index),
            (&car, car_index),
        ];
        for (dirty, index) in &cases {
            let resolver = ConflictResolver::new(6);
            let full = resolver.plan(index);
            let wanted: Vec<bool> = (0..dirty.len()).map(|t| t >= 2 && t % 2 == 0).collect();
            let restricted = resolver.plan_for(index, &wanted);
            assert!(restricted.fusions.len() <= full.fusions.len());
            for t in dirty.tuple_ids().filter(|t| wanted[t.index()]) {
                assert_eq!(
                    *resolver.fuse_tuple(&full, t),
                    *resolver.fuse_tuple(&restricted, t),
                    "restricted plan diverged for {t:?}"
                );
            }
        }
    }

    #[test]
    fn tuples_sharing_a_version_vector_share_one_fusion() {
        let (hai, index) = hai_index();
        let plan = ConflictResolver::new(6).plan(&index);
        // A vector's identity: which γs, by address, in block order.
        let reference_plan = reference::plan(&index);
        let mut by_vector: HashMap<Vec<*const Gamma>, u32> = HashMap::new();
        for t in hai.tuple_ids() {
            let vector = reference_plan.tuple_versions[&t]
                .iter()
                .map(|&g| g as *const Gamma)
                .collect();
            let planned = plan.tuple_vector[t.index()];
            assert_eq!(*by_vector.entry(vector).or_insert(planned), planned);
        }
        assert_eq!(by_vector.len(), plan.fusions.len());
        assert!(plan.fusions.len() < hai.len(), "HAI tuples share vectors");

        // Applied, the tuples of one vector share one resolved list and no
        // two vectors do; the list names what each of them now holds.
        let (repaired, record) = ConflictResolver::new(6).resolve(&hai, &index);
        let plan = ConflictResolver::new(6).plan(&index);
        for (a, of_a) in record.outcomes.iter().enumerate() {
            for (b, of_b) in record.outcomes.iter().enumerate().skip(a + 1) {
                let same_vector = plan.tuple_vector[a] == plan.tuple_vector[b];
                assert_eq!(Arc::ptr_eq(&of_a.fused, &of_b.fused), same_vector);
            }
            assert!(!of_a.fusion_failed);
            for (name, value) in of_a.fused.iter() {
                let attr = hai.schema().attr_id(name).unwrap();
                assert_eq!(repaired.value(of_a.tuple, attr), value, "{:?}", of_a.tuple);
            }
        }
        assert!(!record.changes.is_empty());
    }

    #[test]
    fn vectors_with_equal_assignments_are_equal_but_need_not_share() {
        // Tuple 0 fuses (a, b) with (c, b) directly; tuple 1's own version
        // under the second rule says x, and is swapped for (c, b).
        let index = hand_index(&[
            &[((0, "a"), (1, "b"), 0.9, &[0, 1])],
            &[
                ((2, "c"), (1, "b"), 0.6, &[0]),
                ((2, "d"), (1, "x"), 0.4, &[1]),
            ],
        ]);
        let mut dirty = Dataset::new(dataset::Schema::new(&["A0", "A1", "A2"]));
        for row in [["a", "b", "c"], ["a", "x", "d"]] {
            dirty.push_row(row.map(String::from).to_vec()).unwrap();
        }
        // `dirty` interns in its own order: resolve against the index pool.
        let (_, record) = ConflictResolver::new(6).resolve(&dirty, &index);
        let [direct, swapped] = &record.outcomes[..] else {
            panic!("two tuples, two outcomes");
        };
        assert!(!direct.conflict_detected && swapped.conflict_detected);
        assert_eq!(direct.fused, swapped.fused);
        assert!(!Arc::ptr_eq(&direct.fused, &swapped.fused));
        let expected = [("A0", "a"), ("A1", "b"), ("A2", "c")].map(|(a, v)| (a.into(), v.into()));
        assert_eq!(*direct.fused, expected);
    }

    #[test]
    fn permutations_cover_factorial() {
        fn permutations(n: usize) -> Vec<Vec<usize>> {
            let mut items: Vec<usize> = (0..n).collect();
            let mut out = Vec::new();
            heap_permute(&mut items, n, &mut |order| out.push(order.to_vec()));
            out
        }
        assert_eq!(permutations(0).len(), 1);
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
        // The visiting order decides ties: it is the reference's.
        for n in 0..6 {
            assert_eq!(permutations(n), reference::permutations(n));
        }
        // All permutations are distinct.
        let mut p = permutations(4);
        p.sort();
        p.dedup();
        assert_eq!(p.len(), 24);
    }

    #[test]
    fn greedy_fallback_used_beyond_bound() {
        let dirty = sample_hospital_dataset();
        let index = stage1_index(&dirty);
        // Force the greedy path by setting the bound to zero — the sample
        // should still be repaired to the ground truth because conflicts are
        // resolvable in the probability-descending order here.
        let (repaired, _) = ConflictResolver::new(0).resolve(&dirty, &index);
        assert_eq!(repaired, dataset::sample_hospital_truth());
    }
}
