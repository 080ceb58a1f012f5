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
//!   it is provenance, not a set;
//! * `f_score` is derived from the blocks' current total supports.  Every
//!   order takes one factor `c / Z` per covering block, so a moved `Z`
//!   divides all of them alike: over at most two conflict-free versions, with
//!   the first order walked first (any one version; two at an exhaustive
//!   bound of 2 or more), every order's product is the same bits at any `Z`
//!   and the fusion stands whatever the totals.  Such a fusion keeps its
//!   factors inline — block, Eq. 3 numerator, the `Z` it was scored at — and
//!   a memo that outlives a refresh ([`crate::StageTwo`]) re-folds them
//!   under the blocks' new totals when a report is written, bit for bit the
//!   score a fresh fusion would multiply.  A fresh plan's scores are already
//!   current: [`ConflictResolver::resolve`] and [`apply_tuple_fusion`]
//!   record them as fused.
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
//! A substitution looks up before it scans.  Every γ of a block assigns the
//! same attributes, so a candidate that does not conflict with the fusion
//! built so far *equals* it on every block attribute the fusion sets: the
//! candidates holding the fused value of one such attribute — a posting
//! list, kept in candidate order — contain every candidate that can pass,
//! and the first of them that passes is the one the scan of the whole block
//! would find.  A block's postings are built by its first substitution in a
//! plan (one sort of packed `value id << 32 | rank` keys per block
//! attribute), so a plan that never substitutes builds none.
//!
//! The whole stage runs on `(AttrId, ValueId)` pairs: conflict tests are
//! integer comparisons and the winning assignment is written back into the
//! repaired dataset as ids (the index pool is a snapshot of the dataset
//! pool, so ids transfer directly).  The records are ids too
//! ([`crate::provenance`]): a cell change names the two value ids, and an
//! outcome's [`FusionOutcome::fused`] is the fusion's own `(AttrId, ValueId)`
//! list, one `Arc` per distinct vector that every tuple of the vector — in
//! that report and, while [`crate::StageTwo`] keeps the fusion memoised, in
//! every later one — shares.  No string is made until the report is
//! rendered.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::index::{Block, MlnIndex};
use crate::provenance::{Names, Provenance, Records};
use crate::weights::probability;
use dataset::{AttrId, CellRef, Dataset, IdMap, TupleId, ValueId};
use std::cell::OnceCell;
use std::ops::Deref;
use std::sync::Arc;

/// A single cell rewritten by the fusion stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[deny(clippy::disallowed_types)] // Provenance holds ids (clippy.toml).
pub struct CellChange {
    /// The rewritten cell.
    pub cell: CellRef,
    /// Its value before fusion (the dirty value).
    pub old: ValueId,
    /// Its value after fusion.
    pub new: ValueId,
}

/// Per-tuple outcome of the fusion.
#[derive(Debug, Clone, PartialEq)]
#[deny(clippy::disallowed_types)] // Provenance holds ids (clippy.toml).
pub struct FusionOutcome {
    /// The tuple.
    pub tuple: TupleId,
    /// The fused attribute assignment actually applied: the fusion's own
    /// list, shared by every outcome of the same [`SharedFusion`].
    pub fused: Arc<[(AttrId, ValueId)]>,
    /// The fusion score of the applied assignment (0 when fusion failed).
    pub f_score: f64,
    /// Whether any pair of this tuple's versions conflicted.
    pub conflict_detected: bool,
    /// Whether every fusion order failed (the tuple was left unchanged).
    pub fusion_failed: bool,
}

mod text {
    use crate::provenance::Pairs;
    use dataset::{CellRef, TupleId};

    /// A [`super::CellChange`] with its values as text.
    #[derive(Debug, PartialEq)]
    pub struct CellChange<'a> {
        pub cell: CellRef,
        pub old: &'a str,
        pub new: &'a str,
    }

    /// A [`super::FusionOutcome`] with its assignment as text.
    #[derive(Debug, PartialEq)]
    pub struct FusionOutcome<'a> {
        pub tuple: TupleId,
        pub fused: Pairs<'a>,
        pub f_score: f64,
        pub conflict_detected: bool,
        pub fusion_failed: bool,
    }
}

impl Provenance for CellChange {
    type Text<'a> = text::CellChange<'a>;

    fn text<'a>(&'a self, names: &'a Names) -> text::CellChange<'a> {
        text::CellChange {
            cell: self.cell,
            old: names.value(self.old),
            new: names.value(self.new),
        }
    }
}

impl Provenance for FusionOutcome {
    type Text<'a> = text::FusionOutcome<'a>;

    fn text<'a>(&'a self, names: &'a Names) -> text::FusionOutcome<'a> {
        text::FusionOutcome {
            tuple: self.tuple,
            fused: names.pairs(&self.fused),
            f_score: self.f_score,
            conflict_detected: self.conflict_detected,
            fusion_failed: self.fusion_failed,
        }
    }
}

/// The full FSCR record of one run.
#[derive(Debug, Clone, Default)]
pub struct FscrRecord {
    /// Per-tuple fusion outcomes.
    pub outcomes: Records<FusionOutcome>,
    /// Every cell rewritten by the fusion stage, relative to the input data.
    pub changes: Records<CellChange>,
    /// Substitution candidates (lines 18–22 of Algorithm 2) the fusions of
    /// this run tested against the assignment under construction: what the
    /// substitution scans cost.  A fusion replayed from [`crate::StageTwo`]'s
    /// memo tests none.
    pub candidates_tested: u64,
}

/// Equality compares the *decisions* (outcomes and changes), not the
/// candidate counter: an incremental run replays memoised fusions, so its
/// count legitimately differs from a batch run's with the same outcomes.
impl PartialEq for FscrRecord {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes && self.changes == other.changes
    }
}

impl FscrRecord {
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
    /// versions or every fusion order failed), which every outcome of the
    /// fusion shares.
    pub fused: Arc<[(AttrId, ValueId)]>,
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
    /// The Eq. 5 factors of a fusion a moved `Z` cannot change; `None` for
    /// every other fusion.
    factors: Option<Factors>,
}

impl SharedFusion {
    /// What one distinct fusion holds besides its assignment pairs: the
    /// shared cell and the assignment list's header, each allocation with
    /// its two reference counts.
    pub(crate) const CELL_BYTES: usize =
        2 * size_of::<usize>() + size_of::<FusionCell>() + 2 * size_of::<usize>();

    fn new(fusion: TupleFusion, factors: Option<Factors>) -> Self {
        SharedFusion(Arc::new(FusionCell { fusion, factors }))
    }

    /// Tuple `t`'s outcome under this fusion, at the score it was fused
    /// with: the outcome shares the fusion's assignment list.
    pub(crate) fn outcome(&self, t: TupleId) -> FusionOutcome {
        FusionOutcome {
            tuple: t,
            fused: Arc::clone(&self.fused),
            f_score: self.f_score,
            conflict_detected: self.conflict_detected,
            fusion_failed: self.fusion_failed,
        }
    }

    /// Live handles onto this fusion: its memory is freed with the last.
    pub(crate) fn holders(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// Whether the fusion stands at any total support of its blocks (it
    /// keeps [`Factors`]): only its score moves with `Z`.
    pub(crate) fn survives_rescale(&self) -> bool {
        self.0.factors.is_some()
    }

    /// The fusion score under `supports`, the current total support `Z` of
    /// every block of the cleaned index: the stored score while each
    /// factor's block still has the `Z` it was scored at, else the factors
    /// re-folded under the new ones.
    pub(crate) fn f_score_at(&self, supports: &[usize]) -> f64 {
        match &self.0.factors {
            Some(factors) => factors.score(self.f_score, supports),
            None => self.f_score,
        }
    }
}

/// One Eq. 5 factor, as [`Factors`] keeps it: the γ's block (its position in
/// the cleaned index), its Eq. 3 numerator and the block total `Z` the
/// fusion was scored at.
#[derive(Debug, Clone, Copy, Default)]
struct Factor {
    block: u32,
    evidence: usize,
    z: usize,
}

/// The factors of a fusion a moved `Z` cannot change (see the module docs'
/// contract), in its winning order — inline, no allocation.
#[derive(Debug, Clone, Copy)]
struct Factors {
    len: usize,
    of: [Factor; 2],
}

impl Factors {
    /// `stored` — the score at the `Z`s the factors name — or, when a block's
    /// total moved since, the product re-folded in the stored order through
    /// the expression Stage I writes a γ's probability with: bit for bit
    /// what a fresh fusion multiplies.
    fn score(&self, stored: f64, supports: &[usize]) -> f64 {
        let factors = &self.of[..self.len];
        let now = |f: &Factor| supports.get(f.block as usize).copied().unwrap_or(f.z);
        if factors.iter().all(|f| now(f) == f.z) {
            return stored;
        }
        factors.iter().fold(1.0, |score, f| {
            score * probability(f.evidence, now(f)).max(f64::MIN_POSITIVE)
        })
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
    /// [`nothing_to_fuse`], for the tuples without a vector.
    nothing_to_fuse: SharedFusion,
    /// Substitution candidates the fusions tested —
    /// [`FscrRecord::candidates_tested`].
    candidates_tested: u64,
}

const NO_VECTOR: u32 = u32::MAX;

/// The fusion of a tuple no block covers (no rule is relevant to it):
/// nothing to fuse, the tuple stays as it is.
fn nothing_to_fuse() -> TupleFusion {
    TupleFusion {
        fused: Arc::new([]),
        f_score: 0.0,
        conflict_detected: false,
        fusion_failed: false,
    }
}

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

/// The most per-tuple data versions for which the pipeline's FSCR explores
/// every fusion order exhaustively (`m!` orders); beyond it, the m rotations
/// of the consensus order.  The paper's complexity analysis (O(|T|·m!·m))
/// assumes m is small because m ≤ |rules|.
pub(crate) const MAX_EXHAUSTIVE_FUSION: usize = 6;

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
        let blocks: Vec<(usize, &Block)> = index.blocks.iter().enumerate().collect();
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
        let covers = |(_, block): &(usize, &Block)| {
            let mut tuples = block.gammas().flat_map(|gamma| &gamma.tuples);
            tuples.any(|t| wanted[t.index()])
        };
        let blocks: Vec<(usize, &Block)> = index.blocks.iter().enumerate().filter(covers).collect();
        self.plan_blocks(&blocks, Some(wanted))
    }

    /// Build the flat tables over `blocks` — each with its position in the
    /// cleaned index — lay out the versions of every wanted tuple (`None`:
    /// all of them), and fuse each distinct vector.
    #[deny(clippy::disallowed_types)] // Ids hash as ids (clippy.toml).
    fn plan_blocks(&self, blocks: &[(usize, &Block)], wanted: Option<&[bool]>) -> FusionPlan {
        let tables = GammaTables::new(blocks);
        let versions = TupleVersions::new(blocks, wanted);
        let mut kernel = FusionKernel::new(&tables, self.max_exhaustive);
        let mut vector_ids: IdMap<&[u32], u32> = IdMap::default();
        let mut fusions: Vec<SharedFusion> = Vec::new();
        let tuple_vector = (0..versions.tuple_count())
            .map(|t| {
                let vector = versions.of(t);
                if vector.is_empty() {
                    return NO_VECTOR;
                }
                *vector_ids.entry(vector).or_insert_with(|| {
                    let (fusion, factors) = kernel.fuse(vector);
                    fusions.push(SharedFusion::new(fusion, factors));
                    (fusions.len() - 1) as u32
                })
            })
            .collect();
        FusionPlan {
            tuple_vector,
            fusions,
            nothing_to_fuse: SharedFusion::new(nothing_to_fuse(), None),
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
            apply_tuple_fusion(&mut repaired, t, plan.fusion(t), &mut record);
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
    /// Per planned block: its position in the cleaned index, and its total
    /// support `Z` (Eq. 3's denominator, `weights::block_support`).
    block_index: Vec<u32>,
    support: Vec<usize>,
    /// Block `b`'s γs are ids `block_start[b]..block_start[b + 1]`, and the
    /// same range of `candidates` lists them by descending probability
    /// (stable: block order among equals).
    block_start: Vec<u32>,
    candidates: Vec<u32>,
    /// Per planned block, its [`Postings`], built by the block's first
    /// substitution.
    postings: Vec<OnceCell<Postings>>,
    /// One more than the largest attribute index any γ assigns.
    attr_bound: usize,
}

impl GammaTables {
    fn new(blocks: &[(usize, &Block)]) -> Self {
        let mut tables = GammaTables {
            pair_start: vec![0],
            pairs: Vec::new(),
            probability: Vec::new(),
            block_of: Vec::new(),
            block_index: Vec::with_capacity(blocks.len()),
            support: Vec::with_capacity(blocks.len()),
            block_start: vec![0],
            candidates: Vec::new(),
            postings: (0..blocks.len()).map(|_| OnceCell::new()).collect(),
            attr_bound: 0,
        };
        for (b, &(index, block)) in blocks.iter().enumerate() {
            let mut support = 0;
            for gamma in block.gammas() {
                tables.pairs.extend(gamma.pairs());
                tables.pair_start.push(tables.pairs.len() as u32);
                tables.probability.push(gamma.probability);
                tables.block_of.push(b as u32);
                support += gamma.support();
            }
            tables.block_index.push(index as u32);
            tables.support.push(support);
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
        self.candidates_of(self.block_of[g as usize] as usize)
    }

    fn candidates_of(&self, b: usize) -> &[u32] {
        &self.candidates[self.block_start[b] as usize..self.block_start[b + 1] as usize]
    }

    /// The postings of `g`'s block, built on first use.
    fn block_postings(&self, g: u32) -> &Postings {
        let b = self.block_of[g as usize] as usize;
        self.postings[b].get_or_init(|| Postings::new(self, self.candidates_of(b)))
    }

    /// `Pr(γ)` as Eq. 5 multiplies it.
    fn factor(&self, g: u32) -> f64 {
        self.probability[g as usize].max(f64::MIN_POSITIVE)
    }

    /// γ `g`'s factor for [`Factors`]: its Eq. 3 numerator recovered from
    /// its probability and its block's `Z` ([`numerator`]) — exact while
    /// `e, Z < 2⁵¹`, since Stage I writes `Pr = fl(e / Z)`; a probability
    /// written by anything else keeps no factor.
    fn rescalable(&self, g: u32) -> Option<Factor> {
        let b = self.block_of[g as usize] as usize;
        let z = self.support[b];
        let evidence = numerator(self.probability[g as usize], z)?;
        Some(Factor {
            block: self.block_index[b],
            evidence,
            z,
        })
    }
}

/// The Eq. 3 numerator `e` with `probability(e, z) == p` bit for bit,
/// recovered as `round(p · z)`; `None` when that `e` does not give `p` back.
fn numerator(p: f64, z: usize) -> Option<usize> {
    let evidence = (p * z as f64).round() as usize;
    (probability(evidence, z).to_bits() == p.to_bits()).then_some(evidence)
}

/// One block's candidates by value: per attribute the block's γs assign,
/// the sorted keys `value id << 32 | rank` of all of them, `rank` being the
/// γ's position in the block's candidate list — so the γs assigning one
/// value to the attribute are one run of keys, in candidate order.
struct Postings {
    /// The attributes every γ of the block assigns, in `pairs()` order —
    /// empty if two γs disagree on them, which leaves nothing to look up.
    attrs: Vec<AttrId>,
    /// `attrs[j]`'s keys are `keys[j * gammas..(j + 1) * gammas]`.
    keys: Vec<u64>,
    gammas: usize,
}

impl Postings {
    fn new(tables: &GammaTables, candidates: &[u32]) -> Self {
        let layout = |g: u32| tables.pairs(g).iter().map(|&(a, _)| a);
        let attrs: Vec<AttrId> = candidates
            .first()
            .map_or(Vec::new(), |&g| layout(g).collect());
        let gammas = candidates.len();
        if !candidates
            .iter()
            .all(|&g| layout(g).eq(attrs.iter().copied()))
        {
            return Postings {
                attrs: Vec::new(),
                keys: Vec::new(),
                gammas,
            };
        }
        let mut keys = Vec::with_capacity(attrs.len() * gammas);
        for j in 0..attrs.len() {
            let from = keys.len();
            let key =
                |(rank, &g): (usize, &u32)| u64::from(tables.pairs(g)[j].1 .0) << 32 | rank as u64;
            keys.extend(candidates.iter().enumerate().map(key));
            keys[from..].sort_unstable();
        }
        Postings {
            attrs,
            keys,
            gammas,
        }
    }

    /// The keys of the γs assigning `value` to `attrs[j]`, in candidate order.
    fn list(&self, j: usize, value: ValueId) -> &[u64] {
        let keys = &self.keys[j * self.gammas..(j + 1) * self.gammas];
        let value = u64::from(value.0);
        let from = keys.partition_point(|&key| key >> 32 < value);
        let to = from + keys[from..].partition_point(|&key| key >> 32 == value);
        &keys[from..to]
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
    fn new(blocks: &[(usize, &Block)], wanted: Option<&[bool]>) -> Self {
        let for_each_cover = |visit: &mut dyn FnMut(u32, usize)| {
            let gammas = blocks.iter().flat_map(|(_, block)| block.gammas());
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
    ///
    /// A fusion a moved `Z` cannot change comes with its [`Factors`]: one
    /// version, or two conflict-free ones at an exhaustive bound of 2 or
    /// more (the consensus order sorts by probability).
    fn fuse(&mut self, versions: &[u32]) -> (TupleFusion, Option<Factors>) {
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
            let failed = TupleFusion {
                fused: Arc::new([]),
                f_score: 0.0,
                conflict_detected,
                fusion_failed: true,
            };
            return (failed, None);
        };
        // The winning order's assignment, in the order that walk makes it.
        let winner = std::mem::take(&mut walk.best_order);
        walk.substitute(versions, &winner, usize::MAX);
        let factors = if !conflict_detected && (m == 1 || (m == 2 && self.max_exhaustive >= 2)) {
            let mut factors = Factors {
                len: m,
                of: [Factor::default(); 2],
            };
            let rescalable = winner
                .iter()
                .zip(&mut factors.of)
                .all(|(&i, slot)| tables.rescalable(versions[i]).map(|f| *slot = f).is_some());
            rescalable.then_some(factors)
        } else {
            None
        };
        walk.best_order = winner;
        let fusion = TupleFusion {
            fused: walk.fused.as_slice().into(),
            f_score: score,
            conflict_detected,
            fusion_failed: false,
        };
        (fusion, factors)
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
                // None: the fusion fails for this order.
                let (found, tested) = self.lookup(version);
                self.candidates_tested += tested;
                let candidate = found?;
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

    /// The highest-probability candidate of `g`'s block that does not
    /// conflict with the fusion built so far (lines 18–22 of Algorithm 2),
    /// with how many candidates were tested to find it.  Only the shortest
    /// posting list among the block attributes the fusion sets is walked:
    /// every candidate off it conflicts on that attribute.
    fn lookup(&self, g: u32) -> (Option<u32>, u64) {
        let candidates = self.tables.block_candidates(g);
        let postings = self.tables.block_postings(g);
        let assigned = postings.attrs.iter().enumerate();
        let lists = assigned.filter_map(|(j, a)| Some(postings.list(j, self.assigned[a.index()]?)));
        match lists.min_by_key(|list| list.len()) {
            Some(list) => {
                self.first_fitting(list.iter().map(|&key| candidates[key as u32 as usize]))
            }
            // Only a block whose γs assign different attributes gets here
            // (a conflicting version disagrees with the fusion on a block
            // attribute the fusion sets): scan it.
            None => self.first_fitting(candidates.iter().copied()),
        }
    }

    /// The scan [`Self::lookup`] replaces: the whole block, most probable
    /// first.
    #[cfg(test)]
    fn scan(&self, g: u32) -> (Option<u32>, u64) {
        self.first_fitting(self.tables.block_candidates(g).iter().copied())
    }

    /// The first of `candidates` that does not conflict with the fusion,
    /// and how many were tested.
    fn first_fitting(&self, candidates: impl Iterator<Item = u32>) -> (Option<u32>, u64) {
        let mut tested = 0;
        let found = candidates
            .inspect(|_| tested += 1)
            .find(|&c| !self.conflicts(c));
        (found, tested)
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
/// twice, so every cell is read before it is overwritten — and share its
/// value ids with the fusion's (the index pool is a snapshot of the
/// dataset pool: γ ids write straight into the dataset).  Public so engines
/// outside the crate replay [`SharedFusion`]s exactly like
/// [`ConflictResolver::resolve`] does; [`crate::StageTwo`] patches its
/// maintained rows through the same steps.
///
/// Per tuple this costs the changed cells and a reference-count bump: the
/// outcome shares the fusion's own assignment list, and the record holds
/// ids only — the report that takes it names them.  The outcome's `f_score`
/// is the one the fusion was scored at.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)] // Provenance holds ids.
pub fn apply_tuple_fusion(
    repaired: &mut Dataset,
    t: TupleId,
    fusion: &SharedFusion,
    record: &mut FscrRecord,
) {
    for &(attr, value) in fusion.fused.iter() {
        let old = repaired.value_id(t, attr);
        if old != value {
            record.changes.push(CellChange {
                cell: CellRef::new(t, attr),
                old,
                new: value,
            });
            repaired.set_value_id(t, attr, value);
        }
    }
    record.outcomes.push(fusion.outcome(t));
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
    use std::collections::HashMap;

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
                        fused: Arc::new([]),
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
                fused: best_fusion.unwrap_or_default().into(),
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
                        Group {
                            key,
                            gammas: vec![gamma],
                        }
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
        let pool = index.pool();
        for change in &record.changes {
            assert_eq!(repaired.cell(change.cell), pool.resolve(change.new));
            assert_eq!(dirty.cell(change.cell), pool.resolve(change.old));
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
            assert_eq!(*fusion, nothing_to_fuse());
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
                fused: Arc::new([]),
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
            for &(attr, value) in of_a.fused.iter() {
                let value = index.pool().resolve(value);
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
        let fused: Vec<(&str, &str)> = (direct.fused.iter())
            .map(|&(a, v)| (dirty.schema().attr_name(a), index.pool().resolve(v)))
            .collect();
        assert_eq!(fused, [("A0", "a"), ("A1", "b"), ("A2", "c")]);
    }

    /// Every γ of every block lists the block's attributes — reason part,
    /// then result part, repeats dropped — in one `pairs()` order: what
    /// makes a posting list hold every candidate that can pass.
    fn assert_one_layout_per_block(index: &MlnIndex) {
        let blocks: Vec<(usize, &Block)> = index.blocks.iter().enumerate().collect();
        let tables = GammaTables::new(&blocks);
        for (b, &(_, block)) in blocks.iter().enumerate() {
            let mut layout: Vec<AttrId> = Vec::new();
            for &a in block.reason_attrs.iter().chain(&block.result_attrs) {
                if !layout.contains(&a) {
                    layout.push(a);
                }
            }
            for gamma in block.gammas() {
                let attrs: Vec<AttrId> = gamma.pairs().map(|(a, _)| a).collect();
                assert_eq!(attrs, layout, "a γ of {:?}", block.rule);
            }
            let postings = tables.block_postings(tables.block_start[b]);
            assert_eq!(postings.attrs, layout, "the postings of {:?}", block.rule);
        }
    }

    #[test]
    fn every_gamma_of_a_block_lists_the_block_attributes_in_one_order() {
        let hospital = stage1_index(&sample_hospital_dataset());
        let (_, hai) = hai_index();
        let car = datagen::CarGenerator::default().with_rows(900);
        let car = stage1(
            &car.dirty(0.02, 0.5, 13).dirty,
            &datagen::CarGenerator::rules(),
            guarded_agp(1),
        );
        let tpch = datagen::TpchGenerator::default()
            .with_rows(600)
            .with_customers(40);
        let tpch = stage1(
            &tpch.dirty(0.02, 0.5, 14).dirty,
            &datagen::TpchGenerator::rules(),
            guarded_agp(1),
        );
        // The DC blocks are among them.
        for (index, rules) in [
            (&hospital, sample_hospital_rules()),
            (&hai, datagen::HaiGenerator::rules()),
        ] {
            let dc = |block: &Block| matches!(rules.rule(block.rule), rules::Rule::Dc(_));
            assert!(index.blocks.iter().any(dc));
        }
        for index in [&hospital, &hai, &car, &tpch] {
            assert!(index.blocks.iter().all(|block| block.gamma_count() > 0));
            assert_one_layout_per_block(index);
        }

        // A result that repeats a reason attribute: `pairs()` drops the
        // second occurrence, so the γ lists A0 once.
        let mut pool = ValuePool::new();
        let mut group = Group {
            key: vec![pool.intern("k")],
            gammas: Vec::new(),
        };
        for (repeat, value, probability) in [("k", "x", 0.7), ("j", "y", 0.3)] {
            let mut gamma = Gamma::new(
                RuleId(0),
                vec![AttrId(0)],
                vec![pool.intern("k")],
                vec![AttrId(0), AttrId(1)],
                vec![pool.intern(repeat), pool.intern(value)],
            );
            gamma.probability = probability;
            group.gammas.push(gamma);
        }
        let block = Block {
            rule: RuleId(0),
            reason_attrs: vec![AttrId(0)],
            result_attrs: vec![AttrId(0), AttrId(1)],
            groups: vec![group],
        };
        assert_eq!(block.groups[0].gammas[1].pairs().count(), 2);
        let index = MlnIndex::from_parts(vec![block], pool);
        assert_one_layout_per_block(&index);
    }

    /// A random block over attributes `A0..A5` of values `v0..v3`: one
    /// layout (a repeated attribute now and then), probabilities that tie.
    fn random_block(rng: &mut dataset::rng::Rng, pool: &mut ValuePool, rule: usize) -> Block {
        let mut attrs: Vec<usize> = (0..6).collect();
        rng.shuffle(&mut attrs);
        let reasons = 1 + rng.below(2);
        let reason_attrs: Vec<AttrId> = attrs[..reasons].iter().copied().map(AttrId).collect();
        let mut result_attrs: Vec<AttrId> = attrs[reasons..reasons + 1 + rng.below(2)]
            .iter()
            .copied()
            .map(AttrId)
            .collect();
        if rng.chance(0.2) {
            result_attrs.push(reason_attrs[0]);
        }
        let mut value = |rng: &mut dataset::rng::Rng| pool.intern(&format!("v{}", rng.below(4)));
        let mut group = Group::default();
        for _ in 0..1 + rng.below(12) {
            let reason_values = reason_attrs.iter().map(|_| value(rng)).collect();
            let result_values = result_attrs.iter().map(|_| value(rng)).collect();
            let mut gamma = Gamma::new(
                RuleId(rule),
                reason_attrs.clone(),
                reason_values,
                result_attrs.clone(),
                result_values,
            );
            gamma.probability = [0.1, 0.2, 0.2, 0.4][rng.below(4)];
            group.gammas.push(gamma);
        }
        Block {
            rule: RuleId(rule),
            reason_attrs,
            result_attrs,
            groups: vec![group],
        }
    }

    #[test]
    fn the_posting_walk_finds_the_scans_candidate_testing_no_more() {
        let mut rng = dataset::rng::Rng::seeded(15);
        let mut pool = ValuePool::new();
        let (mut found, mut missed, mut saved) = (0, 0, 0);
        for _ in 0..300 {
            let blocks: Vec<Block> = (0..3)
                .map(|b| random_block(&mut rng, &mut pool, b))
                .collect();
            let planned: Vec<(usize, &Block)> = blocks.iter().enumerate().collect();
            let tables = GammaTables::new(&planned);
            let mut kernel = FusionKernel::new(&tables, 6);
            let walk = &mut kernel.walk;
            for _ in 0..20 {
                let b = rng.below(blocks.len());
                let g = tables.block_start[b];
                let mut layout: Vec<AttrId> = tables.pairs(g).iter().map(|&(a, _)| a).collect();
                rng.shuffle(&mut layout);
                // 1 … all of the block's attributes, then perhaps others
                // (a value no γ holds now and then).
                let set = 1 + rng.below(layout.len());
                walk.assigned.iter_mut().for_each(|slot| *slot = None);
                let others = (0..walk.assigned.len()).filter(|_| rng.chance(0.3));
                for a in layout[..set]
                    .iter()
                    .map(|a| a.index())
                    .chain(others.collect::<Vec<_>>())
                {
                    walk.assigned[a] = Some(pool.intern(&format!("v{}", rng.below(5))));
                }
                let (by_lookup, lookup_tested) = walk.lookup(g);
                let (by_scan, scan_tested) = walk.scan(g);
                assert_eq!(by_lookup, by_scan, "block {b} under {:?}", walk.assigned);
                assert!(lookup_tested <= scan_tested);
                match by_scan {
                    Some(_) => found += 1,
                    None => missed += 1,
                }
                if lookup_tested < scan_tested {
                    saved += 1;
                }
            }
        }
        assert!(
            found > 100 && missed > 100 && saved > 100,
            "{found} {missed} {saved}"
        );
    }

    #[test]
    fn a_two_version_fusion_rescores_bit_for_bit_under_any_z() {
        // The numerator comes back from `Pr = fl(e / Z)` exactly…
        let zs = (1..=64).chain([97, 1_000, 4_097, 30_096, 1 << 20, 1 << 40, (1 << 51) - 1]);
        for z in zs {
            for e in [0, 1, z / 3, z / 2, z - 1, z] {
                assert_eq!(numerator(probability(e, z), z), Some(e), "{e} / {z}");
            }
        }
        // …and from every γ of a Stage-I-cleaned index, under the total
        // the plan sums.
        let car = datagen::CarGenerator::default().with_rows(900);
        let car = car.dirty(0.02, 0.5, 13).dirty;
        let index = stage1(&car, &datagen::CarGenerator::rules(), guarded_agp(1));
        for block in &index.blocks {
            let z = crate::weights::block_support(block);
            for gamma in block.gammas() {
                assert!(numerator(gamma.probability, z).is_some(), "{z}");
            }
        }

        // Tuple 0 holds γs of numerators 3 and 5, one per block, on disjoint
        // attributes; the rest of each block's support `Z` is one filler γ.
        let index_at = |z: [usize; 2]| {
            let fillers: Vec<Vec<usize>> = z.iter().map(|&z| (1..z).collect()).collect();
            hand_index(&[
                &[
                    ((0, "a"), (1, "b"), probability(3, z[0]), &[0]),
                    ((0, "x"), (1, "y"), 0.5, &fillers[0]),
                ],
                &[
                    ((2, "c"), (3, "d"), probability(5, z[1]), &[0]),
                    ((2, "x"), (3, "y"), 0.5, &fillers[1]),
                ],
            ])
        };
        let fuse = |max_exhaustive: usize, index: &MlnIndex| {
            let resolver = ConflictResolver::new(max_exhaustive);
            resolver.fuse_tuple(&resolver.plan(index), TupleId(0))
        };
        let kept = fuse(6, &index_at([10, 20]));
        assert!(!kept.conflict_detected && kept.survives_rescale());
        // The consensus order sorts the two by probability: no factors.
        assert!(!fuse(1, &index_at([10, 20])).survives_rescale());

        let mut moved = 0;
        for z0 in [5, 6, 7, 10, 11, 99, 1_000, 30_096] {
            for z1 in [6, 9, 20, 21, 333, 4_097] {
                let fresh = fuse(6, &index_at([z0, z1]));
                let rescored = kept.f_score_at(&[z0, z1]);
                assert_eq!(fresh.fused, kept.fused, "Z = {z0}, {z1}");
                assert_eq!(
                    rescored.to_bits(),
                    fresh.f_score.to_bits(),
                    "Z = {z0}, {z1}"
                );
                moved += usize::from(rescored != kept.f_score);
            }
        }
        assert_eq!(moved, 8 * 6 - 1, "only Z = 10, 20 keeps the stored score");

        // Over three versions a moved `Z` can hand the win to a later order:
        // numerators 1, 3 and 4 (the ones `a_later_order_wins_…` scores at
        // Z = 10), one block's total swept.  Such a fusion keeps no factors.
        let winners: std::collections::BTreeSet<Vec<usize>> = (10..40)
            .map(|z| {
                let index = hand_index(&[
                    &[((0, "a"), (1, "b"), probability(1, 10), &[0])],
                    &[((2, "c"), (3, "d"), probability(3, 10), &[0])],
                    &[((4, "e"), (5, "f"), probability(4, z), &[0])],
                ]);
                let fusion = fuse(6, &index);
                assert!(!fusion.survives_rescale());
                fused_attrs(&fusion)
            })
            .collect();
        assert!(winners.len() > 1, "{winners:?}");
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
