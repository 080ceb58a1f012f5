//! Configuration of the MLNClean pipeline.

use distance::Metric;

/// All tunables of a cleaning run.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanConfig {
    /// AGP threshold τ: a group whose tuples number at most τ is treated as
    /// abnormal and merged into its nearest normal group.  The paper finds
    /// τ = 1 optimal for CAR and τ = 10 for HAI (Figure 11).
    pub tau: usize,
    /// Distance metric used by AGP (group distance) and RSC (reliability
    /// score).  Levenshtein is the paper default (Table 5).
    pub metric: Metric,
    /// Maximum number of per-tuple data versions for which FSCR explores
    /// every fusion order exhaustively (`m!` orders).  Beyond this, a greedy
    /// weight-descending order is used instead — the paper's complexity
    /// analysis (O(|T|·m!·m)) assumes m is small because m ≤ |rules|.
    pub max_exhaustive_fusion: usize,
    /// Optional guard on AGP merges (an extension over the paper): an
    /// abnormal group is only merged when the *normalized* distance between
    /// its dominant γ and the nearest normal group's dominant γ is at most
    /// this value.  The paper's AGP always merges, which on data with many
    /// legitimately rare reason values lets a small-but-correct group be
    /// absorbed by an unrelated group.  `None` (the default) reproduces the
    /// paper's behaviour exactly; the ablation bench measures the effect.
    pub agp_distance_guard: Option<f64>,
    /// Whether the final output should also drop exact duplicate tuples
    /// (MLNClean does; keep `true` unless you need one row per input tuple).
    pub deduplicate: bool,
    /// Optional bound, in bytes, on the **evictable working state** of a
    /// session or a streaming coordinator — one policy, in the two stage
    /// drivers both are built from: the per-block γ clean caches (with
    /// their distance memos) and the per-tuple fusion memo.  When the
    /// estimated resident size of that pool exceeds the budget, cold clean
    /// block caches spill to disk-backed segments (faulted back in
    /// transparently when a block goes dirty) and then the fusion memo is
    /// windowed, the oldest memoised fusions evicted first.  Outputs are
    /// byte-identical either way — eviction only trades memory for
    /// recompute time.  `None` (the default) keeps everything resident.
    pub memory_budget: Option<usize>,
    /// Whether the per-block loops (index build and splices, AGP, RSC, the
    /// Stage-I refresh) run on the rayon thread pool.  Blocks are
    /// independent and each loop has one body, mapped over the pool or the
    /// calling thread with results in block order, so the cleaned output is
    /// identical either way — `false` keeps everything on the calling
    /// thread (used by the equivalence tests and for single-core profiling).
    pub parallel: bool,
}

impl Default for CleanConfig {
    fn default() -> Self {
        CleanConfig {
            tau: 1,
            metric: Metric::Levenshtein,
            max_exhaustive_fusion: 6,
            agp_distance_guard: None,
            deduplicate: true,
            memory_budget: None,
            parallel: true,
        }
    }
}

impl CleanConfig {
    /// Set the AGP threshold τ.
    pub fn with_tau(mut self, tau: usize) -> Self {
        self.tau = tau;
        self
    }

    /// Set the distance metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Enable or disable final deduplication.
    pub fn with_deduplicate(mut self, deduplicate: bool) -> Self {
        self.deduplicate = deduplicate;
        self
    }

    /// Set the AGP distance guard (see [`CleanConfig::agp_distance_guard`]).
    pub fn with_agp_distance_guard(mut self, guard: f64) -> Self {
        self.agp_distance_guard = Some(guard);
        self
    }

    /// Bound the session's evictable working state to `bytes` (see
    /// [`CleanConfig::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Enable or disable the parallel Stage-I block loops (see
    /// [`CleanConfig::parallel`]).
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let c = CleanConfig::default();
        assert_eq!(c.tau, 1);
        assert_eq!(c.metric, Metric::Levenshtein);
        assert!(c.deduplicate);
    }

    #[test]
    fn builder_methods() {
        let c = CleanConfig::default()
            .with_tau(10)
            .with_metric(Metric::Cosine)
            .with_deduplicate(false)
            .with_agp_distance_guard(0.5)
            .with_memory_budget(1 << 20)
            .with_parallel(false);
        assert_eq!(c.tau, 10);
        assert_eq!(c.metric, Metric::Cosine);
        assert!(!c.deduplicate);
        assert_eq!(c.agp_distance_guard, Some(0.5));
        assert_eq!(c.memory_budget, Some(1 << 20));
        assert!(!c.parallel);
    }
}
