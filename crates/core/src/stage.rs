//! Algorithm 1 as a sequence of whole-index stage objects over a shared
//! [`StageContext`]: index construction → AGP → closed-form Eq. 3 weights →
//! RSC → FSCR → deduplication, each an explicit [`PipelineStage`].
//!
//! No cleaning driver is built from these objects.  The batch
//! [`crate::MlnClean`] is one bulk ingest plus
//! [`crate::CleaningSession::finish`]; the session and the distributed
//! streaming coordinator re-run Stage I per dirty block through
//! [`crate::StageOne`] and Stage II per invalidated tuple through
//! [`crate::StageTwo`].  The stages remain for two callers: the repo
//! benchmark's per-layer probe, which times each stage on its own, and the
//! test below, which pins their composition to [`crate::MlnClean`] byte for
//! byte.  Their re-exports are `#[doc(hidden)]`.
//!
//! The context bundles everything a stage may touch: the (dirty) dataset,
//! the configuration, the MLN index being cleaned in place, and the
//! accumulated [`StageRecords`] (provenance + timings).

use crate::agp::{AbnormalGroupProcessor, AgpRecord};
use crate::config::CleanConfig;
use crate::engine::Timings;
use crate::fscr::{ConflictResolver, FscrRecord, MAX_EXHAUSTIVE_FUSION};
use crate::index::MlnIndex;
use crate::rsc::{ReliabilityCleaner, RscRecord};
use crate::weights::assign_weights;
use dataset::Dataset;
use std::time::Instant;

/// Provenance and timings accumulated while stages run.
#[derive(Debug, Clone, Default)]
pub struct StageRecords {
    /// What AGP did.
    pub agp: AgpRecord,
    /// What RSC did.
    pub rsc: RscRecord,
    /// What FSCR did.
    pub fscr: FscrRecord,
    /// Per-stage wall-clock timings.
    pub timings: Timings,
}

/// Everything a stage may read or mutate.
pub struct StageContext<'a> {
    /// The dirty dataset the index was built from.
    pub dataset: &'a Dataset,
    /// The cleaning configuration.
    pub config: &'a CleanConfig,
    /// The MLN index, cleaned in place by the Stage-I stages.
    pub index: &'a mut MlnIndex,
    /// Accumulated provenance and timings.
    pub records: &'a mut StageRecords,
    /// The repaired dataset, produced by [`FscrStage`].
    pub repaired: Option<Dataset>,
    /// The deduplicated dataset, produced by [`DedupStage`].
    pub deduplicated: Option<Dataset>,
}

impl<'a> StageContext<'a> {
    /// Create a context over a dataset, its index, and a record accumulator.
    pub fn new(
        dataset: &'a Dataset,
        config: &'a CleanConfig,
        index: &'a mut MlnIndex,
        records: &'a mut StageRecords,
    ) -> Self {
        StageContext {
            dataset,
            config,
            index,
            records,
            repaired: None,
            deduplicated: None,
        }
    }
}

/// One stage of the cleaning pipeline, runnable over a whole index.
pub trait PipelineStage {
    /// Short stage name (for logs and progress reporting).
    fn name(&self) -> &'static str;
    /// Run the stage, mutating the context in place.
    fn run(&self, ctx: &mut StageContext<'_>);
}

/// Abnormal group processing (Stage I, per block).
#[derive(Debug, Clone, Copy, Default)]
pub struct AgpStage;

impl PipelineStage for AgpStage {
    fn name(&self) -> &'static str {
        "agp"
    }

    fn run(&self, ctx: &mut StageContext<'_>) {
        let start = Instant::now();
        ctx.records.agp = AbnormalGroupProcessor::from_config(ctx.config)
            .process_with(ctx.index, ctx.config.parallel);
        ctx.records.timings.agp += start.elapsed();
    }
}

/// Closed-form Eq. 3 weight assignment (Stage I, per block).
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightLearningStage;

impl PipelineStage for WeightLearningStage {
    fn name(&self) -> &'static str {
        "weight_learning"
    }

    fn run(&self, ctx: &mut StageContext<'_>) {
        let start = Instant::now();
        assign_weights(ctx.index);
        ctx.records.timings.weight_learning += start.elapsed();
    }
}

/// Reliability-score cleaning (Stage I, per block).
#[derive(Debug, Clone, Copy, Default)]
pub struct RscStage;

impl PipelineStage for RscStage {
    fn name(&self) -> &'static str {
        "rsc"
    }

    fn run(&self, ctx: &mut StageContext<'_>) {
        let start = Instant::now();
        ctx.records.rsc =
            ReliabilityCleaner::new(ctx.config.metric).clean_with(ctx.index, ctx.config.parallel);
        ctx.records.timings.rsc += start.elapsed();
    }
}

/// Fusion-score conflict resolution (Stage II, per tuple).
#[derive(Debug, Clone, Copy, Default)]
pub struct FscrStage;

impl PipelineStage for FscrStage {
    fn name(&self) -> &'static str {
        "fscr"
    }

    fn run(&self, ctx: &mut StageContext<'_>) {
        let start = Instant::now();
        let resolver = ConflictResolver::new(MAX_EXHAUSTIVE_FUSION);
        let (repaired, record) = resolver.resolve(ctx.dataset, ctx.index);
        ctx.repaired = Some(repaired);
        ctx.records.fscr = record;
        ctx.records.timings.fscr += start.elapsed();
    }
}

/// Exact-duplicate elimination (the final step of Algorithm 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct DedupStage;

impl PipelineStage for DedupStage {
    fn name(&self) -> &'static str {
        "dedup"
    }

    fn run(&self, ctx: &mut StageContext<'_>) {
        let start = Instant::now();
        let repaired = ctx
            .repaired
            .as_ref()
            .expect("DedupStage runs after FscrStage");
        ctx.deduplicated = Some(repaired.deduplicated());
        ctx.records.timings.dedup += start.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::sample_hospital_dataset;
    use rules::sample_hospital_rules;

    #[test]
    fn stage_sequence_matches_the_monolithic_pipeline() {
        let dirty = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let config = CleanConfig::default().with_tau(1);

        // Composed via the stage objects …
        let mut index = MlnIndex::build_with(&dirty, &rules, config.parallel).unwrap();
        let mut records = StageRecords::default();
        let mut ctx = StageContext::new(&dirty, &config, &mut index, &mut records);
        let stages: [&dyn PipelineStage; 5] = [
            &AgpStage,
            &WeightLearningStage,
            &RscStage,
            &FscrStage,
            &DedupStage,
        ];
        for stage in stages {
            stage.run(&mut ctx);
        }
        let repaired = ctx.repaired.take().expect("FSCR produced a repair");
        let deduplicated = ctx.deduplicated.take().expect("deduplication enabled");

        // … must equal the public pipeline entry point byte for byte.
        let outcome = crate::MlnClean::new(config).clean(&dirty, &rules).unwrap();
        assert_eq!(
            dataset::csv::to_csv(&repaired),
            dataset::csv::to_csv(&outcome.repaired)
        );
        assert_eq!(
            dataset::csv::to_csv(&deduplicated),
            dataset::csv::to_csv(outcome.deduplicated())
        );
        assert_eq!(records.agp, outcome.agp);
        assert_eq!(records.rsc, outcome.rsc);
        assert_eq!(records.fscr, outcome.fscr);
    }

    #[test]
    fn stage_names_cover_the_paper_sequence() {
        let names: Vec<&str> = vec![
            AgpStage.name(),
            WeightLearningStage.name(),
            RscStage.name(),
            FscrStage.name(),
            DedupStage.name(),
        ];
        assert_eq!(
            names,
            vec!["agp", "weight_learning", "rsc", "fscr", "dedup"]
        );
    }
}
