//! The distributed execution driver: partition, clean every part on its own
//! worker thread, merge weights globally, finish the parts, and gather the
//! final clean dataset.
//!
//! The per-part work drives the same explicit stage objects
//! ([`mlnclean::AgpStage`], [`mlnclean::WeightLearningStage`],
//! [`mlnclean::RscStage`], [`mlnclean::FscrStage`]) the batch and
//! incremental paths compose — the distributed plan merely splits Stage I
//! around the coordinator's Eq. 6 weight merge.  Like every other driver it
//! implements [`Engine`] and returns the unified [`Report`]: the per-part
//! provenance records are remapped into **global** tuple coordinates before
//! reporting, so `report.agp`/`report.rsc`/`report.fscr` read exactly like a
//! single-node run's (the historical per-part, local-coordinate vectors are
//! gone).

use crate::partition::{partition_dataset, PartitionConfig, Partitioning};
use crate::weights::merge_weights;
use dataset::{Dataset, TupleId};
use mlnclean::{
    AgpRecord, AgpStage, CleanConfig, CleanError, Engine, FscrRecord, FscrStage, MlnIndex,
    PartitionReport, PipelineStage, Report, RscRecord, RscStage, StageContext, StageRecords,
    Timings, WeightLearningStage,
};
use rules::RuleSet;
use std::time::Instant;

/// Distributed MLNClean: the stand-alone pipeline executed over `workers`
/// parallel partitions.
#[derive(Debug, Clone)]
pub struct DistributedMlnClean {
    /// Number of workers (= partitions).
    pub workers: usize,
    /// The per-part cleaning configuration.
    pub config: CleanConfig,
    /// Seed for the partitioner.
    pub seed: u64,
}

impl DistributedMlnClean {
    /// Create a distributed cleaner.
    pub fn new(workers: usize, config: CleanConfig) -> Self {
        DistributedMlnClean {
            workers: workers.max(1),
            config,
            seed: 42,
        }
    }

    /// Set the partitioning seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Clean `dirty` against `rules` using the distributed execution plan.
    pub fn clean(&self, dirty: &Dataset, rules: &RuleSet) -> Result<Report, CleanError> {
        if self.workers == 0 {
            return Err(CleanError::Partition { workers: 0 });
        }
        if rules.is_empty() {
            return Err(CleanError::NoRules);
        }
        let mut timings = Timings::default();

        // Partition (Algorithm 3), measuring tuple distance over the
        // rule-constrained attributes so related tuples co-locate.
        let start = Instant::now();
        let constrained: Vec<dataset::AttrId> = rules
            .constrained_attrs()
            .iter()
            .filter_map(|a| dirty.schema().attr_id(a))
            .collect();
        let partition_config = PartitionConfig {
            parts: self.workers,
            metric: self.config.metric,
            attributes: constrained,
            seed: self.seed,
        };
        let partitioning: Partitioning = partition_dataset(dirty, &partition_config);
        // Each part is a row projection sharing a snapshot of the parent's
        // value pool: what moves to a worker is `Vec<ValueId>` row images
        // plus one compact pool of distinct strings, never per-row clones —
        // and ids stay comparable across all workers and the coordinator.
        let parts: Vec<Dataset> = partitioning
            .parts
            .iter()
            .map(|ids| dirty.project_rows(ids))
            .collect();
        timings.partition = start.elapsed();

        // Phase A (parallel): index + AGP + local weight learning — the same
        // stage objects the batch pipeline composes, driven per partition.
        // (The workers already provide one level of parallelism; the stages
        // only nest block-level parallelism when the config asks for it.)
        // Per-worker stage clocks are summed into the report's stage fields:
        // workers run concurrently, so those entries read as aggregate
        // worker time rather than elapsed wall time.
        type PhaseA = (MlnIndex, AgpRecord, Timings);
        let phase_a: Vec<Result<PhaseA, CleanError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|part| {
                    let config = self.config.clone();
                    scope.spawn(move || -> Result<PhaseA, CleanError> {
                        let start = Instant::now();
                        let mut index = MlnIndex::build_with(part, rules, config.parallel)?;
                        let mut records = StageRecords::default();
                        records.timings.index = start.elapsed();
                        let mut ctx = StageContext::new(part, &config, &mut index, &mut records);
                        AgpStage.run(&mut ctx);
                        WeightLearningStage.run(&mut ctx);
                        drop(ctx);
                        Ok((index, records.agp, records.timings))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let mut indices = Vec::with_capacity(phase_a.len());
        let mut agp_records = Vec::with_capacity(phase_a.len());
        for result in phase_a {
            let (index, agp, worker) = result?;
            indices.push(index);
            agp_records.push(agp);
            timings.index += worker.index;
            timings.agp += worker.agp;
            timings.weight_learning += worker.weight_learning;
        }

        // Coordinator: Eq. 6 weight merge (the batch plan's one and only
        // merge round).
        let start = Instant::now();
        let shared_gammas = merge_weights(&mut indices);
        timings.weight_merge = start.elapsed();
        timings.merge_rounds = 1;

        // Phase B (parallel): RSC + FSCR per part, again via the shared
        // stage objects.
        let phase_b: Vec<(Dataset, RscRecord, FscrRecord, Timings)> = std::thread::scope(|scope| {
            let handles: Vec<_> = indices
                .iter_mut()
                .zip(parts.iter())
                .map(|(index, part)| {
                    let config = self.config.clone();
                    scope.spawn(move || {
                        let mut records = StageRecords::default();
                        let mut ctx = StageContext::new(part, &config, index, &mut records);
                        RscStage.run(&mut ctx);
                        FscrStage.run(&mut ctx);
                        let repaired_part = ctx.repaired.take().expect("FSCR produced a repair");
                        (repaired_part, records.rsc, records.fscr, records.timings)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        // Gather: write every part's repairs back at the original tuple ids,
        // remap the per-part provenance into global coordinates, then
        // deduplicate globally (conflicts across parts reduce to exact
        // duplicates after cleaning, which the global pass removes).
        let start = Instant::now();
        let mut repaired = dirty.clone();
        let attr_ids: Vec<dataset::AttrId> = dirty.schema().attr_ids().collect();
        // Ids below this bound belong to the shared pool prefix every part
        // snapshot agrees on; anything a worker interned locally (rare — only
        // values its repairs introduced) is carried over by string.
        let shared_prefix = repaired.pool().len();
        let mut agp = AgpRecord::default();
        let mut rsc = RscRecord::default();
        let mut fscr = FscrRecord::default();
        for (part_agp, ids) in agp_records.into_iter().zip(&partitioning.parts) {
            absorb_agp_globally(&mut agp, part_agp, ids);
        }
        for ((repaired_part, part_rsc, part_fscr, worker), ids) in
            phase_b.into_iter().zip(&partitioning.parts)
        {
            timings.rsc += worker.rsc;
            timings.fscr += worker.fscr;
            for (local_idx, &global_id) in ids.iter().enumerate() {
                let local = repaired_part.tuple(TupleId(local_idx));
                for &attr in &attr_ids {
                    let id = local.value_id(attr);
                    if id.index() < shared_prefix {
                        repaired.set_value_id(global_id, attr, id);
                    } else {
                        repaired.set_value(global_id, attr, local.value(attr).to_string());
                    }
                }
            }
            absorb_rsc_globally(&mut rsc, part_rsc, ids);
            absorb_fscr_globally(&mut fscr, part_fscr, ids);
        }
        timings.gather = start.elapsed();

        let start = Instant::now();
        let deduplicated = self.config.deduplicate.then(|| repaired.deduplicated());
        timings.dedup = start.elapsed();

        Ok(Report::new(
            repaired,
            deduplicated,
            None,
            agp,
            rsc,
            fscr,
            timings,
            Some(PartitionReport {
                parts: partitioning.parts,
                shared_gammas,
            }),
        ))
    }
}

impl Engine for DistributedMlnClean {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn run(&self, dirty: &Dataset, rules: &RuleSet) -> Result<Report, CleanError> {
        self.clean(dirty, rules)
    }
}

/// Fold one part's AGP record into the global one, remapping its local tuple
/// ids through the part's global id list.
fn absorb_agp_globally(global: &mut AgpRecord, part: AgpRecord, ids: &[TupleId]) {
    for mut merge in part.merges {
        for t in &mut merge.tuples {
            *t = ids[t.index()];
        }
        global.merges.push(merge);
    }
    global.cache.absorb(part.cache);
    global.bounds_computed += part.bounds_computed;
}

/// Fold one part's RSC record into the global one (local → global ids).
fn absorb_rsc_globally(global: &mut RscRecord, part: RscRecord, ids: &[TupleId]) {
    for mut repair in part.repairs {
        for t in &mut repair.tuples {
            *t = ids[t.index()];
        }
        global.repairs.push(repair);
    }
    global.cache.absorb(part.cache);
}

/// Fold one part's FSCR record into the global one (local → global ids).
fn absorb_fscr_globally(global: &mut FscrRecord, part: FscrRecord, ids: &[TupleId]) {
    for mut outcome in part.outcomes {
        outcome.tuple = ids[outcome.tuple.index()];
        global.outcomes.push(outcome);
    }
    for mut change in part.changes {
        change.cell.tuple = ids[change.cell.tuple.index()];
        global.changes.push(change);
    }
    global.candidates_tested += part.candidates_tested;
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{HaiGenerator, TpchGenerator};
    use dataset::RepairEvaluation;
    use std::time::Duration;

    #[test]
    fn distributed_run_repairs_injected_errors() {
        // Dense data (few providers, many rows each) so per-partition groups
        // keep enough tuples for the size-based AGP heuristic — the same
        // reason the paper uses a larger τ on the dense HAI dataset than on
        // the sparse CAR dataset.
        let gen = HaiGenerator::default().with_rows(600).with_providers(15);
        let rules = HaiGenerator::rules();
        let dirty = gen.dirty(0.05, 0.5, 5);
        let cleaner = DistributedMlnClean::new(4, CleanConfig::default().with_tau(1));
        let outcome = cleaner.clean(&dirty.dirty, &rules).unwrap();

        assert_eq!(outcome.repaired.len(), dirty.dirty.len());
        let partitions = outcome.partitions.as_ref().expect("distributed report");
        assert_eq!(partitions.parts.len(), 4);
        assert!(outcome.index.is_none(), "one index per part, none global");
        let report = RepairEvaluation::evaluate(&dirty, &outcome.repaired);
        assert!(
            report.f1() > 0.5,
            "distributed cleaning should repair most errors: {report}"
        );
        assert!(outcome.timings.total() > Duration::ZERO);
        assert!(outcome.timings.partition >= Duration::ZERO);
    }

    #[test]
    fn provenance_is_reported_in_global_coordinates() {
        let gen = HaiGenerator::default().with_rows(400).with_providers(12);
        let rules = HaiGenerator::rules();
        let dirty = gen.dirty(0.08, 0.5, 5);
        let outcome = DistributedMlnClean::new(3, CleanConfig::default().with_tau(2))
            .clean(&dirty.dirty, &rules)
            .unwrap();
        // One FSCR outcome per input tuple, each naming a valid global id,
        // covering the whole dataset exactly once.
        assert_eq!(outcome.fscr.outcomes.len(), dirty.dirty.len());
        let mut tuples: Vec<usize> = outcome
            .fscr
            .outcomes
            .iter()
            .map(|o| o.tuple.index())
            .collect();
        tuples.sort_unstable();
        tuples.dedup();
        assert_eq!(tuples.len(), dirty.dirty.len());
        // Every recorded cell change matches the actual global repair.
        for change in &outcome.fscr.changes {
            assert_eq!(outcome.repaired.cell(change.cell), change.new);
            assert_eq!(dirty.dirty.cell(change.cell), change.old);
        }
        // AGP/RSC tuples stay in range too.
        for merge in &outcome.agp.merges {
            assert!(merge.tuples.iter().all(|t| t.index() < dirty.dirty.len()));
        }
        for repair in &outcome.rsc.repairs {
            assert!(repair.tuples.iter().all(|t| t.index() < dirty.dirty.len()));
        }
    }

    #[test]
    fn single_worker_matches_standalone_shape() {
        let gen = TpchGenerator::default().with_rows(300).with_customers(30);
        let rules = TpchGenerator::rules();
        let dirty = gen.dirty(0.05, 0.5, 9);
        let distributed = DistributedMlnClean::new(1, CleanConfig::default().with_tau(2))
            .clean(&dirty.dirty, &rules)
            .unwrap();
        let standalone = mlnclean::MlnClean::new(CleanConfig::default().with_tau(2))
            .clean(&dirty.dirty, &rules)
            .unwrap();
        // One worker = one partition containing the whole dataset, so the two
        // pipelines see the same data (up to tuple reordering inside the
        // partition) and must reach comparable quality.
        let d = RepairEvaluation::evaluate(&dirty, &distributed.repaired).f1();
        let s = RepairEvaluation::evaluate(&dirty, &standalone.repaired).f1();
        assert!(
            (d - s).abs() < 0.15,
            "distributed {d:.3} vs standalone {s:.3}"
        );
    }

    #[test]
    fn empty_rules_are_rejected() {
        let gen = HaiGenerator::default().with_rows(50);
        let dirty = gen.generate();
        let err = DistributedMlnClean::new(2, CleanConfig::default())
            .clean(&dirty, &RuleSet::default())
            .unwrap_err();
        assert_eq!(err, CleanError::NoRules);
    }

    #[test]
    fn zero_workers_are_a_partition_error() {
        let gen = HaiGenerator::default().with_rows(20);
        let dirty = gen.generate();
        let mut cleaner = DistributedMlnClean::new(2, CleanConfig::default());
        cleaner.workers = 0; // bypass the constructor clamp
        let err = cleaner.clean(&dirty, &HaiGenerator::rules()).unwrap_err();
        assert_eq!(err, CleanError::Partition { workers: 0 });
    }

    #[test]
    fn worker_count_is_clamped_to_at_least_one() {
        let cleaner = DistributedMlnClean::new(0, CleanConfig::default());
        assert_eq!(cleaner.workers, 1);
    }

    #[test]
    fn shared_gammas_benefit_from_global_evidence() {
        // With several partitions over a dense dataset, many γs appear in
        // more than one part and get cross-partition weight adjustment.
        let gen = HaiGenerator::default().with_rows(600).with_providers(15);
        let rules = HaiGenerator::rules();
        let dirty = gen.dirty(0.05, 0.5, 21);
        let outcome = DistributedMlnClean::new(4, CleanConfig::default().with_tau(2))
            .clean(&dirty.dirty, &rules)
            .unwrap();
        assert!(
            outcome
                .partitions
                .expect("distributed report")
                .shared_gammas
                > 0
        );
    }
}
