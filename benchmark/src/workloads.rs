//! The four workloads: what each one's set-up and pass call, and the engine
//! its output must equal byte for byte.

use crate::inputs::{Inputs, WIRE_CHECKPOINT_AFTER, WIRE_MERGE_EVERY, WIRE_PARTITIONS};
use crate::trace::{Mode, Tracer};
use dataset::{csv, Dataset};
use mlnclean::{
    AgpStage, ChangeSet, CleaningSession, DedupStage, FscrStage, MlnClean, MlnIndex, Mutation,
    PipelineStage, Report, RscStage, StageContext, StageRecords, WeightLearningStage,
};
use rules::RuleSet;
use std::fmt::{Display, Write};
use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;
use transport::CleaningService;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchBatch,
    HaiBatch,
    CarSession,
    TpchWire,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TpchBatch,
        Workload::HaiBatch,
        Workload::CarSession,
        Workload::TpchWire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchBatch => "tpch_batch",
            Workload::HaiBatch => "hai_batch",
            Workload::CarSession => "car_session",
            Workload::TpchWire => "tpch_wire",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups run back to back in one `setup_s` sample, so that a sample
    /// lasts at least a quarter of a second; the last one feeds the pass.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::TpchBatch => 4,
            Workload::HaiBatch => 12,
            Workload::CarSession => 2,
            Workload::TpchWire => 8,
        }
    }
}

/// Operations attempted and failed: every fallible product call and every
/// output check is one operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count a product call; an `Err` is a failed operation.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|error| {
                self.failed += 1;
                eprintln!("FAILED {what}: {error}");
            })
            .ok()
    }

    /// Count a product call that returned without a `Result`.
    pub fn done(&mut self) {
        self.attempted += 1;
    }

    /// Count an output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED check: {what}");
        }
    }
}

/// One workload: `setup` and `pass` are what the harness times.
pub trait Scenario {
    /// Owned inputs of one set-up and its pass, cloned with the clock stopped.
    type Fresh;
    /// What a set-up hands to the pass.
    type Ready;

    fn fresh(&self) -> Self::Fresh;
    fn setup(&self, fresh: Self::Fresh, tracer: &mut Tracer, ops: &mut Ops) -> Option<Self::Ready>;
    /// The pass; its report is the workload's output.
    fn pass(&self, ready: Self::Ready, tracer: &mut Tracer, ops: &mut Ops) -> Option<Report>;
    /// Another engine's report over the table the pass ends with, which the
    /// pass's report must equal.  `None`: the workload has no second engine.
    fn reference(&self, ops: &mut Ops) -> Option<Report>;
}

fn parse(inputs: &Inputs, ops: &mut Ops) -> Option<(Dataset, RuleSet)> {
    let table = ops.call("parse_csv", csv::parse_csv(&inputs.csv_text))?;
    let rules = ops.call("parse_rules", rules::parse_rules(inputs.rule_text))?;
    Some((table, rules))
}

/// Algorithm 1 as the public stage objects compose it, a span per stage.
/// `crates/core/src/stage.rs` pins this composition to `MlnClean::clean`; the
/// harness checks the two reports are byte-identical on every traced pass.
pub fn staged_clean(
    table: &Dataset,
    rules: &RuleSet,
    config: &mlnclean::CleanConfig,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Option<Report> {
    let built = tracer.span("index.build", |_| {
        MlnIndex::build_with(table, rules, config.parallel)
    });
    let mut index = ops.call("index build", built)?;
    let groups: usize = index.blocks.iter().map(|b| b.group_count()).sum();
    let gammas: usize = index.blocks.iter().map(|b| b.gamma_count()).sum();
    tracer.count("index.groups", groups as f64);
    tracer.count("index.gammas", gammas as f64);

    let mut records = StageRecords::default();
    let mut ctx = StageContext::new(table, config, &mut index, &mut records);
    let stages: [(&'static str, &dyn PipelineStage); 5] = [
        ("agp.process", &AgpStage),
        ("weights.assign", &WeightLearningStage),
        ("rsc.clean", &RscStage),
        ("fscr.resolve", &FscrStage),
        ("dataset.dedup", &DedupStage),
    ];
    for (name, stage) in stages {
        tracer.span(name, |_| stage.run(&mut ctx));
    }
    let repaired = ctx
        .repaired
        .take()
        .expect("FscrStage sets the repaired table");
    let deduplicated = ctx.deduplicated.take();

    let merged = records.agp.merges.iter().filter(|m| m.target_key.is_some());
    let conflicts = records.fscr.outcomes.iter().filter(|o| o.conflict_detected);
    let agp_cache = records.agp.cache;
    tracer.count("agp.abnormal_groups", records.agp.merges.len() as f64);
    tracer.count("agp.merges", merged.count() as f64);
    tracer.count(
        "cache.agp_lookups",
        (agp_cache.hits + agp_cache.misses) as f64,
    );
    tracer.count("cache.agp_hit_rate", agp_cache.hit_rate());
    tracer.count("cache.rsc_hit_rate", records.rsc.cache.hit_rate());
    tracer.count("rsc.repairs", records.rsc.repairs.len() as f64);
    tracer.count("fscr.conflict_tuples", conflicts.count() as f64);
    tracer.count("fscr.changed_cells", records.fscr.changes.len() as f64);

    Some(Report::new(
        repaired,
        deduplicated,
        Some(Arc::new(index)),
        records.agp,
        records.rsc,
        records.fscr,
        records.timings,
        None,
    ))
}

/// `tpch_batch` and `hai_batch`: one `MlnClean::clean` over the whole table.
pub struct Batch<'a>(pub &'a Inputs);

impl Scenario for Batch<'_> {
    type Fresh = ();
    type Ready = (Dataset, RuleSet, MlnClean);

    fn fresh(&self) {}

    fn setup(&self, (): (), _: &mut Tracer, ops: &mut Ops) -> Option<Self::Ready> {
        let (table, rules) = parse(self.0, ops)?;
        Some((table, rules, MlnClean::new(self.0.config.clone())))
    }

    fn pass(
        &self,
        (table, rules, engine): Self::Ready,
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) -> Option<Report> {
        match tracer.mode() {
            Mode::Off => ops.call("clean", engine.clean(&table, &rules)),
            Mode::Dry | Mode::On => staged_clean(&table, &rules, engine.config(), tracer, ops),
        }
    }

    fn reference(&self, _: &mut Ops) -> Option<Report> {
        None
    }
}

/// `car_session`: load a `CleaningSession`, then mutate it one change set at
/// a time, asking for the outcome after each.
pub struct Session<'a>(pub &'a Inputs);

/// Span and count names of one kind of mutation.
struct KindNames {
    apply: &'static str,
    outcome: &'static str,
    recleaned: &'static str,
}

fn kind_names(mutation: &Mutation) -> KindNames {
    match mutation {
        Mutation::Update(..) => KindNames {
            apply: "session.apply_update",
            outcome: "session.outcome_update",
            recleaned: "session.recleaned_groups_update",
        },
        Mutation::Insert(..) => KindNames {
            apply: "session.apply_insert",
            outcome: "session.outcome_insert",
            recleaned: "session.recleaned_groups_insert",
        },
        Mutation::Delete(..) => KindNames {
            apply: "session.apply_delete",
            outcome: "session.outcome_delete",
            recleaned: "session.recleaned_groups_delete",
        },
    }
}

impl Scenario for Session<'_> {
    type Fresh = (Vec<Vec<Vec<String>>>, Vec<Mutation>);
    type Ready = (CleaningSession, Vec<Mutation>);

    fn fresh(&self) -> Self::Fresh {
        (self.0.batches(), self.0.script.clone())
    }

    fn setup(
        &self,
        (batches, script): Self::Fresh,
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) -> Option<Self::Ready> {
        let (table, rules) = parse(self.0, ops)?;
        let opened = CleaningSession::new(self.0.config.clone(), table.schema().clone(), rules);
        let mut session = ops.call("CleaningSession::new", opened)?;
        tracer.span("session.load_ingest", |_| {
            for batch in batches {
                ops.call("apply", session.apply(ChangeSet::inserting(batch)))?;
            }
            Some(())
        })?;
        tracer.span("session.load_first_outcome", |_| drop(session.outcome()));
        ops.done();
        Some((session, script))
    }

    fn pass(
        &self,
        (mut session, script): Self::Ready,
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) -> Option<Report> {
        let mut last = None;
        for mutation in script {
            let names = kind_names(&mutation);
            let recleaned = session.recleaned_groups();
            let changes: ChangeSet = [mutation].into_iter().collect();
            last = tracer.span("session.op", |tracer| {
                let applied = tracer.span(names.apply, |_| session.apply(changes));
                ops.call("apply", applied)?;
                Some(tracer.span(names.outcome, |_| session.outcome()))
            });
            last.as_ref()?;
            ops.done();
            let recleaned = session.recleaned_groups() - recleaned;
            tracer.count(names.recleaned, recleaned as f64);
        }
        tracer.count("session.total_groups", session.total_groups() as f64);
        last
    }

    fn reference(&self, ops: &mut Ops) -> Option<Report> {
        let rules = ops.call("parse_rules", rules::parse_rules(self.0.rule_text))?;
        let engine = MlnClean::new(self.0.config.clone());
        ops.call("clean", engine.clean(&self.0.truth.dirty, &rules))
    }
}

/// `tpch_wire`: the same change-set stream through `transport`'s service,
/// every coordinator ↔ worker exchange crossing the codec and the faulty
/// simulated network.
pub struct Wire<'a>(pub &'a Inputs);

impl Scenario for Wire<'_> {
    type Fresh = Vec<Vec<Vec<String>>>;
    type Ready = (CleaningService, Vec<Vec<Vec<String>>>);

    fn fresh(&self) -> Self::Fresh {
        self.0.batches()
    }

    fn setup(&self, batches: Self::Fresh, _: &mut Tracer, ops: &mut Ops) -> Option<Self::Ready> {
        let (table, rules) = parse(self.0, ops)?;
        let service = CleaningService::new(
            self.0.config.clone(),
            table.schema().clone(),
            rules,
            WIRE_PARTITIONS,
            WIRE_MERGE_EVERY,
            self.0.faults.clone(),
        );
        Some((ops.call("CleaningService::new", service)?, batches))
    }

    fn pass(
        &self,
        (mut service, batches): Self::Ready,
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) -> Option<Report> {
        let client = service.connect();
        for (i, batch) in batches.into_iter().enumerate() {
            let name = if (i + 1) % WIRE_MERGE_EVERY == 0 {
                "distributed.merge_batch"
            } else {
                "transport.apply_batch"
            };
            let applied = tracer.span(name, |_| {
                service.submit(client, ChangeSet::inserting(batch));
                service.drain()
            });
            ops.check("one report per submitted change set", applied.len() == 1);
            for (_, report) in applied {
                ops.call("submit", report)?;
            }
            if i + 1 == WIRE_CHECKPOINT_AFTER {
                let checkpoints = tracer.span("transport.checkpoint", |_| {
                    service.session_mut().backend_mut().checkpoint_workers()
                });
                ops.done();
                let bytes: u64 = checkpoints.iter().map(|&(_, bytes)| bytes).sum();
                tracer.count("transport.checkpoint_bytes", bytes as f64);
            }
        }

        let net = service.session_mut().backend_mut().counters();
        // Every copy the network accepted lands, except duplicates still in
        // flight when the last response was accepted.
        let accepted = net.sent - net.dropped + net.duplicated;
        ops.check(
            "NetCounters balance",
            net.delivered <= accepted && accepted - net.delivered <= net.duplicated,
        );
        tracer.count("transport.messages_sent", net.sent as f64);
        tracer.count("transport.bytes_sent", net.bytes_sent as f64);
        tracer.count("transport.retransmits", net.retransmits as f64);
        tracer.count("transport.dropped", net.dropped as f64);
        tracer.count("transport.duplicated", net.duplicated as f64);

        let report = tracer.span("distributed.finish", |_| service.finish());
        ops.done();
        tracer.count(
            "distributed.merge_rounds",
            report.timings.merge_rounds as f64,
        );
        if let Some(partitions) = &report.partitions {
            tracer.count("distributed.partition_skew", partitions.skew());
        }
        Some(report)
    }

    /// A local single session fed the same stream.
    fn reference(&self, ops: &mut Ops) -> Option<Report> {
        let rules = ops.call("parse_rules", rules::parse_rules(self.0.rule_text))?;
        let schema = self.0.truth.dirty.schema().clone();
        let opened = CleaningSession::new(self.0.config.clone(), schema, rules);
        let mut session = ops.call("CleaningSession::new", opened)?;
        for batch in self.0.batches() {
            ops.call("apply", session.apply(ChangeSet::inserting(batch)))?;
        }
        ops.done();
        Some(session.finish())
    }
}

/// What "byte-identical reports" compares — the repaired table, the
/// deduplicated table and the AGP, RSC and FSCR provenance — hashed as they
/// stream by, so that checking a pass allocates nothing that could move the
/// process's peak RSS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest([u64; 5]);

struct HashWriter(DefaultHasher);

impl Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn table_hash(table: &Dataset) -> u64 {
    let mut hasher = DefaultHasher::new();
    for name in table.schema().attr_names() {
        hasher.write(name.as_bytes());
        hasher.write_u8(0xff);
    }
    hasher.write_usize(table.len());
    for (_, value) in table.cells() {
        hasher.write(value.as_bytes());
        hasher.write_u8(0xff);
    }
    hasher.finish()
}

fn debug_hash(value: &dyn std::fmt::Debug) -> u64 {
    let mut writer = HashWriter(DefaultHasher::new());
    write!(writer, "{value:?}").expect("hashing cannot fail");
    writer.0.finish()
}

impl Digest {
    pub fn of(report: &Report) -> Digest {
        // The merges and repairs, not the cache counters beside them: those
        // differ between engines by design (see `AgpRecord`'s `PartialEq`).
        Digest([
            table_hash(&report.repaired),
            table_hash(report.deduplicated()),
            debug_hash(&report.agp.merges),
            debug_hash(&report.rsc.repairs),
            debug_hash(&report.fscr),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{sample_hospital_dataset, TupleId};
    use mlnclean::CleanConfig;
    use rules::sample_hospital_rules;

    #[test]
    fn workload_names_parse_back() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("tpch"), None);
    }

    #[test]
    fn ops_count_errors_and_failed_checks() {
        let mut ops = Ops::default();
        assert_eq!(ops.call("ok", Ok::<_, String>(3)), Some(3));
        assert_eq!(ops.call("bad", Err::<u8, _>("boom")), None);
        ops.done();
        ops.check("holds", true);
        ops.check("does not hold", false);
        assert_eq!((ops.attempted, ops.failed), (5, 2));
    }

    #[test]
    fn the_stage_composition_equals_the_engine_and_the_digest_sees_a_changed_cell() {
        let table = sample_hospital_dataset();
        let rules = sample_hospital_rules();
        let config = CleanConfig::default().with_tau(1);
        let mut tracer = Tracer::new();
        tracer.begin_iteration(1, Mode::On);
        let mut ops = Ops::default();
        let staged = staged_clean(&table, &rules, &config, &mut tracer, &mut ops).unwrap();
        let engine = MlnClean::new(config.clone()).clean(&table, &rules).unwrap();
        assert_eq!(Digest::of(&staged), Digest::of(&engine));
        assert_eq!(tracer.counted("agp.abnormal_groups"), Some(3.0));
        assert_eq!(tracer.durations_ms("fscr.resolve").len(), 1);
        assert_eq!(ops.failed, 0);

        let mut other = table.clone();
        let attr = other.schema().attr_id("ST").unwrap();
        other.set_value(TupleId(0), attr, "ZZ");
        let changed = MlnClean::new(config).clean(&other, &rules).unwrap();
        assert_ne!(Digest::of(&changed), Digest::of(&engine));
    }
}
