//! Paper-scale benchmark ladder: the same cleaning workload at
//! 10⁴ → 10⁵ → 10⁶ (→ 10⁷, opt-in) rows, across all three engines.
//!
//! The paper's evaluation runs to 6 M tuples; the per-figure experiments in
//! this crate stop around 10⁴ rows so they stay interactive.  The ladder is
//! the bridge: every rung streams a seeded dirty workload (see
//! [`datagen::DirtyRowStream`] — rows are produced batch-by-batch and never
//! all resident) through
//!
//! * the **batch** engine ([`MlnClean`], materialise then clean),
//! * the **incremental** engine ([`CleaningSession`], micro-batch ingest
//!   then one `outcome()`), and
//! * the **distributed-streaming** engine
//!   ([`DistributedStreamingSession`], 2 partitions, periodic weight merge),
//!
//! recording per engine: ingest throughput (rows/s), outcome latency, the
//! per-stage breakdown, the sketch bounds AGP's searches evaluated
//! (`agp_bounds_computed`), the substitution candidates FSCR's fusions
//! tested (`fscr_candidates_tested`), and the peak RSS attributable to the
//! run (via
//! [`PeakRss`]).  At rungs small enough for it to be cheap the three
//! engines' reports are compared byte-for-byte (repaired CSV + full
//! provenance), extending the smoke test's equivalence guarantee to
//! paper-scale inputs.  On the largest rung the incremental session is kept
//! alive and probed with a sustained stream of single-cell mutations,
//! reporting p50/p99/max `apply` + `outcome` latency plus the group-scoped
//! re-clean counters: how many MLN groups the most expensive mutation
//! re-cleaned, and how many abnormal groups it sent back to a nearest-normal
//! search from nothing, versus how many groups the index holds in total
//! (the CI evidence that a pure-FD mutation stream neither re-cleans nor
//! re-plans every group).
//!
//! Every rung also carries a **budgeted re-run** of the incremental engine:
//! the same stream cleaned under [`LadderConfig::memory_budget`] (2 GiB by
//! default), asserted byte-identical to the unbudgeted report at every rung
//! the ladder executes — including the 10⁶ nightly rung, which is the CI
//! teeth behind the out-of-core session.  At rungs up to
//! [`LadderConfig::rss_assert_limit`] (with a resettable meter) the probe
//! additionally claims (`"rss_asserted": true`) that the run's RSS *growth*
//! — peak minus the post-reset floor, so allocator retention from earlier
//! rungs cannot fail it — stays within the budget, which
//! `scripts/assert_bench.py` enforces with a tolerance.
//!
//! [`run`] ladders all three of the paper's workloads: TPC-H (the original
//! ladder, rungs up to 10⁷) plus HAI and CAR at 10⁴/10⁵.  The artifacts are
//! `BENCH_ladder.json`, `BENCH_ladder_hai.json` and `BENCH_ladder_car.json`;
//! `scripts/assert_bench.py ladder` checks each one's invariants and gates
//! CI against the committed baselines.

use crate::common::{rayon_threads, reports_identical, PeakRss, Scale, Workload};
use datagen::{
    batched, CarGenerator, CarRows, DirtyRowStream, HaiGenerator, HaiRows, TpchGenerator, TpchRows,
};
use dataset::{Dataset, Schema, TupleId};
use distributed::DistributedStreamingSession;
use mlnclean::{ChangeSet, CleaningSession, MlnClean, Report};
use std::time::{Duration, Instant};

/// Tunables of the ladder run.  [`run`] derives the row cap from the scale
/// or an explicit `--max-rows`; tests shrink everything.
#[derive(Debug, Clone)]
pub struct LadderConfig {
    /// Which of the paper's workloads this ladder runs.
    pub workload: Workload,
    /// Candidate rung sizes, ascending; rungs above `max_rows` are skipped.
    pub rungs: Vec<usize>,
    /// Largest rung to run.
    pub max_rows: usize,
    /// Micro-batch size for the streaming engines.
    pub batch_rows: usize,
    /// Error rate over the rule-related cells.
    pub error_rate: f64,
    /// Typo/replacement split (the paper's Rret).
    pub replacement_ratio: f64,
    /// Seed of both the row stream and the error stream.
    pub seed: u64,
    /// Partition count of the distributed engine.
    pub partitions: usize,
    /// Merge cadence (in batches) of the distributed engine.
    pub merge_every: usize,
    /// Byte-identity across engines is asserted at rungs up to this size
    /// (the comparison costs a CSV render of every report).
    pub identity_limit: usize,
    /// Mutation-latency samples taken on the largest executed rung (scaled
    /// down on big rungs, where TPC-H's single rule makes every mutation
    /// re-clean the one FD block).
    pub mutation_samples: usize,
    /// Budget, in bytes, of the budgeted re-run of the incremental engine
    /// ([`mlnclean::CleanConfig::memory_budget`]): every rung re-cleans the
    /// same stream under this bound on the session's evictable state and
    /// asserts the report stays byte-identical to the unbudgeted run.
    /// `None` skips the probe (`"budgeted": null` in the artifact).
    pub memory_budget: Option<usize>,
    /// Largest rung at which the budgeted probe also *asserts* its RSS
    /// growth (peak − post-reset floor) against the budget
    /// (`"rss_asserted": true` in the artifact, enforced by
    /// `scripts/assert_bench.py`).  Above this, outcome-time transients
    /// that no budget governs (resolved FSCR strings, the report itself,
    /// pool clones) dominate RSS, so only byte-identity is claimed.
    pub rss_assert_limit: usize,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            workload: Workload::Tpch,
            rungs: vec![10_000, 100_000, 1_000_000, 10_000_000],
            max_rows: 100_000,
            batch_rows: 4_096,
            error_rate: 0.02,
            replacement_ratio: 0.5,
            seed: 1,
            partitions: 2,
            merge_every: 8,
            identity_limit: 100_000,
            mutation_samples: 40,
            memory_budget: Some(2 * 1024 * 1024 * 1024),
            rss_assert_limit: 100_000,
        }
    }
}

impl LadderConfig {
    /// The rungs that will actually run under the current cap.
    fn active_rungs(&self) -> Vec<usize> {
        self.rungs
            .iter()
            .copied()
            .filter(|&r| r <= self.max_rows)
            .collect()
    }

    /// Mutation samples for a rung of `rows` rows.  Even group-scoped,
    /// every sampled mutation pays a full `outcome()` assembly, so scale
    /// the sample count down with the rung to keep the probe a bounded
    /// share of the run; the floor keeps the percentile ranks meaningful.
    fn samples_for(&self, rows: usize) -> usize {
        self.mutation_samples.min((800_000 / rows.max(1)).max(8))
    }

    /// The artifact this ladder writes.
    fn artifact_name(&self) -> &'static str {
        match self.workload {
            Workload::Tpch => "BENCH_ladder.json",
            Workload::Hai => "BENCH_ladder_hai.json",
            Workload::Car => "BENCH_ladder_car.json",
        }
    }

    /// The workload's schema.
    fn schema(&self) -> Schema {
        match self.workload {
            Workload::Tpch => TpchGenerator::schema(),
            Workload::Hai => HaiGenerator::schema(),
            Workload::Car => CarGenerator::schema(),
        }
    }

    /// Entity count scaling the group structure of one rung (recorded as
    /// `"entities"` in the artifact): customers for TPC-H (1 per 25 line
    /// items), providers for HAI (1 per 40 measures), models-per-make for
    /// CAR (1 per 2 000 listings) — all grow with the rung so block/group
    /// counts grow with the data, like the probe workloads elsewhere in
    /// this crate.
    fn entities(&self, rows: usize) -> usize {
        match self.workload {
            Workload::Tpch => (rows / 25).max(1),
            Workload::Hai => (rows / 40).max(1),
            Workload::Car => (rows / 2_000).max(3),
        }
    }

    /// The seeded dirty row stream of one rung.
    fn stream(&self, rows: usize) -> LadderStream {
        let (e, r, s) = (self.error_rate, self.replacement_ratio, self.seed);
        match self.workload {
            Workload::Tpch => LadderStream::Tpch(
                TpchGenerator::default()
                    .with_rows(rows)
                    .with_customers(self.entities(rows))
                    .with_seed(self.seed)
                    .dirty_row_stream(e, r, s),
            ),
            Workload::Hai => LadderStream::Hai(
                HaiGenerator::default()
                    .with_rows(rows)
                    .with_providers(self.entities(rows))
                    .with_seed(self.seed)
                    .dirty_row_stream(e, r, s),
            ),
            Workload::Car => LadderStream::Car(
                CarGenerator {
                    models_per_make: self.entities(rows),
                    rows,
                    seed: self.seed,
                }
                .dirty_row_stream(e, r, s),
            ),
        }
    }

    /// The attribute the mutation probe overwrites: the consequent of one of
    /// the workload's FDs, so every sampled mutation dirties the groups that
    /// cover the tuple — and only those.
    fn mutation_attr(&self) -> &'static str {
        match self.workload {
            Workload::Tpch => "Address",
            Workload::Hai => "City",
            Workload::Car => "Make",
        }
    }

    /// The `i`-th mutation value: fresh per sample, so the update is a real
    /// overwrite, never a skipped no-op.
    fn mutation_value(&self, i: usize) -> String {
        match self.workload {
            Workload::Tpch => {
                format!("{} REWRITE BLVD SUITE {}", 100 + (i * 53) % 900, i + 1)
            }
            Workload::Hai => format!("REWRITEVILLE{}", i + 1),
            Workload::Car => format!("rewrite-make-{}", i + 1),
        }
    }
}

/// One rung's dirty row stream, whatever the workload (the three generators
/// stream through differently typed [`DirtyRowStream`]s).
enum LadderStream {
    Tpch(DirtyRowStream<TpchRows>),
    Hai(DirtyRowStream<HaiRows>),
    Car(DirtyRowStream<CarRows>),
}

impl LadderStream {
    fn injected_errors(&self) -> u64 {
        match self {
            LadderStream::Tpch(s) => s.injected_errors(),
            LadderStream::Hai(s) => s.injected_errors(),
            LadderStream::Car(s) => s.injected_errors(),
        }
    }
}

impl Iterator for LadderStream {
    type Item = Vec<String>;

    fn next(&mut self) -> Option<Vec<String>> {
        match self {
            LadderStream::Tpch(s) => s.next(),
            LadderStream::Hai(s) => s.next(),
            LadderStream::Car(s) => s.next(),
        }
    }
}

/// Run the ladders of all three workloads at the default rungs for `scale`
/// (overridden by `--max-rows` on the command line, threaded through as
/// `max_rows`): TPC-H at the full rung set, HAI and CAR at 10⁴/10⁵ (the
/// paper's single-node datasets stop around those sizes).
pub fn run(scale: Scale, max_rows: Option<usize>) -> Vec<(String, String)> {
    let max_rows = max_rows.unwrap_or(match scale {
        Scale::Tiny => 10_000,
        Scale::Small => 100_000,
        Scale::Full => 1_000_000,
    });
    let mut files = Vec::new();
    for workload in [Workload::Tpch, Workload::Hai, Workload::Car] {
        let config = LadderConfig {
            workload,
            rungs: match workload {
                Workload::Tpch => LadderConfig::default().rungs,
                Workload::Hai | Workload::Car => vec![10_000, 100_000],
            },
            max_rows,
            ..LadderConfig::default()
        };
        files.extend(run_config(&config));
    }
    files
}

/// Run the ladder with explicit tunables and return the JSON artifact.
pub fn run_config(config: &LadderConfig) -> Vec<(String, String)> {
    let meter = PeakRss::probe();
    let rungs = config.active_rungs();
    let largest = rungs.last().copied();

    let mut rung_jsons = Vec::with_capacity(rungs.len());
    for rows in rungs {
        let point = run_rung(config, rows, &meter, Some(rows) == largest);
        println!(
            "ladder [{workload}] rung {rows}: batch {:.3}s, incremental {:.3}s, distributed {:.3}s{}",
            point.batch.total().as_secs_f64(),
            point.incremental.total().as_secs_f64(),
            point.distributed.total().as_secs_f64(),
            if point.identity_checked {
                " (byte-identity checked)"
            } else {
                ""
            },
            workload = config.workload.name(),
        );
        rung_jsons.push(render_rung(&point));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"ladder\",\n",
            "  \"codec_version\": {codec_version},\n",
            "  \"workload\": \"{workload}\",\n",
            "  \"max_rows\": {max_rows},\n",
            "  \"batch_rows\": {batch_rows},\n",
            "  \"error_rate\": {error_rate},\n",
            "  \"replacement_ratio\": {replacement_ratio},\n",
            "  \"seed\": {seed},\n",
            "  \"partitions\": {partitions},\n",
            "  \"merge_every\": {merge_every},\n",
            "  \"identity_limit\": {identity_limit},\n",
            "  \"threads\": {threads},\n",
            "  \"rss_meter\": {{ \"supported\": {rss_supported}, ",
            "\"resettable\": {rss_resettable} }},\n",
            "  \"rungs\": [\n",
            "{rungs}\n",
            "  ]\n",
            "}}\n",
        ),
        codec_version = transport::CODEC_VERSION,
        workload = config.workload.name(),
        max_rows = config.max_rows,
        batch_rows = config.batch_rows,
        error_rate = config.error_rate,
        replacement_ratio = config.replacement_ratio,
        seed = config.seed,
        partitions = config.partitions,
        merge_every = config.merge_every,
        identity_limit = config.identity_limit,
        threads = rayon_threads(),
        rss_supported = meter.supported,
        rss_resettable = meter.resettable,
        rungs = rung_jsons.join(",\n"),
    );

    vec![(config.artifact_name().to_string(), json)]
}

/// One engine's measurements on one rung.
struct EngineRun {
    report: Report,
    ingest: Duration,
    outcome: Duration,
    peak_rss_kib: Option<u64>,
}

impl EngineRun {
    fn total(&self) -> Duration {
        self.ingest + self.outcome
    }
}

/// One rung's measurements across the three engines.
struct RungPoint {
    rows: usize,
    entities: usize,
    batches: usize,
    injected_errors: u64,
    batch: EngineRun,
    incremental: EngineRun,
    distributed: EngineRun,
    identity_checked: bool,
    incremental_matches_batch: Option<bool>,
    distributed_matches_batch: Option<bool>,
    mutation: Option<MutationLatency>,
    budgeted: Option<BudgetedRun>,
}

/// The budgeted re-run of the incremental engine on one rung: the same
/// stream cleaned under [`LadderConfig::memory_budget`], compared
/// byte-for-byte against the unbudgeted incremental report (at *every*
/// rung the probe runs, including rungs above `identity_limit` — this is
/// the CI evidence that spilling/eviction never changes output).
struct BudgetedRun {
    budget_kib: u64,
    matches_unbudgeted: bool,
    /// Whole-process peak RSS over the budgeted run (reset → ingest →
    /// outcome), read before the identity comparison renders any CSV.
    peak_rss_kib: Option<u64>,
    /// Current RSS right after the meter reset, i.e. the high-water mark's
    /// starting floor.  Allocators retain freed memory from earlier rungs,
    /// so the honest budget claim is about *growth*: peak − floor.
    rss_floor_kib: Option<u64>,
    /// Whether `peak ≤ floor + (1 + tolerance) × budget` is a claim this
    /// rung makes (and `scripts/assert_bench.py` enforces).  Requires a
    /// resettable meter — a monotone process-wide high-water mark cannot
    /// attribute a peak to this probe.
    rss_asserted: bool,
    spilled_blocks: u64,
    faulted_blocks: u64,
    evicted_fusions: u64,
    spilled_bytes: u64,
}

/// Tail latency of `apply` + `outcome` under a sustained mutation stream,
/// plus the group-scoped re-clean counters backing the CI probe that a
/// pure-FD mutation stream no longer re-cleans every group.
struct MutationLatency {
    samples: usize,
    p50: Duration,
    p99: Duration,
    max: Duration,
    /// Most output groups any single sampled mutation re-cleaned.
    recleaned_groups: u64,
    /// Most abnormal groups any single sampled mutation sent back to a
    /// nearest-normal search from nothing — no standing incumbent
    /// (`CleaningSession::rescanned_groups`).
    rescanned_groups: u64,
    /// Groups the session's index held when the probe finished.
    total_groups: usize,
}

fn run_rung(config: &LadderConfig, rows: usize, meter: &PeakRss, is_largest: bool) -> RungPoint {
    let schema = config.schema();
    let rules = config.workload.rules();
    let clean_config = config.workload.clean_config();
    let batches = rows.div_ceil(config.batch_rows);

    // Batch engine: materialise the dirty stream, then one-shot clean.
    // Generation is part of every engine's ingest time, so the three
    // ingest/throughput numbers are comparable.
    meter.reset();
    let mut stream = config.stream(rows);
    let started = Instant::now();
    let mut ds = Dataset::with_capacity(schema.clone(), rows);
    for row in &mut stream {
        ds.push_row(row).expect("row matches the workload schema");
    }
    let ingest = started.elapsed();
    let injected_errors = stream.injected_errors();
    let started = Instant::now();
    let report = MlnClean::new(clean_config.clone())
        .clean(&ds, &rules)
        .expect("the ladder workload cleans");
    let batch = EngineRun {
        report,
        ingest,
        outcome: started.elapsed(),
        peak_rss_kib: PeakRss::read_kib(),
    };
    drop(ds);

    // Incremental engine: micro-batch ingest, then one outcome.  The session
    // stays alive for the mutation probe on the largest rung.
    meter.reset();
    let mut session = CleaningSession::new(clean_config.clone(), schema.clone(), rules.clone())
        .expect("the workload's rules match its schema");
    let mut stream = config.stream(rows);
    let started = Instant::now();
    for batch in batched(&mut stream, config.batch_rows) {
        session.ingest_batch(batch).expect("rows match the schema");
    }
    let ingest = started.elapsed();
    let started = Instant::now();
    let report = session.outcome();
    let incremental = EngineRun {
        report,
        ingest,
        outcome: started.elapsed(),
        peak_rss_kib: PeakRss::read_kib(),
    };

    // Mutation probe before the distributed run so the probe's re-cleans do
    // not sit inside the distributed engine's RSS window, then drop the
    // session (its rows now differ from the shared stream).
    let mutation =
        is_largest.then(|| mutation_probe(&mut session, config, rows, config.samples_for(rows)));
    drop(session);

    // Distributed-streaming engine: the same batches fanned out over
    // `partitions` row stores with a periodic evidence merge.
    meter.reset();
    let mut session = DistributedStreamingSession::new(
        clean_config.clone(),
        schema.clone(),
        rules.clone(),
        config.partitions,
        config.merge_every,
    )
    .expect("the workload's rules match its schema");
    let mut stream = config.stream(rows);
    let started = Instant::now();
    for batch in batched(&mut stream, config.batch_rows) {
        session
            .apply(ChangeSet::inserting(batch))
            .expect("rows match the schema");
    }
    let ingest = started.elapsed();
    let started = Instant::now();
    let report = session.finish();
    let distributed = EngineRun {
        report,
        ingest,
        outcome: started.elapsed(),
        peak_rss_kib: PeakRss::read_kib(),
    };

    // Budgeted re-run of the incremental engine: the same stream under the
    // configured memory budget must produce a byte-identical report.  RSS is
    // read right after the outcome, *before* the identity comparison renders
    // CSVs, so the comparison's allocations never inflate the measurement.
    let budgeted = config.memory_budget.map(|budget| {
        meter.reset();
        let rss_floor_kib = PeakRss::current_kib();
        let budgeted_config = clean_config.clone().with_memory_budget(budget);
        let mut session = CleaningSession::new(budgeted_config, schema, rules)
            .expect("the workload's rules match its schema");
        let mut stream = config.stream(rows);
        for batch in batched(&mut stream, config.batch_rows) {
            session.ingest_batch(batch).expect("rows match the schema");
        }
        let report = session.outcome();
        let peak_rss_kib = PeakRss::read_kib();
        let stats = session.memory_stats();
        BudgetedRun {
            budget_kib: (budget / 1024) as u64,
            matches_unbudgeted: reports_identical(&report, &incremental.report),
            peak_rss_kib,
            rss_floor_kib,
            rss_asserted: meter.resettable && rows <= config.rss_assert_limit,
            spilled_blocks: stats.spilled_blocks,
            faulted_blocks: stats.faulted_blocks,
            evicted_fusions: stats.evicted_fusions,
            spilled_bytes: stats.spilled_bytes,
        }
    });

    // Cross-engine byte-identity, where the CSV render is affordable.
    let identity_checked = rows <= config.identity_limit;
    let (incremental_matches_batch, distributed_matches_batch) = if identity_checked {
        (
            Some(reports_identical(&incremental.report, &batch.report)),
            Some(reports_identical(&distributed.report, &batch.report)),
        )
    } else {
        (None, None)
    };

    RungPoint {
        rows,
        entities: config.entities(rows),
        batches,
        injected_errors,
        batch,
        incremental,
        distributed,
        identity_checked,
        incremental_matches_batch,
        distributed_matches_batch,
        mutation,
        budgeted,
    }
}

/// Keep mutating one cell at a time and re-asking for the outcome, recording
/// the latency distribution the incremental engine sustains at this rung and
/// the worst-case group-scoped re-clean cost of a single mutation.
fn mutation_probe(
    session: &mut CleaningSession,
    config: &LadderConfig,
    rows: usize,
    samples: usize,
) -> MutationLatency {
    let schema = config.schema();
    let attr = schema
        .attr_id(config.mutation_attr())
        .expect("the workload schema has the mutated attribute");
    let samples = samples.max(1);

    let mut latencies = Vec::with_capacity(samples);
    let mut recleaned_groups = 0u64;
    let mut rescanned_groups = 0u64;
    for i in 0..samples {
        // Spread the touched rows across the dataset; a fresh value
        // guarantees the update is a real overwrite, never a skipped no-op.
        let tuple = TupleId((i.wrapping_mul(9973) + 17) % rows.max(1));
        let value = config.mutation_value(i);
        let recleaned_before = session.recleaned_groups();
        let rescanned_before = session.rescanned_groups();
        let started = Instant::now();
        session
            .apply(ChangeSet::new().update(tuple, attr, value))
            .expect("the mutation addresses a live row");
        let _ = session.outcome();
        latencies.push(started.elapsed());
        recleaned_groups = recleaned_groups.max(session.recleaned_groups() - recleaned_before);
        rescanned_groups = rescanned_groups.max(session.rescanned_groups() - rescanned_before);
    }
    latencies.sort();

    // Nearest-rank percentiles.
    let rank = |q: f64| {
        let n = latencies.len();
        latencies[(((n as f64 * q).ceil() as usize).max(1) - 1).min(n - 1)]
    };
    MutationLatency {
        samples,
        p50: rank(0.50),
        p99: rank(0.99),
        max: *latencies.last().expect("at least one sample"),
        recleaned_groups,
        rescanned_groups,
        total_groups: session.total_groups(),
    }
}

/// Render one engine's JSON object (the value of `"batch"` etc.).
fn render_engine(rows: usize, run: &EngineRun) -> String {
    let t = &run.report.timings;
    format!(
        concat!(
            "        {{\n",
            "          \"ingest_seconds\": {ingest:.6},\n",
            "          \"ingest_rows_per_sec\": {rps:.1},\n",
            "          \"outcome_seconds\": {outcome:.6},\n",
            "          \"total_seconds\": {total:.6},\n",
            "          \"peak_rss_kib\": {rss},\n",
            "          \"merge_rounds\": {merge_rounds},\n",
            "          \"agp_bounds_computed\": {bounds_computed},\n",
            "          \"fscr_candidates_tested\": {candidates_tested},\n",
            "          \"stage_seconds\": {{\n",
            "            \"index\": {index:.6},\n",
            "            \"agp\": {agp:.6},\n",
            "            \"weight_learning\": {learning:.6},\n",
            "            \"rsc\": {rsc:.6},\n",
            "            \"fscr\": {fscr:.6},\n",
            "            \"dedup\": {dedup:.6},\n",
            "            \"partition\": {partition:.6},\n",
            "            \"weight_merge\": {weight_merge:.6},\n",
            "            \"gather\": {gather:.6}\n",
            "          }}\n",
            "        }}",
        ),
        ingest = run.ingest.as_secs_f64(),
        rps = rows as f64 / run.ingest.as_secs_f64().max(1e-9),
        outcome = run.outcome.as_secs_f64(),
        total = run.total().as_secs_f64(),
        rss = json_opt_u64(run.peak_rss_kib),
        merge_rounds = t.merge_rounds,
        bounds_computed = run.report.agp.bounds_computed,
        candidates_tested = run.report.fscr.candidates_tested,
        index = t.index.as_secs_f64(),
        agp = t.agp.as_secs_f64(),
        learning = t.weight_learning.as_secs_f64(),
        rsc = t.rsc.as_secs_f64(),
        fscr = t.fscr.as_secs_f64(),
        dedup = t.dedup.as_secs_f64(),
        partition = t.partition.as_secs_f64(),
        weight_merge = t.weight_merge.as_secs_f64(),
        gather = t.gather.as_secs_f64(),
    )
}

fn render_rung(point: &RungPoint) -> String {
    let budgeted = match &point.budgeted {
        None => "null".to_string(),
        Some(b) => format!(
            concat!(
                "{{ \"budget_kib\": {budget}, ",
                "\"matches_unbudgeted\": {matches}, ",
                "\"peak_rss_kib\": {rss}, ",
                "\"rss_floor_kib\": {floor}, ",
                "\"rss_asserted\": {asserted}, ",
                "\"spilled_blocks\": {spilled}, ",
                "\"faulted_blocks\": {faulted}, ",
                "\"evicted_fusions\": {evicted}, ",
                "\"spilled_bytes\": {bytes} }}",
            ),
            budget = b.budget_kib,
            matches = b.matches_unbudgeted,
            rss = json_opt_u64(b.peak_rss_kib),
            floor = json_opt_u64(b.rss_floor_kib),
            asserted = b.rss_asserted,
            spilled = b.spilled_blocks,
            faulted = b.faulted_blocks,
            evicted = b.evicted_fusions,
            bytes = b.spilled_bytes,
        ),
    };
    let mutation = match &point.mutation {
        None => "null".to_string(),
        Some(m) => format!(
            concat!(
                "{{ \"samples\": {samples}, \"p50_seconds\": {p50:.6}, ",
                "\"p99_seconds\": {p99:.6}, \"max_seconds\": {max:.6}, ",
                "\"recleaned_groups\": {recleaned}, \"rescanned_groups\": {rescanned}, ",
                "\"total_groups\": {total} }}",
            ),
            samples = m.samples,
            p50 = m.p50.as_secs_f64(),
            p99 = m.p99.as_secs_f64(),
            max = m.max.as_secs_f64(),
            recleaned = m.recleaned_groups,
            rescanned = m.rescanned_groups,
            total = m.total_groups,
        ),
    };
    format!(
        concat!(
            "    {{\n",
            "      \"rows\": {rows},\n",
            "      \"entities\": {entities},\n",
            "      \"batches\": {batches},\n",
            "      \"injected_errors\": {injected},\n",
            "      \"byte_identity\": {{\n",
            "        \"checked\": {checked},\n",
            "        \"incremental_matches_batch\": {inc_match},\n",
            "        \"distributed_matches_batch\": {dist_match}\n",
            "      }},\n",
            "      \"engines\": {{\n",
            "        \"batch\":\n",
            "{batch},\n",
            "        \"incremental\":\n",
            "{incremental},\n",
            "        \"distributed\":\n",
            "{distributed}\n",
            "      }},\n",
            "      \"budgeted\": {budgeted},\n",
            "      \"mutation_latency\": {mutation}\n",
            "    }}",
        ),
        rows = point.rows,
        entities = point.entities,
        batches = point.batches,
        injected = point.injected_errors,
        checked = point.identity_checked,
        inc_match = json_opt_bool(point.incremental_matches_batch),
        dist_match = json_opt_bool(point.distributed_matches_batch),
        batch = render_engine(point.rows, &point.batch),
        incremental = render_engine(point.rows, &point.incremental),
        distributed = render_engine(point.rows, &point.distributed),
        budgeted = budgeted,
        mutation = mutation,
    )
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

fn json_opt_bool(v: Option<bool>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_config() -> LadderConfig {
        LadderConfig {
            rungs: vec![300, 900],
            max_rows: 900,
            batch_rows: 128,
            identity_limit: 900,
            mutation_samples: 4,
            ..LadderConfig::default()
        }
    }

    #[test]
    fn micro_ladder_runs_and_engines_agree() {
        let files = run_config(&micro_config());
        assert_eq!(files.len(), 1);
        let (name, json) = &files[0];
        assert_eq!(name, "BENCH_ladder.json");
        // Both rungs ran and the engines stayed byte-identical.
        assert!(json.contains("\"rows\": 300"));
        assert!(json.contains("\"rows\": 900"));
        assert_eq!(json.matches("\"checked\": true").count(), 2);
        assert_eq!(
            json.matches("\"incremental_matches_batch\": true").count(),
            2
        );
        assert_eq!(
            json.matches("\"distributed_matches_batch\": true").count(),
            2
        );
        // Only the largest rung carries the mutation probe.
        assert_eq!(json.matches("\"mutation_latency\": null").count(), 1);
        assert_eq!(json.matches("\"p99_seconds\"").count(), 1);
        // The group-scoped probe: single-cell mutations re-clean a strict
        // subset of the groups.
        let (recleaned, rescanned, total) = probe_counts(json);
        assert!(
            recleaned > 0 && recleaned < total && rescanned < total,
            "mutations should re-clean some but not all groups, and re-plan \
             around fewer still (recleaned {recleaned}, rescanned {rescanned} of {total})"
        );
        // Crude structural sanity: balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// Pull `"recleaned_groups"`/`"rescanned_groups"`/`"total_groups"` out
    /// of the artifact.
    fn probe_counts(json: &str) -> (u64, u64, u64) {
        let grab = |key: &str| -> u64 {
            let at = json.find(key).unwrap_or_else(|| panic!("{key} missing"));
            json[at + key.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("the probe counters are integers")
        };
        (
            grab("\"recleaned_groups\": "),
            grab("\"rescanned_groups\": "),
            grab("\"total_groups\": "),
        )
    }

    #[test]
    fn hai_and_car_micro_ladders_run() {
        // The non-TPC-H workloads ladder the same way: own artifact, the
        // same schema, byte-identical engines, and a group-scoped mutation
        // probe on the largest rung.
        for (workload, artifact) in [
            (Workload::Hai, "BENCH_ladder_hai.json"),
            (Workload::Car, "BENCH_ladder_car.json"),
        ] {
            let config = LadderConfig {
                workload,
                rungs: vec![500],
                max_rows: 500,
                batch_rows: 128,
                identity_limit: 500,
                mutation_samples: 3,
                ..LadderConfig::default()
            };
            let files = run_config(&config);
            assert_eq!(files.len(), 1);
            let (name, json) = &files[0];
            assert_eq!(name, artifact);
            assert!(json.contains(&format!("\"workload\": \"{}\"", workload.name())));
            assert_eq!(json.matches("\"checked\": true").count(), 1, "{name}");
            assert_eq!(
                json.matches("\"incremental_matches_batch\": true").count(),
                1,
                "{name}"
            );
            assert_eq!(
                json.matches("\"distributed_matches_batch\": true").count(),
                1,
                "{name}"
            );
            let (recleaned, rescanned, total) = probe_counts(json);
            assert!(
                recleaned > 0 && recleaned < total && rescanned < total,
                "{name}: recleaned {recleaned}, rescanned {rescanned} of {total}"
            );
            assert_eq!(json.matches('{').count(), json.matches('}').count());
        }
    }

    #[test]
    fn ladder_artifact_schema_keys_are_pinned() {
        // Golden pin of the artifact's schema: `scripts/assert_bench.py` and
        // the committed baseline both rely on these exact keys, so renaming
        // any of them must be a conscious, test-visible decision.
        let config = LadderConfig {
            rungs: vec![250],
            max_rows: 250,
            batch_rows: 64,
            identity_limit: 250,
            mutation_samples: 2,
            ..LadderConfig::default()
        };
        let (_, json) = run_config(&config).pop().unwrap();
        for key in [
            "\"experiment\"",
            "\"codec_version\"",
            "\"workload\"",
            "\"max_rows\"",
            "\"batch_rows\"",
            "\"error_rate\"",
            "\"replacement_ratio\"",
            "\"seed\"",
            "\"partitions\"",
            "\"merge_every\"",
            "\"identity_limit\"",
            "\"threads\"",
            "\"rss_meter\"",
            "\"supported\"",
            "\"resettable\"",
            "\"rungs\"",
            "\"rows\"",
            "\"entities\"",
            "\"batches\"",
            "\"injected_errors\"",
            "\"byte_identity\"",
            "\"checked\"",
            "\"incremental_matches_batch\"",
            "\"distributed_matches_batch\"",
            "\"engines\"",
            "\"batch\"",
            "\"incremental\"",
            "\"distributed\"",
            "\"ingest_seconds\"",
            "\"ingest_rows_per_sec\"",
            "\"outcome_seconds\"",
            "\"total_seconds\"",
            "\"peak_rss_kib\"",
            "\"merge_rounds\"",
            "\"agp_bounds_computed\"",
            "\"fscr_candidates_tested\"",
            "\"stage_seconds\"",
            "\"index\"",
            "\"agp\"",
            "\"weight_learning\"",
            "\"rsc\"",
            "\"fscr\"",
            "\"dedup\"",
            "\"partition\"",
            "\"weight_merge\"",
            "\"gather\"",
            "\"mutation_latency\"",
            "\"samples\"",
            "\"p50_seconds\"",
            "\"p99_seconds\"",
            "\"max_seconds\"",
            "\"recleaned_groups\"",
            "\"rescanned_groups\"",
            "\"total_groups\"",
            "\"budgeted\"",
            "\"budget_kib\"",
            "\"matches_unbudgeted\"",
            "\"rss_floor_kib\"",
            "\"rss_asserted\"",
            "\"spilled_blocks\"",
            "\"faulted_blocks\"",
            "\"evicted_fusions\"",
            "\"spilled_bytes\"",
        ] {
            assert!(json.contains(key), "BENCH_ladder.json lost the {key} key");
        }
    }

    #[test]
    fn tight_budget_rung_spills_and_stays_byte_identical() {
        // A 1-byte budget forces the probe through the whole out-of-core
        // path (spill + evict) and the report must still match the
        // unbudgeted incremental run byte-for-byte.
        let config = LadderConfig {
            rungs: vec![600],
            max_rows: 600,
            batch_rows: 128,
            identity_limit: 600,
            mutation_samples: 2,
            memory_budget: Some(1),
            rss_assert_limit: 0,
            ..LadderConfig::default()
        };
        let (_, json) = run_config(&config).pop().unwrap();
        assert!(json.contains("\"matches_unbudgeted\": true"), "{json}");
        // RSS is never claimed against a 1-byte budget.
        assert!(json.contains("\"rss_asserted\": false"));
        let grab = |key: &str| -> u64 {
            let at = json.find(key).unwrap_or_else(|| panic!("{key} missing"));
            json[at + key.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("the spill counters are integers")
        };
        assert!(grab("\"spilled_blocks\": ") > 0, "{json}");
        assert!(grab("\"evicted_fusions\": ") > 0, "{json}");
        assert!(grab("\"spilled_bytes\": ") > 0, "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn budget_probe_can_be_disabled() {
        let config = LadderConfig {
            rungs: vec![250],
            max_rows: 250,
            batch_rows: 64,
            identity_limit: 250,
            mutation_samples: 2,
            memory_budget: None,
            ..LadderConfig::default()
        };
        let (_, json) = run_config(&config).pop().unwrap();
        assert!(json.contains("\"budgeted\": null"));
    }

    #[test]
    fn rungs_above_the_cap_are_skipped() {
        let config = LadderConfig {
            max_rows: 123,
            ..LadderConfig::default()
        };
        assert!(config.active_rungs().is_empty());
        let config = LadderConfig {
            max_rows: 100_000,
            ..LadderConfig::default()
        };
        assert_eq!(config.active_rungs(), vec![10_000, 100_000]);
    }
}
