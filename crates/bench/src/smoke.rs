//! CI bench-smoke: one end-to-end MLNClean run on a tiny synthetic HAI
//! workload, emitted as a machine-readable `BENCH_smoke.json`.
//!
//! This is not one of the paper's experiments — it exists so CI records a
//! small, fast perf point on every push (end-to-end wall-time plus per-stage
//! breakdown, repair quality, and since the interning refactor the
//! memory-side picture: value-pool size, distinct values per attribute, the
//! Stage-I distance-cache hit rate, `agp_bounds_computed` — the sketch
//! bounds AGP's nearest-normal searches evaluated — `fscr_candidates_tested`
//! — the substitution candidates FSCR's fusions tested — `fscr_shared_outcomes`
//! — how many FSCR outcomes share another's resolved provenance list — and
//! `pool_storages`, the distinct value-pool tables the one-shot run's input
//! and report name: one), seeding the
//! `BENCH_*.json` trajectory that later PRs can compare against.
//!
//! Since the incremental engine landed the artifact also records a
//! **streaming** section: the same tiny HAI ingested in 8 micro-batches
//! through `CleaningSession` (per-batch wall-time, dirty-block counts, and a
//! byte-identity check against the one-shot run), plus an incremental
//! re-clean probe on CAR whose tail batch leaves the CFD block untouched —
//! dirty blocks < total blocks — measured against a full batch re-run.

use crate::common::{rayon_threads, reports_identical, Scale, Workload};
use dataset::{csv, RepairEvaluation};
use distributed::DistributedStreamingSession;
use mlnclean::{CacheStats, ChangeSet, CleaningSession, MlnClean, SessionSnapshot};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{wire_session, FaultSchedule, WorkerCrash, CODEC_VERSION};

/// Run the smoke workload and return the JSON artifact as `(file name,
/// contents)` pairs, like every other experiment.
pub fn run(scale: Scale) -> Vec<(String, String)> {
    let workload = Workload::Hai;
    let error_rate = 0.05;
    let replacement_ratio = 0.5;
    let seed = 1;

    let dirty = workload.dirty(scale, error_rate, replacement_ratio, seed);
    let rules = workload.rules();
    let cleaner = MlnClean::new(workload.clean_config());

    let started = Instant::now();
    let outcome = cleaner
        .clean(&dirty.dirty, &rules)
        .expect("smoke workload cleans");
    let wall = started.elapsed();

    let report = RepairEvaluation::evaluate(&dirty, &outcome.repaired);
    let timings = outcome.timings;

    // Memory-side statistics of the interned representation: the pool holds
    // every distinct value once, so pool size vs. cell count is exactly the
    // deduplication factor the columnar layout buys.
    let ds = &dirty.dirty;
    let pool_values = ds.pool().len();
    let pool_bytes = ds.pool().string_bytes();
    let distinct_per_attr: String = ds
        .schema()
        .attr_ids()
        .map(|a| {
            format!(
                "    \"{}\": {}",
                ds.schema().attr_name(a),
                ds.distinct_count(a)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // Stage-I distance-cache effectiveness (AGP + RSC combined).
    let mut cache = CacheStats::default();
    cache.absorb(outcome.agp.cache);
    cache.absorb(outcome.rsc.cache);

    // Outcomes of the one-shot report that restate nothing: every tuple of
    // one version vector shares one resolved `fused` list, so this is the
    // outcomes minus the distinct lists — exact at the fixed seed.
    let outcomes = &outcome.fscr.outcomes;
    let lists: HashSet<_> = outcomes.iter().map(|o| Arc::as_ptr(&o.fused)).collect();
    let shared_outcomes = outcomes.len() - lists.len();

    // Distinct id → string tables among the one-shot run's input, repaired
    // rows, deduplicated rows and cleaned index: one, while a pool clone is
    // a reference bump and an index snapshot adopts the dataset's table.
    let handles = [
        ds.pool(),
        outcome.repaired.pool(),
        outcome.deduplicated().pool(),
        outcome.index().pool(),
    ];
    let pool_storages = (0..handles.len())
        .filter(|&i| {
            !handles[..i]
                .iter()
                .any(|seen| seen.shares_storage_with(handles[i]))
        })
        .count();

    // Streaming scenarios: the same HAI workload ingested in 8 micro-batches,
    // the CAR incremental re-clean probe (dirty blocks < total blocks), and
    // the typed-mutation probe (delete + re-update a CAR tail).
    let stream = run_hai_stream(&dirty.dirty, &workload, &outcome, wall);
    let reclean = run_incremental_reclean(scale);
    let mutation = run_mutation_probe(scale);
    let distributed = run_distributed_stream(scale);
    let suspend = run_suspend_resume(scale);
    let wire = run_wire_probe(scale);
    let streaming = render_streaming(&stream, &reclean, &mutation, &distributed, &suspend, &wire);

    let (product_lines, product_lines_non_test) = match product_lines() {
        Some((all, non_test)) => (all.to_string(), non_test.to_string()),
        None => ("null".to_string(), "null".to_string()),
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"smoke\",\n",
            "  \"codec_version\": {codec_version},\n",
            "  \"product_lines\": {product_lines},\n",
            "  \"product_lines_non_test\": {product_lines_non_test},\n",
            "  \"workload\": \"{workload}\",\n",
            "  \"scale\": \"{scale:?}\",\n",
            "  \"rows\": {rows},\n",
            "  \"rules\": {rules},\n",
            "  \"error_rate\": {error_rate},\n",
            "  \"injected_errors\": {injected},\n",
            "  \"threads\": {threads},\n",
            "  \"end_to_end_seconds\": {wall:.6},\n",
            "  \"stage_seconds\": {{\n",
            "    \"index\": {index:.6},\n",
            "    \"agp\": {agp:.6},\n",
            "    \"weight_learning\": {learning:.6},\n",
            "    \"rsc\": {rsc:.6},\n",
            "    \"fscr\": {fscr:.6},\n",
            "    \"dedup\": {dedup:.6}\n",
            "  }},\n",
            "  \"memory\": {{\n",
            "    \"cells\": {cells},\n",
            "    \"pool_distinct_values\": {pool_values},\n",
            "    \"pool_string_bytes\": {pool_bytes},\n",
            "    \"distinct_per_attribute\": {{\n",
            "{distinct_per_attr}\n",
            "    }}\n",
            "  }},\n",
            "  \"distance_cache\": {{\n",
            "    \"hits\": {cache_hits},\n",
            "    \"misses\": {cache_misses},\n",
            "    \"hit_rate\": {cache_hit_rate:.6}\n",
            "  }},\n",
            "  \"agp_bounds_computed\": {bounds_computed},\n",
            "  \"fscr_candidates_tested\": {candidates_tested},\n",
            "  \"fscr_shared_outcomes\": {shared_outcomes},\n",
            "  \"pool_storages\": {pool_storages},\n",
            "  \"precision\": {precision:.6},\n",
            "  \"recall\": {recall:.6},\n",
            "  \"f1\": {f1:.6},\n",
            "  \"streaming\": {streaming}\n",
            "}}\n",
        ),
        codec_version = CODEC_VERSION,
        product_lines = product_lines,
        product_lines_non_test = product_lines_non_test,
        workload = workload.name(),
        scale = scale,
        rows = dirty.dirty.len(),
        rules = rules.len(),
        error_rate = error_rate,
        injected = dirty.error_count(),
        threads = rayon_threads(),
        wall = wall.as_secs_f64(),
        index = timings.index.as_secs_f64(),
        agp = timings.agp.as_secs_f64(),
        learning = timings.weight_learning.as_secs_f64(),
        rsc = timings.rsc.as_secs_f64(),
        fscr = timings.fscr.as_secs_f64(),
        dedup = timings.dedup.as_secs_f64(),
        cells = ds.cell_count(),
        pool_values = pool_values,
        pool_bytes = pool_bytes,
        distinct_per_attr = distinct_per_attr,
        cache_hits = cache.hits,
        cache_misses = cache.misses,
        cache_hit_rate = cache.hit_rate(),
        bounds_computed = outcome.agp.bounds_computed,
        candidates_tested = outcome.fscr.candidates_tested,
        shared_outcomes = shared_outcomes,
        pool_storages = pool_storages,
        precision = report.precision(),
        recall = report.recall(),
        f1 = report.f1(),
        streaming = streaming,
    );

    println!(
        "smoke: {} rows cleaned in {:.3}s (F1 {:.3})",
        dirty.dirty.len(),
        wall.as_secs_f64(),
        report.f1()
    );

    vec![("BENCH_smoke.json".to_string(), json)]
}

/// Lines of `*.rs` under `crates/*/src` of the checkout this binary was
/// built from, counted now — the size trend of the product tree — as `(all,
/// non-test)`: a file's non-test lines are those above its first column-0
/// `#[cfg(test)]`.  `None` when the sources are no longer beside the binary.
fn product_lines() -> Option<(usize, usize)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    let mut lines = (0, 0);
    for entry in std::fs::read_dir(crates).ok()? {
        let src = entry.ok()?.path().join("src");
        if src.is_dir() {
            rust_lines(&src, &mut lines)?;
        }
    }
    Some(lines)
}

/// Add the lines of every `*.rs` file under `dir`, recursively, to `lines`.
fn rust_lines(dir: &Path, lines: &mut (usize, usize)) -> Option<()> {
    for entry in std::fs::read_dir(dir).ok()? {
        let path = entry.ok()?.path();
        if path.is_dir() {
            rust_lines(&path, lines)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).ok()?;
            let all = text.lines().count();
            lines.0 += all;
            lines.1 += text
                .lines()
                .position(|line| line.starts_with("#[cfg(test)]"))
                .unwrap_or(all);
        }
    }
    Some(())
}

/// One micro-batch's measurements in the streaming scenario.
struct BatchPoint {
    rows: usize,
    wall: Duration,
    dirty_blocks: usize,
    total_blocks: usize,
    touched_groups: usize,
    total_groups: usize,
}

/// The HAI micro-batch stream: per-batch wall-time and dirtiness, plus
/// byte-identity of the final incremental result with the one-shot run.
struct StreamProbe {
    per_batch: Vec<BatchPoint>,
    stream_total: Duration,
    one_shot: Duration,
    final_matches_one_shot: bool,
}

/// Ingest the smoke HAI workload in 8 micro-batches, re-cleaning after every
/// batch (`CleaningSession::outcome`), and compare the final result with the
/// already-measured one-shot outcome.
fn run_hai_stream(
    dirty: &dataset::Dataset,
    workload: &Workload,
    one_shot: &mlnclean::Report,
    one_shot_wall: Duration,
) -> StreamProbe {
    let rules = workload.rules();
    let mut session = CleaningSession::new(workload.clean_config(), dirty.schema().clone(), rules)
        .expect("the smoke rules match the smoke schema");

    let mut per_batch = Vec::new();
    let mut last = None;
    let stream_started = Instant::now();
    for batch in datagen::row_batches(dirty, 8) {
        let started = Instant::now();
        let report = session.ingest_batch(batch).expect("rows match the schema");
        let outcome = session.outcome();
        per_batch.push(BatchPoint {
            rows: report.rows,
            wall: started.elapsed(),
            dirty_blocks: report.dirty_blocks,
            total_blocks: report.total_blocks,
            touched_groups: report.touched_groups,
            total_groups: report.total_groups,
        });
        last = Some(outcome);
    }
    let stream_total = stream_started.elapsed();

    let final_matches_one_shot = last.is_some_and(|outcome| {
        csv::to_csv(&outcome.repaired) == csv::to_csv(&one_shot.repaired)
            && csv::to_csv(outcome.deduplicated()) == csv::to_csv(one_shot.deduplicated())
    });
    StreamProbe {
        per_batch,
        stream_total,
        one_shot: one_shot_wall,
        final_matches_one_shot,
    }
}

/// The incremental re-clean probe: after a bulk ingest + clean of the CAR
/// workload, a small tail batch of non-acura rows arrives.  The CFD block
/// (`Make="acura"`) stays clean — dirty blocks < total blocks — and the
/// incremental re-clean is measured against a full batch re-run over the
/// same accumulated data (which it must match byte for byte).
struct RecleanProbe {
    head_rows: usize,
    tail_rows: usize,
    dirty_blocks: usize,
    total_blocks: usize,
    incremental: Duration,
    full: Duration,
    matches_full: bool,
}

fn run_incremental_reclean(scale: Scale) -> RecleanProbe {
    let workload = Workload::Car;
    let dirty = workload.dirty(scale, 0.05, 0.5, 1).dirty;
    let rules = workload.rules();
    let config = workload.clean_config();

    // Order-preserving split: the tail is the last few non-acura rows (they
    // are irrelevant to the CFD, so its block must stay clean).
    let (head, tail) = datagen::CarGenerator::non_acura_tail_split(&dirty, 16);

    let tail_rows: Vec<Vec<String>> = tail
        .iter()
        .map(|&t| dirty.tuple(t).owned_values())
        .collect();

    // Three repetitions, best (minimum) wall-time of each side — single
    // runs of a few milliseconds are too noisy for a stable speedup.
    let mut incremental = Duration::MAX;
    let mut full = Duration::MAX;
    let mut dirty_blocks = 0;
    let mut total_blocks = 0;
    let mut matches_full = true;
    for _ in 0..3 {
        let mut session =
            CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone())
                .expect("the CAR rules match the CAR schema");
        session
            .ingest_dataset(&dirty.project_rows(&head))
            .expect("same schema");
        let _ = session.outcome();

        // The measured incremental re-clean: tail ingest + re-clean (the
        // batch copy is prepared before the timer starts, mirroring the full
        // re-run whose inputs are also ready-made).
        let batch = tail_rows.clone();
        let started = Instant::now();
        let report = session.ingest_batch(batch).expect("rows match the schema");
        let incremental_outcome = session.outcome();
        incremental = incremental.min(started.elapsed());
        dirty_blocks = report.dirty_blocks;
        total_blocks = report.total_blocks;

        // The full batch re-run over the same accumulated rows.
        let started = Instant::now();
        let full_outcome = MlnClean::new(config.clone())
            .clean(session.dataset(), &rules)
            .expect("the CAR workload cleans");
        full = full.min(started.elapsed());
        matches_full &=
            csv::to_csv(&incremental_outcome.repaired) == csv::to_csv(&full_outcome.repaired);
    }

    RecleanProbe {
        head_rows: head.len(),
        tail_rows: tail.len(),
        dirty_blocks,
        total_blocks,
        incremental,
        full,
        matches_full,
    }
}

/// The typed-mutation probe: after a bulk ingest + clean of the CAR
/// workload, a change set deletes a few non-acura tail rows and re-updates a
/// few cells of others.  The CFD block (`Make="acura"`) stays clean — dirty
/// blocks < total blocks — and the incremental re-clean is measured against
/// a full batch re-run over the net surviving rows (which it must match byte
/// for byte).
struct MutationProbe {
    rows: usize,
    deleted_rows: usize,
    updated_cells: usize,
    dirty_blocks: usize,
    total_blocks: usize,
    incremental: Duration,
    full: Duration,
    matches_full: bool,
}

fn run_mutation_probe(scale: Scale) -> MutationProbe {
    use dataset::TupleId;
    use mlnclean::ChangeSet;

    let workload = Workload::Car;
    let dirty = workload.dirty(scale, 0.05, 0.5, 1).dirty;
    let rules = workload.rules();
    let config = workload.clean_config();

    // Put the non-acura rows at the tail so the mutations below address them
    // with stable ids; the CFD block must stay clean throughout.
    let (head, tail) = datagen::CarGenerator::non_acura_tail_split(&dirty, 12);
    let ordered: Vec<TupleId> = head.iter().chain(tail.iter()).copied().collect();
    let feed = dirty.project_rows(&ordered);
    let model_attr = dirty.schema().attr_id("Model").unwrap();

    // The change set: delete the last 4 rows, re-update the Model cell of
    // the 4 before them to a value guaranteed to differ (so every update is
    // a real overwrite, not a no-op the session skips).  The first non-acura
    // row sits at index head.len() in the reordered feed (`tail` ids are in
    // the pre-reorder numbering).
    let total = feed.len();
    let donor = feed.value(TupleId(head.len()), model_attr).to_string();
    let mut changes = ChangeSet::new();
    let mut deletes = 0usize;
    for _ in 0..4.min(tail.len()) {
        changes = changes.delete(TupleId(total - 1 - deletes));
        deletes += 1;
    }
    let survivors = total - deletes;
    for i in 0..4.min(survivors) {
        let t = TupleId(survivors - 1 - i);
        // Deletes only shear off rows above `t`, so `feed` still holds t's
        // current value.
        let v = if feed.value(t, model_attr) == donor {
            format!("{donor}-corrected")
        } else {
            donor.clone()
        };
        changes = changes.update(t, model_attr, v);
    }

    // Three repetitions, best (minimum) wall-time of each side.
    let mut incremental = Duration::MAX;
    let mut full = Duration::MAX;
    let mut deleted_rows = 0;
    let mut updated_cells = 0;
    let mut dirty_blocks = 0;
    let mut total_blocks = 0;
    let mut matches_full = true;
    for _ in 0..3 {
        let mut session =
            CleaningSession::new(config.clone(), feed.schema().clone(), rules.clone())
                .expect("the CAR rules match the CAR schema");
        session.ingest_dataset(&feed).expect("same schema");
        let _ = session.outcome();

        let batch = changes.clone();
        let started = Instant::now();
        let report = session.apply(batch).expect("mutations are in bounds");
        let incremental_outcome = session.outcome();
        incremental = incremental.min(started.elapsed());
        deleted_rows = report.deleted_rows;
        updated_cells = report.updated_cells;
        dirty_blocks = report.dirty_blocks;
        total_blocks = report.total_blocks;

        // The full batch re-run over the net surviving rows.
        let started = Instant::now();
        let full_outcome = MlnClean::new(config.clone())
            .clean(session.dataset(), &rules)
            .expect("the CAR workload cleans");
        full = full.min(started.elapsed());
        matches_full &=
            csv::to_csv(&incremental_outcome.repaired) == csv::to_csv(&full_outcome.repaired);
    }

    MutationProbe {
        rows: total,
        deleted_rows,
        updated_cells,
        dirty_blocks,
        total_blocks,
        incremental,
        full,
        matches_full,
    }
}

/// The distributed-streaming probe: the same tiny HAI workload ingested in
/// 8 micro-batches through a 2-partition `DistributedStreamingSession`
/// (merge cadence 1) **and** a single `CleaningSession`, asserting
/// byte-identity of the repaired CSV and the full AGP/RSC/FSCR provenance,
/// and reporting the per-round cross-partition merge cost.
struct DistributedStreamProbe {
    partitions: usize,
    merge_every: usize,
    batches: usize,
    merge_rounds: usize,
    gather: Duration,
    shared_gammas: usize,
    partition_sizes: Vec<usize>,
    matches_single_session: bool,
}

fn run_distributed_stream(scale: Scale) -> DistributedStreamProbe {
    let workload = Workload::Hai;
    let dirty = workload.dirty(scale, 0.05, 0.5, 1).dirty;
    let rules = workload.rules();
    let config = workload.clean_config();
    let (partitions, merge_every) = (2usize, 1usize);

    let mut single = CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone())
        .expect("the smoke rules match the smoke schema");
    let mut streamed = DistributedStreamingSession::new(
        config,
        dirty.schema().clone(),
        rules,
        partitions,
        merge_every,
    )
    .expect("the smoke rules match the smoke schema");

    let mut batches = 0usize;
    for batch in datagen::row_batches(&dirty, 8) {
        single
            .apply(ChangeSet::inserting(batch.clone()))
            .expect("rows match the schema");
        streamed
            .apply(ChangeSet::inserting(batch))
            .expect("rows match the schema");
        batches += 1;
    }
    let partition_sizes = streamed.partition_sizes();
    let streamed = streamed.finish();
    let single = single.finish();

    DistributedStreamProbe {
        partitions,
        merge_every,
        batches,
        merge_rounds: streamed.timings.merge_rounds,
        gather: streamed.timings.gather,
        shared_gammas: streamed
            .partitions
            .as_ref()
            .map(|p| p.shared_gammas)
            .unwrap_or(0),
        partition_sizes,
        matches_single_session: reports_identical(&streamed, &single),
    }
}

/// The suspend/resume probe: the same HAI micro-batch stream, but the
/// session is suspended halfway — its compacting `SessionSnapshot` encoded
/// through the wire codec, the live session dropped, and a fresh session
/// resumed from the decoded frame — then the stream finishes.  The resumed
/// session's final outcome must be byte-identical to an uninterrupted run
/// over the same batches.
struct SuspendResumeProbe {
    batches: usize,
    suspended_at_batch: usize,
    snapshot_bytes: usize,
    matches_uninterrupted: bool,
}

fn run_suspend_resume(scale: Scale) -> SuspendResumeProbe {
    let workload = Workload::Hai;
    let dirty = workload.dirty(scale, 0.05, 0.5, 1).dirty;
    let rules = workload.rules();
    let config = workload.clean_config();

    let mut uninterrupted =
        CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone())
            .expect("the smoke rules match the smoke schema");
    let mut session = Some(
        CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone())
            .expect("the smoke rules match the smoke schema"),
    );

    let batches: Vec<Vec<Vec<String>>> = datagen::row_batches(&dirty, 8);
    let suspend_after = batches.len() / 2;
    let mut suspended_at_batch = 0usize;
    let mut snapshot_bytes = 0usize;
    for (i, batch) in batches.iter().enumerate() {
        uninterrupted
            .ingest_batch(batch.clone())
            .expect("rows match the schema");
        session
            .as_mut()
            .expect("session is live between suspends")
            .ingest_batch(batch.clone())
            .expect("rows match the schema");
        if i + 1 == suspend_after {
            // Suspend: snapshot → codec frame → drop the live session →
            // decode → resume, exactly what a worker checkpoint does.
            let live = session.take().expect("session is live");
            suspended_at_batch = live.batches();
            let frame = transport::to_bytes(&live.snapshot()).expect("session snapshots encode");
            snapshot_bytes = frame.len();
            drop(live);
            let snapshot: SessionSnapshot =
                transport::from_bytes(&frame).expect("snapshot frames decode");
            session = Some(
                CleaningSession::resume(config.clone(), rules.clone(), snapshot)
                    .expect("a snapshot that was taken resumes"),
            );
        }
    }
    let resumed = session.expect("session is live").finish();
    let reference = uninterrupted.finish();

    SuspendResumeProbe {
        batches: batches.len(),
        suspended_at_batch,
        snapshot_bytes,
        matches_uninterrupted: reports_identical(&resumed, &reference),
    }
}

/// The simulated-transport probe: the same HAI micro-batch stream driven
/// through a wire-backed session — every coordinator/worker exchange crosses
/// the binary codec and a hostile seeded network (delay, reordering,
/// duplication, loss, plus one scheduled worker crash recovered by
/// change-log replay) — asserting byte-identity with a single in-process
/// session and recording the transport tallies.
struct WireProbe {
    partitions: usize,
    merge_every: usize,
    batches: usize,
    counters: transport::NetCounters,
    restarts: usize,
    matches_single_session: bool,
}

fn run_wire_probe(scale: Scale) -> WireProbe {
    let workload = Workload::Hai;
    let dirty = workload.dirty(scale, 0.05, 0.5, 1).dirty;
    let rules = workload.rules();
    let config = workload.clean_config();
    let (partitions, merge_every) = (2usize, 1usize);

    let schedule = FaultSchedule {
        seed: 42,
        delay: (0, 4),
        reorder: 0.2,
        duplicate: 0.2,
        loss: 0.15,
        crashes: vec![WorkerCrash { at: 3, worker: 0 }],
        ..FaultSchedule::reliable()
    };

    let mut single = CleaningSession::new(config.clone(), dirty.schema().clone(), rules.clone())
        .expect("the smoke rules match the smoke schema");
    let mut wired = wire_session(
        config,
        dirty.schema().clone(),
        rules,
        partitions,
        merge_every,
        schedule,
    )
    .expect("the smoke rules match the smoke schema");

    let mut batches = 0usize;
    for batch in datagen::row_batches(&dirty, 8) {
        single
            .apply(ChangeSet::inserting(batch.clone()))
            .expect("rows match the schema");
        wired
            .apply(ChangeSet::inserting(batch))
            .expect("rows match the schema");
        batches += 1;
    }
    let counters = wired.backend_mut().counters();
    let restarts = wired.backend_mut().total_restarts();
    let wired = wired.finish();
    let single = single.finish();

    WireProbe {
        partitions,
        merge_every,
        batches,
        counters,
        restarts,
        matches_single_session: reports_identical(&wired, &single),
    }
}

/// Render the streaming section of `BENCH_smoke.json` (the value of the
/// `"streaming"` key, indented to nest under the top-level object).
fn render_streaming(
    stream: &StreamProbe,
    reclean: &RecleanProbe,
    mutation: &MutationProbe,
    distributed: &DistributedStreamProbe,
    suspend: &SuspendResumeProbe,
    wire: &WireProbe,
) -> String {
    let per_batch: String = stream
        .per_batch
        .iter()
        .map(|p| {
            format!(
                "      {{ \"rows\": {}, \"wall_seconds\": {:.6}, \"dirty_blocks\": {}, \
                 \"total_blocks\": {}, \"touched_groups\": {}, \"total_groups\": {} }}",
                p.rows,
                p.wall.as_secs_f64(),
                p.dirty_blocks,
                p.total_blocks,
                p.touched_groups,
                p.total_groups,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    // Clamp the denominator so the ratio stays finite (bare `inf` would make
    // the JSON unparseable) even on a coarse monotonic clock.
    let speedup = reclean.full.as_secs_f64() / reclean.incremental.as_secs_f64().max(1e-9);
    let mutation_speedup =
        mutation.full.as_secs_f64() / mutation.incremental.as_secs_f64().max(1e-9);
    format!(
        concat!(
            "{{\n",
            "    \"hai_stream\": {{\n",
            "      \"batches\": {batches},\n",
            "      \"stream_total_seconds\": {stream_total:.6},\n",
            "      \"one_shot_seconds\": {one_shot:.6},\n",
            "      \"final_matches_one_shot\": {matches},\n",
            "      \"per_batch\": [\n",
            "{per_batch}\n",
            "      ]\n",
            "    }},\n",
            "    \"incremental_reclean\": {{\n",
            "      \"workload\": \"CAR\",\n",
            "      \"head_rows\": {head_rows},\n",
            "      \"tail_rows\": {tail_rows},\n",
            "      \"dirty_blocks\": {dirty_blocks},\n",
            "      \"total_blocks\": {total_blocks},\n",
            "      \"incremental_seconds\": {incremental:.6},\n",
            "      \"full_reclean_seconds\": {full:.6},\n",
            "      \"speedup\": {speedup:.3},\n",
            "      \"matches_full_reclean\": {matches_full}\n",
            "    }},\n",
            "    \"mutation\": {{\n",
            "      \"workload\": \"CAR\",\n",
            "      \"rows\": {mutation_rows},\n",
            "      \"deleted_rows\": {mutation_deleted},\n",
            "      \"updated_cells\": {mutation_updated},\n",
            "      \"dirty_blocks\": {mutation_dirty},\n",
            "      \"total_blocks\": {mutation_total},\n",
            "      \"incremental_seconds\": {mutation_incremental:.6},\n",
            "      \"full_reclean_seconds\": {mutation_full:.6},\n",
            "      \"speedup\": {mutation_speedup:.3},\n",
            "      \"matches_full_reclean\": {mutation_matches}\n",
            "    }},\n",
            "    \"distributed_stream\": {{\n",
            "      \"workload\": \"HAI\",\n",
            "      \"partitions\": {ds_partitions},\n",
            "      \"merge_every\": {ds_merge_every},\n",
            "      \"batches\": {ds_batches},\n",
            "      \"merge_rounds\": {ds_rounds},\n",
            "      \"gather_seconds\": {ds_gather:.6},\n",
            "      \"per_round_merge_seconds\": {ds_per_round:.6},\n",
            "      \"shared_gammas\": {ds_shared},\n",
            "      \"partition_sizes\": {ds_sizes:?},\n",
            "      \"matches_single_session\": {ds_matches}\n",
            "    }},\n",
            "    \"suspend_resume\": {{\n",
            "      \"workload\": \"HAI\",\n",
            "      \"batches\": {sr_batches},\n",
            "      \"suspended_at_batch\": {sr_at},\n",
            "      \"snapshot_bytes\": {sr_bytes},\n",
            "      \"matches_uninterrupted\": {sr_matches}\n",
            "    }},\n",
            "    \"simulated_transport\": {{\n",
            "      \"workload\": \"HAI\",\n",
            "      \"partitions\": {w_partitions},\n",
            "      \"merge_every\": {w_merge_every},\n",
            "      \"batches\": {w_batches},\n",
            "      \"messages_sent\": {w_sent},\n",
            "      \"messages_delivered\": {w_delivered},\n",
            "      \"messages_dropped\": {w_dropped},\n",
            "      \"messages_duplicated\": {w_duplicated},\n",
            "      \"retransmits\": {w_retransmits},\n",
            "      \"bytes_sent\": {w_bytes},\n",
            "      \"worker_restarts\": {w_restarts},\n",
            "      \"matches_single_session\": {w_matches}\n",
            "    }}\n",
            "  }}",
        ),
        batches = stream.per_batch.len(),
        stream_total = stream.stream_total.as_secs_f64(),
        one_shot = stream.one_shot.as_secs_f64(),
        matches = stream.final_matches_one_shot,
        per_batch = per_batch,
        head_rows = reclean.head_rows,
        tail_rows = reclean.tail_rows,
        dirty_blocks = reclean.dirty_blocks,
        total_blocks = reclean.total_blocks,
        incremental = reclean.incremental.as_secs_f64(),
        full = reclean.full.as_secs_f64(),
        speedup = speedup,
        matches_full = reclean.matches_full,
        mutation_rows = mutation.rows,
        mutation_deleted = mutation.deleted_rows,
        mutation_updated = mutation.updated_cells,
        mutation_dirty = mutation.dirty_blocks,
        mutation_total = mutation.total_blocks,
        mutation_incremental = mutation.incremental.as_secs_f64(),
        mutation_full = mutation.full.as_secs_f64(),
        mutation_speedup = mutation_speedup,
        mutation_matches = mutation.matches_full,
        ds_partitions = distributed.partitions,
        ds_merge_every = distributed.merge_every,
        ds_batches = distributed.batches,
        ds_rounds = distributed.merge_rounds,
        ds_gather = distributed.gather.as_secs_f64(),
        ds_per_round = distributed.gather.as_secs_f64() / distributed.merge_rounds.max(1) as f64,
        ds_shared = distributed.shared_gammas,
        ds_sizes = distributed.partition_sizes,
        ds_matches = distributed.matches_single_session,
        sr_batches = suspend.batches,
        sr_at = suspend.suspended_at_batch,
        sr_bytes = suspend.snapshot_bytes,
        sr_matches = suspend.matches_uninterrupted,
        w_partitions = wire.partitions,
        w_merge_every = wire.merge_every,
        w_batches = wire.batches,
        w_sent = wire.counters.sent,
        w_delivered = wire.counters.delivered,
        w_dropped = wire.counters.dropped,
        w_duplicated = wire.counters.duplicated,
        w_retransmits = wire.counters.retransmits,
        w_bytes = wire.counters.bytes_sent,
        w_restarts = wire.restarts,
        w_matches = wire.matches_single_session,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_emits_wall_time_json() {
        let files = run(Scale::Tiny);
        assert_eq!(files.len(), 1);
        let (name, json) = &files[0];
        assert_eq!(name, "BENCH_smoke.json");
        assert!(json.contains("\"end_to_end_seconds\""));
        assert!(json.contains("\"f1\""));
        // Memory-side stats of the interned representation.
        assert!(json.contains("\"pool_distinct_values\""));
        assert!(json.contains("\"distinct_per_attribute\""));
        assert!(json.contains("\"hit_rate\""));
        // The dedup stage is timed separately from FSCR now.
        assert!(json.contains("\"dedup\""));
        // Tiny HAI's tuples share version vectors, hence provenance lists.
        assert!(json.contains("\"fscr_shared_outcomes\": "));
        assert!(!json.contains("\"fscr_shared_outcomes\": 0,"));
        // AGP's filter cost, a count the smoke ratchets.
        assert!(json.contains("\"agp_bounds_computed\": "));
        // FSCR's substitution cost, another ratcheted count.
        assert!(json.contains("\"fscr_candidates_tested\": "));
        // One value pool a run, shared by everything that names it.
        assert!(json.contains("\"pool_storages\": 1,"));
        // The streaming section: per-batch points and the incremental
        // re-clean probe, both byte-identical to their batch counterparts.
        assert!(json.contains("\"streaming\""));
        assert!(json.contains("\"hai_stream\""));
        assert!(json.contains("\"incremental_reclean\""));
        assert!(json.contains("\"mutation\""));
        assert!(json.contains("\"deleted_rows\""));
        assert!(json.contains("\"updated_cells\""));
        assert!(json.contains("\"final_matches_one_shot\": true"));
        assert!(json.contains("\"matches_full_reclean\": true"));
        assert!(!json.contains("\"matches_full_reclean\": false"));
        // The distributed-streaming probe: per-round merge accounting and
        // byte-identity with the single-session stream.
        assert!(json.contains("\"distributed_stream\""));
        assert!(json.contains("\"per_round_merge_seconds\""));
        assert!(json.contains("\"matches_single_session\": true"));
        assert!(!json.contains("\"matches_single_session\": false"));
        // The suspend/resume probe: snapshot → codec → resume, identical.
        assert!(json.contains("\"suspend_resume\""));
        assert!(json.contains("\"suspended_at_batch\""));
        assert!(json.contains("\"snapshot_bytes\""));
        assert!(json.contains("\"matches_uninterrupted\": true"));
        // The product-tree size: the tests run from the checkout, so it is
        // a number here, and this file alone is hundreds of lines of it.
        let (lines, non_test) = product_lines().expect("the sources are beside the test binary");
        assert!(1000 < non_test && non_test < lines, "{non_test} of {lines}");
        assert!(json.contains(&format!("\"product_lines\": {lines},")));
        assert!(json.contains(&format!("\"product_lines_non_test\": {non_test},")));
        // The simulated-transport probe and the codec-versioned header.
        assert!(json.contains(&format!("\"codec_version\": {CODEC_VERSION}")));
        assert!(json.contains("\"simulated_transport\""));
        assert!(json.contains("\"messages_sent\""));
        assert!(json.contains("\"worker_restarts\""));
        // Crude structural sanity: balanced braces, no trailing comma issues.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn incremental_reclean_skips_the_untouched_cfd_block() {
        let probe = run_incremental_reclean(Scale::Tiny);
        assert!(probe.tail_rows > 0);
        assert!(
            probe.dirty_blocks < probe.total_blocks,
            "the non-acura tail must leave the CFD block clean \
             ({}/{} dirty)",
            probe.dirty_blocks,
            probe.total_blocks
        );
        assert!(
            probe.matches_full,
            "incremental re-clean must match the batch re-run"
        );
    }

    #[test]
    fn distributed_stream_probe_matches_the_single_session() {
        let probe = run_distributed_stream(Scale::Tiny);
        assert_eq!(probe.partitions, 2);
        assert_eq!(probe.batches, 8);
        assert!(
            probe.merge_rounds >= 1 && probe.merge_rounds <= probe.batches,
            "cadence 1 merges at most once per batch: {}",
            probe.merge_rounds
        );
        assert_eq!(probe.partition_sizes.len(), 2);
        assert!(
            probe.matches_single_session,
            "distributed streaming must match the single-session stream byte for byte"
        );
    }

    #[test]
    fn wire_probe_survives_the_hostile_schedule_byte_identically() {
        let probe = run_wire_probe(Scale::Tiny);
        assert_eq!(probe.partitions, 2);
        assert_eq!(probe.batches, 8);
        let c = probe.counters;
        assert_eq!(
            c.sent - c.dropped + c.duplicated,
            c.delivered,
            "every non-dropped copy must land: {c:?}"
        );
        assert!(c.dropped > 0, "the hostile schedule never dropped");
        assert!(c.retransmits > 0, "loss never forced a retransmit");
        assert!(
            probe.restarts >= 1,
            "the scheduled crash never fired ({} restarts)",
            probe.restarts
        );
        assert!(
            probe.matches_single_session,
            "wire session must match the single session byte for byte"
        );
    }

    #[test]
    fn suspend_resume_probe_round_trips_byte_identically() {
        let probe = run_suspend_resume(Scale::Tiny);
        assert_eq!(probe.batches, 8);
        assert!(probe.suspended_at_batch > 0);
        assert!(probe.snapshot_bytes > 0);
        assert!(
            probe.matches_uninterrupted,
            "the resumed session must match the uninterrupted run byte for byte"
        );
    }

    #[test]
    fn mutation_probe_skips_the_untouched_cfd_block() {
        let probe = run_mutation_probe(Scale::Tiny);
        assert!(probe.deleted_rows > 0 && probe.updated_cells > 0);
        assert!(
            probe.dirty_blocks < probe.total_blocks,
            "non-acura deletes/updates must leave the CFD block clean \
             ({}/{} dirty)",
            probe.dirty_blocks,
            probe.total_blocks
        );
        assert!(
            probe.matches_full,
            "mutated session must match a batch clean of the net rows"
        );
    }
}
