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
//! — how many FSCR outcomes share another's `fused` assignment list — and
//! `pool_storages`, the distinct value-pool tables the one-shot run's input
//! and report name: one), seeding the
//! `BENCH_*.json` trajectory that later PRs can compare against.
//! `scripts/assert_bench.py smoke` ratchets its exact counts against the
//! committed artifact.  Byte identity across engines is not the smoke's job:
//! the engine matrix, `tests/kit/engine_matrix.rs`, pins it.

use crate::common::{rayon_threads, Scale, Workload};
use crate::json::Json;
use dataset::RepairEvaluation;
use mlnclean::{CacheStats, MlnClean};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use transport::CODEC_VERSION;

/// Run the smoke workload and return the JSON artifact as `(file name,
/// contents)` pairs, like every other experiment.
pub fn run(scale: Scale) -> Vec<(String, String)> {
    vec![("BENCH_smoke.json".to_string(), artifact(scale).to_pretty())]
}

/// The smoke artifact's value.
fn artifact(scale: Scale) -> Json {
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
    let distinct_per_attr = ds
        .schema()
        .attr_ids()
        .map(|a| {
            let name = ds.schema().attr_name(a).to_string();
            (name, ds.distinct_count(a).into())
        })
        .collect();

    // Stage-I distance-cache effectiveness (AGP + RSC combined).
    let mut cache = CacheStats::default();
    cache.absorb(outcome.agp.cache);
    cache.absorb(outcome.rsc.cache);

    // Outcomes of the one-shot report that restate nothing: every tuple of
    // one version vector shares its fusion's `fused` list, so this is the
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

    let lines = product_lines();
    println!(
        "smoke: {} rows cleaned in {:.3}s (F1 {:.3})",
        ds.len(),
        wall.as_secs_f64(),
        report.f1()
    );
    Json::obj([
        ("experiment", "smoke".into()),
        ("codec_version", u64::from(CODEC_VERSION).into()),
        ("product_lines", lines.map(|(all, _)| all).into()),
        (
            "product_lines_non_test",
            lines.map(|(_, non_test)| non_test).into(),
        ),
        ("workload", workload.name().into()),
        ("scale", format!("{scale:?}").into()),
        ("rows", ds.len().into()),
        ("rules", rules.len().into()),
        ("error_rate", error_rate.into()),
        ("injected_errors", dirty.error_count().into()),
        ("threads", rayon_threads().into()),
        ("end_to_end_seconds", wall.into()),
        (
            "stage_seconds",
            Json::obj([
                ("index", timings.index.into()),
                ("agp", timings.agp.into()),
                ("weight_learning", timings.weight_learning.into()),
                ("rsc", timings.rsc.into()),
                ("fscr", timings.fscr.into()),
                ("dedup", timings.dedup.into()),
            ]),
        ),
        (
            "memory",
            Json::obj([
                ("cells", ds.cell_count().into()),
                ("pool_distinct_values", ds.pool().len().into()),
                ("pool_string_bytes", ds.pool().string_bytes().into()),
                ("distinct_per_attribute", Json::Obj(distinct_per_attr)),
            ]),
        ),
        (
            "distance_cache",
            Json::obj([
                ("hits", cache.hits.into()),
                ("misses", cache.misses.into()),
                ("hit_rate", cache.hit_rate().into()),
            ]),
        ),
        ("agp_bounds_computed", outcome.agp.bounds_computed.into()),
        (
            "fscr_candidates_tested",
            outcome.fscr.candidates_tested.into(),
        ),
        ("fscr_shared_outcomes", shared_outcomes.into()),
        ("pool_storages", pool_storages.into()),
        ("precision", report.precision().into()),
        ("recall", report.recall().into()),
        ("f1", report.f1().into()),
    ])
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_emits_wall_time_json() {
        let json = artifact(Scale::Tiny);
        assert!(json["end_to_end_seconds"].as_f64().is_some_and(|s| s > 0.0));
        assert!(json["f1"].as_f64().is_some_and(|f1| f1 > 0.0));
        // Memory-side stats of the interned representation.
        let memory = &json["memory"];
        assert!(memory["pool_distinct_values"].as_u64() > Some(0));
        assert!(memory["distinct_per_attribute"].get("City").is_some());
        assert!(json["distance_cache"]["hit_rate"].as_f64().is_some());
        // The dedup stage is timed separately from FSCR.
        assert!(json["stage_seconds"]["dedup"].as_f64().is_some());
        // Tiny HAI's tuples share version vectors, hence provenance lists.
        assert!(json["fscr_shared_outcomes"].as_u64() > Some(0));
        // AGP's filter cost and FSCR's substitution cost: ratcheted counts.
        assert!(json["agp_bounds_computed"].as_u64().is_some());
        assert!(json["fscr_candidates_tested"].as_u64().is_some());
        // One value pool a run, shared by everything that names it.
        assert_eq!(json["pool_storages"].as_u64(), Some(1));
        // The product-tree size: the tests run from the checkout, so it is
        // a number here, and this file alone is over a hundred lines of it.
        let (lines, non_test) = product_lines().expect("the sources are beside the test binary");
        assert!(1000 < non_test && non_test < lines, "{non_test} of {lines}");
        assert_eq!(json["product_lines"].as_u64(), Some(lines as u64));
        assert_eq!(
            json["product_lines_non_test"].as_u64(),
            Some(non_test as u64)
        );
        assert_eq!(json["codec_version"].as_u64(), Some(CODEC_VERSION.into()));
        // Byte identity across engines lives in the engine matrix.
        assert!(json.get("streaming").is_none());
    }
}
