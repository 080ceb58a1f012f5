//! Allocation claims, counted.  This test binary installs a counting
//! `#[global_allocator]` over [`System`]; it counts the allocation calls
//! (`alloc`, `alloc_zeroed`, `realloc`) each thread makes, so a count taken
//! on the calling thread with `with_parallel(false)` is exact, repeats run
//! for run, and no other test's work leaks into it.
//!
//! `MlnClean::clean` is one bulk ingest plus `CleaningSession::finish`; the
//! stage composition runs Algorithm 1 as the whole-index stage objects do.
//! Both do the same work, so the batch plan may allocate at most 1.15× what
//! the composition allocates over the same table.  A finish that copies
//! every pristine group, or keeps reuse entries for a refresh that never
//! comes, reads about 1.35× on HAI and 1.43× on TPC-H.

use datagen::{HaiGenerator, TpchGenerator};
use dataset::csv::to_csv;
use dataset::Dataset;
use mlnclean::{
    AgpStage, CleanConfig, DedupStage, FscrStage, MlnClean, MlnIndex, PipelineStage, Report,
    RscStage, StageContext, StageRecords, WeightLearningStage,
};
use rules::RuleSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// [`System`], counting the allocation calls of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialised `Cell` has no destructor, so this never fails;
    // `try_with` keeps the allocator from panicking regardless.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocation calls it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Algorithm 1 as the public stage objects compose it (the repo
/// benchmark's per-layer probe runs the same sequence).
fn composed(table: &Dataset, rules: &RuleSet, config: &CleanConfig) -> Report {
    let mut index = MlnIndex::build_with(table, rules, config.parallel).unwrap();
    let mut records = StageRecords::default();
    let mut ctx = StageContext::new(table, config, &mut index, &mut records);
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
    let repaired = ctx.repaired.take().expect("FSCR sets the repaired table");
    let deduplicated = ctx.deduplicated.take();
    Report::new(
        repaired,
        deduplicated,
        Some(Arc::new(index)),
        records.agp,
        records.rsc,
        records.fscr,
        records.timings,
        None,
    )
}

/// The benchmark's batch tables at seed 1, under its τ (2) and merge guard.
fn workloads() -> Vec<(&'static str, Dataset, RuleSet)> {
    let hai = HaiGenerator::default()
        .with_rows(18_000)
        .with_providers(450)
        .with_seed(1)
        .dirty(0.02, 0.5, 1);
    let tpch = TpchGenerator::default()
        .with_rows(36_000)
        .with_customers(1_440)
        .with_seed(1)
        .dirty(0.02, 0.5, 1);
    vec![
        ("HAI", hai.dirty, HaiGenerator::rules()),
        ("TPC-H", tpch.dirty, TpchGenerator::rules()),
    ]
}

#[test]
fn a_batch_clean_allocates_at_most_115_percent_of_the_stage_composition() {
    let config = CleanConfig::default()
        .with_tau(2)
        .with_agp_distance_guard(0.15)
        .with_parallel(false);
    for (name, table, rules) in workloads() {
        let engine = MlnClean::new(config.clone());
        let (batch, batch_allocations) = counted(|| engine.clean(&table, &rules).unwrap());
        let (stages, stage_allocations) = counted(|| composed(&table, &rules, &config));
        assert_eq!(to_csv(&batch.repaired), to_csv(&stages.repaired), "{name}");
        assert_eq!(
            (&batch.agp, &batch.rsc, &batch.fscr),
            (&stages.agp, &stages.rsc, &stages.fscr),
            "{name}"
        );
        let ratio = batch_allocations as f64 / stage_allocations as f64;
        assert!(
            ratio <= 1.15,
            "{name}: MlnClean::clean made {batch_allocations} allocations, the stage \
             composition {stage_allocations} ({ratio:.3}×)"
        );
    }
}
