//! Criterion micro-benchmarks for the individual MLNClean components and
//! substrates: MLN index construction, the closed-form Eq. 3 weights, the
//! Stage-I/II breakdown, the string metrics, and the data partitioner.  These
//! back the complexity claims of Sections 4 and 5 (index construction is
//! O(|rules|·|tuples|), the weights are one pass over the γs, FSCR is
//! factorial in the number of rules per *distinct version vector* up to the
//! exhaustive bound and linear in it above).

use bench::{Scale, Workload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dataset::Dataset;
use distance::{DistanceMetric, Metric};
use distributed::{partition_dataset, PartitionConfig};
use mlnclean::{
    AbnormalGroupProcessor, Block, ConflictResolver, MlnIndex, ReliabilityCleaner, StageOne,
    Timings,
};

fn index_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("mln_index_build");
    group.sample_size(20);
    for workload in [Workload::Car, Workload::Hai] {
        let dirty = workload.dirty(Scale::Tiny, 0.05, 0.5, 1);
        let rules = workload.rules();
        group.bench_with_input(
            BenchmarkId::from_parameter(workload.name()),
            &dirty,
            |b, d| {
                b.iter(|| MlnIndex::build(&d.dirty, &rules).expect("index"));
            },
        );
    }
    group.finish();
}

fn weight_assignment(c: &mut Criterion) {
    // The closed form the `weights.assign_ms` layer of the repo benchmark
    // measures; it is a pure function of the supports, so re-assigning in
    // place repeats the same work every iteration.
    let mut group = c.benchmark_group("gamma_weight_assignment");
    for workload in [Workload::Car, Workload::Hai] {
        let dirty = workload.dirty(Scale::Tiny, 0.05, 0.5, 1);
        let mut index = MlnIndex::build(&dirty.dirty, &workload.rules()).expect("index");
        group.bench_function(workload.name(), |b| {
            b.iter(|| mlnclean::weights::assign_weights(&mut index));
        });
    }
    group.finish();
}

fn stage_breakdown(c: &mut Criterion) {
    // AGP → RSC → FSCR individually, on the CAR workload at 5% errors, plus
    // FSCR on HAI.
    let dirty = Workload::Car.dirty(Scale::Tiny, 0.05, 0.5, 7);
    let rules = Workload::Car.rules();
    let base_index = MlnIndex::build(&dirty.dirty, &rules).expect("index");

    let mut group = c.benchmark_group("stage_breakdown");
    group.sample_size(20);
    group.bench_function("agp", |b| {
        b.iter(|| {
            let mut index = base_index.clone();
            AbnormalGroupProcessor::new(1, Metric::Levenshtein).process(&mut index)
        });
    });
    // What a session's `outcome()` pays Stage I after a one-cell update of
    // an FD consequent: the AGP re-plan of the touched block against its
    // warm distance cache and plan memo (the cold plan is the case above),
    // plus the rebuild of the one or two output groups the tuple moved
    // across.
    group.bench_function("agp_replan", |b| {
        let mut ds = dirty.dirty.clone();
        let mut index = base_index.clone();
        let empty = MlnIndex::build(&Dataset::new(ds.schema().clone()), &rules).expect("index");
        let mut stage = StageOne::new(Workload::Car.clean_config(), empty);
        for block in 0..index.block_count() {
            stage.mark_block_dirty(block);
        }
        let refresh = |stage: &mut StageOne, index: &MlnIndex| {
            let pristine: Vec<(usize, &Block)> = index.blocks.iter().enumerate().collect();
            stage.refresh(&pristine, index.pool(), &mut Timings::default())
        };
        refresh(&mut stage, &index);
        // A row the `Make="acura"` CFD does not see, so its block's support
        // stays put and the refresh stays group-scoped.
        let make = ds.schema().attr_id("Make").expect("CAR has a Make");
        let t = ds
            .tuple_ids()
            .find(|&t| ds.value(t, make) != "acura")
            .expect("a non-acura row");
        let values = [ds.value(t, make).to_string(), "acurra".to_string()];
        let mut flips = 0;
        b.iter(|| {
            flips += 1;
            let old_row = ds.row_ids(t);
            ds.set_value(t, make, values[flips % 2].clone());
            let touched = index.update_tuple(&ds, &rules, t, &old_row, false);
            for (block, keys) in touched.iter().enumerate() {
                stage.mark_keys_dirty(block, keys);
            }
            refresh(&mut stage, &index)
        });
    });
    group.bench_function("weights+rsc", |b| {
        b.iter(|| {
            let mut index = base_index.clone();
            AbnormalGroupProcessor::new(1, Metric::Levenshtein).process(&mut index);
            mlnclean::weights::assign_weights(&mut index);
            ReliabilityCleaner::new(Metric::Levenshtein).clean(&mut index)
        });
    });
    let stage1 = |mut index: MlnIndex, tau: usize| {
        AbnormalGroupProcessor::new(tau, Metric::Levenshtein).process(&mut index);
        mlnclean::weights::assign_weights(&mut index);
        ReliabilityCleaner::new(Metric::Levenshtein).clean(&mut index);
        index
    };
    group.bench_function("fscr", |b| {
        let index = stage1(base_index.clone(), 1);
        b.iter(|| ConflictResolver::new(6).resolve(&dirty.dirty, &index));
    });
    // HAI's seven rules give every tuple m = 7 versions, above the
    // exhaustive bound of 6: the rotated-consensus orders CAR (m ≤ 2) never
    // walks, and many tuples per distinct version vector.
    group.bench_function("fscr_hai", |b| {
        let dirty = Workload::Hai.dirty(Scale::Tiny, 0.05, 0.5, 7);
        let index = MlnIndex::build(&dirty.dirty, &Workload::Hai.rules()).expect("index");
        let index = stage1(index, 2);
        b.iter(|| ConflictResolver::new(6).resolve(&dirty.dirty, &index));
    });
    group.finish();
}

fn string_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("string_metrics");
    let pairs = [
        ("DOTHAN", "DOTH"),
        ("2567688400", "2567638410"),
        ("CUSTOMER#000000042", "CUSTOMER#000000024"),
    ];
    for metric in Metric::ALL {
        group.bench_function(metric.name(), |b| {
            b.iter(|| {
                pairs
                    .iter()
                    .map(|(a, bs)| metric.normalized_distance(a, bs))
                    .sum::<f64>()
            });
        });
    }
    group.finish();
}

fn data_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("data_partitioning");
    group.sample_size(10);
    let dirty = Workload::Tpch.dirty(Scale::Tiny, 0.05, 0.5, 5);
    for &parts in &[2usize, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(parts), &dirty, |b, d| {
            b.iter(|| partition_dataset(&d.dirty, &PartitionConfig::new(parts, 1)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    index_construction,
    weight_assignment,
    stage_breakdown,
    string_metrics,
    data_partitioning
);
criterion_main!(benches);
