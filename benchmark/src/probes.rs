//! Standalone calls into the lower layers on the workload's own data.  They
//! run once, after the measured window of a traced run, and give the layers a
//! workload's spans cannot separate a number of their own.

use crate::calib::lcg;
use crate::inputs::{Inputs, WIRE_PARTITIONS};
use crate::stats::median;
use dataset::{csv, Dataset};
use mlnclean::{ChangeSet, MlnIndex};
use std::hint::black_box;
use std::time::Instant;

/// Pairs of reason-part strings the Levenshtein probe compares.
const LEV_PAIRS: usize = 200_000;

fn seconds(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

pub fn run(inputs: &Inputs, seed: u64) -> Option<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();

    // dataset: CSV text to an interned table.
    let parses: Vec<f64> = (0..3)
        .map(|_| seconds(|| drop(black_box(csv::parse_csv(black_box(&inputs.csv_text))))))
        .collect();
    let table = csv::parse_csv(&inputs.csv_text).ok()?;
    let megabytes = inputs.csv_text.len() as f64 / 1e6;
    out.push(("dataset.csv_parse_mb_per_s", megabytes / median(&parses)));
    out.push(("dataset.pool_values", table.pool().len() as f64));

    // rules: the rule text to a rule set.
    let reps = 200;
    let parsing = seconds(|| {
        for _ in 0..reps {
            black_box(rules::parse_rules(black_box(inputs.rule_text)).ok());
        }
    });
    out.push(("rules.parse_us", parsing / reps as f64 * 1e6));
    let rules = rules::parse_rules(inputs.rule_text).ok()?;

    // distance: normalised Levenshtein over seeded pairs of the first
    // block's reason-part strings — the comparisons AGP makes.
    let index = MlnIndex::build_serial(&table, &rules).ok()?;
    let keys: Vec<String> = index.blocks[0]
        .groups
        .iter()
        .map(|g| g.resolve_key(index.pool()).join("\u{1f}"))
        .collect();
    let mut state = seed;
    let pairs: Vec<(usize, usize)> = (0..LEV_PAIRS)
        .map(|_| {
            let a = lcg(&mut state) as usize % keys.len();
            let b = lcg(&mut state) as usize % keys.len();
            (a, b)
        })
        .collect();
    let comparing = seconds(|| {
        let mut sum = 0.0;
        for &(a, b) in &pairs {
            sum += distance::normalized_levenshtein(&keys[a], &keys[b]);
        }
        black_box(sum);
    });
    out.push((
        "distance.lev_ns_per_pair",
        comparing / LEV_PAIRS as f64 * 1e9,
    ));

    // The table as the change sets a session or the wire service would get.
    let batches = inputs.batches();

    // index: splice the batches into a growing index.
    let mut grown = Dataset::new(table.schema().clone());
    let mut index = MlnIndex::build_serial(&grown, &rules).ok()?;
    let mut splicing = 0.0;
    for batch in &batches {
        let from = grown.len();
        grown.extend_rows(batch.iter().cloned()).ok()?;
        splicing += seconds(|| {
            black_box(index.insert_tuples(&grown, &rules, from, inputs.config.parallel));
        });
    }
    out.push(("index.insert_rows_per_s", grown.len() as f64 / splicing));

    // distributed: the stream router.
    let routing = seconds(|| {
        for row in batches.iter().flatten() {
            black_box(distributed::route_row(row, WIRE_PARTITIONS));
        }
    });
    out.push(("distributed.route_rows_per_s", grown.len() as f64 / routing));

    // mlnw: the codec over the same change sets.
    let changes: Vec<ChangeSet> = batches.into_iter().map(ChangeSet::inserting).collect();
    let mut frames = Vec::new();
    let encoding = seconds(|| {
        for change in &changes {
            frames.push(mlnw::to_bytes(change));
        }
    });
    let frames: Vec<Vec<u8>> = frames.into_iter().collect::<Result<_, _>>().ok()?;
    let mut decoded = Vec::new();
    let decoding = seconds(|| {
        for frame in &frames {
            decoded.push(mlnw::from_bytes::<ChangeSet>(frame));
        }
    });
    let decoded: Vec<ChangeSet> = decoded.into_iter().collect::<Result<_, _>>().ok()?;
    if decoded != changes {
        return None;
    }
    let bytes: usize = frames.iter().map(Vec::len).sum();
    out.push(("mlnw.encode_mb_per_s", bytes as f64 / 1e6 / encoding));
    out.push(("mlnw.decode_mb_per_s", bytes as f64 / 1e6 / decoding));
    out.push(("mlnw.bytes_per_row", bytes as f64 / grown.len() as f64));
    Some(out)
}
