//! Pins of every seeded stream the workspace draws.
//!
//! The generated TPC-H / HAI / CAR tables, the injected errors and the
//! simulated network's fault decisions all come from one seeded generator,
//! and the goldens and the benchmark inputs depend on them bit for bit.  Each stream is pinned here
//! as an FNV-1a 64 digest of its output; a failing pin means a stream moved,
//! which is never an acceptable side effect of a refactor.

use datagen::{CarGenerator, HaiGenerator, TpchGenerator};
use dataset::csv::to_csv;
use dataset::rng::Rng;
use dataset::{Dataset, DirtyDataset, ErrorInjector, ErrorSpec};
use transport::{Envelope, FaultSchedule, Payload, Request, SimNet, COORDINATOR};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hai() -> Dataset {
    HaiGenerator::default()
        .with_rows(2_000)
        .with_seed(1)
        .generate()
}

fn dirty_digest(dirty: &DirtyDataset) -> u64 {
    let mut text = to_csv(&dirty.dirty);
    for e in &dirty.errors {
        text.push_str(&format!(
            "{:?} {:?} {:?} {} {}\n",
            e.cell.tuple, e.cell.attr, e.error_type, e.original, e.dirty
        ));
    }
    fnv1a(text.as_bytes())
}

#[test]
fn the_first_draws_of_a_seeded_generator_keep_their_bits() {
    let digests: Vec<u64> = [0u64, 1, 42]
        .iter()
        .map(|&seed| {
            let mut rng = Rng::seeded(seed);
            let bytes: Vec<u8> = (0..64).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
            fnv1a(&bytes)
        })
        .collect();
    assert_eq!(
        digests,
        [
            6174096980009527987,
            18012487567920225000,
            4320332588189661128
        ],
        "the raw 64-bit stream moved"
    );
}

#[test]
fn every_draw_form_keeps_its_bits() {
    let mut rng = Rng::seeded(7);
    let below = rng.below(1_000);
    let range = rng.range(1998..=2019);
    let inclusive = rng.range(3..=u64::MAX);
    let (unit, uniform) = (rng.unit(), rng.uniform(900.0..105_000.0));
    let (chance, pick) = (rng.chance(0.5), rng.pick(&["a", "b", "c", "d", "e"]));
    let mut deck: Vec<usize> = (0..52).collect();
    rng.shuffle(&mut deck);
    let text = format!(
        "below {below}\nrange {range}\ninclusive {inclusive}\nunit {unit:?}\n\
         uniform {uniform:?}\nchance {chance}\npick {pick:?}\nshuffle {deck:?}\n"
    );
    assert_eq!(fnv1a(text.as_bytes()), 8659311290132361350, "{text}");
}

#[test]
fn generated_tables_keep_their_bytes() {
    let tpch = TpchGenerator::default()
        .with_rows(2_000)
        .with_seed(1)
        .generate();
    let car = CarGenerator::default()
        .with_rows(2_000)
        .with_seed(1)
        .generate();
    let digests = [
        fnv1a(to_csv(&tpch).as_bytes()),
        fnv1a(to_csv(&hai()).as_bytes()),
        fnv1a(to_csv(&car).as_bytes()),
    ];
    assert_eq!(
        digests,
        [
            5212618321271806029,
            7648333283290824769,
            4552852084969085216
        ]
    );
}

#[test]
fn injected_errors_keep_their_bytes() {
    let clean = hai();
    let spec = ErrorSpec::new(0.05, 11).on_attributes(clean.schema().attr_ids().take(5).collect());
    let injected = ErrorInjector::new(spec).inject(&clean);
    assert_eq!(injected.errors.len(), 500);
    assert_eq!(dirty_digest(&injected), 10702212534699058859);
    let made = TpchGenerator::default()
        .with_rows(2_000)
        .with_seed(1)
        .dirty(0.05, 0.5, 3);
    assert_eq!(dirty_digest(&made), 17125009853780735216);
}

#[test]
fn streamed_dirty_rows_keep_their_bytes() {
    let mut text = String::new();
    let stream = HaiGenerator::default()
        .with_rows(2_000)
        .with_seed(1)
        .dirty_row_stream(0.05, 0.5, 3);
    for row in stream {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    assert_eq!(fnv1a(text.as_bytes()), 10240613185219660243);
}

#[test]
fn a_hostile_network_delivers_in_the_same_order() {
    let mut net = SimNet::new(FaultSchedule {
        seed: 9,
        delay: (1, 6),
        reorder: 0.3,
        duplicate: 0.3,
        loss: 0.2,
        ..FaultSchedule::reliable()
    });
    let mut order = Vec::new();
    for req_id in 0..300 {
        let dst = 1 + (req_id as usize % 3);
        let envelope = Envelope {
            src: COORDINATOR,
            dst,
            req_id,
            body: Payload::Request(Request::Checkpoint),
        };
        net.send(COORDINATOR, dst, transport::to_bytes(&envelope).unwrap());
        if req_id % 4 == 3 {
            if let Some(envelope) = net.advance() {
                order.push((net.clock(), envelope.dst, envelope.req_id));
            }
        }
    }
    while let Some(envelope) = net.advance() {
        order.push((net.clock(), envelope.dst, envelope.req_id));
    }
    let counters = net.counters();
    assert_eq!(
        (counters.dropped, counters.duplicated, counters.delivered),
        (66, 79, 313)
    );
    assert_eq!(fnv1a(format!("{order:?}").as_bytes()), 5588592666865592857);
}
