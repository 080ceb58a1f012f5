//! Wire-service differential harness: a [`transport::WireSession`] — the
//! streaming coordinator driving partition workers across the simulated
//! network — must yield **byte-identical** repaired/deduplicated CSV and
//! identical AGP/RSC/FSCR provenance to a single in-process
//! [`mlnclean::CleaningSession`] fed the same change stream, under *any*
//! seeded fault schedule: delay, reordering, duplication, loss, link
//! outages, and worker crashes recovered by change-log replay.
//!
//! Together with `streaming_equivalence.rs` (in-process distributed ≡
//! single session) and `session_equivalence.rs` (single session ≡ batch),
//! this transitively pins the wire service to every other engine.
//!
//! Coverage: a deterministic fault-class matrix (6 classes × partitions
//! 1/2/4 × K ∈ {1,3}) plus 100 proptest-randomized schedules — more than
//! 100 distinct schedules per CI run, every one checked byte for byte.

use dataset::{csv, AttrId, Dataset, Schema, TupleId};
use mlnclean::{ChangeSet, CleanConfig, CleaningSession, Report};
use rules::RuleSet;
use transport::{wire_session, FaultSchedule, LinkOutage, NetCounters, WorkerCrash, COORDINATOR};

/// Byte-level comparison of two outcomes: output CSVs plus full provenance.
fn assert_outcomes_identical(label: &str, wired: &Report, single: &Report) {
    assert_eq!(
        csv::to_csv(&wired.repaired),
        csv::to_csv(&single.repaired),
        "{label}: repaired CSV diverged"
    );
    assert_eq!(
        csv::to_csv(wired.deduplicated()),
        csv::to_csv(single.deduplicated()),
        "{label}: deduplicated CSV diverged"
    );
    assert_eq!(wired.agp, single.agp, "{label}: AGP provenance diverged");
    assert_eq!(wired.rsc, single.rsc, "{label}: RSC provenance diverged");
    assert_eq!(wired.fscr, single.fscr, "{label}: FSCR provenance diverged");
}

/// Transport-side evidence a differential run leaves behind.
struct WireStats {
    counters: NetCounters,
    restarts: usize,
}

/// Feed the same change sets to a fresh single session and a fresh wire
/// session under `schedule`, asserting per-batch report agreement and final
/// byte-identity.  Returns the transport tallies for fault-coverage
/// assertions.
#[allow(clippy::too_many_arguments)]
fn wire_case(
    schema: &Schema,
    rules: &RuleSet,
    config: &CleanConfig,
    scripts: &[ChangeSet],
    partitions: usize,
    merge_every: usize,
    schedule: FaultSchedule,
    label: &str,
) -> WireStats {
    let mut single =
        CleaningSession::new(config.clone(), schema.clone(), rules.clone()).expect("valid rules");
    let mut wired = wire_session(
        config.clone(),
        schema.clone(),
        rules.clone(),
        partitions,
        merge_every,
        schedule,
    )
    .expect("valid rules and partitions");

    for (step, changes) in scripts.iter().enumerate() {
        let a = single.apply(changes.clone()).expect("valid script");
        let b = wired.apply(changes.clone()).expect("valid script");
        assert_eq!(
            (a.total_rows, a.rows, a.deleted_rows, a.updated_cells),
            (b.total_rows, b.rows, b.deleted_rows, b.updated_cells),
            "{label} step {step}: batch reports diverged"
        );
    }

    let stats = WireStats {
        counters: wired.backend_mut().counters(),
        restarts: wired.backend_mut().total_restarts(),
    };
    let wired = wired.finish();
    let single = single.finish();
    assert_outcomes_identical(label, &wired, &single);
    stats
}

/// Hospital fixture stream: every mutation kind, ids resolved through the
/// shifting numbering.
fn hospital_scripts(schema: &Schema, dirty: &Dataset) -> Vec<ChangeSet> {
    let ct = schema.attr_id("CT").unwrap();
    let st = schema.attr_id("ST").unwrap();
    let rows: Vec<Vec<String>> = dirty.tuples().map(|t| t.owned_values()).collect();
    vec![
        ChangeSet::inserting(rows.clone()),
        ChangeSet::new()
            .update(TupleId(1), ct, "DOTHAN")
            .update(TupleId(0), st, "AK"),
        ChangeSet::new()
            .delete(TupleId(0))
            .insert(vec![rows[0].clone(), rows[1].clone()]),
        ChangeSet::new()
            .delete(TupleId(2))
            .update(TupleId(0), st, "AL")
            .delete(TupleId(1)),
    ]
}

/// Tiny deterministic RNG (SplitMix64) for the randomized mutation scripts.
struct ScriptRng(u64);

impl ScriptRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// Random mutation stream over a workload: bulk insert of `base_rows`, then
/// `rounds` change sets mixing reserve inserts, in-domain updates and
/// deletes, with sequential-id semantics.
fn random_scripts(dirty: &Dataset, base_rows: usize, rounds: usize, seed: u64) -> Vec<ChangeSet> {
    let all: Vec<Vec<String>> = dirty.tuples().map(|t| t.owned_values()).collect();
    let (base, reserve) = all.split_at(base_rows.min(all.len()));
    let domains: Vec<Vec<String>> = dirty
        .schema()
        .attr_ids()
        .map(|a| dirty.domain(a).into_iter().collect())
        .collect();
    let mut rng = ScriptRng(seed);
    let mut scripts = vec![ChangeSet::inserting(base.to_vec())];
    let mut rows = base.len();
    let mut reserve_at = 0usize;
    for _ in 0..rounds {
        let mut changes = ChangeSet::new();
        for _ in 0..(1 + rng.below(4)) {
            let pick = rng.below(10);
            if pick < 4 && reserve_at < reserve.len() {
                let n = (1 + rng.below(3)).min(reserve.len() - reserve_at);
                changes = changes.insert(reserve[reserve_at..reserve_at + n].to_vec());
                reserve_at += n;
                rows += n;
            } else if pick < 8 && rows > 0 {
                let t = TupleId(rng.below(rows));
                let a = rng.below(domains.len());
                let v = domains[a][rng.below(domains[a].len())].clone();
                changes = changes.update(t, AttrId(a), v);
            } else if rows > 1 {
                changes = changes.delete(TupleId(rng.below(rows)));
                rows -= 1;
            }
        }
        if !changes.is_empty() {
            scripts.push(changes);
        }
    }
    scripts
}

/// The deterministic fault classes of the matrix test.
fn fault_classes() -> Vec<(&'static str, FaultSchedule)> {
    vec![
        ("clean", FaultSchedule::reliable()),
        (
            "delay",
            FaultSchedule {
                seed: 101,
                delay: (1, 12),
                ..FaultSchedule::reliable()
            },
        ),
        (
            "reorder",
            FaultSchedule {
                seed: 102,
                delay: (0, 6),
                reorder: 0.4,
                ..FaultSchedule::reliable()
            },
        ),
        (
            "duplicate",
            FaultSchedule {
                seed: 103,
                delay: (0, 3),
                duplicate: 0.4,
                ..FaultSchedule::reliable()
            },
        ),
        (
            "loss",
            FaultSchedule {
                seed: 104,
                delay: (0, 3),
                loss: 0.3,
                ..FaultSchedule::reliable()
            },
        ),
        (
            "mixed+outage",
            FaultSchedule {
                seed: 105,
                delay: (1, 8),
                reorder: 0.25,
                duplicate: 0.25,
                loss: 0.2,
                outages: vec![
                    LinkOutage {
                        a: COORDINATOR,
                        b: 1,
                        from: 5,
                        until: 60,
                    },
                    LinkOutage {
                        a: COORDINATOR,
                        b: 2,
                        from: 30,
                        until: 90,
                    },
                ],
                ..FaultSchedule::reliable()
            },
        ),
    ]
}

#[test]
fn reports_and_timings_round_trip_through_the_codec() {
    // A `Report` is the frame a remote client of the service receives; pin
    // that the codec preserves it — output bytes, provenance, timings —
    // and that encoding is deterministic (re-encoding the decoded report
    // yields the same frame).
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let report = mlnclean::MlnClean::new(CleanConfig::default().with_tau(1))
        .clean(&dirty, &rules)
        .expect("the sample cleans");

    let bytes = transport::to_bytes(&report).expect("reports encode");
    let back: Report = transport::from_bytes(&bytes).expect("reports decode");
    assert_outcomes_identical("codec round-trip", &back, &report);
    assert_eq!(back.timings, report.timings, "timings diverged");
    assert_eq!(
        transport::to_bytes(&back).expect("reports re-encode"),
        bytes,
        "re-encoding must be byte-stable"
    );

    let timings = report.timings;
    let frame = transport::to_bytes(&timings).expect("timings encode");
    assert_eq!(
        transport::from_bytes::<mlnclean::Timings>(&frame).expect("timings decode"),
        timings
    );
}

#[test]
fn fault_matrix_is_byte_identical_to_the_single_session() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let schema = dirty.schema().clone();
    let scripts = hospital_scripts(&schema, &dirty);
    let config = CleanConfig::default().with_tau(1);

    let mut totals = NetCounters::default();
    for (class, schedule) in fault_classes() {
        for partitions in [1usize, 2, 4] {
            for merge_every in [1usize, 3] {
                let stats = wire_case(
                    &schema,
                    &rules,
                    &config,
                    &scripts,
                    partitions,
                    merge_every,
                    schedule.clone(),
                    &format!("hospital wire ({class}, partitions={partitions}, K={merge_every})"),
                );
                totals.sent += stats.counters.sent;
                totals.dropped += stats.counters.dropped;
                totals.duplicated += stats.counters.duplicated;
                totals.retransmits += stats.counters.retransmits;
            }
        }
    }
    // The matrix must actually have exercised the fault paths, not just
    // survived clean networks.
    assert!(totals.sent > 0);
    assert!(totals.dropped > 0, "no schedule ever dropped a datagram");
    assert!(totals.duplicated > 0, "no schedule ever duplicated");
    assert!(
        totals.retransmits > 0,
        "loss never forced the RPC layer to retransmit"
    );
}

#[test]
fn scheduled_crashes_replay_to_byte_identical_output() {
    // Chaos probe: workers are killed by the schedule mid-stream and
    // recover by replaying their durable change logs; the final output must
    // not move by a byte.
    let dirty = datagen::CarGenerator::default()
        .with_rows(120)
        .dirty(0.06, 0.5, 5)
        .dirty;
    let rules = datagen::CarGenerator::rules();
    let scripts = random_scripts(&dirty, 90, 5, 0xC4A5);
    let config = CleanConfig::default().with_tau(1);

    for (partitions, merge_every) in [(2usize, 1usize), (4, 3)] {
        let schedule = FaultSchedule {
            seed: 77,
            delay: (1, 6),
            reorder: 0.2,
            duplicate: 0.2,
            loss: 0.15,
            crashes: vec![
                WorkerCrash { at: 2, worker: 0 },
                WorkerCrash { at: 9, worker: 1 },
                WorkerCrash { at: 25, worker: 0 },
            ],
            ..FaultSchedule::reliable()
        };
        let stats = wire_case(
            dirty.schema(),
            &rules,
            &config,
            &scripts,
            partitions,
            merge_every,
            schedule,
            &format!("car chaos (partitions={partitions}, K={merge_every})"),
        );
        assert!(
            stats.restarts >= 3,
            "chaos schedule must actually kill workers (got {} restarts)",
            stats.restarts
        );
    }
}

#[test]
fn explicit_mid_stream_crash_replays_every_worker() {
    // Deterministic regression for the replay path: crash EVERY worker at a
    // fixed protocol point (between two applies), not a random tick.
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let schema = dirty.schema().clone();
    let scripts = hospital_scripts(&schema, &dirty);
    let config = CleanConfig::default().with_tau(1);
    let partitions = 2usize;

    let mut single = CleaningSession::new(config.clone(), schema.clone(), rules.clone()).unwrap();
    let mut wired = wire_session(
        config.clone(),
        schema.clone(),
        rules.clone(),
        partitions,
        2,
        FaultSchedule {
            seed: 9,
            delay: (0, 4),
            duplicate: 0.3,
            ..FaultSchedule::reliable()
        },
    )
    .unwrap();

    for (step, changes) in scripts.iter().enumerate() {
        single.apply(changes.clone()).unwrap();
        wired.apply(changes.clone()).unwrap();
        if step == 1 {
            for worker in 0..partitions {
                wired.backend_mut().crash_worker(worker);
            }
        }
    }
    assert_eq!(wired.backend_mut().total_restarts(), partitions);
    assert_outcomes_identical("explicit crash", &wired.finish(), &single.finish());
}

#[test]
fn crash_after_checkpoint_recovers_from_snapshot_plus_tail() {
    // Deterministic regression for checkpoint-based recovery: mid-stream the
    // coordinator broadcasts a checkpoint (each worker snapshots its session
    // through the codec and truncates the covered journal prefix), more
    // batches land, then EVERY worker is killed — so recovery must resume
    // the snapshot and replay only the post-checkpoint tail.  The final
    // output must not move by a byte versus a single in-process session.
    let dirty = datagen::CarGenerator::default()
        .with_rows(100)
        .dirty(0.06, 0.5, 9)
        .dirty;
    let rules = datagen::CarGenerator::rules();
    let schema = dirty.schema().clone();
    let scripts = random_scripts(&dirty, 80, 6, 0xCE0C);
    let config = CleanConfig::default().with_tau(1);
    let partitions = 2usize;

    let mut single = CleaningSession::new(config.clone(), schema.clone(), rules.clone()).unwrap();
    let mut wired = wire_session(
        config.clone(),
        schema.clone(),
        rules.clone(),
        partitions,
        2,
        FaultSchedule {
            seed: 31,
            delay: (0, 4),
            duplicate: 0.3,
            loss: 0.1,
            ..FaultSchedule::reliable()
        },
    )
    .unwrap();

    let checkpoint_at = scripts.len() / 2;
    let crash_at = checkpoint_at + 1;
    for (step, changes) in scripts.iter().enumerate() {
        single.apply(changes.clone()).unwrap();
        wired.apply(changes.clone()).unwrap();
        if step == checkpoint_at {
            let journaled_before = wired.backend_mut().journaled_batches();
            let acks = wired.backend_mut().checkpoint_workers();
            assert_eq!(acks.len(), partitions);
            let covered: u64 = acks.iter().map(|&(batches, _)| batches).sum();
            assert!(covered > 0, "half the stream must have reached the workers");
            assert!(acks.iter().all(|&(_, bytes)| bytes > 0));
            assert_eq!(
                wired.backend_mut().journaled_batches(),
                0,
                "the checkpoint must truncate every covered journal entry \
                 (had {journaled_before})"
            );
        }
        if step == crash_at {
            assert!(
                wired.backend_mut().journaled_batches() > 0,
                "the post-checkpoint tail must be journaled"
            );
            for worker in 0..partitions {
                wired.backend_mut().crash_worker(worker);
            }
        }
    }
    assert_eq!(wired.backend_mut().total_restarts(), partitions);
    assert_outcomes_identical("crash after checkpoint", &wired.finish(), &single.finish());
}

mod proptest_schedules {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        // 100 randomized fault schedules per run: seed-derived delay,
        // reorder, duplication, loss, outage windows and crash points,
        // across partitions 1/2/4 and K ∈ {1, 3} — every one byte-identical
        // to the single session.
        #[test]
        fn randomized_schedules_are_byte_identical(seed in 0u64..1_000_000) {
            let dirty = dataset::sample_hospital_dataset();
            let rules = rules::sample_hospital_rules();
            let schema = dirty.schema().clone();
            let scripts = hospital_scripts(&schema, &dirty);

            let mut mix = ScriptRng(seed);
            let partitions = [1usize, 2, 4][mix.below(3)];
            let merge_every = [1usize, 3][mix.below(2)];
            let schedule = FaultSchedule {
                seed,
                delay: (mix.below(3) as u64, 2 + mix.below(10) as u64),
                reorder: mix.below(5) as f64 / 10.0,
                duplicate: mix.below(5) as f64 / 10.0,
                loss: mix.below(4) as f64 / 10.0,
                outages: if mix.below(2) == 1 && partitions > 1 {
                    let from = mix.below(30) as u64;
                    vec![LinkOutage {
                        a: COORDINATOR,
                        b: 1 + mix.below(partitions),
                        from,
                        until: from + 10 + mix.below(50) as u64,
                    }]
                } else {
                    vec![]
                },
                crashes: if mix.below(3) == 0 {
                    vec![WorkerCrash {
                        at: 1 + mix.below(20) as u64,
                        worker: mix.below(partitions),
                    }]
                } else {
                    vec![]
                },
            };
            let config = CleanConfig::default().with_tau(1);
            wire_case(
                &schema,
                &rules,
                &config,
                &scripts,
                partitions,
                merge_every,
                schedule,
                &format!("proptest wire seed={seed} partitions={partitions} K={merge_every}"),
            );
        }
    }
}
