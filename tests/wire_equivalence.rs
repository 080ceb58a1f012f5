//! Wire equivalence and behaviour.  The first tests are the engine matrix's
//! wire slice (`kit/engine_matrix.rs`): a [`transport::WireSession`] under
//! the six fault classes (a reliable network; delay, reordering,
//! duplication and loss; all four with link outages), and under seeded
//! schedules with a link outage and scheduled crashes, every worker also
//! crashed at the stream's cut.
//! The rest: a worker crashed after a checkpoint recovers from its
//! snapshot plus the journaled tail.

#[macro_use]
#[path = "kit/engine_matrix.rs"]
mod matrix;

use matrix::oracle::assert_outcomes_identical;
use matrix::scripts::random_scripts;
use matrix::*;
use mlnclean::{CleanConfig, CleaningSession};
use transport::{wire_session, FaultSchedule};

/// The hospital script under the six fault classes at every shape, which
/// between them must drop, duplicate and retransmit.
#[test]
fn fault_matrix_is_byte_identical_to_the_single_session() {
    let tallies = check_all(&hospital_script(), &[Faults]);
    let faults = ["dropped", "duplicated", "retransmitted"];
    for (fault, n) in faults.iter().zip(tallies) {
        assert!(n > 0, "no fault class ever {fault}");
    }
}

/// Workers killed by their schedules on a seeded CAR stream recover by
/// replaying their change logs; the scheduled crashes must fire.
#[test]
fn scheduled_crashes_replay_to_byte_identical_output() {
    let streams = car(120, 0.06, 5).random(90, 5, &[0xC4A5]);
    let [.., scheduled] = check_all(&streams, &[Wire(4)]);
    assert!(scheduled > 0, "no scheduled crash fired");
}

cells! {
    /// Every worker crashed at the stream's cut, besides its schedule.
    explicit_mid_stream_crash_replays_every_worker: [
        hospital().inserts(&[5]),
        hai(220, 9, 0.06, 29).random(170, 8, &[0xA11CE])
    ] => [Wire(2)];
}

mod proptest_schedules {
    use super::*;

    /// 100 seeded schedules on the hospital script, which between them must
    /// drop, duplicate, retransmit and crash.
    #[test]
    fn randomized_schedules_are_byte_identical() {
        let tallies = check_all(&hospital_script(), &[Wire(100)]);
        let faults = ["dropped", "duplicated", "retransmitted", "crashed"];
        for (fault, n) in faults.iter().zip(tallies) {
            assert!(n > 0, "no schedule ever {fault}");
        }
    }
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
    let schedule = FaultSchedule {
        seed: 31,
        delay: (0, 4),
        duplicate: 0.3,
        loss: 0.1,
        ..FaultSchedule::reliable()
    };

    let checkpoint_at = scripts.len() / 2;
    let crash_at = checkpoint_at + 1;
    let mut single = CleaningSession::new(config.clone(), schema.clone(), rules.clone()).unwrap();
    let mut wired = wire_session(config, schema, rules, partitions, 2, schedule).unwrap();
    for (step, changes) in scripts.into_iter().enumerate() {
        single.apply(changes.clone()).unwrap();
        wired.apply(changes).unwrap();
        let backend = wired.backend_mut();
        if step == checkpoint_at {
            let journaled_before = backend.journaled_batches();
            let acks = backend.checkpoint_workers();
            assert_eq!(acks.len(), partitions);
            let covered: u64 = acks.iter().map(|&(batches, _)| batches).sum();
            assert!(covered > 0, "half the stream must have reached the workers");
            assert!(acks.iter().all(|&(_, bytes)| bytes > 0));
            assert_eq!(
                backend.journaled_batches(),
                0,
                "the checkpoint must truncate every covered journal entry \
                 (had {journaled_before})"
            );
        }
        if step == crash_at {
            assert!(
                backend.journaled_batches() > 0,
                "the post-checkpoint tail must be journaled"
            );
            for worker in 0..partitions {
                backend.crash_worker(worker);
            }
        }
    }
    assert_eq!(wired.backend_mut().total_restarts(), partitions);
    assert_outcomes_identical("crash after checkpoint", &wired.finish(), &single.finish());
}
