//! Wire-boundary MLNClean service (the "what if the partitions were remote"
//! story for the paper's Section 6 deployment).
//!
//! The streaming coordinator calls its per-partition
//! [`mlnclean::RowStore`]s through function calls.  This crate promotes
//! that partition boundary to a **message boundary** and makes the
//! result testable without a network:
//!
//! * the [`mlnw`] codec (its entry points re-exported at the crate root): a
//!   compact tagged binary format with an `MLNW` magic + version header on
//!   every frame, written for exactly the types a frame contains through
//!   `mlnw`'s `Encode` / `Decode` traits;
//! * [`message`] — the wire vocabulary: envelopes carrying the
//!   request/response pairs of the
//!   [`distributed::PartitionBackend`] surface ([`mlnclean::InternedSlice`]
//!   batches — ids, plus each value once — pristine blocks, rows, clocks)
//!   and the worker checkpoint;
//! * [`sim`] — a deterministic simulated transport: in-process delivery
//!   with a seeded fault schedule injecting delay, reordering, duplication,
//!   loss and link partitions, so CI exercises real failure interleavings
//!   reproducibly;
//! * [`log`] — the per-partition durable change log (write-ahead journal of
//!   applied slices) that makes a worker restartable;
//! * [`worker`] — a partition worker: one [`mlnclean::RowStore`] behind an
//!   idempotent request handler, with crash/recover by replaying its log;
//! * [`service`] — the wire-backed partition pool ([`service::WireBackend`])
//!   that plugs into the *routing-only* streaming coordinator, plus the
//!   [`service::CleaningService`] front door multiplexing concurrent client
//!   change streams.
//!
//! The headline property, pinned by `tests/kit/engine_matrix.rs`: a clean run
//! through the wire service — under any seeded fault schedule, including
//! worker crashes with log replay — produces **byte-identical** output (CSV
//! and AGP/RSC/FSCR provenance) to a single in-process
//! [`mlnclean::CleaningSession`] over the same change stream.  Exactly-once
//! effects come from retransmit-until-response RPC over at-most-once
//! datagrams plus idempotent handlers keyed by batch sequence number, not
//! from any reliability assumption about the transport.

pub mod log;
pub mod message;
pub mod service;
pub mod sim;
pub mod worker;

pub use log::{LogEntry, MemLog};
pub use message::{Envelope, NodeId, Payload, Request, Response, COORDINATOR};
pub use mlnw::{from_bytes, to_bytes, CodecError, CODEC_VERSION, MAGIC};
pub use service::{wire_session, CleaningService, ClientId, Ticket, WireBackend, WireSession};
pub use sim::{FaultSchedule, LinkOutage, NetCounters, SimNet, WorkerCrash};
pub use worker::{PartitionWorker, WorkerCheckpoint};

#[cfg(test)]
/// One small frame of every `mlnw` family the system writes — wire
/// envelopes (each [`Request`] and [`Response`] variant), change sets,
/// journaled [`InternedSlice`]s, worker checkpoints ([`SessionSnapshot`]), reports and
/// their [`Timings`] — with the bytes each encodes to pinned as a
/// (length, FNV-1a 64) pair.
mod frames {
    use crate::message::{Envelope, Payload, Request, Response, COORDINATOR};
    use dataset::rng::Rng;
    use dataset::{sample_hospital_dataset, AttrId, TupleId, ValueId};
    use mlnclean::{
        BatchReport, ChangeSet, CleanConfig, CleaningSession, IdMutation, InternedSlice, MlnClean,
        MlnIndex, Mutation, PartitionReport, Report, SessionSnapshot, Timings,
    };
    use mlnw::{from_bytes, to_bytes, CodecError};
    use rules::sample_hospital_rules;
    use std::time::Duration;

    /// FNV-1a, 64-bit: a stable fingerprint of a frame's bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A change set holding each of the three mutations.
    fn change_set() -> ChangeSet {
        ChangeSet::new()
            .insert(vec![
                vec!["ELIZA".into(), "BOAZ".into()],
                vec!["γ".into(), String::new()],
            ])
            .update(TupleId(0), AttrId(1), "DOTHAN")
            .delete(TupleId(3))
    }

    /// [`change_set`] interned into a store that holds `ELIZA` as id 0: a
    /// tail, then each of the three mutations over ids.
    fn slice() -> InternedSlice {
        InternedSlice {
            tail: vec!["BOAZ".into(), "γ".into(), String::new(), "DOTHAN".into()],
            mutations: vec![
                IdMutation::Insert([0, 1, 2, 3].map(ValueId).to_vec()),
                IdMutation::Update(TupleId(0), AttrId(1), ValueId(4)),
                IdMutation::Delete(TupleId(3)),
            ],
        }
    }

    /// One of each request variant.
    fn requests() -> Vec<Request> {
        vec![
            Request::ApplyBatch {
                batch_seq: 3,
                slice: slice(),
            },
            Request::PristineBlocks { blocks: vec![0, 2] },
            Request::GatherRows,
            Request::IndexClock,
            Request::Checkpoint,
        ]
    }

    /// One of each response variant.
    fn responses() -> Vec<Response> {
        let index = MlnIndex::build(&sample_hospital_dataset(), &sample_hospital_rules()).unwrap();
        vec![
            Response::Applied {
                batch_seq: 3,
                report: BatchReport {
                    batch: 4,
                    rows: 2,
                    updated_cells: 1,
                    deleted_rows: 1,
                    total_rows: 130,
                    dirty_blocks: 2,
                    total_blocks: 3,
                    touched_groups: 5,
                    total_groups: 41,
                    touched_blocks: vec![0, 2],
                },
            },
            Response::PristineBlocks {
                blocks: index.blocks,
            },
            Response::GatherRows {
                rows: vec![vec![ValueId(0), ValueId(1)], vec![ValueId(300), ValueId(0)]],
            },
            Response::IndexClock {
                clock: Duration::new(3, 141_592_653),
            },
            Response::Checkpointed {
                batches: 7,
                snapshot_bytes: 4096,
            },
        ]
    }

    /// Every request and response, each in its envelope.  Request ids count
    /// from 40 in variant-index order, skipping the retired index 1 of each
    /// enum (ids 41 and 47), so every other envelope keeps its bytes.
    fn envelopes() -> Vec<Envelope> {
        let requests = requests()
            .into_iter()
            .map(|r| (COORDINATOR, 2, Payload::Request(r)));
        let responses = responses()
            .into_iter()
            .map(|r| (2, COORDINATOR, Payload::Response(r)));
        requests
            .chain(responses)
            .zip((40..).filter(|id| ![41, 47].contains(id)))
            .map(|((src, dst, body), req_id)| Envelope {
                src,
                dst,
                req_id,
                body,
            })
            .collect()
    }

    /// Fixed stage clocks (a run's own are wall clocks, not deterministic).
    fn timings() -> Timings {
        Timings {
            index: Duration::new(1, 2),
            agp: Duration::from_micros(1_500),
            weight_learning: Duration::from_nanos(999),
            rsc: Duration::from_millis(12),
            fscr: Duration::new(0, 1),
            dedup: Duration::ZERO,
            partition: Duration::new(u64::from(u32::MAX) + 1, 999_999_999),
            weight_merge: Duration::from_secs(2),
            gather: Duration::from_nanos(128),
            merge_rounds: 3,
        }
    }

    /// The checkpoint image of a session holding the hospital sample.
    fn snapshot() -> SessionSnapshot {
        let dirty = sample_hospital_dataset();
        let mut session = CleaningSession::new(
            CleanConfig::default().with_tau(1),
            dirty.schema().clone(),
            sample_hospital_rules(),
        )
        .unwrap();
        session.ingest_dataset(&dirty).unwrap();
        session.snapshot()
    }

    /// The batch report of the hospital sample, its clocks fixed.
    fn report() -> Report {
        let mut report = MlnClean::new(CleanConfig::default().with_tau(1))
            .clean(&sample_hospital_dataset(), &sample_hospital_rules())
            .unwrap();
        report.timings = timings();
        report
    }

    /// Every family's frames, named for the assertion messages.
    fn frames() -> Vec<(String, Vec<u8>)> {
        let mut frames: Vec<(String, Vec<u8>)> = envelopes()
            .iter()
            .enumerate()
            .map(|(i, env)| (format!("envelope {i}"), to_bytes(env).unwrap()))
            .collect();
        let mut distributed = report();
        distributed.partitions = Some(PartitionReport {
            parts: vec![vec![TupleId(0), TupleId(2)], vec![TupleId(1)]],
            shared_gammas: 2,
        });
        frames.extend([
            ("change set".into(), to_bytes(&change_set()).unwrap()),
            ("interned slice".into(), to_bytes(&slice()).unwrap()),
            ("snapshot".into(), to_bytes(&snapshot()).unwrap()),
            ("report".into(), to_bytes(&report()).unwrap()),
            (
                "report with partitions".into(),
                to_bytes(&distributed).unwrap(),
            ),
            ("timings".into(), to_bytes(&timings()).unwrap()),
        ]);
        frames
    }

    /// The header, then the payload bytes given.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = b"MLNW\x01\x00".to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn ids_and_mutations_frame_as_one_element_sequences() {
        assert_eq!(to_bytes(&ValueId(5)).unwrap(), framed(&[12, 1, 3, 5]));
        assert_eq!(
            to_bytes(&Mutation::Delete(TupleId(3))).unwrap(),
            framed(&[14, 2, 12, 1, 3, 3])
        );
    }

    /// (length, FNV-1a 64) of each of [`frames`], in order.
    const PINS: [(usize, u64); 16] = [
        // Requests: ApplyBatch, PristineBlocks, GatherRows, IndexClock,
        // Checkpoint.
        (90, 10570052256654174657),
        (26, 13954100055502308380),
        (19, 4092253697148944157),
        (19, 8395646557880121981),
        (19, 2120710018484132765),
        // Responses: Applied, PristineBlocks, GatherRows, IndexClock,
        // Checkpointed.
        (49, 16763664681369502581),
        (754, 9625292200216048879),
        (43, 14759618610514087642),
        (29, 12668183166825042536),
        (25, 1826878326917948127),
        // Change set, interned slice, snapshot, report, report with
        // partitions, timings.
        (63, 12072290258129044783),
        (74, 10222340756922710628),
        (220, 6178596361788615760),
        (1932, 2640314179194262539),
        (1954, 7852487764095728717),
        (79, 8638174142506277469),
    ];

    #[test]
    fn every_frame_family_keeps_its_bytes() {
        let frames = frames();
        assert_eq!(frames.len(), PINS.len());
        for ((name, bytes), pin) in frames.iter().zip(PINS) {
            assert_eq!((bytes.len(), fnv1a(bytes)), pin, "{name}");
        }
    }

    /// Decode `frame` as `T` after every truncation and after a seeded
    /// sample of single-bit flips.  A truncated frame is always an error; a
    /// flipped one may decode or fail, but every decode returns — a panic
    /// fails the test, and no length prefix reserves more than the frame.
    fn survives_hostile_variants<T: mlnw::Decode>(name: &str, frame: &[u8], rng: &mut Rng) {
        assert!(from_bytes::<T>(frame).is_ok(), "{name}");
        for cut in 0..frame.len() {
            assert!(
                from_bytes::<T>(&frame[..cut]).is_err(),
                "{name} cut at {cut}"
            );
        }
        for _ in 0..256 {
            let bit = rng.below(frame.len() * 8);
            let mut flipped = frame.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = from_bytes::<T>(&flipped);
        }
    }

    #[test]
    fn hostile_frames_of_every_family_decode_or_fail_typed() {
        let mut rng = Rng::seeded(27);
        for (i, env) in envelopes().iter().enumerate() {
            let frame = to_bytes(env).unwrap();
            survives_hostile_variants::<Envelope>(&format!("envelope {i}"), &frame, &mut rng);
        }
        let frame = to_bytes(&change_set()).unwrap();
        survives_hostile_variants::<ChangeSet>("change set", &frame, &mut rng);
        let frame = to_bytes(&slice()).unwrap();
        survives_hostile_variants::<InternedSlice>("interned slice", &frame, &mut rng);
        let frame = to_bytes(&snapshot()).unwrap();
        survives_hostile_variants::<SessionSnapshot>("snapshot", &frame, &mut rng);
        let frame = to_bytes(&report()).unwrap();
        survives_hostile_variants::<Report>("report", &frame, &mut rng);
        let frame = to_bytes(&timings()).unwrap();
        survives_hostile_variants::<Timings>("timings", &frame, &mut rng);
    }

    /// A sequence prefix claiming 2^40 elements with three bytes behind it
    /// is `Eof` before anything is reserved — in a change set's mutation
    /// list and in a response's row list alike.
    #[test]
    fn a_length_prefix_past_the_input_is_eof() {
        const HUGE: [u8; 6] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
        let changes = framed(&[&[12, 1, 12][..], &HUGE, &[3, 1, 3]].concat());
        assert_eq!(from_bytes::<ChangeSet>(&changes), Err(CodecError::Eof));
        let rows = [
            &[12, 4, 3, 2, 3, 0, 3, 41, 14, 1, 14, 3, 12, 1, 12][..],
            &HUGE,
            &[3, 1, 3],
        ];
        assert!(matches!(
            from_bytes::<Envelope>(&framed(&rows.concat())),
            Err(CodecError::Eof)
        ));
    }
}
