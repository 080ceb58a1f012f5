//! The wire vocabulary: everything that crosses the simulated network.
//!
//! One [`Envelope`] per datagram, carrying either a coordinator
//! [`Request`] or a worker [`Response`].  The request set mirrors the
//! [`distributed::PartitionBackend`] surface one-for-one (plus the worker's
//! own [`Request::Checkpoint`]) — the coordinator brain stays routing-only;
//! workers own all row/cell state and are never asked to clean.
//!
//! Reliability model: envelopes are sent over an **at-most-once** datagram
//! transport (they can be delayed, reordered, duplicated or dropped — see
//! [`crate::sim`]).  Exactly-once *effects* are layered on top:
//!
//! * the coordinator retransmits a request until a response with its
//!   `req_id` arrives, and ignores responses for retired `req_id`s;
//! * the only state-changing request, [`Request::ApplyBatch`], carries a
//!   per-worker **batch sequence number**: a worker applies sequence `n`
//!   exactly once, re-acknowledging duplicates from its report cache
//!   (rebuilt on restart by log replay, see [`crate::worker`]);
//! * every other request is a pure read of current worker state, safe to
//!   re-execute.

use mlnclean::{BatchReport, Block, InternedSlice};
use std::time::Duration;

/// Node address on the simulated network: [`COORDINATOR`] or a worker
/// (worker `w` lives at address `w + 1`).
pub type NodeId = usize;

/// The coordinator's network address.
pub const COORDINATOR: NodeId = 0;

/// One datagram: addressed, correlated, and carrying a request or response.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Correlates a response with the request that caused it; the
    /// coordinator never reuses an id, so late duplicates are ignorable.
    pub req_id: u64,
    /// The message itself.
    pub body: Payload,
}

mlnw::codec! { struct Envelope { src, dst, req_id, body } }

/// What an [`Envelope`] carries.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Coordinator → worker.
    Request(Request),
    /// Worker → coordinator.
    Response(Response),
}

mlnw::codec! {
    enum Payload {
        0 => Request(request),
        1 => Response(response),
    }
}

/// Coordinator → worker RPCs, mirroring [`distributed::PartitionBackend`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply one routed change-set slice (the only state-changing request).
    /// `batch_seq` numbers this worker's applies from zero; the handler is
    /// idempotent per sequence number.
    ApplyBatch {
        /// This worker's apply ordinal (dense from 0).
        batch_seq: u64,
        /// The slice, interned: partition-local tuple and value ids, and
        /// the values the worker's pool has not been sent yet.
        slice: InternedSlice,
    },
    /// Pristine (pre-Stage-I) copies of the listed blocks (read-only).
    PristineBlocks {
        /// Block indices, in the order the coordinator wants them back.
        blocks: Vec<usize>,
    },
    /// The worker's current rows as local value ids (read-only).
    GatherRows,
    /// The worker's cumulative index-maintenance wall clock (read-only).
    IndexClock,
    /// Take a durable checkpoint of the worker's store (a compacting
    /// [`mlnclean::SessionSnapshot`] encoded through the codec) and truncate
    /// the journaled prefix it covers.  Idempotent: the store state at a
    /// fixed batch cursor is deterministic, so re-checkpointing at the same
    /// cursor re-derives (or re-acknowledges) the same checkpoint — a
    /// retransmit duplicate is harmless.
    ///
    /// Variants are identified by index on the wire, which constrains
    /// nothing here: no envelope outlives the process that wrote it (journals
    /// hold [`InternedSlice`]s, checkpoints a [`mlnclean::SessionSnapshot`]),
    /// so the vocabulary changes without a `CODEC_VERSION` bump.  Index 1
    /// (a pool-tail read, retired when values began crossing once, in the
    /// slices) stays unused so the other variants keep their bytes.
    Checkpoint,
}

mlnw::codec! {
    enum Request {
        0 => ApplyBatch { batch_seq, slice },
        2 => PristineBlocks { blocks },
        3 => GatherRows,
        4 => IndexClock,
        5 => Checkpoint,
    }
}

/// Worker → coordinator replies, one per [`Request`] shape (index 1, like
/// the request's, is retired).
#[derive(Debug, Clone)]
pub enum Response {
    /// Acknowledges [`Request::ApplyBatch`] `batch_seq` with its report
    /// (possibly replayed from the worker's cache for a duplicate).
    Applied {
        /// Echo of the applied sequence number.
        batch_seq: u64,
        /// The store's report for that batch.
        report: BatchReport,
    },
    /// Reply to [`Request::PristineBlocks`].
    PristineBlocks {
        /// The requested blocks, in request order.
        blocks: Vec<Block>,
    },
    /// Reply to [`Request::GatherRows`].
    GatherRows {
        /// Current rows in local order, as local value ids.
        rows: Vec<Vec<dataset::ValueId>>,
    },
    /// Reply to [`Request::IndexClock`].
    IndexClock {
        /// Cumulative index-maintenance time.
        clock: Duration,
    },
    /// Acknowledges [`Request::Checkpoint`].
    Checkpointed {
        /// Batches the checkpoint covers (== the worker's apply cursor at
        /// checkpoint time); recovery replays only journal entries past it.
        batches: u64,
        /// Size of the encoded snapshot frame, for capacity accounting.
        snapshot_bytes: u64,
    },
}

mlnw::codec! {
    enum Response {
        0 => Applied { batch_seq, report },
        2 => PristineBlocks { blocks },
        3 => GatherRows { rows },
        4 => IndexClock { clock },
        5 => Checkpointed { batches, snapshot_bytes },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{AttrId, TupleId, ValueId};
    use mlnclean::IdMutation;
    use mlnw::{from_bytes, to_bytes};

    #[test]
    fn envelopes_round_trip_through_the_codec() {
        let env = Envelope {
            src: COORDINATOR,
            dst: 2,
            req_id: 41,
            body: Payload::Request(Request::ApplyBatch {
                batch_seq: 3,
                slice: InternedSlice {
                    tail: vec!["a".into(), "b".into(), "c".into()],
                    mutations: vec![
                        IdMutation::Insert(vec![ValueId(0), ValueId(1)]),
                        IdMutation::Update(TupleId(0), AttrId(1), ValueId(2)),
                        IdMutation::Delete(TupleId(9)),
                    ],
                },
            }),
        };
        // Envelope has no PartialEq — compare through the deterministic
        // encoding instead.
        let bytes = to_bytes(&env).unwrap();
        let back = from_bytes::<Envelope>(&bytes).unwrap();
        assert_eq!(to_bytes(&back).unwrap(), bytes);
        match back.body {
            Payload::Request(req) => {
                assert!(matches!(req, Request::ApplyBatch { batch_seq: 3, .. }))
            }
            Payload::Response(_) => panic!("decoded a response from a request frame"),
        }

        let reads = vec![
            Request::PristineBlocks { blocks: vec![0, 2] },
            Request::GatherRows,
            Request::IndexClock,
            Request::Checkpoint,
        ];
        for req in reads {
            let bytes = to_bytes(&req).unwrap();
            assert_eq!(from_bytes::<Request>(&bytes).unwrap(), req);
        }

        // The checkpoint acknowledgement decodes to the same fields
        // (Response has no PartialEq, so match it).
        let ack = Response::Checkpointed {
            batches: 7,
            snapshot_bytes: 4096,
        };
        let back = from_bytes::<Response>(&to_bytes(&ack).unwrap()).unwrap();
        assert!(matches!(
            back,
            Response::Checkpointed {
                batches: 7,
                snapshot_bytes: 4096
            }
        ));
    }
}
