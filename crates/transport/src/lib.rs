//! Wire-boundary MLNClean service (the "what if the partitions were remote"
//! story for the paper's Section 6 deployment).
//!
//! PR 5 ran distributed streaming as one process calling per-partition
//! [`mlnclean::CleaningSession`]s through function calls.  This crate
//! promotes that partition boundary to a **message boundary** and makes the
//! result testable without a network:
//!
//! * the [`mlnw`] codec (its entry points re-exported at the crate root): a
//!   compact self-describing binary format implementing the serde
//!   `Serializer`/`Deserializer` surface, with an `MLNW` magic + version
//!   header on every frame;
//! * [`message`] — the wire vocabulary: envelopes carrying the
//!   request/response pairs of the
//!   [`distributed::PartitionBackend`] surface ([`mlnclean::ChangeSet`]
//!   batches, pool tails, pristine blocks, rows, clocks) and the worker
//!   checkpoint;
//! * [`sim`] — a deterministic simulated transport: in-process delivery
//!   with a seeded fault schedule injecting delay, reordering, duplication,
//!   loss and link partitions, so CI exercises real failure interleavings
//!   reproducibly;
//! * [`log`] — the per-partition durable change log (write-ahead journal of
//!   applied batches) that makes a worker restartable;
//! * [`worker`] — a partition worker: one [`distributed::Partition`] behind
//!   an idempotent request handler, with crash/recover by replaying its log;
//! * [`service`] — the wire-backed partition pool ([`service::WireBackend`])
//!   that plugs into the *routing-only* streaming coordinator, plus the
//!   [`service::CleaningService`] front door multiplexing concurrent client
//!   change streams.
//!
//! The headline property, pinned by `tests/wire_equivalence.rs`: a clean run
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

pub use log::{ChangeLog, LogEntry, MemLog};
pub use message::{Envelope, NodeId, Payload, Request, Response, COORDINATOR};
pub use mlnw::{from_bytes, to_bytes, CodecError, CODEC_VERSION, MAGIC};
pub use service::{wire_session, CleaningService, ClientId, Ticket, WireBackend, WireSession};
pub use sim::{FaultSchedule, LinkOutage, NetCounters, SimNet, WorkerCrash};
pub use worker::{PartitionWorker, WorkerCheckpoint};
