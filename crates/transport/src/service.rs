//! The wire-backed cleaning service.
//!
//! Two layers:
//!
//! * [`WireBackend`] — a [`distributed::PartitionBackend`] whose partitions
//!   are [`PartitionWorker`]s on the far side of a [`SimNet`].  Every
//!   backend call becomes one or more request/response RPCs: the
//!   coordinator sends a request, pumps the network (delivering datagrams,
//!   running worker handlers, firing scheduled crashes) and retransmits
//!   until the matching response arrives.  Plugged into
//!   [`DistributedStreamingSession`], this reuses the exact routing-only
//!   coordinator brain of the in-process backend — which is why the wire
//!   service is byte-identical to it under *any* fault schedule.
//! * [`CleaningService`] — the front door: an async-style submission queue
//!   multiplexing any number of client change streams into the single
//!   session, fair round-robin.  `submit` never blocks on cleaning work;
//!   [`CleaningService::step`] performs one queued batch and returns its
//!   ticketed report.
//!
//! ## Why retransmit-until-response (and not a reliable channel)
//!
//! A sliding-window reliable channel would need connection state on both
//! ends — state a crashed worker loses, turning recovery into a handshake
//! problem.  Stateless request retry over idempotent handlers needs nothing
//! from the worker but its (durably logged) batch cursor: after a crash and
//! replay, a retransmitted request is just another duplicate to dedup.  The
//! coordinator never pipelines applies — batch `n+1` is not issued until
//! every worker acknowledged batch `n` — so a worker can never see a
//! sequence number it is not ready for.

use crate::log::ChangeLog;
use crate::message::{Envelope, Payload, Request, Response, COORDINATOR};
use crate::sim::{FaultSchedule, NetCounters, SimNet, WorkerCrash};
use crate::worker::PartitionWorker;
use dataset::{Schema, ValueId};
use distributed::{DistributedStreamingSession, PartitionBackend};
use mlnclean::{BatchReport, Block, ChangeSet, CleanConfig, CleanError, Mutation, Report};
use rules::RuleSet;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Ticks the coordinator waits with an empty network before retransmitting
/// every outstanding request.  Longer than any single outage in a typical
/// schedule is unnecessary — retries repeat until answered.
const RETRY_EVERY: u64 = 16;

/// The streaming coordinator driving wire-attached partitions.
pub type WireSession = DistributedStreamingSession<WireBackend>;

/// Open a [`WireSession`]: `partitions` workers behind a simulated network
/// running `schedule`, and the routing-only coordinator in front.
pub fn wire_session(
    config: CleanConfig,
    schema: Schema,
    rules: RuleSet,
    partitions: usize,
    merge_every: usize,
    schedule: FaultSchedule,
) -> Result<WireSession, CleanError> {
    let backend = WireBackend::new(
        config.clone(),
        schema.clone(),
        rules.clone(),
        partitions,
        schedule,
    )?;
    DistributedStreamingSession::with_backend(config, schema, rules, backend, merge_every)
}

/// A partition pool on the far side of a simulated network (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct WireBackend {
    net: SimNet,
    workers: Vec<PartitionWorker>,
    /// Next request correlation id (never reused).
    next_req_id: u64,
    /// Per-worker next apply sequence number.
    batch_seqs: Vec<u64>,
    /// Crash events not yet fired, sorted by tick.
    crashes: Vec<WorkerCrash>,
    crash_cursor: usize,
}

impl WireBackend {
    /// Open `partitions` workers for `schema` under `rules`, wired through
    /// a network running `schedule`.
    pub fn new(
        config: CleanConfig,
        schema: Schema,
        rules: RuleSet,
        partitions: usize,
        schedule: FaultSchedule,
    ) -> Result<Self, CleanError> {
        if partitions == 0 {
            return Err(CleanError::Partition { workers: 0 });
        }
        let mut workers = Vec::with_capacity(partitions);
        for _ in 0..partitions {
            workers.push(PartitionWorker::new(
                config.clone(),
                schema.clone(),
                rules.clone(),
            )?);
        }
        let mut crashes: Vec<WorkerCrash> = schedule
            .crashes
            .iter()
            .filter(|c| c.worker < partitions)
            .cloned()
            .collect();
        crashes.sort_by_key(|c| (c.at, c.worker));
        Ok(WireBackend {
            net: SimNet::new(schedule),
            workers,
            next_req_id: 0,
            batch_seqs: vec![0; partitions],
            crashes,
            crash_cursor: 0,
        })
    }

    /// Transport tallies (sent/delivered/dropped/duplicated/retransmits).
    pub fn counters(&self) -> NetCounters {
        self.net.counters()
    }

    /// Total crash/recover cycles across all workers.
    pub fn total_restarts(&self) -> usize {
        self.workers.iter().map(|w| w.restarts()).sum()
    }

    /// Crash a worker *now* and recover it from its change log — the chaos
    /// hook for tests that want a crash at an exact protocol point rather
    /// than a scheduled tick.
    pub fn crash_worker(&mut self, worker: usize) {
        self.workers[worker].crash_and_recover();
    }

    /// Broadcast [`Request::Checkpoint`] to every worker and wait for the
    /// acknowledgements: each worker durably snapshots its store and
    /// truncates the covered journal prefix, so later crashes recover by
    /// resume-plus-tail-replay instead of full replay.  Returns, per
    /// worker, the batch cursor the checkpoint covers and the encoded
    /// snapshot size.  Safe to call at any quiescent point between applies
    /// (the RPC layer retransmits through faults like any other request).
    pub fn checkpoint_workers(&mut self) -> Vec<(u64, u64)> {
        let calls = (0..self.workers.len())
            .map(|worker| (worker, Request::Checkpoint))
            .collect();
        self.call_many(calls)
            .into_iter()
            .map(|response| {
                let Response::Checkpointed {
                    batches,
                    snapshot_bytes,
                } = response
                else {
                    unreachable!("Checkpoint answered with a mismatched response");
                };
                (batches, snapshot_bytes)
            })
            .collect()
    }

    /// Journal entries currently held across all workers (shrinks when
    /// checkpoints truncate covered prefixes).
    pub fn journaled_batches(&self) -> usize {
        self.workers.iter().map(|w| w.log().len()).sum()
    }

    /// Fire every scheduled crash whose tick the clock has reached.  Crash
    /// points sit between message deliveries — never inside a handler — so
    /// worker state transitions are atomic with respect to the journal.
    fn fire_due_crashes(&mut self) {
        while let Some(crash) = self.crashes.get(self.crash_cursor) {
            if crash.at > self.net.clock() {
                break;
            }
            self.workers[crash.worker].crash_and_recover();
            self.crash_cursor += 1;
        }
    }

    /// Issue one request per `(worker, request)` pair and pump the network
    /// until every response arrived, retransmitting as needed.  Responses
    /// come back in call order.
    fn call_many(&mut self, calls: Vec<(usize, Request)>) -> Vec<Response> {
        let mut order = Vec::with_capacity(calls.len());
        let mut pending: HashMap<u64, (usize, Request)> = HashMap::new();
        for (worker, request) in calls {
            let req_id = self.next_req_id;
            self.next_req_id += 1;
            self.net.send(&Envelope {
                src: COORDINATOR,
                dst: worker + 1,
                req_id,
                body: Payload::Request(request.clone()),
            });
            order.push(req_id);
            pending.insert(req_id, (worker, request));
        }

        let mut responses: HashMap<u64, Response> = HashMap::new();
        while responses.len() < order.len() {
            self.fire_due_crashes();
            match self.net.advance() {
                Some(envelope) => {
                    // The delivery advanced the clock; crashes scheduled
                    // before this arrival fire before the message is seen.
                    self.fire_due_crashes();
                    self.deliver(envelope, &pending, &mut responses);
                }
                None => {
                    // Every copy of some outstanding request (or its
                    // response) was lost.  Let time pass — outages heal on
                    // the clock — and retransmit everything still owed.
                    self.net.tick(RETRY_EVERY);
                    for (&req_id, (worker, request)) in &pending {
                        if !responses.contains_key(&req_id) {
                            self.net.note_retransmit();
                            self.net.send(&Envelope {
                                src: COORDINATOR,
                                dst: worker + 1,
                                req_id,
                                body: Payload::Request(request.clone()),
                            });
                        }
                    }
                }
            }
        }
        order
            .into_iter()
            .map(|id| {
                responses
                    .remove(&id)
                    .expect("loop exits only when all arrived")
            })
            .collect()
    }

    fn deliver(
        &mut self,
        envelope: Envelope,
        pending: &HashMap<u64, (usize, Request)>,
        responses: &mut HashMap<u64, Response>,
    ) {
        match envelope.body {
            Payload::Request(request) if envelope.dst != COORDINATOR => {
                let worker = envelope.dst - 1;
                let response = self.workers[worker].handle(request);
                self.net.send(&Envelope {
                    src: envelope.dst,
                    dst: COORDINATOR,
                    req_id: envelope.req_id,
                    body: Payload::Response(response),
                });
            }
            Payload::Response(response) if envelope.dst == COORDINATOR => {
                // First response wins; duplicates and responses to retired
                // request ids are dropped on the floor.
                if pending.contains_key(&envelope.req_id) {
                    responses.entry(envelope.req_id).or_insert(response);
                }
            }
            _ => {
                // A request addressed to the coordinator or a response
                // addressed to a worker is a protocol bug, not a fault the
                // schedule can inject.
                unreachable!("misaddressed envelope on the simulated network");
            }
        }
    }

    fn call_one(&mut self, worker: usize, request: Request) -> Response {
        self.call_many(vec![(worker, request)])
            .pop()
            .expect("one call, one response")
    }
}

impl PartitionBackend for WireBackend {
    fn partitions(&self) -> usize {
        self.workers.len()
    }

    fn apply_slices(&mut self, slices: Vec<Vec<Mutation>>) -> Vec<Option<BatchReport>> {
        let mut calls = Vec::new();
        let mut active = Vec::new();
        for (worker, mutations) in slices.into_iter().enumerate() {
            if mutations.is_empty() {
                continue;
            }
            let changes: ChangeSet = mutations.into_iter().collect();
            calls.push((
                worker,
                Request::ApplyBatch {
                    batch_seq: self.batch_seqs[worker],
                    changes,
                },
            ));
            active.push(worker);
        }
        let mut out = vec![None; self.workers.len()];
        for (worker, response) in active.iter().zip(self.call_many(calls)) {
            let Response::Applied { report, .. } = response else {
                unreachable!("ApplyBatch answered with a non-Applied response");
            };
            self.batch_seqs[*worker] += 1;
            out[*worker] = Some(report);
        }
        out
    }

    fn pool_tail(&mut self, p: usize, from: usize) -> Vec<String> {
        let Response::PoolTail { values } = self.call_one(p, Request::PoolTail { from }) else {
            unreachable!("PoolTail answered with a mismatched response");
        };
        values
    }

    fn pristine_blocks(&mut self, blocks: &[usize]) -> Vec<Vec<Block>> {
        let calls = (0..self.workers.len())
            .map(|worker| {
                (
                    worker,
                    Request::PristineBlocks {
                        blocks: blocks.to_vec(),
                    },
                )
            })
            .collect();
        self.call_many(calls)
            .into_iter()
            .map(|response| {
                let Response::PristineBlocks { blocks } = response else {
                    unreachable!("PristineBlocks answered with a mismatched response");
                };
                blocks
            })
            .collect()
    }

    fn gather_rows(&mut self, p: usize) -> Vec<Vec<ValueId>> {
        let Response::GatherRows { rows } = self.call_one(p, Request::GatherRows) else {
            unreachable!("GatherRows answered with a mismatched response");
        };
        rows
    }

    fn index_clock(&mut self) -> Duration {
        let calls = (0..self.workers.len())
            .map(|worker| (worker, Request::IndexClock))
            .collect();
        self.call_many(calls)
            .into_iter()
            .map(|response| {
                let Response::IndexClock { clock } = response else {
                    unreachable!("IndexClock answered with a mismatched response");
                };
                clock
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Front door.
// ---------------------------------------------------------------------------

/// Handle identifying a connected client stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(usize);

/// Receipt for one submitted change set; redeemed by
/// [`CleaningService::step`]'s return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Async-style front door: any number of client change streams multiplexed
/// into one [`WireSession`].
///
/// `submit` only enqueues — the expensive work happens when the caller (or
/// a driver loop) pumps [`CleaningService::step`].  Batches are drawn fair
/// round-robin across clients, and within one client strictly in submission
/// order, so no stream can starve another while each stream keeps its own
/// ordering guarantee.
#[derive(Debug)]
pub struct CleaningService {
    session: WireSession,
    clients: Vec<VecDeque<(Ticket, ChangeSet)>>,
    rr: usize,
    next_ticket: u64,
}

impl CleaningService {
    /// Open a service over `partitions` wire-attached workers.
    pub fn new(
        config: CleanConfig,
        schema: Schema,
        rules: RuleSet,
        partitions: usize,
        merge_every: usize,
        schedule: FaultSchedule,
    ) -> Result<Self, CleanError> {
        Ok(CleaningService {
            session: wire_session(config, schema, rules, partitions, merge_every, schedule)?,
            clients: Vec::new(),
            rr: 0,
            next_ticket: 0,
        })
    }

    /// Register a new client stream.
    pub fn connect(&mut self) -> ClientId {
        self.clients.push(VecDeque::new());
        ClientId(self.clients.len() - 1)
    }

    /// Enqueue a change set on `client`'s stream.  Never blocks on cleaning
    /// work; returns the ticket its report will carry.
    pub fn submit(&mut self, client: ClientId, changes: ChangeSet) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.clients[client.0].push_back((ticket, changes));
        ticket
    }

    /// Change sets submitted but not yet applied.
    pub fn backlog(&self) -> usize {
        self.clients.iter().map(VecDeque::len).sum()
    }

    /// Apply the next queued change set (fair round-robin across clients).
    /// `None` when every queue is empty.  A batch that fails validation
    /// reports its error against its ticket; the session stays usable.
    pub fn step(&mut self) -> Option<(Ticket, Result<BatchReport, CleanError>)> {
        let clients = self.clients.len();
        for offset in 0..clients.max(1) {
            let c = (self.rr + offset) % clients.max(1);
            if let Some((ticket, changes)) = self.clients.get_mut(c).and_then(VecDeque::pop_front) {
                self.rr = (c + 1) % clients;
                return Some((ticket, self.session.apply(changes)));
            }
        }
        None
    }

    /// Pump [`CleaningService::step`] until every queue is empty.
    pub fn drain(&mut self) -> Vec<(Ticket, Result<BatchReport, CleanError>)> {
        let mut out = Vec::with_capacity(self.backlog());
        while let Some(done) = self.step() {
            out.push(done);
        }
        out
    }

    /// The session behind the front door (timings, footprint, backend).
    pub fn session_mut(&mut self) -> &mut WireSession {
        &mut self.session
    }

    /// Snapshot the merged outcome (drains the backlog first — an outcome
    /// must reflect every accepted submission).
    pub fn outcome(&mut self) -> Report {
        self.drain();
        self.session.outcome()
    }

    /// Close the service: drain, merge, and hand back the final report.
    pub fn finish(mut self) -> Report {
        self.drain();
        self.session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlnclean::Mutation;
    use rules::parse_rules;

    fn schema() -> Schema {
        Schema::new(&["City", "Zip"])
    }

    fn insert(rows: &[(&str, &str)]) -> ChangeSet {
        [Mutation::Insert(
            rows.iter()
                .map(|(c, z)| vec![c.to_string(), z.to_string()])
                .collect(),
        )]
        .into_iter()
        .collect()
    }

    #[test]
    fn front_door_is_fair_and_ordered() {
        let mut service = CleaningService::new(
            CleanConfig::default(),
            schema(),
            parse_rules("FD: City -> Zip").unwrap(),
            2,
            2,
            FaultSchedule::reliable(),
        )
        .unwrap();
        let a = service.connect();
        let b = service.connect();
        let t0 = service.submit(a, insert(&[("BOAZ", "35016")]));
        let t1 = service.submit(a, insert(&[("BOAZ", "35014")]));
        let t2 = service.submit(b, insert(&[("ELBA", "36323")]));
        assert_eq!(service.backlog(), 3);

        let done = service.drain();
        assert_eq!(service.backlog(), 0);
        // Round-robin: a, b, a — and a's tickets stay in submission order.
        let order: Vec<Ticket> = done.iter().map(|(t, _)| *t).collect();
        assert_eq!(order, vec![t0, t2, t1]);
        for (_, report) in &done {
            assert!(report.is_ok());
        }
        let outcome = service.finish();
        assert_eq!(outcome.repaired.len(), 3);
    }

    /// Both backends answer every question of [`PartitionBackend`] alike:
    /// the same [`mlnclean::RowStore`]s, one pool of them behind a wire.
    #[test]
    fn local_and_wire_backends_answer_every_slice_alike() {
        use dataset::{AttrId, TupleId};
        use distributed::LocalPartitions;
        let rules = parse_rules("FD: City -> Zip").unwrap();
        let config = CleanConfig::default();
        let mut local = LocalPartitions::new(config.clone(), schema(), rules.clone(), 2).unwrap();
        let mut wire =
            WireBackend::new(config, schema(), rules, 2, FaultSchedule::reliable()).unwrap();
        let none = ChangeSet::new();
        let steps = [
            [
                insert(&[("BOAZ", "35016"), ("BOAZ", "35014")]),
                insert(&[("ELBA", "36323")]),
            ],
            // An update that interns a value, beside an empty slice.
            [
                none.clone().update(TupleId(1), AttrId(1), "35957"),
                none.clone(),
            ],
            // A delete that empties a group, then an insert, in one slice.
            [
                none.clone(),
                none.clone()
                    .delete(TupleId(0))
                    .insert_row(vec!["OPP".into(), "36467".into()]),
            ],
            [none.clone(), none],
        ];
        for (step, slices) in steps.into_iter().enumerate() {
            let slices: Vec<_> = slices.into_iter().map(ChangeSet::into_mutations).collect();
            let applied = local.apply_slices(slices.clone());
            assert_eq!(applied, wire.apply_slices(slices), "step {step}");
            assert_eq!(applied.iter().flatten().count(), [2, 1, 1, 0][step]);
            for p in 0..2 {
                for from in [0, 1] {
                    let tail = local.pool_tail(p, from);
                    assert_eq!(tail, wire.pool_tail(p, from), "step {step}");
                }
                let rows = local.gather_rows(p);
                assert_eq!(rows, wire.gather_rows(p), "step {step}");
            }
            let blocks = local.pristine_blocks(&[0]);
            assert_eq!(blocks, wire.pristine_blocks(&[0]), "step {step}");
        }
        assert_eq!(local.gather_rows(0).len() + local.gather_rows(1).len(), 3);
    }

    #[test]
    fn empty_service_steps_to_none() {
        let mut service = CleaningService::new(
            CleanConfig::default(),
            schema(),
            parse_rules("FD: City -> Zip").unwrap(),
            1,
            1,
            FaultSchedule::reliable(),
        )
        .unwrap();
        assert!(service.step().is_none());
        let _ = service.connect();
        assert!(service.step().is_none());
    }
}
